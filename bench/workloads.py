"""The benchmark's workloads: inputs made from a seed, operations, and checks.

Every workload is a cycle of operations that repeats unchanged through a run.
An operation returns what quadft produced; `check` compares it with the
independent computations in reference.py, carried through the transform the
instance was built with, and returns a list of problems (empty when correct).
An operation that raises is a failed operation; it is not checked.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ElementTree

import reference as ref

RECT = ((0.0, 0.0), (7.0, 0.0), (7.0, 4.0), (0.0, 4.0))
# (weights, storage level just above u_FT, u_FT, B4*) from the paper; the
# first rectangle's storage 3.82 is the paper's own, with its level set.
PAPER_RECTANGLES = (
    ((3.0, 2.5, 1.7, 1.5), 3.82, 3.8088826, 1.7728955),
    ((3.1, 2.3, 1.7, 1.4), 3.67, 3.66326, 1.8199325),
)
PAPER_LEVELS = (1.4901507, 2.0556426)
PAPER_SPEND = 0.2
PAPER_TOL = 1e-4
SQUARE_SIDE = 10.0
SQUARE_WEIGHTS = (3.5, 2.5, 2.0, 1.0)
SQUARE_POINT = (4.0700893, 2.146831)
SQUARE_ANGLES = (2.30886, 1.2714, 1.12492, 1.57801)   # a102, a203, a304, a401

BALANCE_TOL = 1e-7      # node balance, relative to the weight total
POINT_TOL = 1e-6        # optimum location, relative to the diameter
COEFF_TOL = 1e-6        # plasticity coefficients (weights relative to the total)
XG_TOL = 1e-6           # absorbing values, relative to the weight total
B4_TOL = 1e-5           # B4* and level-set roots, relative to the weight total


def _diameter(points):
    return max(math.dist(p, q) for p in points for q in points)


def _close(problems, label, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{label}: got {got!r}, expected {want!r} (tolerance {tol:.3g})")


def _check_point(problems, label, got, want, diam):
    _close(problems, label, math.dist(got, want), 0.0, POINT_TOL * diam)


def _check_balance(problems, label, node, anchors, weights):
    _close(problems, f"{label} balance", ref.balance_residual(node, anchors, weights),
           0.0, BALANCE_TOL * sum(weights))


def _check_gauss(problems, label, pts, weights, xg, node0, node0p, l):
    """Both Gauss nodes balance, sit inside the quadrilateral, l > 0."""
    b1, b2, b3, b4 = weights
    total = sum(weights) + xg
    for tag, node, anchors, w in (
        ("A0", node0, (pts[0], pts[3], node0p), (b1, b4, xg)),
        ("A0'", node0p, (pts[1], pts[2], node0), (b2, b3, xg)),
    ):
        res = ref.balance_residual(node, anchors, w)
        _close(problems, f"{label} {tag} balance", res, 0.0, BALANCE_TOL * total)
        if not ref.inside_convex(node, pts, 1e-9):
            problems.append(f"{label} {tag} = {node} lies outside the quadrilateral")
    if not l > 0.0:
        problems.append(f"{label}: interior edge l = {l!r} is not positive")


def _check_line(problems, label, coefficients, interval, want: ref.Line, s_w):
    c = want.c * s_w
    for i, ((x, y), (wx, wy)) in enumerate(zip(coefficients, want.coefficients), 1):
        _close(problems, f"{label} x{i}", x, wx, COEFF_TOL)
        _close(problems, f"{label} y{i}", y, wy * s_w, COEFF_TOL * c)
    for end, got, wnt in zip(("lo", "hi"), interval, want.interval):
        _close(problems, f"{label} B4 interval {end}", got, wnt * s_w, COEFF_TOL * c)


# ---------------------------------------------------------------------- #
# absorbing: the paper's pipeline on the two rectangles, transformed
# ---------------------------------------------------------------------- #

class AbsorbingOp:
    """locate_4wft -> plasticity_line -> universal_minimum(grid=65) ->
    weights_for_storage(result) -> evolve at every returned B4."""

    def __init__(self, qf, name, base, refs, transform, s_c, s_w):
        weights, storage, u_paper, b4_paper = PAPER_RECTANGLES[base]
        self.qf, self.name, self.refs = qf, name, refs
        self.coords = tuple(transform(p) for p in RECT)
        self.weights = tuple(w * s_w for w in weights)
        self.storage, self.spend = storage * s_w, PAPER_SPEND * s_w
        self.s_w, self.transform = s_w, transform
        self.diam = _diameter(RECT) * s_c
        self.paper = (u_paper, b4_paper)
        self.levels = PAPER_LEVELS if base == 0 else None

    def run(self):
        qf = self.qf
        q = qf.Quadrilateral.from_coords(self.coords)
        wq = qf.WeightedQuadrilateral(q, self.weights)
        tree = qf.locate_4wft(wq)
        line = qf.plasticity_line(wq, tree)
        result = qf.universal_minimum(q, line, grid=65)
        b4s = qf.weights_for_storage(q, line, self.storage, result=result)
        trees = [qf.evolve(q, line, self.storage, self.spend, b4) for b4 in b4s]
        return tree, line, result, b4s, trees

    def check(self, out):
        tree, line, result, b4s, trees = out
        p_ref, want = self.refs
        s_w, c = self.s_w, sum(self.weights)
        problems = []
        point = (tree.point.x, tree.point.y)
        _check_point(problems, "optimum", point, self.transform(p_ref), self.diam)
        _check_balance(problems, "optimum", point, self.coords, self.weights)
        _check_line(problems, "plasticity", line.coefficients, line.b4_interval, want, s_w)
        for s in result.samples:
            _close(problems, f"absorbing x_G at B4 = {s.b4!r}", s.xg_absorbing,
                   s_w * want.absorbing_value(s.b4 / s_w), XG_TOL * c)
        u_ref, b4_ref = want.universal_minimum()
        _close(problems, "u_FT", result.u_ft, u_ref * s_w, XG_TOL * c)
        _close(problems, "B4*", result.b4_star, b4_ref * s_w, B4_TOL * c)
        _close(problems, "rate", result.rate, result.u_ft / c, 1e-12 * result.rate)
        _close(problems, "paper u_FT", result.u_ft / s_w, self.paper[0], PAPER_TOL)
        _close(problems, "paper B4*", result.b4_star / s_w, self.paper[1], PAPER_TOL)
        levels = want.level_set(self.storage / s_w)
        if len(b4s) != len(levels):
            problems.append(f"level set {b4s!r}, expected {len(levels)} roots {levels!r}")
        for got, lvl in zip(b4s, levels):
            _close(problems, "level-set B4", got, lvl * s_w, B4_TOL * c)
        if self.levels and len(b4s) == len(self.levels):
            for got, lvl in zip(b4s, self.levels):
                _close(problems, "paper level-set B4", got / s_w, lvl, PAPER_TOL)
        for b4, g in zip(b4s, trees):
            weights = tuple(s_w * w for w in want.weights_at(b4 / s_w))
            _check_gauss(problems, f"evolved tree at B4 = {b4!r}", self.coords, weights,
                         self.storage - self.spend, (g.node0.x, g.node0.y),
                         (g.node0p.x, g.node0p.y), g.l)
        return problems


PER_RANGE = 2   # rotations, coordinate scales and weight scales per rectangle


def _strata(rng, lo, hi, k):
    """k values spread over [lo, hi) in log10: one uniform draw per stratum,
    so every cycle covers the whole range and the seed moves values within
    strata only."""
    return [10.0 ** (lo + (hi - lo) * (i + rng.random()) / k) for i in range(k)]


class Absorbing:
    """The paper's two weighted 7x4 rectangles, each as given, rotated and
    translated, with coordinates scaled by 1e-2..1e3 and with weights scaled
    by 1e-3..1e3 (angles, shifts and factors drawn from the seed), plus two
    fixed instances that fail today."""

    setup_import = "quadft"

    def __init__(self, qf, seed, rundir):
        rng = random.Random(f"absorbing:{seed}")
        ops = []
        for base, (weights, *_) in enumerate(PAPER_RECTANGLES):
            p = ref.geometric_median(RECT, weights)
            refs = (p, ref.Line(RECT, p, sum(weights)))
            tag = f"rect{base + 1}"

            def op(name, transform, s_c=1.0, s_w=1.0):
                return AbsorbingOp(qf, name, base, refs, transform, s_c, s_w)

            ops.append(op(tag, ref.similarity()))
            for i in range(PER_RANGE):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                shift = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
                ops.append(op(f"{tag}-moved{i}", ref.similarity(1.0, theta, shift)))
            for s_c in _strata(rng, -2.0, 3.0, PER_RANGE):
                ops.append(op(f"{tag}-coords-x{s_c:.3g}", ref.similarity(s_c), s_c=s_c))
            for s_w in _strata(rng, -3.0, 3.0, PER_RANGE):
                ops.append(op(f"{tag}-weights-x{s_w:.3g}", ref.similarity(), s_w=s_w))
            if base == 0:
                # Fixed inputs that fail on every run: AGREEMENT_TOL is
                # absolute, and the median iteration stalls far from the origin.
                failing = [op("rect1-weights-x1e4", ref.similarity(), s_w=1e4),
                           op("rect1-rotated-0.3-shifted-1e7",
                              ref.similarity(1.0, 0.3, (1e7, 1e7)))]
        self.cycle = ops + failing
        self.warmup = ops[:1]


# ---------------------------------------------------------------------- #
# trees: degree-four and degree-three point solves in fixed-mix batches
# ---------------------------------------------------------------------- #

# Floating instances per batch by margin (see `margin`): the cost of a
# degree-four solve grows steeply as the optimum nears a vertex, so every
# batch holds the same number from each band, near the natural proportions,
# and within a band the cycle takes evenly spaced quantiles of an oversampled
# draw, so that seeds differ in their instances but not in their mix.
MARGIN_BANDS = ((0.01, 0.03, 1), (0.03, 0.05, 1), (0.05, 0.1, 2), (0.1, 0.15, 3), (0.15, 1.0, 3))
OVERSAMPLE = 4
ABSORBED_PER_BATCH = 3
BATCHES_PER_CYCLE = 24
GAUSS_BELOW = 1e-3          # Gauss solve at (1 - GAUSS_BELOW) x absorbing value
VERIFY_SAMPLES = 16


def random_convex_quad(rng):
    """Strictly convex counterclockwise quadrilateral, by polar sampling."""
    while True:
        ang = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        gaps = [b - a for a, b in zip(ang, ang[1:] + [ang[0] + 2.0 * math.pi])]
        if min(gaps) < 0.35:
            continue
        pts = [(r * math.cos(a) + rng.uniform(-0.2, 0.2),
                r * math.sin(a) + rng.uniform(-0.2, 0.2))
               for a, r in zip(ang, [rng.uniform(1.0, 4.0) for _ in range(4)])]
        turns = [ref._cross((pts[(i + 1) % 4][0] - pts[i][0], pts[(i + 1) % 4][1] - pts[i][1]),
                            (pts[(i + 2) % 4][0] - pts[(i + 1) % 4][0],
                             pts[(i + 2) % 4][1] - pts[(i + 1) % 4][1]))
                 for i in range(4)]
        if min(turns) > 0.05:
            return tuple(pts)


def margin(pts, weights) -> float:
    """How clearly the optimum floats: the smallest excess of the other
    weights' pull over a vertex's own weight, as a share of the total
    (negative when a vertex absorbs)."""
    return -max(ref.kuhn_slack(pts, weights, i) for i in range(4)) / sum(weights)


class Instance:
    """One seeded instance with its reference answers."""

    def __init__(self, pts, weights):
        self.pts, self.weights = pts, weights
        self.diam = _diameter(pts)
        self.vertex = ref.absorbed_vertex(pts, weights)
        self.point = ref.geometric_median(pts, weights)
        self.line = self.xg = None
        if self.vertex is None and len(set(weights)) > 1:
            self.line = ref.Line(pts, self.point, sum(weights))
            self.xg = (1.0 - GAUSS_BELOW) * self.line.absorbing_value(weights[3])


class TreesOp:
    """A batch: floating instances (locate_4wft, plasticity_line,
    verify_plasticity, solve_gauss_tree just below the absorbing value),
    absorbed instances, an equal-weight (diagonal) instance and the paper's
    square."""

    def __init__(self, qf, name, floating, absorbed, diagonal):
        self.qf, self.name = qf, name
        self.floating, self.absorbed, self.diagonal = floating, absorbed, diagonal

    def run(self):
        qf = self.qf
        out = {"floating": [], "other": []}
        for inst in self.floating:
            q = qf.Quadrilateral.from_coords(inst.pts)
            wq = qf.WeightedQuadrilateral(q, inst.weights)
            tree = qf.locate_4wft(wq)
            line = qf.plasticity_line(wq, tree)
            report = qf.verify_plasticity(q, line, VERIFY_SAMPLES)
            gauss = qf.solve_gauss_tree(q, qf.GaussWeights(*inst.weights, inst.xg))
            out["floating"].append((inst, tree, line, report, gauss))
        for inst in self.absorbed + [self.diagonal]:
            q = qf.Quadrilateral.from_coords(inst.pts)
            out["other"].append((inst, qf.locate_4wft(qf.WeightedQuadrilateral(q, inst.weights))))
        out["square"] = qf.solve_4wft_square(SQUARE_SIDE, SQUARE_WEIGHTS)
        return out

    def check(self, out):
        kinds = self.qf.CaseKind
        problems = []
        for inst, tree, line, report, gauss in out["floating"]:
            point = (tree.point.x, tree.point.y)
            if tree.case.kind is not kinds.FLOATING:
                problems.append(f"case {tree.case.kind} for a floating instance")
            _check_point(problems, "floating optimum", point, inst.point, inst.diam)
            _check_balance(problems, "floating optimum", point, inst.pts, inst.weights)
            _check_line(problems, "plasticity", line.coefficients, line.b4_interval,
                        inst.line, 1.0)
            if not report.passed or len(report.evaluated) < VERIFY_SAMPLES - 2:
                problems.append(f"plasticity point moved: passed={report.passed}, "
                                f"max deviation {report.max_deviation!r}, "
                                f"{len(report.evaluated)} samples evaluated")
            _check_gauss(problems, "Gauss tree", inst.pts, inst.weights, inst.xg,
                         (gauss.node0.x, gauss.node0.y), (gauss.node0p.x, gauss.node0p.y),
                         gauss.l)
        for inst, tree in out["other"]:
            point = (tree.point.x, tree.point.y)
            if inst.vertex is not None:
                if tree.case.kind is not kinds.ABSORBED or tree.case.vertex != inst.vertex + 1:
                    problems.append(f"case {tree.case}, expected absorbed at A{inst.vertex + 1}")
                if point != inst.pts[inst.vertex]:
                    problems.append(f"absorbed optimum {point} is not A{inst.vertex + 1}")
                if not ref.kuhn_slack(inst.pts, inst.weights, inst.vertex) >= 0.0:
                    problems.append("Kuhn's absorption inequality fails at the returned vertex")
            else:
                if tree.case.kind is not kinds.DIAGONAL:
                    problems.append(f"case {tree.case.kind} for equal weights")
                _check_point(problems, "diagonal optimum", point,
                             ref.diagonal_intersection(inst.pts), inst.diam)
                _check_balance(problems, "diagonal optimum", point, inst.pts, inst.weights)
        sq = out["square"]
        _close(problems, "square x", sq.point.x, SQUARE_POINT[0], PAPER_TOL)
        _close(problems, "square y", sq.point.y, SQUARE_POINT[1], PAPER_TOL)
        for got, want in zip(sq.angles, SQUARE_ANGLES):
            _close(problems, "square angle", got, want, PAPER_TOL)
        square = ((0.0, 0.0), (SQUARE_SIDE, 0.0), (SQUARE_SIDE, SQUARE_SIDE), (0.0, SQUARE_SIDE))
        _check_balance(problems, "square optimum", (sq.point.x, sq.point.y), square,
                       SQUARE_WEIGHTS)
        return problems


class Trees:
    """Seeded random convex quadrilaterals with weights from U(0.6, 3.0)."""

    setup_import = "quadft"

    def __init__(self, qf, seed, rundir):
        rng = random.Random(f"trees:{seed}")
        # Floating optima closer to a vertex than the lowest band are left
        # out: the degree-three topology need not exist there.
        wanted = [n * BATCHES_PER_CYCLE * OVERSAMPLE for _, _, n in MARGIN_BANDS]
        pools = [[] for _ in MARGIN_BANDS]
        absorbed = []
        while any(len(p) < n for p, n in zip(pools, wanted)) or \
                len(absorbed) < ABSORBED_PER_BATCH * BATCHES_PER_CYCLE:
            pts = random_convex_quad(rng)
            weights = tuple(rng.uniform(0.6, 3.0) for _ in range(4))
            m = margin(pts, weights)
            if m <= 0.0:
                absorbed.append((pts, weights))
            for pool, n, (lo, hi, _) in zip(pools, wanted, MARGIN_BANDS):
                if lo <= m < hi and len(pool) < n:
                    pool.append((m, pts, weights))
        picked = []
        for pool, (_, _, n) in zip(pools, MARGIN_BANDS):
            pool.sort()
            chosen = pool[OVERSAMPLE // 2::OVERSAMPLE]
            rng.shuffle(chosen)
            picked.append([Instance(pts, weights) for _, pts, weights in chosen])
        self.cycle = []
        for b in range(BATCHES_PER_CYCLE):
            floating = [inst for band, (_, _, n) in zip(picked, MARGIN_BANDS)
                        for inst in band[b * n:(b + 1) * n]]
            others = [Instance(*a) for a in absorbed[b * ABSORBED_PER_BATCH:
                                                   (b + 1) * ABSORBED_PER_BATCH]]
            diagonal = Instance(random_convex_quad(rng), (1.7,) * 4)
            self.cycle.append(TreesOp(qf, f"batch{b}", floating, others, diagonal))
        self.warmup = self.cycle[:1]


# ---------------------------------------------------------------------- #
# cli: one quadft process per operation
# ---------------------------------------------------------------------- #

TRIANGLE = ((0.0, 0.0), (6.0, 0.0), (2.0, 5.0))
TRIANGLE_WEIGHTS = (2.0, 1.5, 1.8)
CLI_XG = 3.62
CLI_STORAGE = 3.82
CLI_ARGS = {
    "wft-triangle": ("tri",),
    "wft-quad": ("rect",),
    "gauss": ("rect", "--xg", str(CLI_XG)),
    "plasticity": ("rect",),
    "universal": ("rect", "--grid", "65"),
    "evolve": ("rect", "--storage", str(CLI_STORAGE), "--spend", str(PAPER_SPEND)),
    "plot": ("rect", "--levels", "0.5,1,2", "--svg", "plot.svg"),
}
CHILD_TIMEOUT_S = 60.0


class CliOp:
    def __init__(self, workload, sub):
        self.w, self.name = workload, sub
        doc, *extra = CLI_ARGS[sub]
        self.argv = [sub, "--input", f"{doc}.json", "--records", f"{sub}.ndjson", *extra]

    def _files(self):
        paths = [f"{self.name}.ndjson"] + (["plot.svg"] if self.name == "plot" else [])
        blobs = []
        for path in paths:
            full = os.path.join(self.w.rundir, path)
            with open(full, "rb") as fh:
                blobs.append(fh.read())
            os.remove(full)
        return blobs

    def run(self):
        """One child process; the parent waits for it to end."""
        with open(os.path.join(self.w.rundir, "child.out"), "wb") as out, \
                open(os.path.join(self.w.rundir, "child.err"), "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "quadft.cli", *self.argv],
                                    cwd=self.w.rundir, env=self.w.env, stdout=out, stderr=err)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if code != 0:
            with open(os.path.join(self.w.rundir, "child.err"), encoding="utf-8") as fh:
                raise RuntimeError(f"quadft {self.name} exited {code}: {fh.read().strip()}")
        return self._files()

    def check(self, blobs):
        return self.w.check(self, blobs)

    def run_in_process(self, tracer):
        """The same command through quadft.cli.main in this process."""
        cwd = os.getcwd()
        os.chdir(self.w.rundir)
        try:
            with open("child.out", "w", encoding="utf-8") as out:
                saved, sys.stdout = sys.stdout, out
                try:
                    code = tracer.span(f"cli.{self.name}", self.w.cli.main, self.argv)
                finally:
                    sys.stdout = saved
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"quadft {self.name} returned {code}")
        return self._files()


class Cli:
    """All seven subcommands on the paper's first rectangle and a fixed
    triangle; the seed only sets the order of the subcommands in the cycle."""

    setup_import = "quadft.cli"
    min_cycles = 2          # a rerun within the run must give identical bytes

    def __init__(self, qf, seed, rundir, env):
        self.rundir, self.env = rundir, env
        self.cli = importlib.import_module("quadft.cli")
        weights = PAPER_RECTANGLES[0][0]
        for name, pts, w in (("rect", RECT, weights), ("tri", TRIANGLE, TRIANGLE_WEIGHTS)):
            with open(os.path.join(rundir, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump({"vertices": [list(p) for p in pts], "weights": list(w)}, fh)
        self.p_rect = ref.geometric_median(RECT, weights)
        self.line = ref.Line(RECT, self.p_rect, sum(weights))
        self.weights = weights
        self.p_tri = ref.geometric_median(TRIANGLE, TRIANGLE_WEIGHTS)
        order = list(CLI_ARGS)
        random.Random(f"cli:{seed}").shuffle(order)
        self.cycle = [CliOp(self, sub) for sub in order]
        self.warmup = [CliOp(self, "wft-quad")]
        self.first = {}

    def check(self, op, blobs):
        problems = []
        if op.name in self.first:
            if blobs != self.first[op.name]:
                problems.append(f"{op.name}: records or SVG differ from the first run")
        else:
            self.first[op.name] = blobs
        record = json.loads(blobs[0].decode("utf-8"))
        out = record["outputs"]
        diam = _diameter(RECT)
        if op.name == "wft-triangle":
            _check_point(problems, "triangle optimum", tuple(out["point"]), self.p_tri,
                         _diameter(TRIANGLE))
            _check_balance(problems, "triangle optimum", tuple(out["point"]), TRIANGLE,
                           TRIANGLE_WEIGHTS)
        elif op.name in ("wft-quad", "plot"):
            _check_point(problems, "optimum", tuple(out["point"]), self.p_rect, diam)
            _check_balance(problems, "optimum", tuple(out["point"]), RECT, self.weights)
            if op.name == "plot":
                for got, d in zip(out["levels"], (0.5, 1.0, 2.0)):
                    _close(problems, "level", got, out["objective"] + d, 1e-12 * got)
                root = ElementTree.fromstring(blobs[1])
                if not root.tag.endswith("svg") or len(root) == 0:
                    problems.append("plot: SVG has no content")
        elif op.name == "gauss":
            _check_gauss(problems, "gauss", RECT, self.weights, CLI_XG, tuple(out["node0"]),
                         tuple(out["node0p"]), out["l"])
        elif op.name == "plasticity":
            _check_line(problems, "plasticity", out["coefficients"], out["b4_interval"],
                        self.line, 1.0)
        elif op.name == "universal":
            c = sum(self.weights)
            u_ref, b4_ref = self.line.universal_minimum()
            _close(problems, "u_FT", out["u_ft"], u_ref, XG_TOL * c)
            _close(problems, "B4*", out["b4_star"], b4_ref, B4_TOL * c)
            _close(problems, "paper u_FT", out["u_ft"], PAPER_RECTANGLES[0][2], PAPER_TOL)
            _close(problems, "paper B4*", out["b4_star"], PAPER_RECTANGLES[0][3], PAPER_TOL)
            if len(out["samples"]) != 65:
                problems.append(f"universal: {len(out['samples'])} samples, expected 65")
            for s in out["samples"]:
                _close(problems, "absorbing x_G", s["xg_absorbing"],
                       self.line.absorbing_value(s["b4"]), XG_TOL * c)
        elif op.name == "evolve":
            c = sum(self.weights)
            first = self.line.level_set(CLI_STORAGE)[0]
            _close(problems, "evolve B4", out["b4"], first, B4_TOL * c)
            _close(problems, "paper level-set B4", out["b4"], PAPER_LEVELS[0], PAPER_TOL)
            weights = self.line.weights_at(out["b4"])
            _check_gauss(problems, "evolved tree", RECT, weights, CLI_STORAGE - PAPER_SPEND,
                         tuple(out["node0"]), tuple(out["node0p"]), out["l"])
        return problems


WORKLOADS = {"absorbing": Absorbing, "trees": Trees, "cli": Cli}
