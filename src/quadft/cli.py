"""Command-line front end.

Subcommands: wft-triangle, wft-quad, gauss, plasticity, universal, evolve,
plot.  Problem documents are UTF-8 JSON (see documents.py); human-readable
results go to stdout with >= 7 significant digits, machine records to
--records as newline-delimited JSON, and drawings to --svg.  Exit codes:
0 success, 2 input error, 3 solver non-convergence.

A process enters at `run`, which flushes stdout and stderr after `main` and
ends without interpreter teardown; `main(argv)` itself returns the status.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .documents import (
    OPTION_CHECKS,
    ProblemDocument,
    RunRecord,
    SolverOptions,
    parse_problem_document,
    positive_number,
    record_to_json,
    run_timestamp,
)
from .errors import (
    AbsorbedWeightsError,
    ConvergenceError,
    DegenerateTreeError,
    DocumentError,
    InfeasibleWeightsError,
    OverspendError,
    QuadFTError,
    _BelowMinimumError,
)
from .geometry import Point, Quadrilateral

# Each handler imports the solvers it runs, and main imports svgplot only to
# write an SVG, so a process loads no module its subcommand leaves unused.
# Annotations are strings (PEP 563), so FermatTree, WeightedQuadrilateral,
# GaussTree and GaussWeights name the solver classes without importing them.

_HINTS = {  # the first matching type gives the hint
    _BelowMinimumError: "raise the storage to at least u_FT, the universal minimum",
    InfeasibleWeightsError: "adjust the weights (or x_G / B4) to satisfy the feasibility inequalities",
    DegenerateTreeError: "x_G is at or past its absorbing value for these weights; lower x_G",
    AbsorbedWeightsError: "a weight dominates; the optimum sits at that vertex",
    OverspendError: "reduce the spending rate so x_G stays inside its feasible interval",
}


def _fmt(v: float) -> str:
    if v != v:  # NaN (undefined angle at an absorbing vertex)
        return "undefined"
    if v == 0.0 or 1e-4 <= abs(v) < 1e8:
        return f"{v:.7f}"
    return f"{v:.7e}"


def _print(line: str = "") -> None:
    sys.stdout.write(line + "\n")


# ------------------------------------------------------------------ #
# Argument parsing
# ------------------------------------------------------------------ #

def _comma_separated(raw: str) -> list[float]:
    return [float(p) for p in raw.split(",") if p.strip()]


# Every flag once; a subcommand takes the ones its _COMMANDS entry names, plus
# _COMMON_FLAGS.  A flag named after a document option passes that option's
# check from OPTION_CHECKS.
_FLAGS = {
    "--input": dict(required=True, help="problem document path, or - for standard input"),
    "--records": dict(metavar="PATH", help="write the run record as newline-delimited JSON"),
    "--svg": dict(metavar="PATH", help="write an SVG rendering"),
    "--grid": dict(type=int, help="sample count: B4 grid points in universal, "
                                  "level-curve rays in plot"),
    "--xg": dict(type=float, help="Gauss variable override"),
    "--b4": dict(type=float, help="B4 value on the plasticity line"),
    "--storage": dict(type=float, help="stored quantity at the optimum"),
    "--spend": dict(type=float, help="spending rate a_G"),
    "--normalize-weights": dict(action="store_true", default=None,
                                help="divide the weights, x_G, B4, storage and spend by the "
                                     "weight sum before solving"),
    "--levels": dict(type=_comma_separated, metavar="D1,D2,...",
                     help="level-curve offsets above the optimal objective"),
}
_COMMON_FLAGS = ("--input", "--records", "--normalize-weights")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadft",
        description="Weighted Fermat-Torricelli and Gauss tree solvers for convex quadrilaterals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=desc)
        for flag, spec in _FLAGS.items():
            if flag in _COMMON_FLAGS or flag in flags:
                cmd.add_argument(flag, **spec)
    return parser


def _read_document(args) -> ProblemDocument:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {args.input}: {exc.strerror}") from exc
    return parse_problem_document(text)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror}") from exc


def _apply_flags(doc: ProblemDocument, args) -> ProblemDocument:
    """The document with every given flag checked and put in its place:
    flags win over the document's options and its x_G."""
    flags = {}
    for key, check in OPTION_CHECKS.items():
        value = getattr(args, key, None)
        if value is not None:
            flags[key] = check(value, "--" + key.replace("_", "-"))
    xg = getattr(args, "xg", None)
    xg = doc.xg if xg is None else positive_number(xg, "--xg")
    return doc._replace(xg=xg, options=doc.options._replace(**flags))


def _given(opts: SolverOptions, *keys: str) -> dict:
    """The options among `keys` that are set; the solvers default the rest."""
    return {k: getattr(opts, k) for k in keys if getattr(opts, k) is not None}


def _solved(doc: ProblemDocument) -> ProblemDocument:
    """The document the solvers see.  Under --normalize-weights the weights
    are divided by their sum, and so are the quantities in the weights' units:
    x_G and the storage, spend and B4 options."""
    opts = doc.options
    if not opts.normalize_weights:
        return doc
    s = sum(doc.weights)
    scaled = {k: getattr(opts, k) / s for k in ("storage", "spend", "b4")
              if getattr(opts, k) is not None}
    return doc._replace(weights=tuple(w / s for w in doc.weights),
                        xg=None if doc.xg is None else doc.xg / s,
                        options=opts._replace(**scaled))


def _quad_instance(doc: ProblemDocument) -> WeightedQuadrilateral:
    from .fermat import WeightedQuadrilateral

    if len(doc.vertices) != 4:
        raise DocumentError("this command needs 4 vertices", path="$.vertices")
    return WeightedQuadrilateral(Quadrilateral.from_coords(doc.vertices), doc.weights)


def _inputs_echo(doc: ProblemDocument) -> dict:
    return {
        "vertices": [list(v) for v in doc.vertices],
        "weights": list(doc.weights),
        "xg": doc.xg,
        "options": {k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in doc.options._asdict().items() if v is not None and v is not False},
    }


# ------------------------------------------------------------------ #
# Output helpers
# ------------------------------------------------------------------ #

_ANGLE_NAMES = ("a102", "a203", "a304", "a401")


def _print_fermat(tree: FermatTree) -> None:
    from .fermat import CaseKind

    if tree.case.kind is CaseKind.ABSORBED:
        label = f"absorbed at vertex A{tree.case.vertex}"
        if tree.case.boundary:
            label += " (boundary)"
    else:
        label = tree.case.kind.value
    _print(f"case: {label}")
    _print(f"A0: ({_fmt(tree.point.x)}, {_fmt(tree.point.y)})")
    for name, val in zip(_ANGLE_NAMES, tree.angles):
        _print(f"{name}: {_fmt(val)} rad = {_fmt(math.degrees(val))} deg")
    _print(f"objective: {_fmt(tree.objective)}")
    _print(f"equilibrium residual: {_fmt(tree.equilibrium_residual)}")


def _fermat_outputs(tree: FermatTree) -> dict:
    return {
        "case": tree.case.kind.value,
        "vertex": tree.case.vertex,
        "boundary": tree.case.boundary,
        "point": [tree.point.x, tree.point.y],
        "angles_rad": list(tree.angles),
        "angles_deg": [math.degrees(a) for a in tree.angles],
        "objective": tree.objective,
    }


def _print_gauss(tree: GaussTree, w: GaussWeights) -> None:
    from .gauss import residual_absorbing_rate

    _print(f"A0:  ({_fmt(tree.node0.x)}, {_fmt(tree.node0.y)})")
    _print(f"A0': ({_fmt(tree.node0p.x)}, {_fmt(tree.node0p.y)})")
    for name, val in (("a1", tree.a1), ("a2", tree.a2), ("a3", tree.a3),
                      ("a4", tree.a4), ("l", tree.l)):
        _print(f"{name}: {_fmt(val)}")
    _print(f"phi: {_fmt(tree.phi)} rad = {_fmt(math.degrees(tree.phi))} deg")
    _print(f"objective: {_fmt(tree.objective)}")
    _print(f"residual absorbing rate: {_fmt(residual_absorbing_rate(w))}")


def _gauss_outputs(tree: GaussTree, w: GaussWeights) -> dict:
    from .gauss import residual_absorbing_rate

    return {
        "node0": [tree.node0.x, tree.node0.y],
        "node0p": [tree.node0p.x, tree.node0p.y],
        "a1": tree.a1,
        "a2": tree.a2,
        "a3": tree.a3,
        "a4": tree.a4,
        "l": tree.l,
        "phi_rad": tree.phi,
        "phi_deg": math.degrees(tree.phi),
        "objective": tree.objective,
        "weights": list(w.vertex_weights()),
        "xg": w.xg,
        "residual_absorbing_rate": residual_absorbing_rate(w),
    }


# A handler hands back the fields of its svgplot.Scene; main builds the scene
# only when it writes an SVG.

def _fermat_scene(wq: WeightedQuadrilateral, tree: FermatTree) -> dict:
    p = tree.point.as_tuple()
    verts = [v.as_tuple() for v in wq.quad.vertices]
    return dict(
        quad=tuple(verts),
        tree_edges=tuple((p, v) for v in verts),
        nodes=((p[0], p[1], "A0"),),
    )


def _gauss_scene(quad: Quadrilateral, tree: GaussTree) -> dict:
    verts = [v.as_tuple() for v in quad.vertices]
    n0 = tree.node0.as_tuple()
    n0p = tree.node0p.as_tuple()
    return dict(
        quad=tuple(verts),
        tree_edges=((n0, verts[0]), (n0, verts[3]), (n0p, verts[1]), (n0p, verts[2]),
                    (n0, n0p)),
        nodes=((n0[0], n0[1], "A0"), (n0p[0], n0p[1], "A0'")),
    )


# ------------------------------------------------------------------ #
# Commands
# ------------------------------------------------------------------ #

def _cmd_wft_triangle(doc: ProblemDocument, opts: SolverOptions, args):
    from .fermat import triangle_wft_angles, weighted_distance_sum, weiszfeld

    if len(doc.vertices) != 3:
        raise DocumentError("wft-triangle needs exactly 3 vertices", path="$.vertices")
    pts = [Point(*v) for v in doc.vertices]
    weights = doc.weights
    point = weiszfeld(pts, weights)
    absorbed = any(point.distance_to(p) == 0.0 for p in pts)
    outputs = {
        "point": [point.x, point.y],
        "objective": weighted_distance_sum(pts, weights, point),
        "absorbed": absorbed,
    }
    _print(f"A0: ({_fmt(point.x)}, {_fmt(point.y)})")
    _print(f"objective: {_fmt(outputs['objective'])}")
    if not absorbed:
        a12, a23, a31 = triangle_wft_angles(weights[0], weights[1], weights[2])
        outputs["angles_rad"] = [a12, a23, a31]
        outputs["angles_deg"] = [math.degrees(a) for a in (a12, a23, a31)]
        for name, val in (("a102", a12), ("a203", a23), ("a301", a31)):
            _print(f"{name}: {_fmt(val)} rad = {_fmt(math.degrees(val))} deg")
    else:
        _print("case: absorbed at a vertex")
    return outputs, {}, None


def _cmd_wft_quad(doc, opts, args):
    from .fermat import locate_4wft

    wq = _quad_instance(doc)
    tree = locate_4wft(wq)
    _print_fermat(tree)
    diagnostics = {
        "iterations": tree.iterations,
        "equilibrium_residual": tree.equilibrium_residual,
    }
    return _fermat_outputs(tree), diagnostics, _fermat_scene(wq, tree)


def _cmd_gauss(doc, opts, args):
    from .gauss import GaussWeights, solve_gauss_tree

    if doc.xg is None:
        raise DocumentError("gauss needs x_G (document key 'xg' or flag --xg)")
    wq = _quad_instance(doc)
    w = GaussWeights(*wq.weights, doc.xg)
    tree = solve_gauss_tree(wq.quad, w)
    _print_gauss(tree, w)
    return _gauss_outputs(tree, w), {}, _gauss_scene(wq.quad, tree)


def _line_for(doc):
    from .fermat import locate_4wft
    from .plasticity import plasticity_line

    wq = _quad_instance(doc)
    tree = locate_4wft(wq)
    return wq, tree, plasticity_line(wq, tree)


def _line_outputs(line) -> dict:
    return {
        "c": line.c,
        "coefficients": [list(co) for co in line.coefficients],
        "b4_interval": list(line.b4_interval),
        "point": [line.point.x, line.point.y],
    }


def _cmd_plasticity(doc, opts, args):
    wq, tree, line = _line_for(doc)
    _print(f"A0: ({_fmt(line.point.x)}, {_fmt(line.point.y)})")
    _print(f"c: {_fmt(line.c)}")
    for i, (x, y) in enumerate(line.coefficients, start=1):
        sign = "+" if x >= 0 else "-"
        _print(f"B{i} = {_fmt(y)} {sign} {_fmt(abs(x))} * B4")
    lo, hi = line.b4_interval
    _print(f"B4 interval: ({_fmt(lo)}, {_fmt(hi)})")
    diagnostics = {"equilibrium_residual": tree.equilibrium_residual}
    return _line_outputs(line), diagnostics, _fermat_scene(wq, tree)


def _cmd_universal(doc, opts, args):
    from .universal import universal_minimum

    wq, tree, line = _line_for(doc)
    result = universal_minimum(wq.quad, line, **_given(opts, "grid"))
    _print("  ".join(h.rjust(13) for h in ("B1", "B2", "B3", "B4", "x_G", "f")))
    for s in result.samples:
        b1, b2, b3, b4 = s.weights
        _print("  ".join(_fmt(v).rjust(13) for v in (b1, b2, b3, b4, s.xg_absorbing,
                                                     s.objective)))
    _print(f"u_FT: {_fmt(result.u_ft)}")
    _print(f"B4*: {_fmt(result.b4_star)}")
    _print(f"universal absorbing rate: {_fmt(result.rate)}")
    outputs = {
        "u_ft": result.u_ft,
        "b4_star": result.b4_star,
        "rate": result.rate,
        "samples": [
            {"b4": s.b4, "weights": list(s.weights), "xg_absorbing": s.xg_absorbing,
             "objective": s.objective}
            for s in result.samples
        ],
        "plasticity": _line_outputs(line),
    }
    diagnostics = {"skipped": [[b4, why] for b4, why in result.skipped]}
    return outputs, diagnostics, _fermat_scene(wq, tree)


def _cmd_evolve(doc, opts, args):
    from .gauss import GaussWeights
    from .universal import evolve, weights_for_storage

    if opts.storage is None or opts.spend is None:
        raise DocumentError("evolve needs --storage and --spend (or document options)")
    wq, tree, line = _line_for(doc)
    b4 = opts.b4
    if b4 is None:
        candidates = weights_for_storage(wq.quad, line, opts.storage)
        b4 = candidates[0]
        _print("B4 candidates: " + ", ".join(_fmt(v) for v in candidates))
    gtree = evolve(wq.quad, line, opts.storage, opts.spend, b4)
    weights = line.weights_at(b4)
    w = GaussWeights(*weights, opts.storage - opts.spend)
    _print(f"storage: {_fmt(opts.storage)}  spend: {_fmt(opts.spend)}  "
           f"x_G: {_fmt(w.xg)}  B4: {_fmt(b4)}")
    _print_gauss(gtree, w)
    outputs = _gauss_outputs(gtree, w)
    outputs.update({"storage": opts.storage, "spend": opts.spend, "b4": b4})
    return outputs, {}, _gauss_scene(wq.quad, gtree)


def _cmd_plot(doc, opts, args):
    from .fermat import weighted_distance_sum
    from .svgplot import level_curve_loops

    if not args.svg:
        raise DocumentError("plot needs --svg PATH")
    if doc.xg is not None:
        outputs, diagnostics, scene = _cmd_gauss(doc, opts, args)
    else:
        outputs, diagnostics, scene = _cmd_wft_quad(doc, opts, args)
    if opts.levels:
        wq = _quad_instance(doc)
        if "point" in outputs:
            base = outputs["objective"]
        else:
            base = weighted_distance_sum(wq.quad.vertices, wq.weights,
                                         Point(*outputs["node0"]))
        levels = [base + d for d in opts.levels]
        curves = level_curve_loops(wq.quad.vertices, wq.weights, levels,
                                   **_given(opts, "grid"))
        scene["level_curves"] = tuple((lvl, loops) for lvl, loops in curves)
        outputs["levels"] = levels
    return outputs, diagnostics, scene


# Each subcommand: its handler, its help text and the flags it reads beside
# _COMMON_FLAGS.
_COMMANDS = {
    "wft-triangle": (_cmd_wft_triangle, "degree-three optimum of a weighted triangle", ()),
    "wft-quad": (_cmd_wft_quad, "degree-four optimum of a weighted convex quadrilateral",
                 ("--svg",)),
    "gauss": (_cmd_gauss, "degree-three Gauss tree at a given x_G", ("--svg", "--xg")),
    "plasticity": (_cmd_plasticity, "affine weight family preserving the degree-four optimum",
                   ("--svg",)),
    "universal": (_cmd_universal, "universal absorbing set and minimum value",
                  ("--svg", "--grid")),
    "evolve": (_cmd_evolve, "evolutionary Gauss tree funded by stored quantity",
               ("--svg", "--b4", "--storage", "--spend")),
    "plot": (_cmd_plot, "SVG drawing of the solved tree and optional level curves",
             ("--svg", "--grid", "--xg", "--levels")),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _apply_flags(_read_document(args), args)
        solved = _solved(doc)
        outputs, diagnostics, scene = _COMMANDS[args.command][0](solved, solved.options, args)
        record = RunRecord(
            command=args.command,
            inputs=_inputs_echo(doc),
            outputs=outputs,
            diagnostics=diagnostics,
            timestamp=run_timestamp(),
        )
        if args.records:
            _write(args.records, record_to_json(record) + "\n")
        svg = getattr(args, "svg", None)  # every command but wft-triangle draws
        if svg:
            from .svgplot import Scene, render_scene

            _write(svg, render_scene(Scene(**scene)))
        return 0
    except DocumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"error: solver did not converge: {exc}\n")
        return 3
    except QuadFTError as exc:
        sys.stderr.write(f"error: {exc}\n")
        hint = next((h for t, h in _HINTS.items() if isinstance(exc, t)), None)
        if hint:
            sys.stderr.write(f"hint: {hint}\n")
        return 2


def run() -> None:
    """The process entry of `python -m quadft.cli` and the `quadft` script:
    `main`, then stdout and stderr flushed and the process ended by
    `os._exit`, which skips interpreter teardown.  That is safe because
    every file quadft writes is closed by its `with` block and quadft
    registers no `atexit` hook.  A flush that fails, as on a closed pipe,
    exits by `sys.exit` instead, whose teardown reports it as before; a
    usage error (argparse's SystemExit) or an uncaught exception leaves
    `main` by the usual path."""
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
