"""Dynamic plasticity: the one-parameter weight families that keep a
degree-four optimum fixed.

At a fixed optimum P the balance sum B_i u_i = 0, with u_i the unit vector
from P toward A_i, and the total sum B_i = c are linear in (B1, B2, B3) at a
given B4.  `plasticity_line` solves that system once for the affine family
B_i = x_i B4 + y_i; it holds wherever P is interior, on a diagonal too.
`plasticity_system_new` is the paper's squared-balance route: two quadratic
identities in the optimum's angles, solved exactly as one cubic in B2.  It is
kept as an independent reference for the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AbsorbedWeightsError,
    InconsistentCaseError,
    InfeasibleWeightsError,
    QuadFTError,
)
from .fermat import (
    CASE_BOUNDARY_TOL,
    RESIDUAL_TOL,
    CaseKind,
    FermatTree,
    WeightedQuadrilateral,
    _certified_median,
)
from .geometry import Point, Quadrilateral, linspace, solve_linear

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PlasticityLine:
    """Affine family B_i = x_i * B4 + y_i (i = 1, 2, 3) at fixed total c.

    `point` is the anchor optimum the family preserves.  `b4_interval` is the
    open interval on which all four weights stay positive.
    """

    c: float
    coefficients: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    b4_interval: tuple[float, float]
    point: Point

    def __post_init__(self):
        xs = sum(co[0] for co in self.coefficients)
        ys = sum(co[1] for co in self.coefficients)
        if abs(xs + 1.0) > 1e-9 or abs(ys - self.c) > 1e-9 * self.c:
            raise QuadFTError(
                f"coefficients do not preserve the total: sum x = {xs}, sum y = {ys}"
            )
        lo, hi = self.b4_interval
        if not lo < hi:
            raise InfeasibleWeightsError(f"empty B4 interval ({lo}, {hi})")

    def weights_at(self, b4: float) -> tuple[float, float, float, float]:
        """Weights (B1, B2, B3, B4) on the line; b4 must sit strictly inside
        the admissible interval."""
        lo, hi = self.b4_interval
        if not lo < b4 < hi:
            raise InfeasibleWeightsError(
                f"B4 = {b4} outside the open admissible interval ({lo}, {hi})"
            )
        (x1, y1), (x2, y2), (x3, y3) = self.coefficients
        b = (x1 * b4 + y1, x2 * b4 + y2, x3 * b4 + y3, b4)
        if b[0] <= 0.0 or b[1] <= 0.0 or b[2] <= 0.0 or b4 <= 0.0:
            raise InfeasibleWeightsError(f"weights {b} not all positive at B4 = {b4}")
        return b


class _Family:
    """The line's anchor P measured once on the quadrilateral: the unit
    vectors u_i from P = line.point toward A_i and the distances |P A_i|.
    Along the line only the weights move, so every per-sample quantity at P
    (the balance, the absorbing values) evaluates from this one measurement.
    Kuhn's pulls on the vertices are affine in B4 too (`pulls`); they are
    measured on first use, by verification only."""

    def __init__(self, q: Quadrilateral, line: PlasticityLine):
        p = line.point
        self.quad = q
        self.line = line
        try:
            self.units = [p.unit_toward(v) for v in q.vertices]
        except QuadFTError as exc:  # P on a vertex: no unit vector toward it
            self.units, self.failure = None, str(exc)
        self.distances = [p.distance_to(v) for v in q.vertices]

    def measured(self):
        """The unit vectors u_i; QuadFTError when P sits on a vertex."""
        if self.units is None:
            raise QuadFTError(self.failure)
        return self.units

    def balance(self, weights) -> float:
        """|sum B_i u_i| at P for the given weights; inf when P sits on a
        vertex, where the balance cannot be measured.  The four terms are
        written out: every sample of `universal_set` reads this sum."""
        if self.units is None:
            return math.inf
        (u1x, u1y), (u2x, u2y), (u3x, u3y), (u4x, u4y) = self.units
        b1, b2, b3, b4 = weights
        return math.hypot(b1 * u1x + b2 * u2x + b3 * u3x + b4 * u4x,
                          b1 * u1y + b2 * u2y + b3 * u3y + b4 * u4y)

    def profile(self):
        """(a, b) with |B1 u1 + B4 u4| = |a + B4 b| along the line."""
        (u1x, u1y), _, _, (u4x, u4y) = self.measured()
        x1, y1 = self.line.coefficients[0]
        return (y1 * u1x, y1 * u1y), (x1 * u1x + u4x, x1 * u1y + u4y)

    @cached_property
    def pulls(self):
        """(p_j, q_j) per vertex A_j, with the others' pull on A_j
        sum_{i != j} B_i u_ji = p_j + B4 q_j along the line (x4 = 1, y4 = 0),
        u_ji the unit vector from A_j toward A_i (`Quadrilateral.unit_vectors`)."""
        (x1, y1), (x2, y2), (x3, y3) = self.line.coefficients
        xs, ys = (x1, x2, x3, 1.0), (y1, y2, y3, 0.0)
        pulls = []
        for row in self.quad.unit_vectors:
            px = py = qx = qy = 0.0
            for x, y, u in zip(xs, ys, row):
                if u is not None:  # u_jj
                    px += y * u[0]
                    py += y * u[1]
                    qx += x * u[0]
                    qy += x * u[1]
            pulls.append((px, py, qx, qy))
        return pulls

    def absorbing_vertex(self, b4: float, weights) -> int | None:
        """Kuhn's test of `fermat._kuhn_case` at the line's weights for b4:
        the 1-based index of the first vertex whose slack |p_j + B4 q_j| - B_j
        is at most CASE_BOUNDARY_TOL times the total, or None (floating)."""
        margin = CASE_BOUNDARY_TOL * self.line.c
        for j, (px, py, qx, qy) in enumerate(self.pulls):
            if math.hypot(px + b4 * qx, py + b4 * qy) - weights[j] <= margin:
                return j + 1
        return None


def plasticity_line(wq: WeightedQuadrilateral, tree: FermatTree) -> PlasticityLine:
    """Affine weight family through the optimum P of `tree` at total c = sum(B).

    With u_i the unit vector from P toward A_i, the balance
    B1 u1 + B2 u2 + B3 u3 = -B4 u4 and the total B1 + B2 + B3 = c - B4 are
    linear in (B1, B2, B3), so one matrix gives the slopes (right side
    (-u4, -1)) and the intercepts (right side (0, 0, c)).  Its determinant is
    twice the signed area of the triangle on the tips of u1, u2, u3, which is
    nonzero for every P inside the quadrilateral, on a diagonal too.  An absorbed optimum sits on a vertex and has no family.
    """
    if tree.case.kind is CaseKind.ABSORBED:
        raise AbsorbedWeightsError(
            f"the optimum is absorbed at vertex A{tree.case.vertex}; "
            "a plasticity line needs an interior optimum"
        )
    p = tree.point
    u = [p.unit_toward(vert) for vert in wq.quad.vertices]
    c = wq.total
    matrix = [[u[0][0], u[1][0], u[2][0]], [u[0][1], u[1][1], u[2][1]], [1.0, 1.0, 1.0]]
    slopes = solve_linear(matrix, [-u[3][0], -u[3][1], -1.0])
    if slopes is None:
        raise InconsistentCaseError(f"the optimum {p} is not inside the quadrilateral")
    coefficients = tuple(zip(slopes, solve_linear(matrix, [0.0, 0.0, c])))
    lo, hi = 0.0, math.inf
    for x, y in coefficients:
        if x < 0.0:
            hi = min(hi, -y / x)
        elif x > 0.0 and y < 0.0:
            lo = max(lo, -y / x)
    if not lo < hi:
        raise InfeasibleWeightsError(f"no positive-weight interval: ({lo}, {hi})")
    line = PlasticityLine(c=c, coefficients=coefficients, b4_interval=(lo, hi), point=p)
    recovered = line.weights_at(wq.weights[3])
    if any(abs(a - b) > 1e-5 * c for a, b in zip(recovered, wq.weights)):
        raise InconsistentCaseError(
            "input weights do not lie on the constructed line; "
            "was the tree solved for these weights?"
        )
    return line


def _bisect(f, a: float, b: float, fa: float, xtol: float) -> float:
    """Root of f in [a, b], where f(a) = fa and f(b) differ in sign, to
    xtol or to float resolution."""
    while True:
        m = 0.5 * (a + b)
        if b - a <= xtol or not a < m < b:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m


def plasticity_system_new(angles, c: float, b4: float) -> list[tuple[float, float, float]]:
    """All positive (B1, B2, B3) making the given optimum angles balance at
    total c with the supplied B4, via the two squared-balance identities.

    With K = c - B4, B1 = K - B2 - B3.  B3^2 cancels from the first identity,
    which reads P = 2 Q B3; the second reads D B3 = N.  P is quadratic and N,
    D, Q are linear in B2, so the B2 roots are those of the cubic
    R = P D - 2 N Q, which has no pole.  Its leading coefficients are
    e3 = -4 (1 - cos a102)(1 - cos a203) and e2 = -K e3, so the roots of R'
    cut (0, K) into at most three monotone pieces; each sign change is
    bisected to 1e-14 c, B3 = N / D, and a root with D = 0 is dropped.
    Scaling c and B4 together scales the roots.  All roots are returned
    (several are expected in general); none are filtered beyond positivity.
    """
    a102, a203, a304, a401 = angles
    if not abs((a102 + a203 + a304 + a401) - TWO_PI) <= 1e-8:
        raise QuadFTError(f"angles {tuple(angles)} do not sum to 2*pi")
    if not (c > 0.0 and 0.0 < b4 < c):
        raise InfeasibleWeightsError(f"need 0 < B4 < c, got B4={b4}, c={c}")
    # the angle between edges 1 and 4 equals a401
    c12, c23, c34, c14 = (math.cos(a) for a in (a102, a203, a304, a401))
    k = c - b4

    def second(b2: float) -> tuple[float, float]:  # (N, D)
        s = k - b2
        return s * s + b4 * b4 + 2.0 * s * b4 * c14 - b2 * b2, 2.0 * (s + b4 * c14 + b2 * c23)

    def cubic(b2: float) -> float:
        s, (n, d) = k - b2, second(b2)
        p = s * s + b2 * b2 + 2.0 * s * b2 * c12 - b4 * b4
        return p * d - 2.0 * (s + b2 * c12 + b4 * c34) * n

    # R' = 3 e3 t^2 + 2 e2 t + e1 is symmetric about K / 3; e3 = 0 leaves R linear
    e3 = -4.0 * (1.0 - c12) * (1.0 - c23)
    e1 = 2.0 * (k * k * (c12 + c23) + 2.0 * k * b4 * (c14 + c34)
                + b4 * b4 * (2.0 + 2.0 * c14 * c34 - c12 - c23))
    cuts = []
    if e3 != 0.0 and (disc := k * k / 9.0 - e1 / (3.0 * e3)) > 0.0:
        cuts = [t for t in (k / 3.0 - math.sqrt(disc), k / 3.0 + math.sqrt(disc)) if 0.0 < t < k]
    ts = [0.0, *cuts, k]
    rs = [cubic(t) for t in ts]
    roots = [t for t, r in zip(ts[1:-1], rs[1:-1]) if r == 0.0]
    roots += [_bisect(cubic, a, b, ra, xtol=1e-14 * c)
              for a, b, ra, rb in zip(ts, ts[1:], rs, rs[1:]) if min(ra, rb) < 0.0 < max(ra, rb)]
    solutions = []
    for b2 in sorted(roots):
        n, d = second(b2)
        b3 = n / d if d != 0.0 else 0.0  # a root on D = 0 fails positivity
        b1 = c - b2 - b3 - b4
        if b1 > 0.0 and b2 > 0.0 and b3 > 0.0:
            solutions.append((b1, b2, b3))
    if not solutions:
        raise InfeasibleWeightsError(f"no positive weight solution at B4 = {b4}, c = {c} "
                                     "for these angles")
    return solutions


@dataclass(frozen=True)
class PlasticityReport:
    """Outcome of re-solving the optimum across a sampled weight family."""

    reference: Point
    tolerance: float
    max_deviation: float
    passed: bool
    evaluated: tuple[tuple[float, float], ...]   # (b4, deviation)
    excluded: tuple[tuple[float, str], ...]      # (b4, reason)


def verify_plasticity(q: Quadrilateral, line: PlasticityLine,
                      samples: int) -> PlasticityReport:
    """Check at `samples` values of B4 across the admissible interval that the
    line's weights keep the degree-four optimum at the anchor `line.point`,
    and report the worst drift of the optimum.

    Samples where a weight leaves positivity or the instance stops floating
    are excluded with a reason, never counted as drift.  The line is measured
    once per call (`_Family`): Kuhn's test of `classify_case` reads the
    others' pull on each vertex as p_j + B4 q_j, and every sample reads its
    balance |sum B_i u_i| at the anchor.  A balance below RESIDUAL_TOL times
    the total weight passes the residual gate of `locate_4wft`, and the
    median is unique, so the anchor is the optimum and the sample drifts by 0.
    Any other sample, a moved anchor or one on a vertex where no balance can
    be measured, re-solves the median by the path of `locate_4wft`, from the
    weighted centroid, and drifts by the anchor's distance to it.  Passes when
    the maximum deviation stays below 1e-6 times the quadrilateral diameter.
    """
    if samples < 1:
        raise QuadFTError("need at least one sample")
    lo, hi = line.b4_interval
    if samples == 1:
        b4s = [0.5 * (lo + hi)]
    else:
        b4s = linspace(lo, hi, samples)
    tolerance = 1e-6 * q.diameter()
    family = _Family(q, line)
    evaluated = []
    excluded = []
    for b4 in b4s:
        try:
            weights = line.weights_at(b4)
        except InfeasibleWeightsError as exc:
            excluded.append((b4, str(exc)))
            continue
        vertex = family.absorbing_vertex(b4, weights)
        if vertex is not None:
            excluded.append((b4, f"absorbed at vertex {vertex}"))
            continue
        if family.balance(weights) < RESIDUAL_TOL * line.c:
            evaluated.append((b4, 0.0))
        else:
            point, _ = _certified_median(q.vertices, weights)
            evaluated.append((b4, point.distance_to(line.point)))
    max_dev = max((d for _, d in evaluated), default=math.inf)
    return PlasticityReport(
        reference=line.point,
        tolerance=tolerance,
        max_deviation=max_dev,
        passed=bool(evaluated) and max_dev < tolerance,
        evaluated=tuple(evaluated),
        excluded=tuple(excluded),
    )
