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

from .errors import (
    AbsorbedWeightsError,
    InconsistentCaseError,
    InfeasibleWeightsError,
    QuadFTError,
    _Record,
)
from .fermat import (
    CASE_BOUNDARY_TOL,
    RESIDUAL_TOL,
    TWO_PI,
    CaseKind,
    FermatTree,
    WeightedQuadrilateral,
    _certified_median,
)
from .geometry import Point, Quadrilateral, _count, _exponent, cross2, linspace, measure_star


class PlasticityLine(_Record):
    """Affine family B_i = x_i * B4 + y_i (i = 1, 2, 3) at fixed total c.

    `point` is the anchor optimum the family preserves.  `b4_interval` is the
    open interval on which all four weights stay positive.
    """

    __slots__ = _fields = ("c", "coefficients", "b4_interval", "point")

    def __init__(self, c: float,
                 coefficients: tuple[tuple[float, float], tuple[float, float],
                                     tuple[float, float]],
                 b4_interval: tuple[float, float], point: Point):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "b4_interval", b4_interval)
        object.__setattr__(self, "point", point)
        (x1, y1), (x2, y2), (x3, y3) = coefficients
        lo, hi = b4_interval
        for name, values in (("c", (self.c,)), ("coefficients", (x1, y1, x2, y2, x3, y3)),
                             ("b4_interval", (lo, hi))):
            if not all(map(math.isfinite, values)):
                raise QuadFTError(f"{name} must be finite, got {getattr(self, name)}")
        xs, ys = x1 + x2 + x3, y1 + y2 + y3
        if abs(xs + 1.0) > 1e-9 or abs(ys - self.c) > 1e-9 * self.c:
            raise QuadFTError(
                f"coefficients do not preserve the total: sum x = {xs}, sum y = {ys}"
            )
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

    def _ascending_weights(self, b4s) -> list[tuple[float, float, float, float]]:
        """`weights_at` of every b4 in `b4s`, which must ascend, checked at
        the two ends only: x b4 + y rounds monotonically in b4, so weights
        positive at both ends of the run, inside the interval, are positive
        at every b4 between them, exactly.  A failing end raises as
        `weights_at` does."""
        first = self.weights_at(b4s[0])
        if len(b4s) == 1:
            return [first]
        self.weights_at(b4s[-1])
        (x1, y1), (x2, y2), (x3, y3) = self.coefficients
        return [(x1 * b4 + y1, x2 * b4 + y2, x3 * b4 + y3, b4) for b4 in b4s]


def _sublevel(px: float, py: float, qx: float, qy: float,
              x: float, y: float) -> tuple[float, float]:
    """The closed interval of t on which |p + t q| <= x t + y, as (lo, hi),
    with lo > hi when it is empty.

    The left side is convex in t and the right side affine, so the set is
    one interval.  It is the half-line where x t + y >= 0, cut by the roots
    of g(t) = |p + t q|^2 - (x t + y)^2 = a t^2 + 2 b t + c: g <= 0 between
    them when a > 0, and on the ray beyond them that the half-line keeps
    when a < 0.  The roots are the numerically stable pair k / a and c / k.
    """
    a = qx * qx + qy * qy - x * x
    b = px * qx + py * qy - x * y
    c = px * px + py * py - y * y
    if x > 0.0:
        lo, hi = -y / x, math.inf
    elif x < 0.0:
        lo, hi = -math.inf, -y / x
    elif y >= 0.0:
        lo, hi = -math.inf, math.inf
    else:
        return math.inf, -math.inf
    if a == 0.0:  # g is 2 b t + c
        if b:
            root = -0.5 * c / b
            return (lo, min(hi, root)) if b > 0.0 else (max(lo, root), hi)
        return (lo, hi) if c <= 0.0 else (math.inf, -math.inf)
    disc = b * b - a * c
    if disc < 0.0:  # g has the sign of a everywhere
        return (lo, hi) if a < 0.0 else (math.inf, -math.inf)
    k = -(b + math.copysign(math.sqrt(disc), b))
    r1, r2 = sorted((k / a, c / k if k else 0.0))
    if a > 0.0:
        return max(lo, r1), min(hi, r2)
    return (max(lo, r2), hi) if x > 0.0 else (lo, min(hi, r1))


class _Family:
    """The line's anchor P measured once on the quadrilateral, with the
    line's constants there.  `measure_star` gives the distances |P A_i| and
    the unit vectors u_i from P toward A_i, one hypot per vertex.  Along the
    line only the weights move, and every per-sample quantity at P is affine
    in B4: the imbalance sum B_i u_i, the absorbing profile B1 u1 + B4 u4
    and Kuhn's pulls on the vertices.  Construction computes the first two
    as affine pairs, so `imbalance` and `profile` are reads, and
    verification decides Kuhn's test and the balance gate on the whole line
    at once (`intervals`)."""

    __slots__ = ("quad", "line", "distances", "units", "_imbalance", "_profile")

    def __init__(self, q: Quadrilateral, line: PlasticityLine):
        self.quad = q
        self.line = line
        self.distances, units = measure_star(line.point, q.vertices)
        if None in units:  # P on a vertex: no balance can be measured
            self.units, self._imbalance = None, (math.inf, math.inf, 0.0, 0.0)
            return
        self.units = units
        (u1x, u1y), (u2x, u2y), (u3x, u3y), (u4x, u4y) = units
        (x1, y1), (x2, y2), (x3, y3) = line.coefficients
        self._imbalance = (
            y1 * u1x + y2 * u2x + y3 * u3x, y1 * u1y + y2 * u2y + y3 * u3y,
            x1 * u1x + x2 * u2x + x3 * u3x + u4x, x1 * u1y + x2 * u2y + x3 * u3y + u4y)
        self._profile = (y1 * u1x, y1 * u1y), (x1 * u1x + u4x, x1 * u1y + u4y)

    def measured(self):
        """The unit vectors u_i; QuadFTError when P sits on a vertex."""
        if self.units is None:  # P on a vertex: `unit_toward` raises why
            self.line.point.unit_toward(self.quad.vertices[self.distances.index(0.0)])
        return self.units

    def imbalance(self):
        """sum B_i u_i at P as the affine pair (ax, ay) + B4 (bx, by) along
        the line, read as (ax, ay, bx, by); inf when P sits on a vertex,
        where no balance can be measured."""
        return self._imbalance

    def profile(self):
        """(a, b) with |B1 u1 + B4 u4| = |a + B4 b| along the line;
        QuadFTError when P sits on a vertex."""
        self.measured()
        return self._profile

    def intervals(self, b4: float):
        """Where verification decides along the line, in B4: per vertex A_j,
        the interval on which Kuhn's test of `fermat._kuhn_case` absorbs A_j,
        and the interval on which the imbalance |sum B_i u_i| at P is at
        most RESIDUAL_TOL c, the residual gate of `locate_4wft` (empty when P
        sits on a vertex, where no balance can be measured).

        The others' pull on A_j is sum_{i != j} B_i u_ji = p_j + B4 q_j
        (x4 = 1, y4 = 0, u_ji from `Quadrilateral.unit_vectors`), and A_j
        absorbs where |p_j + B4 q_j| - B_j <= CASE_BOUNDARY_TOL c.  Each
        interval is solved about `b4`, where the caller samples: pulls and
        weights there are of the size of c, while the intercepts p_j and y_j
        can be far larger and would cancel in the quadratic.  The values are
        scaled exactly by the power of two nearest 1 / c (`_exponent`), so
        their squares neither overflow nor underflow.
        """
        c = self.line.c
        s = math.ldexp(1.0, -_exponent(c))

        def about(px, py, qx, qy, x, y):
            lo, hi = _sublevel(s * (px + b4 * qx), s * (py + b4 * qy), qx, qy, x,
                               s * (y + x * b4))
            return b4 + lo / s, b4 + hi / s

        (x1, y1), (x2, y2), (x3, y3) = self.line.coefficients
        xs, ys = (x1, x2, x3, 1.0), (y1, y2, y3, 0.0)
        margin = CASE_BOUNDARY_TOL * c
        absorbed = []
        for xj, yj, row in zip(xs, ys, self.quad.unit_vectors):
            px = py = qx = qy = 0.0
            for x, y, u in zip(xs, ys, row):
                if u is not None:  # u_jj
                    px += y * u[0]
                    py += y * u[1]
                    qx += x * u[0]
                    qy += x * u[1]
            absorbed.append(about(px, py, qx, qy, xj, yj + margin))
        if self.units is None:
            return absorbed, (math.inf, -math.inf)
        ax, ay, bx, by = self.imbalance()
        return absorbed, about(ax, ay, bx, by, 0.0, RESIDUAL_TOL * c)


def plasticity_line(wq: WeightedQuadrilateral, tree: FermatTree) -> PlasticityLine:
    """Affine weight family through the optimum P of `tree` at total c = sum(B).

    With u_i the unit vector from P toward A_i, the balance
    B1 u1 + B2 u2 + B3 u3 = -B4 u4 and the total B1 + B2 + B3 = c - B4 make
    (B1, B2, B3) / (c - B4) the barycentric coordinates of
    -B4 u4 / (c - B4) on the triangle of the tips of u1, u2, u3.  So the
    slopes are minus the barycentric coordinates of u4 and the intercepts c
    times those of the origin, each a signed area (`cross2`) over twice the
    triangle's area, which is nonzero for every P inside the quadrilateral,
    on a diagonal too.  The u_i come from one measurement of P's star,
    `geometry.measure_star`, one hypot per vertex, as in `_Family`.  An
    absorbed optimum sits on a vertex and has no family.
    """
    if tree.case.kind is CaseKind.ABSORBED:
        raise AbsorbedWeightsError(
            f"the optimum is absorbed at vertex A{tree.case.vertex}; "
            "a plasticity line needs an interior optimum"
        )
    p = tree.point
    _, units = measure_star(p, wq.quad.vertices)
    if None in units:  # P on a vertex: `unit_toward` raises why
        p.unit_toward(wq.quad.vertices[units.index(None)])
    u1, u2, u3, (x4, y4) = units
    c = wq.total

    def areas(qx, qy):
        """Twice the signed areas of (q, u2, u3), (q, u3, u1), (q, u1, u2)."""
        return [cross2(jx - qx, jy - qy, kx - qx, ky - qy)
                for (jx, jy), (kx, ky) in ((u2, u3), (u3, u1), (u1, u2))]

    origin = areas(0.0, 0.0)
    det = sum(origin)
    if det == 0.0:
        raise InconsistentCaseError(f"the optimum {p} is not inside the quadrilateral")
    coefficients = tuple((-a / det, c * b / det) for a, b in zip(areas(x4, y4), origin))
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


class PlasticityReport(_Record):
    """Outcome of re-solving the optimum across a sampled weight family:
    `evaluated` holds (b4, deviation) pairs and `excluded` (b4, reason)
    pairs."""

    __slots__ = _fields = ("reference", "tolerance", "max_deviation", "passed", "evaluated",
                           "excluded")

    def __init__(self, reference: Point, tolerance: float, max_deviation: float, passed: bool,
                 evaluated: tuple[tuple[float, float], ...],
                 excluded: tuple[tuple[float, str], ...]):
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "evaluated", evaluated)
        object.__setattr__(self, "excluded", excluded)


def verify_plasticity(q: Quadrilateral, line: PlasticityLine,
                      samples: int) -> PlasticityReport:
    """Check at `samples` values of B4 across the admissible interval that the
    line's weights keep the degree-four optimum at the anchor `line.point`,
    and report the worst drift of the optimum.

    Samples where a weight leaves positivity or the instance stops floating
    are excluded with a reason, never counted as drift.  The line is measured
    once per call (`_Family`) and decided on its whole interval: along it the
    others' pull on each vertex, p_j + B4 q_j, and the imbalance
    sum B_i u_i at the anchor are affine in B4, so Kuhn's slack of
    `classify_case` and the balance are convex.  Vertex A_j absorbs on one
    interval of B4, whose ends are the roots of a quadratic, and the balance
    meets the gate on one interval too; each sample is decided by membership,
    vertices in index order, and its verdict differs from a per-sample test
    only within rounding of an interval end.  A balance at most RESIDUAL_TOL
    times the total weight passes the residual gate of `locate_4wft`, and the
    median is unique, so the anchor is the optimum and the sample drifts by
    0.  Any other sample, a moved anchor or one on a vertex where no balance
    can be measured, re-solves the median by the path of `locate_4wft`
    (`_certified_median`), and drifts by the anchor's distance to it.  Passes
    when the maximum deviation stays below 1e-6 times the quadrilateral
    diameter.
    """
    if _count(samples, "samples") < 1:
        raise QuadFTError("need at least one sample")
    lo, hi = line.b4_interval
    if samples == 1:
        b4s = [0.5 * (lo + hi)]
    else:
        b4s = linspace(lo, hi, samples)
    tolerance = 1e-6 * q.diameter()
    absorbed, (gate_lo, gate_hi) = _Family(q, line).intervals(0.5 * (lo + hi))
    # the vertices, in index order, whose absorbed interval meets the samples
    absorbed = [(j, a, b) for j, (a, b) in enumerate(absorbed, 1)
                if a <= b4s[-1] and b4s[0] <= b]
    evaluated = []
    excluded = []
    for b4 in b4s:
        try:
            weights = line.weights_at(b4)
        except InfeasibleWeightsError as exc:
            excluded.append((b4, str(exc)))
            continue
        for j, a, b in absorbed:  # the first absorbing vertex
            if a <= b4 <= b:
                excluded.append((b4, f"absorbed at vertex {j}"))
                break
        else:
            if gate_lo <= b4 <= gate_hi:
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
