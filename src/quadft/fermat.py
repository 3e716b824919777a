"""Weighted Fermat-Torricelli solvers of degree three and four.

Covers case classification (floating / absorbed / diagonal shortcut), the
triangle closed form, which also gives the angles at both interior nodes of
a Gauss tree (`gauss._branch`), the certified median, and the paper's circle
system for a square boundary and angle system for a general quadrilateral.
Degree-four locations have no closed form, so they are iterative.

The case is decided by `_kuhn_case`: Kuhn's test (Kuhn 1973, "A note on
Fermat's problem") on the unit vectors between the points, which a
quadrilateral measures once, at construction.  A point absorbs when the
weighted pull of the others on it exceeds its own weight by at most
`CASE_BOUNDARY_TOL` times the total.  Every `FermatTree` is built by
`_tree`, on the point's star measured by `geometry.measure_star`.

A floating median, of a triangle (`weiszfeld`) or of a quadrilateral
(`locate_4wft`), has one path, `_median`: one damped Newton loop on the
gradient and Hessian of the weighted distance sum.  Kuhn's test gives its
frame and start: next to the vertex of least slack, on Kuhn's descent ray,
when that slack is below `_ANCHOR_SLACK` of the total, else relative to A1
from the weighted centroid.  Frame and weights are scaled by powers of two
(`geometry._exponent`), so no Hessian entry over- or underflows.  The one
verdict is the residual gate: the median is unique, and a point is accepted
only when its pull is below `RESIDUAL_TOL` times the total weight.  The
angle systems read that certified median in A1's frame, gate their residual
and the gap of the point they rebuild, and return `locate_4wft`'s tree.
"""

from __future__ import annotations

import enum
import math

from .errors import (
    AbsorbedWeightsError,
    ConvergenceError,
    InconsistentCaseError,
    QuadFTError,
    _Record,
)
from .geometry import (
    Point,
    Quadrilateral,
    _exponent,
    angle_at,
    clamped_acos,
    cross2,
    diagonal_intersection,
    measure_pairs,
    measure_star,
    rotate,
)

RESIDUAL_TOL = 1e-10
NEWTON_MAX_ITER = 200
CASE_BOUNDARY_TOL = 1e-9
EQUAL_WEIGHT_RTOL = 1e-12
_EQUILIBRIUM_RTOL = 1e-7  # angle-system gate on the residual
_REBUILD_RTOL = 1e-10     # angle-system gate on the rebuilt point's gap, relative to the diameter
_ANCHOR_SLACK = 0.05      # Kuhn slack, over the total weight, below which _median anchors
_RAY_MAX_ITER = 8         # gradient evaluations along Kuhn's descent ray
_RAY_TOL = 0.1            # the ray's slope, over the anchor's slack, that ends its search
_POLISH_TOL = 1e-14       # Newton polish target, relative to the total weight

TWO_PI = 2.0 * math.pi


class CaseKind(enum.Enum):
    FLOATING = "floating"
    ABSORBED = "absorbed"
    DIAGONAL = "diagonal"


class CaseTag(_Record):
    """Classification of a degree-four optimum.

    `vertex` is the 1-based absorbing vertex index when kind is ABSORBED.
    `boundary` marks classifications within tolerance of the absorbed/floating
    boundary.  Outside the fields, `_anchor` holds where `_median` anchors
    (`_kuhn_case`), or None on a tag not made by Kuhn's test.
    """

    __slots__ = ("kind", "vertex", "boundary", "_anchor")
    _fields = ("kind", "vertex", "boundary")

    def __init__(self, kind: CaseKind, vertex: int | None = None, boundary: bool = False,
                 _anchor=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "_anchor", _anchor)


_FLOATING = CaseTag(CaseKind.FLOATING)


def _positive_weights(weights) -> tuple[float, ...]:
    """The weights as floats; QuadFTError unless each is positive and finite,
    or naming a bool, which `float` would read as 0 or 1."""
    weights = tuple(weights)
    if any(isinstance(v, bool) for v in weights):
        raise QuadFTError(f"weights must be numbers, not bools, got {weights}")
    w = tuple(float(v) for v in weights)
    if not all(v > 0.0 and math.isfinite(v) for v in w):
        raise QuadFTError(f"weights must be positive and finite, got {w}")
    return w


def _finite_total(weights) -> None:
    """QuadFTError unless the weights' sum is finite: Kuhn's margin and the
    objective scale with it, and an infinite margin absorbs every point."""
    total = sum(weights)
    if total == math.inf:
        raise QuadFTError(f"the weights sum to {total}: their total overflows the "
                          "largest float; divide them by a common factor")


class WeightedQuadrilateral(_Record):
    """Convex quadrilateral with one positive weight per vertex, whose sum
    is finite."""

    __slots__ = _fields = ("quad", "weights")

    def __init__(self, quad: Quadrilateral, weights: tuple[float, float, float, float]):
        w = tuple(weights)
        if len(w) != 4:
            raise QuadFTError("exactly four weights are required")
        w = _positive_weights(w)
        _finite_total(w)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "weights", w)

    @property
    def total(self) -> float:
        return sum(self.weights)

    def normalized(self) -> WeightedQuadrilateral:
        """Same instance with weights divided by their sum (explicit opt-in)."""
        s = self.total
        return WeightedQuadrilateral(self.quad, tuple(w / s for w in self.weights))


class FermatTree(_Record):
    """Degree-four tree: the optimum, its case, edge angles and objective.

    `angles` holds (a102, a203, a304, a401) in radians; entries involving an
    absorbing vertex are NaN.  `equilibrium_residual` is the norm of the weighted
    unit-vector sum at the optimum (floating case), or the amount by which the
    absorption inequality fails (absorbed case, zero when it holds), at
    `point` as stored (`_settle`); a floating median that rounds onto a
    vertex reads as an absorbed one does, with its case floating.
    """

    __slots__ = _fields = ("point", "case", "angles", "objective", "equilibrium_residual",
                           "iterations")

    def __init__(self, point: Point, case: CaseTag, angles: tuple[float, float, float, float],
                 objective: float, equilibrium_residual: float, iterations: int = 0):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "equilibrium_residual", equilibrium_residual)
        object.__setattr__(self, "iterations", iterations)


# ------------------------------------------------------------------ #
# Objective / equilibrium helpers
# ------------------------------------------------------------------ #

def weighted_distance_sum(points, weights, p: Point) -> float:
    return sum(w * p.distance_to(q) for w, q in zip(weights, points))


def _weighted_sum(weights, units):
    """Sum of w_i u_i over the given unit vectors; None entries are skipped."""
    sx = sy = 0.0
    for w, u in zip(weights, units):
        if u is not None:
            sx += w * u[0]
            sy += w * u[1]
    return sx, sy


def classify_case(wq: WeightedQuadrilateral) -> CaseTag:
    """Absorbed/floating classification of the degree-four problem: Kuhn's
    test (`_kuhn_case`) on the unit vectors the quadrilateral measured at
    construction.  The first absorbing vertex in index order wins, flagged
    `boundary` within `CASE_BOUNDARY_TOL` * total of equality."""
    return _kuhn_case(wq.quad.unit_vectors, wq.weights)


def _kuhn_case(units, weights) -> CaseTag:
    """Kuhn's absorption test on the unit vectors u[i][j] between the points
    (`geometry.measure_pairs`): the slack of point i is the norm of the
    others' weighted pull on it minus its own weight, and the first point
    whose slack is at most `CASE_BOUNDARY_TOL` times the total weight
    absorbs.  The tag's `_anchor` is (i, slack, (x, y) pull) for that point,
    or for the point of least slack when none absorbs."""
    margin = CASE_BOUNDARY_TOL * sum(weights)
    anchor = None
    for i, w in enumerate(weights):
        pull = _weighted_sum(weights, units[i])
        slack = math.hypot(*pull) - w
        if anchor is None or slack < anchor[1]:
            anchor = (i, slack, pull)
        if slack <= margin:
            return CaseTag(CaseKind.ABSORBED, i + 1, abs(slack) <= margin, anchor)
    return CaseTag(CaseKind.FLOATING, _anchor=anchor)


def triangle_wft_angles(bi: float, bj: float, bk: float) -> tuple[float, float, float]:
    """Angles (a_i0j, a_j0k, a_k0i) at the interior optimum of a weighted triangle.

    The angle between the edges pulled by two weights depends only on the third:
    a_i0j = arccos((bk^2 - bi^2 - bj^2) / (2 bi bj)).  Raises when the weight
    triangle inequality fails (absorbed case: the optimum sits at a vertex).
    """
    bi, bj, bk = _positive_weights((bi, bj, bk))
    if not (abs(bi - bj) < bk < bi + bj):
        raise AbsorbedWeightsError(
            f"weights ({bi}, {bj}, {bk}) violate the strict triangle inequality; "
            "the optimum is absorbed at a vertex"
        )
    return _wft_angles(bi, bj, bk)


def _wft_angles(bi: float, bj: float, bk: float) -> tuple[float, float, float]:
    """The closed form of `triangle_wft_angles` for weights already checked,
    scaled exactly by a power of two (`geometry._exponent`): the cosines are
    ratios of the weights, no square overflows, and the triangle inequality
    keeps every product 2 b b' nonzero."""
    e = -_exponent(max(bi, bj, bk))
    bi, bj, bk = math.ldexp(bi, e), math.ldexp(bj, e), math.ldexp(bk, e)
    a_i0j = clamped_acos((bk * bk - bi * bi - bj * bj) / (2.0 * bi * bj))
    a_j0k = clamped_acos((bi * bi - bj * bj - bk * bk) / (2.0 * bj * bk))
    a_k0i = clamped_acos((bj * bj - bk * bk - bi * bi) / (2.0 * bk * bi))
    return a_i0j, a_j0k, a_k0i


# ------------------------------------------------------------------ #
# The weighted median
# ------------------------------------------------------------------ #

def _collinear(points) -> bool:
    """Rank < 2 of the centred coordinates: their smaller singular value, the
    norm of the coordinates across the principal axis (accurate far below
    the square root of machine precision, unlike the Gram matrix's), is at
    most 1e-12 * max |x|, the same test at every scale; coincident points
    are collinear.  The coordinates are scaled by a power of two first
    (`geometry._exponent`), so no square over- or underflows.
    """
    n = len(points)
    cx = sum(p.x for p in points) / n
    cy = sum(p.y for p in points) / n
    spread = max(max(abs(p.x - cx), abs(p.y - cy)) for p in points)
    e = -_exponent(spread)
    xs = [(math.ldexp(p.x - cx, e), math.ldexp(p.y - cy, e)) for p in points]
    tol = 1e-12 * math.ldexp(spread, e)
    a = sum(x * x for x, _ in xs)
    b = sum(x * y for x, y in xs)
    c = sum(y * y for _, y in xs)
    theta = 0.5 * math.atan2(2.0 * b, a - c)  # the principal axis
    cs, sn = math.cos(theta), math.sin(theta)
    return math.sqrt(sum((cs * y - sn * x) ** 2 for x, y in xs)) <= tol


def weiszfeld(points, weights) -> Point:
    """Weighted geometric median of >= 3 points, not all collinear.

    Weights that are not positive and finite, or whose sum overflows, raise
    QuadFTError, and so do two points whose distance overflows, named as
    `Quadrilateral` names them.  Coincident points are one point carrying
    the sum of their weights.  Absorbed instances return the absorbing
    vertex (Kuhn's test of `classify_case`); otherwise the median of
    `locate_4wft`, stored as `_settle` stores it, and a pull not below
    RESIDUAL_TOL * sum(weights) raises ConvergenceError.
    """
    points, weights = list(points), tuple(weights)
    if len(points) < 3 or len(points) != len(weights):
        raise QuadFTError("need at least three points with matching weights")
    weights = _positive_weights(weights)
    _finite_total(weights)
    merged = {}
    for p, w in zip(points, weights):
        merged[p] = merged.get(p, 0.0) + w
    points, weights = list(merged), tuple(merged.values())
    units = measure_pairs(points)[1]
    if _collinear(points):
        raise QuadFTError("points are collinear; the median problem degenerates")
    tag = _kuhn_case(units, weights)
    if tag.kind is CaseKind.ABSORBED:
        return points[tag.vertex - 1]
    point = _certified_median(points, weights, tag._anchor)[0]
    pull = _pull(weights, *measure_star(point, points))
    return _settle(points, weights, tag._anchor, point, pull)


def _median(points, weights, anchor=None):
    """The weighted median of `points` by one damped Newton loop, whose frame
    and start come from Kuhn's test: `anchor` is a tag's `_anchor` (i,
    slack, pull); the test runs here when it is None.

    The frame is relative to the first point, or to point i when its slack
    is below `_ANCHOR_SLACK` times the total: the median lies next to it,
    where its own term carries no rounding, and the loop starts on Kuhn's
    descent ray (`_ray_start`), else at the weighted centroid.  Frame and
    weights are scaled exactly by powers of two (`geometry._exponent`), so
    no Hessian entry, of order w / r, over- or underflows.  Each step is the
    longest of 1, 1/2, ... of the Newton step that lowers the pull; at most
    `NEWTON_MAX_ITER` steps end at a pull below `_POLISH_TOL` times the
    total, or where none lowers it.  Returns (point, pull, steps) for the
    caller to judge; an absorbing point is its own median, with pull inf.
    """
    if anchor is None:
        anchor = _kuhn_case(measure_pairs(points)[1], weights)._anchor
    k, slack, (px, py) = anchor
    share = slack / sum(weights)
    near = share < _ANCHOR_SLACK
    if slack <= 0.0:
        return points[k], math.inf, 0
    a1 = points[0]
    moved = [(q.x - a1.x, q.y - a1.y) for q in points]
    ox, oy = moved[k] if near else (0.0, 0.0)
    e = _exponent(max(max(abs(qx - ox), abs(qy - oy)) for qx, qy in moved))
    scale, unscale = math.ldexp(1.0, -e), math.ldexp(1.0, e)
    relative = [((qx - ox) * scale, (qy - oy) * scale) for qx, qy in moved]
    f = _exponent(max(weights))
    weights = [math.ldexp(w, -f) for w in weights]
    total = sum(weights)

    def gradient(x, y):
        gx = gy = hxx = hxy = hyy = 0.0
        for w, (qx, qy) in zip(weights, relative):
            dx, dy = qx - x, qy - y
            r = math.hypot(dx, dy)
            if r < 1e-300:
                return None
            ux, uy = dx / r, dy / r
            c = w / r
            gx -= w * ux
            gy -= w * uy
            hxx += c * (1.0 - ux * ux)
            hxy -= c * ux * uy
            hyy += c * (1.0 - uy * uy)
        return math.hypot(gx, gy), gx, gy, hxx, hxy, hyy

    if near:
        x, y, state, steps = _ray_start(gradient, relative, k, share, total, px, py)
    else:
        x = sum(w * qx for w, (qx, _) in zip(weights, relative)) / total
        y = sum(w * qy for w, (_, qy) in zip(weights, relative)) / total
        state, steps = gradient(x, y), 0
    norm = math.inf if state is None else state[0]
    while steps < NEWTON_MAX_ITER and _POLISH_TOL * total <= norm < math.inf:
        _, gx, gy, hxx, hxy, hyy = state
        det = hxx * hyy - hxy * hxy
        if not det > 0.0:
            break
        sx = (hxy * gy - hyy * gx) / det
        sy = (hxy * gx - hxx * gy) / det
        t = 1.0
        while t > 1e-12:
            trial = gradient(x + t * sx, y + t * sy)
            if trial is not None and trial[0] < norm:
                break
            t *= 0.5
        else:
            break
        x, y, state, norm = x + t * sx, y + t * sy, trial, trial[0]
        steps += 1
    point = Point(a1.x + (ox + x * unscale), a1.y + (oy + y * unscale))
    return point, math.ldexp(norm, f), steps


def _ray_start(gradient, relative, k, share, total, px, py):
    """Where `_median` anchored at point k starts: the least of the sum on
    Kuhn's descent ray t (dx, dy) along the others' pull (px, py), where the
    slope rises from -slack (`share` of `total`).  Newton steps on the slope
    start below the first step from 0, at `share` times the nearest point's
    reach, keep inside the root's bracket, and end at a slope within
    `_RAY_TOL` of the slack or after `_RAY_MAX_ITER` evaluations."""
    n = math.hypot(px, py)
    dx, dy = px / n, py / n
    t = share * min(max(abs(qx), abs(qy)) for i, (qx, qy) in enumerate(relative) if i != k)
    lo, hi = 0.0, math.inf
    for steps in range(1, _RAY_MAX_ITER + 1):
        x, y = t * dx, t * dy
        state = gradient(x, y)
        if state is None:
            break
        _, gx, gy, hxx, hxy, hyy = state
        slope = gx * dx + gy * dy
        if abs(slope) <= _RAY_TOL * share * total:
            break
        if slope < 0.0:
            lo = t
        else:
            hi = t
        curvature = dx * dx * hxx + 2.0 * dx * dy * hxy + dy * dy * hyy
        t = t - slope / curvature if curvature > 0.0 else math.inf
        if not lo < t < hi:
            t = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    return x, y, state, steps


def _certified_median(points, weights, anchor=None):
    """`_median`, raising ConvergenceError unless its pull is below
    RESIDUAL_TOL * sum(weights): the one verdict of `weiszfeld`,
    `locate_4wft`, the angle systems and `verify_plasticity`.  Returns
    (point, steps)."""
    point, norm, steps = _median(points, weights, anchor)
    if not norm < RESIDUAL_TOL * sum(weights):
        raise ConvergenceError(f"median iteration stalled at residual {norm:.3e}",
                               last=point, residual=norm)
    return point, steps


def _tree(wq: WeightedQuadrilateral, p: Point, case: CaseTag = _FLOATING,
          iterations: int = 0) -> FermatTree:
    """The tree at p, on its star measured once (`measure_star`): the
    distances to the vertices for the objective, which raises QuadFTError
    if it overflows, and the unit vectors toward every vertex but one that p
    sits on for the angles (NaN where they would meet that vertex) and for
    the residual (`_pull`).  p sits on a vertex when the case absorbs, and
    when a floating median rounds onto one."""
    w = wq.weights
    distances, units = measure_star(p, wq.quad.vertices)  # no unit toward p itself
    objective = 0.0
    for wj, d in zip(w, distances):
        objective += wj * d  # the order and rounding of `weighted_distance_sum`
    if objective == math.inf:
        raise QuadFTError(f"the objective at {p.as_tuple()} overflows the largest float; "
                          "divide the weights or the coordinates by a common factor")
    angles = [math.nan if u is None or v is None
              else clamped_acos(u[0] * v[0] + u[1] * v[1])
              for u, v in zip(units, units[1:] + units[:1])]
    return FermatTree(
        point=p,
        case=case,
        angles=tuple(angles),
        objective=objective,
        equilibrium_residual=_pull(w, distances, units),
        iterations=iterations,
    )


def _median_tree(wq: WeightedQuadrilateral, anchor, point: Point,
                 iterations: int) -> FermatTree:
    """The tree at a certified median, at the point `_settle` stores; the
    angle systems' trees are built here too."""
    tree = _tree(wq, point, iterations=iterations)
    stored = _settle(wq.quad.vertices, wq.weights, anchor, point, tree.equilibrium_residual)
    return tree if stored is point else _tree(wq, stored, iterations=iterations)


def _settle(points, weights, anchor, point: Point, pull: float) -> Point:
    """The median as stored: `point`, unless `_median` anchored it next to a
    point at distance r, where rounding moves the pull by about w ulp / r,
    and its `pull`, as `_tree` measures it, misses RESIDUAL_TOL times the
    total; then the float point within 3 ulps whose pull is least."""
    total = sum(weights)
    if anchor[1] >= _ANCHOR_SLACK * total or pull < RESIDUAL_TOL * total:
        return point
    ux, uy = math.ulp(point.x), math.ulp(point.y)
    return min((Point(point.x + i * ux, point.y + j * uy)
                for i in range(-3, 4) for j in range(-3, 4)),
               key=lambda q: _pull(weights, *measure_star(q, points)))


def _pull(weights, distances, units) -> float:
    """The pull at a point of its star (`measure_star`), less the weight of
    the vertex it sits on, floored at 0: the least subgradient there."""
    pull = math.hypot(*_weighted_sum(weights, units))
    if 0.0 in distances:
        pull = max(0.0, pull - weights[distances.index(0.0)])
    return pull


# ------------------------------------------------------------------ #
# The paper's angle systems, read at the median
# ------------------------------------------------------------------ #

def _system_tree(wq: WeightedQuadrilateral, system, name: str) -> FermatTree:
    """`locate_4wft`'s tree, cross-checked by one of the paper's angle systems.

    An instance that is not floating raises InconsistentCaseError naming the
    absorbing vertex.  `_certified_median` runs on the vertices in A1's
    frame, where `_median` measures anyway: its iterate and verdict are
    `locate_4wft`'s.  `system(v, weights, median)` reads the system there:
    a residual above `_EQUILIBRIUM_RTOL`, or a rebuilt point more than
    `_REBUILD_RTOL` times the diameter from the median, raises
    InconsistentCaseError.  The tree is `locate_4wft`'s.
    """
    tag = classify_case(wq)
    if tag.kind is not CaseKind.FLOATING:
        raise InconsistentCaseError(
            f"instance is not floating (absorbed at vertex {tag.vertex})")
    a1 = wq.quad.vertices[0]
    v = [Point(p.x - a1.x, p.y - a1.y) for p in wq.quad.vertices]
    median, iterations = _certified_median(v, wq.weights, tag._anchor)
    residual, rebuilt = system(v, wq.weights, median)
    gap = rebuilt.distance_to(median) / wq.quad.diameter()
    if not (residual <= _EQUILIBRIUM_RTOL and gap <= _REBUILD_RTOL):
        raise InconsistentCaseError(
            f"the {name} does not hold at the median: residual {residual:.3e}, "
            f"rebuilt point {gap:.3e} of the diameter from it")
    return _median_tree(wq, tag._anchor, Point(a1.x + median.x, a1.y + median.y), iterations)


# ------------------------------------------------------------------ #
# Square boundary: circle system
# ------------------------------------------------------------------ #

def _square_system(v, weights, median: Point):
    """The circle system of the square v, A1 at the origin and A2 at
    (side, 0), read at the median: (residual, rebuilt point).

    Its unknowns a102 and a401 are measured there; a304 follows from a102 by
    the first squared balance, and `_square_point` rebuilds the optimum from
    the three.
    """
    total = sum(weights)
    b1, b2, b3, b4 = (w / total for w in weights)  # the weights' scale drops out
    a102 = angle_at(median, v[0], v[1])
    a401 = angle_at(median, v[3], v[0])
    a304 = clamped_acos(
        (b1 * b1 + 2.0 * b1 * b2 * math.cos(a102) + b2 * b2 - b3 * b3 - b4 * b4) / (2.0 * b3 * b4)
    )
    csc102, csc304, csc401 = 1.0 / math.sin(a102), 1.0 / math.sin(a304), 1.0 / math.sin(a401)
    r1 = (
        csc102**2 * csc304**2 * csc401**2
        * (math.cos(a102) - math.sin(a102))
        * (math.cos(a304) - math.sin(a304))
        * (math.cos(a102 - a304) - math.cos(a102 + a304 + 2.0 * a401)
           - 2.0 * math.sin(a102 + a304))
    )
    r2 = (
        -b1 * b1 - 2.0 * b1 * b2 * math.cos(a102) - b2 * b2 + b3 * b3
        - 2.0 * b1 * b4 * math.cos(a401)
        - 2.0 * b2 * b4 * math.cos(a102 + a401)
        - b4 * b4
    )
    return math.hypot(r1, r2), _square_point(v[1].x, a102, a304, a401)


def _square_point(side: float, a102: float, a304: float, a401: float) -> Point:
    cot102 = math.cos(a102) / math.sin(a102)
    cot304 = math.cos(a304) / math.sin(a304)
    cot401 = math.cos(a401) / math.sin(a401)
    x = (
        side * (-1.0 + cot102) * (-1.0 + cot304)
        / ((-2.0 + cot102 + cot304) * (-1.0 + cot401))
    )
    y = -(side - side * cot304) / (cot102 + cot304 - 2.0)
    return Point(x, y)


def solve_4wft_square(side: float, weights) -> FermatTree:
    """`locate_4wft`'s tree on the square (0,0),(a,0),(a,a),(0,a), checked by
    the paper's three-circle system in (a102, a401) at the median
    (`_system_tree`)."""
    if side <= 0.0:
        raise QuadFTError("square side must be positive")
    quad = Quadrilateral.from_coords([(0, 0), (side, 0), (side, side), (0, side)])
    return _system_tree(WeightedQuadrilateral(quad, tuple(weights)), _square_system,
                        "circle system")


# ------------------------------------------------------------------ #
# General quadrilateral: four-angle system
# ------------------------------------------------------------------ #

def _general_system(v, weights, median: Point):
    """The four-angle system of the quadrilateral v, A1 at the origin, read
    at the median: (residual, rebuilt point).

    Its unknowns (a102, a401, a304, a013) are measured there; a013 is the
    signed angle from ray A1->A0 to ray A1->A3 (positive when A0 lies on the
    A2 side of the diagonal).  The optimum is rebuilt on the ray A1->A0 at
    a01 = a41 sin(a013 + a314 + a401) / sin(a401) from A1.
    """
    total = sum(weights)
    b1, b2, b3, b4 = (w / total for w in weights)  # the weights' scale drops out
    a12 = v[0].distance_to(v[1])
    a41 = v[3].distance_to(v[0])
    a31 = v[2].distance_to(v[0])
    alpha213 = angle_at(v[0], v[1], v[2])
    alpha314 = angle_at(v[0], v[2], v[3])
    a102 = angle_at(median, v[0], v[1])
    a401 = angle_at(median, v[3], v[0])
    a304 = angle_at(median, v[2], v[3])
    u13 = v[0].unit_toward(v[2])
    u10 = v[0].unit_toward(median)
    a013 = math.atan2(cross2(*u10, *u13), u10[0] * u13[0] + u10[1] * u13[1])
    s = a304 + a401
    cot102 = math.cos(a102) / math.sin(a102)
    cot_s = math.cos(s) / math.sin(s)
    r1 = b3 * b3 - (
        b1 * b1 + b2 * b2 + b4 * b4
        + 2.0 * b2 * b4 * math.cos(a401 + a102)
        + 2.0 * b1 * b2 * math.cos(a102)
        + 2.0 * b1 * b4 * math.cos(a401)
    )
    r2 = (
        math.cos(s) * (b4 * math.sin(a401) - b2 * math.sin(a102))
        - math.sin(s) * (b1 + b2 * math.cos(a102) + b4 * math.cos(a401))
    )
    n70 = math.sin(alpha213) - math.cos(alpha213) * cot102 - (a31 / a12) * cot_s
    d70 = -math.cos(alpha213) - math.sin(alpha213) * cot102 + a31 / a12
    n71 = math.sin(alpha314) - math.cos(alpha314) / math.tan(a401) + (a31 / a41) * cot_s
    d71 = math.cos(alpha314) + math.sin(alpha314) / math.tan(a401) - a31 / a41
    r3 = math.cos(a013) * d70 - math.sin(a013) * n70
    r4 = math.cos(a013) * d71 - math.sin(a013) * n71
    a01 = a41 * math.sin(a013 + alpha314 + a401) / math.sin(a401)
    dx, dy = rotate(*u13, -a013)
    return math.hypot(r1, r2, r3, r4), Point(a01 * dx, a01 * dy)


def solve_4wft_general(wq: WeightedQuadrilateral) -> FermatTree:
    """`locate_4wft`'s tree on a general convex quadrilateral, checked by the
    paper's four-angle system in (a102, a401, a304, a013) at the median, in
    A1's frame so that a translation does not enter the angles
    (`_system_tree`)."""
    return _system_tree(wq, _general_system, "angle system")


# ------------------------------------------------------------------ #
# Facade
# ------------------------------------------------------------------ #

def locate_4wft(wq: WeightedQuadrilateral) -> FermatTree:
    """Locate the degree-four optimum for any valid instance.

    Absorbed instances return the vertex tree; equal weights short-circuit to
    the diagonal intersection.  A floating instance is classified once, and
    Kuhn's test anchors its median (`_median`); `iterations` counts its
    steps, those along Kuhn's ray included.  A pull that misses
    `RESIDUAL_TOL` times the total weight raises ConvergenceError, and an
    objective that overflows QuadFTError.  That gate reads the iterate in
    the median's frame; the tree is measured at the point as stored
    (`_settle`), whose pull can exceed it: moved by (1e7, 1e7), where the
    coordinate ulp is 1.9e-9, a barely floating instance reports 1.2e-8 of
    the total, and no float point next to it pulls below 1e-10 of it.
    """
    tag = classify_case(wq)
    if tag.kind is CaseKind.ABSORBED:
        return _tree(wq, wq.quad.vertices[tag.vertex - 1], tag)
    w = wq.weights
    if max(w) - min(w) <= EQUAL_WEIGHT_RTOL * max(w):
        return _tree(wq, diagonal_intersection(wq.quad), CaseTag(CaseKind.DIAGONAL))
    point, iterations = _certified_median(wq.quad.vertices, w, tag._anchor)
    return _median_tree(wq, tag._anchor, point, iterations)
