"""Weighted Fermat-Torricelli solvers of degree three and four.

Covers case classification (floating / absorbed / diagonal shortcut), the
triangle closed form, the certified median, the circle system for a square
boundary, and the general quadrilateral angle system.  The triangle closed
form, `triangle_wft_angles`, also gives the angles at both interior nodes of
a Gauss tree (`gauss._branch`).  Degree-four locations have no closed form,
so everything quadrilateral-shaped is iterative.

The case is decided by `_kuhn_case`: Kuhn's test (Kuhn 1973, "A note on
Fermat's problem"), on the unit vectors between the points
(`geometry.measure_pairs`, which a quadrilateral runs once, at
construction).  A point absorbs when the weighted pull of the others on it
exceeds its own weight by at most `CASE_BOUNDARY_TOL` times the total.
`classify_case` and `weiszfeld` read it.  The plasticity check decides the
same test on a whole weight line at once, from the interval where each
vertex absorbs (`plasticity.verify_plasticity`).  Every `FermatTree` is
built by one function, `_tree`, whether at an absorbing vertex, at the
diagonal intersection or at the median, the angle systems' tree included; it
measures the point's star by `geometry.measure_star`, one hypot per vertex,
the measurement `plasticity_line` and `plasticity._Family` take too.

A floating median, of a triangle (`weiszfeld`) or of a quadrilateral
(`locate_4wft`), has one path, `_median`: one loop on one evaluation of the
gradient and Hessian of the weighted distance sum, relative to the first
point, which `_median` measures itself.  The points' spread and the largest
weight are each scaled by the power of two that brings them into [0.5, 1),
so that no Hessian entry overflows however close the points lie or however
large or small the weights are.  It starts at the weighted centroid,
takes at most 5 Weiszfeld steps, each a gradient step scaled by the
Hessian's trace, then Newton steps, which converge quadratically to the
median.  The residual gate is the certificate: the median is unique, and a
point is accepted only when its pull is below `RESIDUAL_TOL` times the
total weight.  The paper's angle systems check that point and return
`locate_4wft`'s tree: `_system_tree` reads each system at `_median`'s
iterate in A1's frame and gates its residual, the gap of the point it
rebuilds to the median, and the median's pull, at `_EQUILIBRIUM_RTOL`
rather than `RESIDUAL_TOL`, so that barely floating medians that stall
between the two still get an answer.
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
_EQUILIBRIUM_RTOL = 1e-7  # angle-system gate on the pull over the total weight, and on the residual
_REBUILD_RTOL = 1e-10     # angle-system gate on the rebuilt point's gap, relative to the diameter
_SEED_TOL = 1e-2       # Weiszfeld seed residual, relative to the total weight
_SEED_MAX_ITER = 5     # Weiszfeld seed step cap
_POLISH_TOL = 1e-14    # Newton polish target, relative to the total weight

TWO_PI = 2.0 * math.pi


class CaseKind(enum.Enum):
    FLOATING = "floating"
    ABSORBED = "absorbed"
    DIAGONAL = "diagonal"


class CaseTag(_Record):
    """Classification of a degree-four optimum.

    `vertex` is the 1-based absorbing vertex index when kind is ABSORBED.
    `boundary` marks classifications within tolerance of the absorbed/floating
    boundary.
    """

    __slots__ = _fields = ("kind", "vertex", "boundary")

    def __init__(self, kind: CaseKind, vertex: int | None = None, boundary: bool = False):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "boundary", boundary)


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
    absorption inequality fails (absorbed case, zero when it holds).  It is the
    true pull at `point` as stored: far from the origin the nearest float
    coordinates can pull harder than the solve's relative-frame iterate did
    (see `locate_4wft`), and a floating median can round onto a vertex, whose
    tree then reads as an absorbed one does, with its case floating.
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
    """Absorbed/floating classification of the degree-four problem.

    A vertex absorbs when the combined pull of the other three weights does not
    exceed its own weight; the first such vertex in index order wins.  Within
    `CASE_BOUNDARY_TOL` * total of equality it is reported absorbed with a
    boundary flag.  The pulls read the unit vectors the quadrilateral measured
    at construction.
    """
    return _kuhn_case(wq.quad.unit_vectors, wq.weights)


def _kuhn_case(units, weights) -> CaseTag:
    """Kuhn's absorption test on the unit vectors u[i][j] between the points
    (`geometry.measure_pairs`): the slack of point i is the norm of the
    others' weighted pull on it minus its own weight, and the first point
    whose slack is at most `CASE_BOUNDARY_TOL` times the total weight
    absorbs.  Along a plasticity line the pulls are affine in B4 and the
    slack convex, so `plasticity.verify_plasticity` decides this test on the
    whole line from the one interval where each vertex absorbs; the two
    decide alike except within rounding of an interval end."""
    margin = CASE_BOUNDARY_TOL * sum(weights)
    for i, w in enumerate(weights):
        slack = math.hypot(*_weighted_sum(weights, units[i])) - w
        if slack <= margin:
            return CaseTag(CaseKind.ABSORBED, vertex=i + 1, boundary=abs(slack) <= margin)
    return CaseTag(CaseKind.FLOATING)


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
    scaled first by the power of two that brings the largest into [0.5, 1):
    the cosines are ratios of the weights, the scaling is exact, no square
    overflows, and the triangle inequality keeps every product 2 b b'
    nonzero."""
    e = -math.frexp(max(bi, bj, bk))[1]
    bi, bj, bk = math.ldexp(bi, e), math.ldexp(bj, e), math.ldexp(bk, e)
    a_i0j = clamped_acos((bk * bk - bi * bi - bj * bj) / (2.0 * bi * bj))
    a_j0k = clamped_acos((bi * bi - bj * bj - bk * bk) / (2.0 * bj * bk))
    a_k0i = clamped_acos((bj * bj - bk * bk - bi * bi) / (2.0 * bk * bi))
    return a_i0j, a_j0k, a_k0i


# ------------------------------------------------------------------ #
# The weighted median
# ------------------------------------------------------------------ #

def _collinear(points) -> bool:
    """Rank < 2 of the centred coordinates: their smaller singular value is at
    most 1e-12 * max |x|, so the test is the same at every scale (coincident
    points, all at 0, are collinear).

    That singular value is the norm of the coordinates across the principal
    axis, taken from the rotated coordinates themselves rather than from the
    Gram matrix, so it stays accurate far below the square root of machine
    precision.  The centred coordinates are first scaled by the power of two
    that brings max |x| into [0.5, 1): the scaling is exact, and no square
    of a coordinate overflows or underflows.
    """
    n = len(points)
    cx = sum(p.x for p in points) / n
    cy = sum(p.y for p in points) / n
    spread = max(max(abs(p.x - cx), abs(p.y - cy)) for p in points)
    e = -math.frexp(spread)[1]
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
    the sum of their weights.  Absorbed instances return the dominating
    vertex directly (Kuhn's test of `classify_case`: the pull of the others
    exceeds its weight by at most `CASE_BOUNDARY_TOL` times the total).
    Otherwise the median of `locate_4wft`: at most 5 Weiszfeld steps, then
    at most `NEWTON_MAX_ITER` Newton steps, on one gradient evaluation per
    step; a pull not below RESIDUAL_TOL * sum(weights) raises
    ConvergenceError.
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
    return _certified_median(points, weights)[0]


def _median(points, weights):
    """The weighted median of `points`, by one loop on the gradient of the
    weighted distance sum, in coordinates relative to the first point (so a
    far translation does not swamp the pull in rounding) and scaled by the
    power of two that brings their largest magnitude into [0.5, 1), as
    `_collinear` scales, and the weights by the power of two that brings the
    largest into [0.5, 1): the scalings and their inverses on the point and
    the pull are exact, and the Hessian determinant, of order (w / r)^2,
    over- or underflows for no points however close or weights however
    large or small.

    From the weighted centroid: at most `_SEED_MAX_ITER` Weiszfeld steps
    while the pull is at least `_SEED_TOL` times the total, then at most
    `NEWTON_MAX_ITER` damped Newton steps to `_POLISH_TOL` times it.  The
    Weiszfeld step x - g / (hxx + hyy) reads the trace of the Hessian, which
    is sum w_i / r_i; Newton is quadratic where Weiszfeld is only linear, and
    the Hessian is positive definite off the points.  Returns (point,
    residual_norm, steps of both kinds); the caller judges the residual.
    """
    ox, oy = points[0].x, points[0].y
    e = math.frexp(max(max(abs(q.x - ox), abs(q.y - oy)) for q in points))[1]
    scale, unscale = math.ldexp(1.0, -e), math.ldexp(1.0, e)
    relative = [((q.x - ox) * scale, (q.y - oy) * scale) for q in points]
    f = math.frexp(max(weights))[1]
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
        return gx, gy, hxx, hxy, hyy

    x = sum(w * qx for w, (qx, _) in zip(weights, relative)) / total
    y = sum(w * qy for w, (_, qy) in zip(weights, relative)) / total
    state = gradient(x, y)
    if state is None:
        return Point(ox + x * unscale, oy + y * unscale), math.inf, 0
    norm = math.hypot(state[0], state[1])
    steps = 0
    while steps < _SEED_MAX_ITER and norm >= _SEED_TOL * total:
        gx, gy, hxx, _, hyy = state
        nx, ny = x - gx / (hxx + hyy), y - gy / (hxx + hyy)
        trial = gradient(nx, ny)
        if trial is None:
            break
        x, y, state = nx, ny, trial
        norm = math.hypot(state[0], state[1])
        steps += 1
    limit = _POLISH_TOL * total
    newton = 0
    while newton < NEWTON_MAX_ITER and norm >= limit:
        gx, gy, hxx, hxy, hyy = state
        det = hxx * hyy - hxy * hxy
        if not det > 0.0:
            break
        sx = (hxy * gy - hyy * gx) / det
        sy = (hxy * gx - hxx * gy) / det
        t = 1.0
        while t > 1e-12:
            trial = gradient(x + t * sx, y + t * sy)
            if trial is not None and math.hypot(trial[0], trial[1]) < norm:
                break
            t *= 0.5
        else:
            break
        x, y, state = x + t * sx, y + t * sy, trial
        norm = math.hypot(state[0], state[1])
        newton += 1
    return Point(ox + x * unscale, oy + y * unscale), math.ldexp(norm, f), steps + newton


def _certified_median(points, weights):
    """`_median`, raising ConvergenceError unless its pull is below
    RESIDUAL_TOL * sum(weights).  Returns (point, steps)."""
    point, norm, steps = _median(points, weights)
    if not norm < RESIDUAL_TOL * sum(weights):
        raise ConvergenceError(f"median iteration stalled at residual {norm:.3e}",
                               last=point, residual=norm)
    return point, steps


def _tree(wq: WeightedQuadrilateral, p: Point, case: CaseTag = _FLOATING,
          iterations: int = 0) -> FermatTree:
    """The tree at p, on its star measured once (`measure_star`): the
    distances to the vertices for the objective, and the unit vectors toward
    every vertex but one that p sits on for the angles (NaN where they would
    meet that vertex) and for the pull.  The residual is that pull, less the
    weight of the vertex p sits on, floored at 0: the least subgradient of
    the objective there.  p sits on a vertex when the case absorbs, and when
    a floating median, mapped back from A1's frame, rounds onto one; the
    angle systems' trees are built here too."""
    w = wq.weights
    distances, units = measure_star(p, wq.quad.vertices)  # no unit toward p itself
    objective = 0.0
    for wj, d in zip(w, distances):
        objective += wj * d  # the order and rounding of `weighted_distance_sum`
    angles = [math.nan if u is None or v is None
              else clamped_acos(u[0] * v[0] + u[1] * v[1])
              for u, v in zip(units, units[1:] + units[:1])]
    pull = math.hypot(*_weighted_sum(w, units))
    if 0.0 in distances:
        pull = max(0.0, pull - w[distances.index(0.0)])
    return FermatTree(
        point=p,
        case=case,
        angles=tuple(angles),
        objective=objective,
        equilibrium_residual=pull,
        iterations=iterations,
    )


# ------------------------------------------------------------------ #
# The paper's angle systems, read at the median
# ------------------------------------------------------------------ #

def _system_tree(wq: WeightedQuadrilateral, system, name: str) -> FermatTree:
    """`locate_4wft`'s tree, cross-checked by one of the paper's angle systems.

    An instance that is not floating raises InconsistentCaseError naming the
    absorbing vertex.  `_median` runs on the vertices minus A1, the frame it
    solves in anyway, so its iterate is `locate_4wft`'s;
    `system(v, weights, median)` reads the system there and returns its
    residual and the point the paper's reconstruction rebuilds.  A residual
    above `_EQUILIBRIUM_RTOL`, or a rebuilt point more than `_REBUILD_RTOL`
    times the diameter from the median, raises InconsistentCaseError; a
    median whose pull exceeds `_EQUILIBRIUM_RTOL` times the total weight
    raises ConvergenceError.  The tree is at the median moved back by A1:
    wherever `locate_4wft` certifies the median, it is that function's tree.
    """
    tag = classify_case(wq)
    if tag.kind is not CaseKind.FLOATING:
        raise InconsistentCaseError(
            f"instance is not floating (absorbed at vertex {tag.vertex})")
    a1 = wq.quad.vertices[0]
    v = [Point(p.x - a1.x, p.y - a1.y) for p in wq.quad.vertices]
    median, pull, iterations = _median(v, wq.weights)
    residual, rebuilt = system(v, wq.weights, median)
    gap = rebuilt.distance_to(median) / wq.quad.diameter()
    if not (residual <= _EQUILIBRIUM_RTOL and gap <= _REBUILD_RTOL):
        raise InconsistentCaseError(
            f"the {name} does not hold at the median: residual {residual:.3e}, "
            f"rebuilt point {gap:.3e} of the diameter from it")
    point = Point(a1.x + median.x, a1.y + median.y)
    if not pull <= _EQUILIBRIUM_RTOL * wq.total:
        raise ConvergenceError(f"the {name} was read at a median off equilibrium: pull "
                               f"{pull / wq.total:.3e} of the total weight",
                               last=point, residual=pull)
    return _tree(wq, point, iterations=iterations)


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
    the paper's three-circle system in (a102, a401) at the median.

    `_system_tree` reads `_square_system` at the median, gates its residual
    and rebuilt point and the median's pull, and returns the tree at the
    median.  A weight set that is not floating raises InconsistentCaseError.
    """
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
    paper's four-angle system in (a102, a401, a304, a013) at the median.

    `_system_tree` reads `_general_system` at the median, in A1's frame so
    that a translation does not enter the angles, gates its residual and
    rebuilt point and the median's pull, and returns the tree at the median.
    A weight set that is not floating raises InconsistentCaseError.
    """
    return _system_tree(wq, _general_system, "angle system")


# ------------------------------------------------------------------ #
# Facade
# ------------------------------------------------------------------ #

def locate_4wft(wq: WeightedQuadrilateral) -> FermatTree:
    """Locate the degree-four optimum for any valid instance.

    Absorbed instances return the vertex tree; equal weights short-circuit to
    the diagonal intersection.  A floating instance is classified once; its
    median takes at most 5 Weiszfeld steps, to 1e-2 of the total weight, then
    Newton steps on the same gradient, which polish it to 1e-14 of it in at
    most `NEWTON_MAX_ITER` steps.  The tree, with its angles, is measured at
    that point; `iterations` counts the steps of both kinds.  A residual that
    misses `RESIDUAL_TOL` times the total weight raises ConvergenceError.

    That gate applies to the Newton iterate in coordinates relative to A1.
    Mapping it back rounds it to the float grid of the absolute coordinates,
    so the tree's `equilibrium_residual`, measured at the returned point, can
    exceed `RESIDUAL_TOL` times the total: moved by (1e7, 1e7), where the
    coordinate ulp is 1.9e-9, a barely floating instance reports 1.2e-8 of
    the total, and no float point next to it pulls below 1e-10 of it.
    """
    tag = classify_case(wq)
    if tag.kind is CaseKind.ABSORBED:
        return _tree(wq, wq.quad.vertices[tag.vertex - 1], tag)
    w = wq.weights
    if max(w) - min(w) <= EQUAL_WEIGHT_RTOL * max(w):
        return _tree(wq, diagonal_intersection(wq.quad), CaseTag(CaseKind.DIAGONAL))
    point, iterations = _certified_median(wq.quad.vertices, w)
    return _tree(wq, point, iterations=iterations)
