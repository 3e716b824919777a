"""Weighted Fermat-Torricelli solvers of degree three and four.

Covers case classification (floating / absorbed / diagonal shortcut), the
triangle closed form, the certified median, the circle system for a square
boundary, and the general quadrilateral angle system.  Degree-four locations
have no closed form, so everything quadrilateral-shaped is iterative.

The case is decided by `_kuhn_case`: Kuhn's test (Kuhn 1973, "A note on
Fermat's problem"), on the unit vectors between the points
(`geometry.unit_matrix`, cached per quadrilateral).  A point absorbs when the
weighted pull of the others on it exceeds its own weight by at most
`CASE_BOUNDARY_TOL` times the total.  `classify_case` and `weiszfeld` read
it.  The plasticity check runs the same test on pulls that are affine along
its weight line (`plasticity._Family.absorbing_vertex`).  Every `FermatTree`
is built by one function, `_tree`, whether at an absorbing vertex, at the
diagonal intersection, at the median or at an angle system's point.

A floating median, of a triangle (`weiszfeld`) or of a quadrilateral
(`locate_4wft`), has one path, `_median`: one loop on one evaluation of the
gradient and Hessian of the weighted distance sum, relative to the first
point, which `_median` measures itself.  It starts at the weighted centroid,
takes at most 5 Weiszfeld steps, each a gradient step scaled by the
Hessian's trace, then Newton steps, which converge quadratically to the
median.  The residual gate is the certificate: the median is unique, and a
point is accepted only when its pull is below `tol` times the total weight.
The paper's angle systems stay as independent solvers that, given no start,
measure it at that median.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    AbsorbedWeightsError,
    ConvergenceError,
    InconsistentCaseError,
    QuadFTError,
)
from .geometry import (
    Point,
    Quadrilateral,
    angle_at,
    clamped_acos,
    cross2,
    diagonal_intersection,
    rotate,
    solve_linear,
    unit_matrix,
)

RESIDUAL_TOL = 1e-10
NEWTON_MAX_ITER = 200
CASE_BOUNDARY_TOL = 1e-9
EQUAL_WEIGHT_RTOL = 1e-12
_SEED_TOL = 1e-2       # Weiszfeld seed residual, relative to the total weight
_SEED_MAX_ITER = 5     # Weiszfeld seed step cap
_POLISH_TOL = 1e-14    # Newton polish target, relative to the total weight

TWO_PI = 2.0 * math.pi


class CaseKind(enum.Enum):
    FLOATING = "floating"
    ABSORBED = "absorbed"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class CaseTag:
    """Classification of a degree-four optimum.

    `vertex` is the 1-based absorbing vertex index when kind is ABSORBED.
    `boundary` marks classifications within tolerance of the absorbed/floating
    boundary.
    """

    kind: CaseKind
    vertex: int | None = None
    boundary: bool = False


_FLOATING = CaseTag(CaseKind.FLOATING)


def _positive_weights(weights) -> tuple[float, ...]:
    """The weights as floats; QuadFTError unless each is positive and finite."""
    w = tuple(float(v) for v in weights)
    if not all(v > 0.0 and math.isfinite(v) for v in w):
        raise QuadFTError(f"weights must be positive and finite, got {w}")
    return w


@dataclass(frozen=True)
class WeightedQuadrilateral:
    """Convex quadrilateral with one positive weight per vertex."""

    quad: Quadrilateral
    weights: tuple[float, float, float, float]

    def __post_init__(self):
        w = tuple(self.weights)
        if len(w) != 4:
            raise QuadFTError("exactly four weights are required")
        object.__setattr__(self, "weights", _positive_weights(w))

    @property
    def total(self) -> float:
        return sum(self.weights)

    def normalized(self) -> WeightedQuadrilateral:
        """Same instance with weights divided by their sum (explicit opt-in)."""
        s = self.total
        return WeightedQuadrilateral(self.quad, tuple(w / s for w in self.weights))


@dataclass(frozen=True)
class FermatTree:
    """Degree-four tree: the optimum, its case, edge angles and objective.

    `angles` holds (a102, a203, a304, a401) in radians; entries involving an
    absorbing vertex are NaN.  `equilibrium_residual` is the norm of the weighted
    unit-vector sum at the optimum (floating case), or the amount by which the
    absorption inequality fails (absorbed case, zero when it holds).  It is the
    true pull at `point` as stored: far from the origin the nearest float
    coordinates can pull harder than the solve's relative-frame iterate did
    (see `locate_4wft`).
    """

    point: Point
    case: CaseTag
    angles: tuple[float, float, float, float]
    objective: float
    equilibrium_residual: float
    iterations: int = 0


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


def classify_case(wq: WeightedQuadrilateral, tol: float = CASE_BOUNDARY_TOL) -> CaseTag:
    """Absorbed/floating classification of the degree-four problem.

    A vertex absorbs when the combined pull of the other three weights does not
    exceed its own weight; the first such vertex in index order wins.  Within
    `tol * total` of equality the result is reported absorbed with a boundary
    flag.  The pulls read the quadrilateral's unit vectors, measured once.
    """
    return _kuhn_case(wq.quad.unit_vectors, wq.weights, tol)


def _kuhn_case(units, weights, tol: float = CASE_BOUNDARY_TOL) -> CaseTag:
    """Kuhn's absorption test on the unit vectors u[i][j] between the points
    (`geometry.unit_matrix`): the slack of point i is the norm of the others'
    weighted pull on it minus its own weight, and the first point whose slack
    is at most `tol` times the total weight absorbs.  Along a plasticity line
    `plasticity._Family.absorbing_vertex` applies this test to affine pulls;
    the two must decide alike."""
    margin = tol * sum(weights)
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
    a_i0j = math.acos((bk * bk - bi * bi - bj * bj) / (2.0 * bi * bj))
    a_j0k = math.acos((bi * bi - bj * bj - bk * bk) / (2.0 * bj * bk))
    a_k0i = math.acos((bj * bj - bk * bk - bi * bi) / (2.0 * bk * bi))
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
    precision.
    """
    n = len(points)
    cx = sum(p.x for p in points) / n
    cy = sum(p.y for p in points) / n
    xs = [(p.x - cx, p.y - cy) for p in points]
    tol = 1e-12 * max(max(abs(x), abs(y)) for x, y in xs)
    a = sum(x * x for x, _ in xs)
    b = sum(x * y for x, y in xs)
    c = sum(y * y for _, y in xs)
    theta = 0.5 * math.atan2(2.0 * b, a - c)  # the principal axis
    cs, sn = math.cos(theta), math.sin(theta)
    return math.sqrt(sum((cs * y - sn * x) ** 2 for x, y in xs)) <= tol


def weiszfeld(points, weights, tol: float = RESIDUAL_TOL,
              max_iter: int = NEWTON_MAX_ITER) -> Point:
    """Weighted geometric median of >= 3 points, not all collinear.

    Weights that are not positive and finite raise QuadFTError.  Coincident
    points are one point carrying the sum of their weights.  Absorbed
    instances return the dominating vertex directly (Kuhn's test of
    `classify_case`: the pull of the others exceeds its weight by at most
    `CASE_BOUNDARY_TOL` times the total).  Otherwise the median of
    `locate_4wft`: at most 5 Weiszfeld steps, then at most `max_iter` Newton
    steps, on one gradient evaluation per step; a pull not below
    tol * sum(weights) raises ConvergenceError, and a `tol` that is not
    positive or a `max_iter` below 1 raises QuadFTError.
    """
    points, weights = list(points), tuple(weights)
    if len(points) < 3 or len(points) != len(weights):
        raise QuadFTError("need at least three points with matching weights")
    merged = {}
    for p, w in zip(points, _positive_weights(weights)):
        merged[p] = merged.get(p, 0.0) + w
    points, weights = list(merged), tuple(merged.values())
    if _collinear(points):
        raise QuadFTError("points are collinear; the median problem degenerates")
    tag = _kuhn_case(unit_matrix(points), weights)
    if tag.kind is CaseKind.ABSORBED:
        return points[tag.vertex - 1]
    return _certified_median(points, weights, tol, max_iter)[0]


def _median(points, weights, tol: float = RESIDUAL_TOL,
            max_iter: int = NEWTON_MAX_ITER):
    """The weighted median of `points`, by one loop on the gradient of the
    weighted distance sum, in coordinates relative to the first point (so a
    far translation does not swamp the pull in rounding).

    From the weighted centroid: at most `_SEED_MAX_ITER` Weiszfeld steps
    while the pull is at least `_SEED_TOL` times the total, then at most
    `max_iter` damped Newton steps to min(tol, _POLISH_TOL) times it.  The
    Weiszfeld step x - g / (hxx + hyy) reads the trace of the Hessian, which
    is sum w_i / r_i; Newton is quadratic where Weiszfeld is only linear, and
    the Hessian is positive definite off the points.  Returns (point,
    residual_norm, steps of both kinds); the caller judges the residual.
    """
    ox, oy = points[0].x, points[0].y
    relative = [(q.x - ox, q.y - oy) for q in points]
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
        return Point(ox + x, oy + y), math.inf, 0
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
    limit = min(tol, _POLISH_TOL) * total
    newton = 0
    while newton < max_iter and norm >= limit:
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
    return Point(ox + x, oy + y), norm, steps + newton


def _certified_median(points, weights, tol: float = RESIDUAL_TOL,
                      max_iter: int = NEWTON_MAX_ITER):
    """`_median`, raising ConvergenceError unless its pull is below
    tol * sum(weights).  Returns (point, steps).  A `tol` that is not
    positive or a `max_iter` below 1 raises QuadFTError."""
    if not tol > 0.0:
        raise QuadFTError(f"tol must be positive, got {tol!r}")
    if not max_iter >= 1:
        raise QuadFTError(f"max_iter must be at least 1, got {max_iter!r}")
    point, norm, steps = _median(points, weights, tol, max_iter)
    if not norm < tol * sum(weights):
        raise ConvergenceError(f"median iteration stalled at residual {norm:.3e}",
                               last=point, residual=norm)
    return point, steps


# ------------------------------------------------------------------ #
# Damped Newton on small angle systems
# ------------------------------------------------------------------ #

def _norm(v) -> float:
    return math.sqrt(sum(t * t for t in v))


def _damped_newton(func, x0, lo, hi, tol, max_iter):
    """Newton with numeric Jacobian and halving line search, boxed to (lo, hi).

    `func` maps a tuple of floats to a tuple of residuals.  The Jacobian is the
    central difference (f(x + h e_j) - f(x - h e_j)) / (2h), and the step comes
    from Gaussian elimination with partial pivoting.  Accepts a stalled line
    search once the residual is already far below the geometry scale (1e-8),
    which in practice means machine-precision noise.
    """
    x = tuple(float(t) for t in x0)
    r = func(x)
    trace = [_norm(r)]
    n = len(x)
    h = 1e-7
    for _ in range(max_iter):
        norm = trace[-1]
        if norm < tol:
            return x, norm, trace
        columns = []
        for j in range(n):
            fp = func(x[:j] + (x[j] + h,) + x[j + 1:])
            fm = func(x[:j] + (x[j] - h,) + x[j + 1:])
            columns.append([(a - b) / (2.0 * h) for a, b in zip(fp, fm)])
        step = solve_linear(list(zip(*columns)), [-t for t in r])
        if step is None:
            raise ConvergenceError("singular Jacobian in Newton step",
                                   last=x, residual=norm, trace=trace)
        t = 1.0
        while t > 1e-12:
            xn = tuple(a + t * d for a, d in zip(x, step))
            if all(lo < v < hi for v in xn):
                rn = func(xn)
                if all(math.isfinite(v) for v in rn) and _norm(rn) < norm:
                    x, r = xn, rn
                    trace.append(_norm(r))
                    break
            t *= 0.5
        else:
            if norm < 1e-8:
                return x, norm, trace
            raise ConvergenceError("Newton line search stalled",
                                   last=x, residual=norm, trace=trace)
    norm = trace[-1]
    if norm < 1e-8:
        return x, norm, trace
    raise ConvergenceError(f"Newton did not converge in {max_iter} iterations",
                           last=x, residual=norm, trace=trace)


def _tree(wq: WeightedQuadrilateral, p: Point, case: CaseTag = _FLOATING,
          angles=None, iterations: int = 0) -> FermatTree:
    """The tree at p, on unit vectors from p toward every vertex but an
    absorbing one, measured once for the angles (NaN where they would meet
    the absorbing vertex) and for the pull.  The residual is that pull, less
    the absorbing vertex's weight when there is one, floored at 0."""
    pts, w, i = wq.quad.vertices, wq.weights, case.vertex
    units = [None if j + 1 == i else p.unit_toward(q) for j, q in enumerate(pts)]
    if angles is None:
        angles = [math.nan if u is None or v is None
                  else clamped_acos(u[0] * v[0] + u[1] * v[1])
                  for u, v in zip(units, units[1:] + units[:1])]
    pull = math.hypot(*_weighted_sum(w, units))
    return FermatTree(
        point=p,
        case=case,
        angles=tuple(angles),
        objective=weighted_distance_sum(pts, w, p),
        equilibrium_residual=pull if i is None else max(0.0, pull - w[i - 1]),
        iterations=iterations,
    )


# ------------------------------------------------------------------ #
# Square boundary: circle system
# ------------------------------------------------------------------ #

def _square_system(weights):
    total = sum(weights)
    b1, b2, b3, b4 = (w / total for w in weights)  # homogeneous: roots unchanged

    def a304_of(a102: float) -> float:
        arg = (b1 * b1 + 2.0 * b1 * b2 * math.cos(a102) + b2 * b2 - b3 * b3 - b4 * b4) / (
            2.0 * b3 * b4
        )
        return math.acos(min(1.0, max(-1.0, arg)))

    def residuals(v):
        a102, a401 = v
        a304 = a304_of(a102)
        if a304 == 0.0:  # acos(1): no csc there; the line search rejects NaN
            return math.nan, math.nan
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
        return r1, r2

    return residuals, a304_of


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


def solve_4wft_square(side: float, weights, init: tuple[float, float] | None = None,
                      tol: float = RESIDUAL_TOL,
                      max_iter: int = NEWTON_MAX_ITER) -> FermatTree:
    """Interior optimum on the square (0,0),(a,0),(a,a),(0,a) via the
    three-circle intersection system in (a102, a401).

    `init` overrides the Newton seed (radians, each in (0, pi)); by default the
    seed comes from the angles measured at the median.
    """
    if side <= 0.0:
        raise QuadFTError("square side must be positive")
    quad = Quadrilateral.from_coords([(0, 0), (side, 0), (side, side), (0, side)])
    wq = WeightedQuadrilateral(quad, tuple(weights))
    tag = classify_case(wq)
    if tag.kind is not CaseKind.FLOATING:
        raise InconsistentCaseError(
            f"square instance is not floating (absorbed at vertex {tag.vertex})"
        )
    func, a304_of = _square_system(wq.weights)
    if init is None:
        v = quad.vertices
        seed_pt, _, _ = _median(v, wq.weights, tol, max_iter)
        init = (angle_at(seed_pt, v[0], v[1]), angle_at(seed_pt, v[3], v[0]))
    if not all(0.0 < a < math.pi for a in init):
        raise QuadFTError(f"initial angles must lie in (0, pi), got {init}")
    sol, _, trace = _damped_newton(func, init, lo=1e-9, hi=TWO_PI - 1e-9,
                                   tol=tol, max_iter=max_iter)
    a102, a401 = sol
    a304 = a304_of(a102)
    a203 = TWO_PI - a102 - a304 - a401
    point = _square_point(side, a102, a304, a401)
    tree = _tree(wq, point, angles=(a102, a203, a304, a401), iterations=len(trace))
    if tree.equilibrium_residual > 1e-7 * wq.total:
        raise ConvergenceError(
            "circle system converged to a non-equilibrium point",
            last=point, residual=tree.equilibrium_residual, trace=trace,
        )
    return tree


# ------------------------------------------------------------------ #
# General quadrilateral: four-angle system
# ------------------------------------------------------------------ #

def _general_system(wq: WeightedQuadrilateral):
    v = wq.quad.vertices
    a12 = v[0].distance_to(v[1])
    a41 = v[3].distance_to(v[0])
    a31 = v[2].distance_to(v[0])
    alpha213 = angle_at(v[0], v[1], v[2])
    alpha314 = angle_at(v[0], v[2], v[3])
    total = wq.total
    b1, b2, b3, b4 = (w / total for w in wq.weights)  # homogeneous: roots unchanged

    def residuals(vec):
        a102, a401, a304, a013 = vec
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
        return r1, r2, r3, r4

    return residuals, a41, alpha314


def _seed_angles(v, seed: Point) -> tuple[float, float, float, float]:
    """(a102, a401, a304, a013) measured at a seed point, the Newton start."""
    u13 = v[0].unit_toward(v[2])
    u10 = v[0].unit_toward(seed)
    s013 = math.atan2(cross2(*u10, *u13), u10[0] * u13[0] + u10[1] * u13[1])
    return (
        angle_at(seed, v[0], v[1]),
        angle_at(seed, v[3], v[0]),
        angle_at(seed, v[2], v[3]),
        s013,
    )


def solve_4wft_general(wq: WeightedQuadrilateral, init=None,
                       tol: float = RESIDUAL_TOL,
                       max_iter: int = NEWTON_MAX_ITER) -> FermatTree:
    """Interior optimum on a general convex quadrilateral via the residual
    system in (a102, a401, a304, a013), then reconstruction from vertex A1.

    a013 is the signed angle from ray A1->A0 to ray A1->A3 (positive when A0
    lies on the A2 side of the diagonal).  The optimum is placed at distance
    a01 = a41 sin(a013 + a314 + a401) / sin(a401) from A1.  `init` overrides
    the Newton start; by default it is measured at the median.
    """
    tag = classify_case(wq)
    if tag.kind is not CaseKind.FLOATING:
        raise InconsistentCaseError(
            f"instance is not floating (absorbed at vertex {tag.vertex})"
        )
    v = wq.quad.vertices
    if init is None:
        seed, _, _ = _median(v, wq.weights, tol, max_iter)
        init = _seed_angles(v, seed)
    func, a41, alpha314 = _general_system(wq)
    sol, _, trace = _damped_newton(func, init, lo=-math.pi, hi=TWO_PI,
                                   tol=tol, max_iter=max_iter)
    a102, a401, a304, a013 = sol
    a203 = TWO_PI - a102 - a304 - a401
    a01 = a41 * math.sin(a013 + alpha314 + a401) / math.sin(a401)
    ux, uy = v[0].unit_toward(v[2])
    dx, dy = rotate(ux, uy, -a013)
    point = Point(v[0].x + a01 * dx, v[0].y + a01 * dy)
    if not wq.quad.contains(point, tol=1e-9):
        raise InconsistentCaseError(
            f"angle system placed the optimum outside the quadrilateral: {point}"
        )
    tree = _tree(wq, point, angles=(a102, a203, a304, a401), iterations=len(trace))
    if tree.equilibrium_residual > 1e-7 * wq.total:
        raise ConvergenceError(
            "angle system converged to a non-equilibrium point",
            last=point, residual=tree.equilibrium_residual, trace=trace,
        )
    return tree


# ------------------------------------------------------------------ #
# Facade
# ------------------------------------------------------------------ #

def locate_4wft(wq: WeightedQuadrilateral, tol: float = RESIDUAL_TOL,
                max_iter: int = NEWTON_MAX_ITER) -> FermatTree:
    """Locate the degree-four optimum for any valid instance.

    Absorbed instances return the vertex tree; equal weights short-circuit to
    the diagonal intersection.  A floating instance is classified once; its
    median takes at most 5 Weiszfeld steps, to 1e-2 of the total weight, then
    Newton steps on the same gradient, which polish it to 1e-14 of it (or
    `tol`, if smaller) in at most `max_iter` steps.  The tree, with its
    angles, is measured at that point; `iterations` counts the steps of both
    kinds.  A residual that misses `tol` times the total weight raises
    ConvergenceError, and a `tol` that is not positive or a `max_iter` below
    1 raises QuadFTError.

    That gate applies to the Newton iterate in coordinates relative to A1.
    Mapping it back rounds it to the float grid of the absolute coordinates,
    so the tree's `equilibrium_residual`, measured at the returned point, can
    exceed `tol` times the total: moved by (1e7, 1e7), where the coordinate
    ulp is 1.9e-9, a barely floating instance reports 1.2e-8 of the total,
    and no float point next to it pulls below 1e-10 of it.
    """
    tag = classify_case(wq)
    if tag.kind is CaseKind.ABSORBED:
        return _tree(wq, wq.quad.vertices[tag.vertex - 1], tag)
    w = wq.weights
    if max(w) - min(w) <= EQUAL_WEIGHT_RTOL * max(w):
        return _tree(wq, diagonal_intersection(wq.quad), CaseTag(CaseKind.DIAGONAL))
    point, iterations = _certified_median(wq.quad.vertices, w, tol, max_iter)
    return _tree(wq, point, iterations=iterations)
