"""Weighted Fermat-Torricelli solvers of degree three and four.

Covers case classification (floating / absorbed / diagonal shortcut), the
triangle closed form, which also gives the angles at both interior nodes of
a Gauss tree (`gauss._branch`), and the certified median.  Degree-four
locations have no closed form, so they are iterative.  The paper's circle
and angle systems, which check that median in the frame its tree carries
(`FermatTree._frame`), live in `quadft.checks`.

The case is decided by `_kuhn_case`: Kuhn's test (Kuhn 1973, "A note on
Fermat's problem") on the unit vectors between the points, which a
quadrilateral measures once, at construction.  A point absorbs when the
weighted pull of the others on it exceeds its own weight by at most
`CASE_BOUNDARY_TOL` times the total.  Every `FermatTree` is built by
`_tree`, on the point's star measured by `geometry.measure_star`.

Collinear points need no path of their own: their weighted median lies at
one of them, which Kuhn's test absorbs.  A floating median, of a triangle
(`weiszfeld`) or of a quadrilateral (`locate_4wft`), has one path,
`_median`: one damped Newton loop on the gradient and Hessian of the
weighted distance sum.  Kuhn's test gives its
frame and start: next to the vertex of least slack, on Kuhn's descent ray,
when that slack is below `_ANCHOR_SLACK` of the total, else relative to A1
from the weighted centroid, and from Kuhn's ray after all when that loop
stalls.  Frame and weights are scaled by powers of two
(`geometry._exponent`), so no Hessian entry over- or underflows.  The one
verdict is the residual gate: the median is unique, and a point is accepted
only when its pull is below `RESIDUAL_TOL` times the total weight.  The
tree, its plasticity line and the line's family read the star in the
frame the median was solved in (`FermatTree._frame`), at the certified
iterate, wherever the quadrilateral sits.
"""

from __future__ import annotations

import enum
import math

from .errors import AbsorbedWeightsError, ConvergenceError, QuadFTError, _Record
from .geometry import (
    Point,
    Quadrilateral,
    _diagonal_offset,
    _exponent,
    clamped_acos,
    measure_pairs,
    measure_star,
)

RESIDUAL_TOL = 1e-10
NEWTON_MAX_ITER = 200
CASE_BOUNDARY_TOL = 1e-9
EQUAL_WEIGHT_RTOL = 1e-12
_ANCHOR_SLACK = 0.05      # Kuhn slack, over the total weight, below which _median anchors
_RAY_MAX_ITER = 8         # gradient evaluations along Kuhn's descent ray
_RAY_TOL = 0.1            # the ray's slope, over the anchor's slack, that ends its search
_POLISH_TOL = 1e-14       # Newton polish target, relative to the total weight


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
    absorption inequality fails (absorbed case, zero when it holds).  Outside
    the fields, `_frame` is the frame the median was solved in (`_descend`):
    (k, offset) from vertex index k, or (0, offset) of the intersection on a
    diagonal tree, `point` being A_k + offset rounded; None on an absorbed
    tree.  Angles, objective and residual are read in it (`measure_star`):
    the residual is the frame's pull, which the gate passed, though
    `point`'s own pull can miss the gate next to a vertex or far out.
    """

    __slots__ = ("point", "case", "angles", "objective", "equilibrium_residual", "iterations",
                 "_frame")
    _fields = __slots__[:-1]

    def __init__(self, point: Point, case: CaseTag, angles: tuple[float, float, float, float],
                 objective: float, equilibrium_residual: float, iterations: int = 0,
                 _frame=None):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "equilibrium_residual", equilibrium_residual)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "_frame", _frame)


# ------------------------------------------------------------------ #
# Objective / equilibrium helpers
# ------------------------------------------------------------------ #

def weighted_distance_sum(points, weights, p: Point) -> float:
    """The objective sum w_i |p A_i|; QuadFTError if it overflows
    (`_finite_objective`)."""
    return _finite_objective(sum(w * p.distance_to(q) for w, q in zip(weights, points)), p)


def _finite_objective(objective: float, p: Point) -> float:
    """The objective at p, unless it overflows the largest float: then
    QuadFTError, the one check of every objective quadft reports."""
    if objective == math.inf:
        raise QuadFTError(f"the objective at {p.as_tuple()} overflows the largest float; "
                          "divide the weights or the coordinates by a common factor")
    return objective


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

def weiszfeld(points, weights) -> Point:
    """Weighted geometric median of >= 3 points.

    Weights that are not positive and finite, or whose sum overflows, raise
    QuadFTError, and so do two points whose distance overflows, named as
    `Quadrilateral` names them.  Coincident points are one point carrying
    the sum of their weights.  Absorbed instances return the absorbing
    vertex (Kuhn's test of `classify_case`), collinear points among them:
    their weighted median lies at one of them, which the test absorbs.
    Otherwise the median of `locate_4wft` (`_certified_median`), and a pull
    not below RESIDUAL_TOL * sum(weights) raises ConvergenceError.
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
    tag = _kuhn_case(measure_pairs(points)[1], weights)
    if tag.kind is CaseKind.ABSORBED:
        return points[tag.vertex - 1]
    return _certified_median(points, weights, tag._anchor)[0]


def _median(points, weights, anchor=None):
    """The weighted median of `points` by one damped Newton loop
    (`_descend`), whose frame and start come from Kuhn's test: `anchor` is
    a tag's `_anchor` (i, slack, pull); the test runs here when it is None.

    The loop runs next to point i, from Kuhn's descent ray, when its slack
    is below `_ANCHOR_SLACK` times the total, else from the weighted
    centroid; a centroid start that ends at a pull not below RESIDUAL_TOL
    times the total, as where the loop walks onto a vertex and stops there,
    runs the loop once more from Kuhn's ray, and the lower pull of the two
    wins.  Returns (point, pull, steps, frame) for the caller to judge,
    steps counting both runs (`_descend`); an absorbing point is its own
    median, with pull inf.
    """
    if anchor is None:
        anchor = _kuhn_case(measure_pairs(points)[1], weights)._anchor
    if anchor[1] <= 0.0:
        return points[anchor[0]], math.inf, 0, (anchor[0], (0.0, 0.0))
    total = sum(weights)
    near = anchor[1] / total < _ANCHOR_SLACK
    point, norm, steps, frame = _descend(points, weights, anchor, near)
    if not near and not norm < RESIDUAL_TOL * total:
        again, pull, more, other = _descend(points, weights, anchor, True)
        steps += more
        if pull < norm:
            point, norm, frame = again, pull, other
    return point, norm, steps, frame


def _descend(points, weights, anchor, near: bool):
    """`_median`'s damped Newton loop for the anchor (k, slack, pull):
    relative to point k, where its own term carries no rounding, from Kuhn's
    descent ray (`_ray_start`) when `near`, else relative to the first point
    from the weighted centroid.  Frame and weights are scaled exactly by
    powers of two (`geometry._exponent`), so no Hessian entry, of order
    w / r, over- or underflows.  Each step is the longest of 1, 1/2, ... of
    the Newton step that lowers the pull; at most `NEWTON_MAX_ITER` steps
    end at a pull below `_POLISH_TOL` times the total, or where none lowers
    it.  Returns (point, pull, steps, frame), frame (k or 0, offset) with
    the iterate's exact offset from that point, and point the two's sum.
    """
    k, slack, (px, py) = anchor
    share = slack / sum(weights)
    base = points[k if near else 0]
    moved = [(q.x - base.x, q.y - base.y) for q in points]
    e = _exponent(max(max(abs(qx), abs(qy)) for qx, qy in moved))
    scale, unscale = math.ldexp(1.0, -e), math.ldexp(1.0, e)
    relative = [(qx * scale, qy * scale) for qx, qy in moved]
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
    dx, dy = x * unscale, y * unscale
    point = Point(base.x + dx, base.y + dy)
    return point, math.ldexp(norm, f), steps, (k if near else 0, (dx, dy))


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
    `locate_4wft` and `verify_plasticity`.  Returns (point, steps, frame),
    frame as `_descend` returns it."""
    point, norm, steps, frame = _median(points, weights, anchor)
    if not norm < RESIDUAL_TOL * sum(weights):
        raise ConvergenceError(f"median iteration stalled at residual {norm:.3e}",
                               last=point, residual=norm)
    return point, steps, frame


def _tree(wq: WeightedQuadrilateral, p: Point, case: CaseTag = _FLOATING,
          iterations: int = 0, frame=None) -> FermatTree:
    """The tree at p, on its star measured once in its `frame`
    (`measure_star`): the distances for the objective, which raises
    QuadFTError if it overflows, and the unit vectors toward every vertex
    but one that p sits on, as when the case absorbs, for the angles (NaN
    where they would meet that vertex) and for the residual (`_pull`)."""
    w = wq.weights
    distances, units = measure_star(p, wq.quad.vertices, frame)  # no unit toward p itself
    objective = 0.0
    for wj, d in zip(w, distances):
        objective += wj * d  # the order and rounding of `weighted_distance_sum`
    angles = [math.nan if u is None or v is None
              else clamped_acos(u[0] * v[0] + u[1] * v[1])
              for u, v in zip(units, units[1:] + units[:1])]
    return FermatTree(
        point=p,
        case=case,
        angles=tuple(angles),
        objective=_finite_objective(objective, p),
        equilibrium_residual=_pull(w, distances, units),
        iterations=iterations,
        _frame=frame,
    )


def _pull(weights, distances, units) -> float:
    """The pull at a point of its star (`measure_star`), less the weight of
    the vertex it sits on, floored at 0: the least subgradient there."""
    pull = math.hypot(*_weighted_sum(weights, units))
    if 0.0 in distances:
        pull = max(0.0, pull - weights[distances.index(0.0)])
    return pull


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
    objective that overflows QuadFTError.  The gate and the tree read the
    iterate in the median's frame: moved by (1e7, 1e7), a barely floating
    instance stores a point whose own pull is 1.2e-8 of the total, and no
    float point next to it pulls below 1e-10 of it.
    """
    tag = classify_case(wq)
    v, w = wq.quad.vertices, wq.weights
    if tag.kind is CaseKind.ABSORBED:
        return _tree(wq, v[tag.vertex - 1], tag)
    if max(w) - min(w) <= EQUAL_WEIGHT_RTOL * max(w):
        dx, dy = _diagonal_offset(wq.quad)
        return _tree(wq, Point(v[0].x + dx, v[0].y + dy), CaseTag(CaseKind.DIAGONAL),
                     frame=(0, (dx, dy)))
    point, iterations, frame = _certified_median(v, w, tag._anchor)
    return _tree(wq, point, iterations=iterations, frame=frame)
