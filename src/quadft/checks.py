"""The paper's own routes, kept as cross-checks of the solvers.

No solver module and no subcommand imports this module: a `quadft` process
compiles it only when a caller asks for one of its checks, and the package
exports it lazily (`quadft._EXPORTS`).

- The angle systems of the degree-four optimum: the circle system of a
  square boundary (`solve_4wft_square`) and the four-angle system of a
  general quadrilateral (`solve_4wft_general`).  Each calls `locate_4wft`
  once, reads the system at its certified median in the frame its tree
  carries, gates the system's residual and the gap of the point it
  rebuilds, and returns that tree (`_system_tree`).
- The squared-balance route to the plasticity family
  (`plasticity_system_new`): two quadratic identities in the optimum's
  angles, solved exactly as one cubic in B2, an independent reference for
  `plasticity.plasticity_line`.
- The verification of a plasticity line (`verify_plasticity`) on the
  line's one B4 grid (`plasticity._b4_grid`): the run of positive weights
  is found at its two ends, and a certificate at the same two ends
  (`_certified`) decides the whole run: where a lower bound on Kuhn's
  slack, affine in B4, clears the margin at every vertex and the balance
  meets its gate, every sample of the run keeps the anchor.  A run it
  declines is decided sample by sample, as `classify_case` and
  `locate_4wft` decide: Kuhn's test on the sample's weights, then the
  balance gate, then the median re-solved where the gate is missed.
"""

from __future__ import annotations

import math
import sys

from .errors import InconsistentCaseError, InfeasibleWeightsError, QuadFTError, _Record
from .fermat import (
    CASE_BOUNDARY_TOL,
    RESIDUAL_TOL,
    CaseKind,
    FermatTree,
    WeightedQuadrilateral,
    _certified_median,
    _kuhn_case,
    locate_4wft,
)
from .geometry import (
    Point,
    Quadrilateral,
    _count,
    _exponent,
    angle_at,
    clamped_acos,
    cross2,
    rotate,
)
from .plasticity import PlasticityLine, _b4_grid, _Family

_EQUILIBRIUM_RTOL = 1e-7  # angle-system gate on the residual
_REBUILD_RTOL = 1e-10     # angle-system gate on the rebuilt point's gap, relative to the diameter


# ------------------------------------------------------------------ #
# The paper's angle systems, read at the median
# ------------------------------------------------------------------ #

def _system_tree(wq: WeightedQuadrilateral, system, name: str) -> FermatTree:
    """`locate_4wft`'s tree, cross-checked by one of the paper's angle systems.

    The one solve is `locate_4wft`'s.  An absorbed tree raises
    InconsistentCaseError naming the absorbing vertex; any other carries
    its frame (`FermatTree._frame`), and relative to A1 its median is
    (A_k - A1) + offset: the iterate `locate_4wft` certified, rounded twice
    where k is not 0.
    `system(v, weights, median)` reads the system there, v the vertices
    relative to A1: a residual above `_EQUILIBRIUM_RTOL`, or a rebuilt point
    more than `_REBUILD_RTOL` times the diameter from the median, raises
    InconsistentCaseError.  The tree is `locate_4wft`'s.
    """
    tree = locate_4wft(wq)
    if tree._frame is None:
        raise InconsistentCaseError(
            f"instance is not floating (absorbed at vertex {tree.case.vertex})")
    a1 = wq.quad.vertices[0]
    v = [Point(p.x - a1.x, p.y - a1.y) for p in wq.quad.vertices]
    k, (dx, dy) = tree._frame
    median = Point(v[k].x + dx, v[k].y + dy)
    residual, rebuilt = system(v, wq.weights, median)
    gap = rebuilt.distance_to(median) / wq.quad.diameter()
    if not (residual <= _EQUILIBRIUM_RTOL and gap <= _REBUILD_RTOL):
        raise InconsistentCaseError(
            f"the {name} does not hold at the median: residual {residual:.3e}, "
            f"rebuilt point {gap:.3e} of the diameter from it")
    return tree


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
    (`_system_tree`).  It divides by sin(a304 + a401), which is sin(pi)
    where the median lies on the diagonal A1A3: there it raises
    InconsistentCaseError, as at residual 1.161 on the 7 x 4 rectangle with
    weights (2, 1, 2, 1), and on 300 of 300 random ones with equal weights."""
    return _system_tree(wq, _general_system, "angle system")


# ------------------------------------------------------------------ #
# Squared-balance route to the plasticity family
# ------------------------------------------------------------------ #

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
    if not abs((a102 + a203 + a304 + a401) - math.tau) <= 1e-8:
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


# ------------------------------------------------------------------ #
# Verification of a plasticity line
# ------------------------------------------------------------------ #

def _tangent(family: _Family, j: int, m: float) -> tuple[float, float]:
    """(alpha, beta) with Kuhn's slack at vertex A_j at least
    alpha + beta B4 along the family's line: the slack's supporting line at
    B4 = m, exact there.

    The others' pull on A_j is v(B4) = p_j + B4 q_j = sum_{i != j} B_i u_ji
    (x4 = 1, y4 = 0, u_ji from `Quadrilateral.unit_vectors`), and the slack
    is |v| - (x_j B4 + y_j).  For any n with |n| <= 1, n . v <= |v|; with
    n the unit vector along v(m) the bound is
    n . p_j - y_j + B4 (n . q_j - x_j).  Where v(m) = 0, n = 0.
    """
    (x1, y1), (x2, y2), (x3, y3) = family.line.coefficients
    xs, ys = (x1, x2, x3, 1.0), (y1, y2, y3, 0.0)
    px = py = qx = qy = 0.0
    for x, y, u in zip(xs, ys, family.quad.unit_vectors[j]):
        if u is not None:  # u_jj
            px += y * u[0]
            py += y * u[1]
            qx += x * u[0]
            qy += x * u[1]
    vx, vy = px + m * qx, py + m * qy
    norm = math.hypot(vx, vy)
    nx, ny = (vx / norm, vy / norm) if norm else (0.0, 0.0)
    return nx * px + ny * py - ys[j], nx * qx + ny * qy - xs[j]


def _certified(family: _Family, first: float, last: float) -> bool:
    """True when every B4 of [first, last] floats at each vertex and meets
    the balance gate, decided at the two ends; False leaves the run to be
    decided sample by sample, as does an anchor on a vertex.

    Along the line, Kuhn's slack at A_j is |p_j + B4 q_j| - B_j, and
    `_kuhn_case` absorbs A_j where it is at most the margin
    CASE_BOUNDARY_TOL c.  Two lower bounds on it are affine in B4, so each
    clears the margin on the whole run when it clears it at the run's two
    ends.  A vertex passes when either bound does, and the second is
    computed only where the first misses:

    - the distance bound.  The slack is minus the least slope of
      f(X) = sum B_i |X A_i| at A_j, and f is convex, so
      f(P) >= f(A_j) - |P A_j| slack_j at the anchor P off the vertices.
      The slack is therefore at least (f(A_j) - f(P)) / r_j, where
      f(A_j) - f(P) = sum_i B_i (|A_j A_i| - r_i) = alpha_j + beta_j B4
      with r_i = |P A_i|, alpha_j = sum y_i (|A_j A_i| - r_i) and
      beta_j = sum x_i (|A_j A_i| - r_i), read from the distances the
      quadrilateral and the family measured.  It trails the slack by the
      curvature of f between A_j and P, which is far above the margin on
      most barely floating lines;
    - the tangent bound (`_tangent`): |p_j + B4 q_j| is convex in B4, so
      its supporting line at the run's midpoint bounds it from below.  It
      is exact at the midpoint and loose on wide runs, where the pull
      turns.

    With S = sum |x_i| B4 + |y_i|, also affine on B4 > 0, the distance
    bound must clear the margin by eps S (16 + 8 (D + R) / r_j) and the
    tangent bound by 32 eps S:

    - 16 eps S, by which `_kuhn_case` on a sample's rounded weights may
      read the slack apart from the exact affine pull: each weight
      x_i B4 + y_i rounds within eps (|x_i| B4 + |y_i|), the pull's
      products and sums within 2 eps of their terms' sizes, and the hypot
      and the subtraction within an ulp each: about 4 eps S, granted four
      times over;
    - for the distance bound, 8 eps S (D + R) / r_j, D the diameter and R
      the largest r_i: each |A_j A_i| is within 2 eps of its value, and
      each r_i, read in P's frame, within 2 eps of it plus 1.5 eps D
      (A_i - A_k rounds first), so the sums sum y_i |A_j A_i| and
      sum y_i r_i, and their x twins, are within about 3 eps and 4.5 eps of
      their terms' sizes, and alpha_j + beta_j B4 within about 7.5 eps S (D + R);
    - for the tangent bound, 16 eps S, twice its rounding: the computed n
      is a unit vector to within 2 eps, so n . v <= |v| + 2 eps S; the
      sums p_j and q_j are each within 2 eps of their terms' sizes, so
      n . (p_j + B4 q_j) is within 2 eps S; and the two dot products, the
      subtractions of y_j and x_j, and the affine read round within about
      4 eps S; about 8 eps S in all.

    The imbalance |a + B4 b| is convex, so it stays within RESIDUAL_TOL c
    less 16 eps S, the rounding of its affine read, on the run when it does
    at the two ends; its squares are compared scaled by the power of two
    nearest 1 / c (`_exponent`), so they neither overflow nor underflow.
    """
    if family.units is None:
        return False
    line = family.line
    c = line.c
    s = math.ldexp(1.0, -_exponent(c))
    (x1, y1), (x2, y2), (x3, y3) = line.coefficients
    sx = abs(x1) + abs(x2) + abs(x3) + 1.0
    sy = abs(y1) + abs(y2) + abs(y3)
    eps = sys.float_info.epsilon
    ax, ay, bx, by = family.imbalance()
    for b4 in (first, last):
        gate = s * (RESIDUAL_TOL * c - 16.0 * eps * (sx * b4 + sy))
        gx, gy = s * (ax + b4 * bx), s * (ay + b4 * by)
        if not (gate > 0.0 and gx * gx + gy * gy <= gate * gate):
            return False
    r1, r2, r3, r4 = r = family.distances
    fy = y1 * r1 + y2 * r2 + y3 * r3  # f(P) = fy + B4 fx
    fx = x1 * r1 + x2 * r2 + x3 * r3 + r4
    margin = CASE_BOUNDARY_TOL * c
    spread = 8.0 * (family.quad.diameter() + max(r))
    for (d1, d2, d3, d4), rj, j in zip(family.quad.distances, r, range(4)):
        alpha = y1 * d1 + y2 * d2 + y3 * d3 - fy
        beta = x1 * d1 + x2 * d2 + x3 * d3 + d4 - fx
        allowance = eps * (16.0 * rj + spread)
        if (alpha + beta * first > rj * margin + allowance * (sx * first + sy)
                and alpha + beta * last > rj * margin + allowance * (sx * last + sy)):
            continue  # the distance bound clears the run
        alpha, beta = _tangent(family, j, 0.5 * (first + last))
        for b4 in (first, last):
            if not alpha + beta * b4 > margin + 32.0 * eps * (sx * b4 + sy):
                return False
    return True


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
    """Check at `samples` values of B4 on the line's grid (`_b4_grid`, the
    grid of `universal_set`) that the line's weights keep the degree-four
    optimum at the anchor `line.point`, and report the worst drift of the
    optimum.

    Samples where a weight leaves positivity or the instance stops floating
    are excluded with a reason, never counted as drift.  The run is decided
    in one pass, as in `universal._samples`: `weights_at` scans inward from
    each end of the grid until a sample passes, and since each weight
    x B4 + y rounds monotonically in B4, the weights are positive at every
    sample between those two.  The line is measured once per call
    (`plasticity._Family`), and the run is first certified at those two
    ends (`_certified`): where a lower bound on Kuhn's slack, affine in B4,
    clears the margin with its rounding allowance at every vertex and the
    balance meets the residual gate, at both ends, every sample of the run
    floats and keeps the anchor, and drifts by 0.  The certificate declines
    a run with an absorbed sample, a moved anchor, or an anchor on a vertex
    where no balance can be measured; each sample of such a run is decided
    by itself.  Kuhn's test (`fermat._kuhn_case`) on the sample's weights
    excludes it at the first absorbing vertex.  Otherwise a balance
    sum B_i u_i at the anchor, read from the family's affine pair, of at
    most RESIDUAL_TOL times the total weight passes the residual gate of
    `locate_4wft`, and the median is unique, so the anchor is the optimum
    and the sample drifts by 0.  Any other sample re-solves the median by
    the path of `locate_4wft` (`_certified_median`), and drifts by the
    anchor's distance to it.  Passes when the maximum deviation stays below
    1e-6 times the quadrilateral diameter.
    """
    if _count(samples, "samples") < 1:
        raise QuadFTError("need at least one sample")
    b4s = _b4_grid(line, samples)
    excluded, tail = [], []  # the samples before the run; those after it, last first
    for b4 in b4s:
        try:
            line.weights_at(b4)
            break
        except InfeasibleWeightsError as exc:
            excluded.append((b4, str(exc)))
    for b4 in reversed(b4s[len(excluded) + 1:]):
        try:
            line.weights_at(b4)
            break
        except InfeasibleWeightsError as exc:
            tail.append((b4, str(exc)))
    run = b4s[len(excluded):len(b4s) - len(tail)]
    evaluated = []
    family = _Family(q, line) if run else None
    if run and _certified(family, run[0], run[-1]):
        evaluated = [(b4, 0.0) for b4 in run]
    elif run:
        ax, ay, bx, by = family.imbalance()
        gate = RESIDUAL_TOL * line.c
        for b4 in run:
            weights = line.weights_at(b4)
            tag = _kuhn_case(q.unit_vectors, weights)
            if tag.kind is CaseKind.ABSORBED:
                excluded.append((b4, f"absorbed at vertex {tag.vertex}"))
            elif math.hypot(ax + b4 * bx, ay + b4 * by) <= gate:
                evaluated.append((b4, 0.0))
            else:
                point = _certified_median(q.vertices, weights)[0]
                evaluated.append((b4, point.distance_to(line.point)))
    excluded += reversed(tail)
    tolerance = 1e-6 * q.diameter()
    max_dev = max((d for _, d in evaluated), default=math.inf)
    return PlasticityReport(
        reference=line.point,
        tolerance=tolerance,
        max_deviation=max_dev,
        passed=bool(evaluated) and max_dev < tolerance,
        evaluated=tuple(evaluated),
        excluded=tuple(excluded),
    )
