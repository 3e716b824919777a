"""Generalized Gauss (degree-three weighted Steiner) trees on a convex
quadrilateral.

Topology is fixed: node A0 joins A1 and A4, node A0' joins A2 and A3, and the
interior edge A0-A0' carries the Gauss variable weight x_G.  The solution is
closed-form.  Each node is the weighted Fermat-Torricelli point of its three
neighbours, so its angles are the triangle closed form
`fermat.triangle_wft_angles` of the weights (B1, B4, x_G) at A0 and
(B2, B3, x_G) at A0'; `feasible_xg_interval` is the one rule for which x_G
admits both.  The axis orientation phi and the first two edge lengths follow
from explicit relations, and the rest of the tree from plane geometry.

Geometry convention (the module's single orientation rule, for a
counterclockwise quadrilateral): the axis direction w points from A0 to A0'
and makes the signed angle phi with side A1A2; A1 and A2 lie clockwise of the
axis, so the ray A0->A1 sits at -a100' from w, A0->A4 at +a0'04, A0'->A2 at
pi + a00'2 and A0'->A3 at pi - a00'3.
"""

from __future__ import annotations

import math

from .errors import DegenerateTreeError, InfeasibleWeightsError, QuadFTError, _Record
from .fermat import _wft_angles
from .geometry import Point, Quadrilateral, rotate

DEGENERATE_SPAN_CLAMP = 1e-9


class GaussWeights(_Record):
    """Vertex weights B1..B4 plus the Gauss variable x_G on the interior edge."""

    __slots__ = _fields = ("b1", "b2", "b3", "b4", "xg")

    def __init__(self, b1: float, b2: float, b3: float, b4: float, xg: float):
        for name, val in zip(self._fields, (b1, b2, b3, b4, xg)):
            if isinstance(val, bool):
                raise QuadFTError(f"{name} must be a number, not a bool, got {val!r}")
            if not (val > 0.0 and math.isfinite(val)):
                raise QuadFTError(f"{name} must be positive and finite, got {val!r}")
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "b3", b3)
        object.__setattr__(self, "b4", b4)
        object.__setattr__(self, "xg", xg)

    @property
    def total(self) -> float:
        """Sum of the four vertex weights (x_G excluded)."""
        return self.b1 + self.b2 + self.b3 + self.b4

    def vertex_weights(self) -> tuple[float, float, float, float]:
        return (self.b1, self.b2, self.b3, self.b4)


class GaussTree(_Record):
    """Solved degree-three tree.

    a1 = |A1 A0|, a4 = |A4 A0|, a2 = |A2 A0'|, a3 = |A3 A0'|, l = |A0 A0'|,
    phi = signed angle from side A1A2 to the axis A0->A0'.
    """

    __slots__ = _fields = ("node0", "node0p", "a1", "a2", "a3", "a4", "l", "phi", "objective")

    def __init__(self, node0: Point, node0p: Point, a1: float, a2: float, a3: float,
                 a4: float, l: float, phi: float, objective: float):
        object.__setattr__(self, "node0", node0)
        object.__setattr__(self, "node0p", node0p)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "a4", a4)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "objective", objective)


def feasible_xg_interval(b1: float, b2: float, b3: float, b4: float) -> tuple[float, float]:
    """Open interval of x_G values satisfying both weight-triangle conditions:
    |Bi - Bj| < x_G < Bi + Bj for (B1, B4) and for (B2, B3)."""
    return (max(abs(b1 - b4), abs(b2 - b3)), min(b1 + b4, b2 + b3))


def residual_absorbing_rate(w: GaussWeights) -> float:
    """Vertex weight total minus the Gauss variable."""
    return w.total - w.xg


def _branch(q: Quadrilateral, w: GaussWeights) -> GaussTree:
    """Stationary-branch evaluation, valid or not; past the absorbing point
    the continuation has l < 0."""
    v, d = q.vertices, q.distances
    a12, a14, a23 = d[0][1], d[0][3], d[1][2]
    alpha214, alpha123 = q.interior_angles[:2]
    lo, hi = feasible_xg_interval(*w.vertex_weights())
    if not lo < w.xg < hi:
        raise InfeasibleWeightsError(
            f"x_G = {w.xg} lies outside the feasible interval ({lo}, {hi})"
        )
    # each node is the weighted Fermat-Torricelli point of its three neighbours;
    # GaussWeights and the interval above have checked the closed form's input
    _, a_0p04, a_100p = _wft_angles(w.b1, w.b4, w.xg)
    _, a_00p3, a_00p2 = _wft_angles(w.b2, w.b3, w.xg)
    num = (
        w.xg * a12
        + w.b4 * a14 * math.cos(alpha214 - a_0p04)
        + w.b3 * a23 * math.cos(alpha123 - a_00p3)
    )
    den = (
        w.b4 * a14 * math.sin(alpha214 - a_0p04)
        - w.b3 * a23 * math.sin(alpha123 - a_00p3)
    )
    # cot(phi) = num / den; atan2 picks the branch with interior nodes.
    phi = math.atan2(den, num)
    s1 = math.sin(a_100p + a_0p04)
    s2 = math.sin(a_00p2 + a_00p3)
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateTreeError("local angles degenerate (weight triangle collapsed)")
    a1 = a14 * math.sin(alpha214 - phi - a_0p04) / s1
    a2 = a23 * math.sin(alpha123 + phi - a_00p3) / s2
    l = a1 * math.cos(a_100p) + a2 * math.cos(a_00p2) + a12 * math.cos(phi)
    wx, wy = rotate(*q.unit_vectors[0][1], phi)
    d1x, d1y = rotate(wx, wy, -a_100p)
    node0 = Point(v[0].x - a1 * d1x, v[0].y - a1 * d1y)
    d2x, d2y = rotate(wx, wy, a_00p2)
    node0p = Point(v[1].x + a2 * d2x, v[1].y + a2 * d2y)
    a3 = node0p.distance_to(v[2])
    a4 = node0.distance_to(v[3])
    objective = w.b1 * a1 + w.b2 * a2 + w.b3 * a3 + w.b4 * a4 + w.xg * l
    return GaussTree(node0, node0p, a1, a2, a3, a4, l, phi, objective)


def _span(l: float) -> float:
    """Read spans in (-DEGENERATE_SPAN_CLAMP, 0] as the exact l = 0 limit."""
    return 0.0 if -DEGENERATE_SPAN_CLAMP < l <= 0.0 else l


def tree_span(q: Quadrilateral, w: GaussWeights) -> float:
    """Signed length of the interior edge along the stationary branch.

    Positive for a genuine degree-three tree; zero at the absorbing value of
    x_G, as in solve_gauss_tree; negative once x_G exceeds it.
    """
    return _span(_branch(q, w).l)


def solve_gauss_tree(q: Quadrilateral, w: GaussWeights) -> GaussTree:
    """Solve the degree-three tree for feasible weights on a convex quadrilateral.

    Raises InfeasibleWeightsError when the weight-triangle conditions fail and
    DegenerateTreeError when the branch collapses (x_G at or past its absorbing
    value, a negative edge, or a node escaping the quadrilateral).  Span values
    in (-1e-9, 0] are clamped to the exact l = 0 degree-four limit.
    """
    tree = _branch(q, w)
    l = _span(tree.l)
    if l < 0.0:
        raise DegenerateTreeError(
            f"span l = {l:.3e} < 0: x_G = {w.xg} exceeds its absorbing value"
        )
    if l == 0.0:
        # the exact degree-four limit: A0' merges into A0
        a3 = tree.node0.distance_to(q.vertices[2])
        tree = tree._replace(node0p=tree.node0, a3=a3, l=l, objective=(
            w.b1 * tree.a1 + w.b2 * tree.a2 + w.b3 * a3 + w.b4 * tree.a4))
    if tree.a1 <= 0.0 or tree.a2 <= 0.0:
        raise DegenerateTreeError(
            f"edge lengths (a1={tree.a1:.3e}, a2={tree.a2:.3e}) are not positive"
        )
    for node, name in ((tree.node0, "A0"), (tree.node0p, "A0'")):
        if not q.contains(node):
            raise DegenerateTreeError(f"node {name} = {node} lies outside the quadrilateral")
    return tree
