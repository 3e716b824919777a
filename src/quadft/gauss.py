"""Generalized Gauss (degree-three weighted Steiner) trees on a convex
quadrilateral.

Topology is fixed: node A0 joins A1 and A4, node A0' joins A2 and A3, and the
interior edge A0-A0' carries the Gauss variable weight x_G.  The solution is
closed-form: the six local angles follow from the weights alone, the axis
orientation phi and the first two edge lengths from explicit relations, and
the rest of the tree from plane geometry.

Geometry convention (the module's single orientation rule, for a
counterclockwise quadrilateral): the axis direction w points from A0 to A0'
and makes the signed angle phi with side A1A2; A1 and A2 lie clockwise of the
axis, so the ray A0->A1 sits at -a100' from w, A0->A4 at +a0'04, A0'->A2 at
pi + a00'2 and A0'->A3 at pi - a00'3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import DegenerateTreeError, InfeasibleWeightsError, QuadFTError
from .geometry import Point, Quadrilateral, clamped_acos, rotate

DEGENERATE_SPAN_CLAMP = 1e-9


@dataclass(frozen=True)
class GaussWeights:
    """Vertex weights B1..B4 plus the Gauss variable x_G on the interior edge."""

    b1: float
    b2: float
    b3: float
    b4: float
    xg: float

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if not (val > 0.0 and math.isfinite(val)):
                raise QuadFTError(f"{name} must be positive and finite, got {val!r}")

    @property
    def total(self) -> float:
        """Sum of the four vertex weights (x_G excluded)."""
        return self.b1 + self.b2 + self.b3 + self.b4

    def vertex_weights(self) -> tuple[float, float, float, float]:
        return (self.b1, self.b2, self.b3, self.b4)


@dataclass(frozen=True)
class GaussTree:
    """Solved degree-three tree.

    a1 = |A1 A0|, a4 = |A4 A0|, a2 = |A2 A0'|, a3 = |A3 A0'|, l = |A0 A0'|,
    phi = signed angle from side A1A2 to the axis A0->A0'.
    """

    node0: Point
    node0p: Point
    a1: float
    a2: float
    a3: float
    a4: float
    l: float
    phi: float
    objective: float


class WeightReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


class LocalAngles(NamedTuple):
    """The six angles at the two interior nodes."""

    a_100p: float
    a_0p04: float
    a_104: float
    a_00p3: float
    a_00p2: float
    a_20p3: float


def feasible_xg_interval(b1: float, b2: float, b3: float, b4: float) -> tuple[float, float]:
    """Open interval of x_G values satisfying both weight-triangle conditions."""
    return (max(abs(b1 - b4), abs(b2 - b3)), min(b1 + b4, b2 + b3))


def validate_gauss_weights(w: GaussWeights) -> WeightReport:
    """Check |Bi-Bj| < Bk < Bi+Bj for {1,4,xg} and {2,3,xg} strictly."""
    violations = []
    for label, (p, q) in (("(B1, B4, x_G)", (w.b1, w.b4)), ("(B2, B3, x_G)", (w.b2, w.b3))):
        if not abs(p - q) < w.xg:
            violations.append(f"{label}: x_G={w.xg} <= |{p} - {q}|")
        if not w.xg < p + q:
            violations.append(f"{label}: x_G={w.xg} >= {p} + {q}")
    return WeightReport(not violations, tuple(violations))


def residual_absorbing_rate(w: GaussWeights) -> float:
    """Vertex weight total minus the Gauss variable."""
    return w.total - w.xg


def local_angles(w: GaussWeights) -> LocalAngles:
    """Angles at A0 and A0' determined by the weights alone.

    Each node is the weighted Fermat-Torricelli point of its three neighbours,
    so the triangle closed form applies with the edge weights (B1, B4, x_G) at
    A0 and (B2, B3, x_G) at A0'.  Each triple sums to 2 pi.
    """
    report = validate_gauss_weights(w)
    if not report:
        raise InfeasibleWeightsError("; ".join(report.violations))
    b1, b2, b3, b4, xg = w.b1, w.b2, w.b3, w.b4, w.xg
    return LocalAngles(
        a_100p=clamped_acos((b4 * b4 - b1 * b1 - xg * xg) / (2.0 * b1 * xg)),
        a_0p04=clamped_acos((b1 * b1 - b4 * b4 - xg * xg) / (2.0 * b4 * xg)),
        a_104=clamped_acos((xg * xg - b1 * b1 - b4 * b4) / (2.0 * b1 * b4)),
        a_00p3=clamped_acos((b2 * b2 - b3 * b3 - xg * xg) / (2.0 * b3 * xg)),
        a_00p2=clamped_acos((b3 * b3 - xg * xg - b2 * b2) / (2.0 * xg * b2)),
        a_20p3=clamped_acos((xg * xg - b2 * b2 - b3 * b3) / (2.0 * b2 * b3)),
    )


def _branch(q: Quadrilateral, w: GaussWeights) -> GaussTree:
    """Stationary-branch evaluation, valid or not; past the absorbing point
    the continuation has l < 0."""
    v, d = q.vertices, q.distances
    a12, a14, a23 = d[0][1], d[0][3], d[1][2]
    alpha214, alpha123 = q.interior_angles[:2]
    ang = local_angles(w)
    num = (
        w.xg * a12
        + w.b4 * a14 * math.cos(alpha214 - ang.a_0p04)
        + w.b3 * a23 * math.cos(alpha123 - ang.a_00p3)
    )
    den = (
        w.b4 * a14 * math.sin(alpha214 - ang.a_0p04)
        - w.b3 * a23 * math.sin(alpha123 - ang.a_00p3)
    )
    # cot(phi) = num / den; atan2 picks the branch with interior nodes.
    phi = math.atan2(den, num)
    s1 = math.sin(ang.a_100p + ang.a_0p04)
    s2 = math.sin(ang.a_00p2 + ang.a_00p3)
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateTreeError("local angles degenerate (weight triangle collapsed)")
    a1 = a14 * math.sin(alpha214 - phi - ang.a_0p04) / s1
    a2 = a23 * math.sin(alpha123 + phi - ang.a_00p3) / s2
    l = a1 * math.cos(ang.a_100p) + a2 * math.cos(ang.a_00p2) + a12 * math.cos(phi)
    wx, wy = rotate(*q.unit_vectors[0][1], phi)
    d1x, d1y = rotate(wx, wy, -ang.a_100p)
    node0 = Point(v[0].x - a1 * d1x, v[0].y - a1 * d1y)
    d2x, d2y = rotate(wx, wy, ang.a_00p2)
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
        tree = replace(tree, node0p=tree.node0, a3=a3, l=l, objective=(
            w.b1 * tree.a1 + w.b2 * tree.a2 + w.b3 * a3 + w.b4 * tree.a4))
    if tree.a1 <= 0.0 or tree.a2 <= 0.0:
        raise DegenerateTreeError(
            f"edge lengths (a1={tree.a1:.3e}, a2={tree.a2:.3e}) are not positive"
        )
    for node, name in ((tree.node0, "A0"), (tree.node0p, "A0'")):
        if not q.contains(node):
            raise DegenerateTreeError(f"node {name} = {node} lies outside the quadrilateral")
    return tree
