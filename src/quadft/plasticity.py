"""Dynamic plasticity: the one-parameter weight families that keep a
degree-four optimum fixed.

At a fixed optimum P the balance sum B_i u_i = 0, with u_i the unit vector
from P toward A_i, and the total sum B_i = c are linear in (B1, B2, B3) at a
given B4.  `plasticity_line` solves that system once for the affine family
B_i = x_i B4 + y_i; it holds wherever P is interior, on a diagonal too.
The paper's squared-balance route to the family and the verification of a
line live in `quadft.checks`.
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
from .fermat import CaseKind, FermatTree, WeightedQuadrilateral
from .geometry import Point, Quadrilateral, cross2, measure_star


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


class _Family:
    """The line's anchor P measured once on the quadrilateral, with the
    line's constants there.  `measure_star` gives the distances |P A_i| and
    the unit vectors u_i from P toward A_i, one hypot per vertex.  Along the
    line only the weights move, and every per-sample quantity at P is affine
    in B4: the imbalance sum B_i u_i, the absorbing profile B1 u1 + B4 u4
    and Kuhn's pulls on the vertices.  Construction computes the first two
    as affine pairs, so `imbalance` and `profile` are reads, and
    verification decides Kuhn's test and the balance gate on the whole line
    at once (`checks._intervals`)."""

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
