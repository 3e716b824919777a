"""Planar primitives: points, convex quadrilaterals and the clamped arccos of
their angles, plus the evenly spaced samples the solvers share.

Angles are radians everywhere; degrees appear only at I/O boundaries.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import InfeasibleTriangleError, QuadFTError, _Record

ACOS_CLAMP_TOL = 1e-9
CONVEXITY_TOL = 1e-12
SQUARABLE_LENGTH = math.sqrt(sys.float_info.max)  # about 1.34e154: longer squares to inf


# ------------------------------------------------------------------ #
# Vector helpers
# ------------------------------------------------------------------ #

def cross2(ux: float, uy: float, vx: float, vy: float) -> float:
    return ux * vy - uy * vx


def rotate(vx: float, vy: float, theta: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    return c * vx - s * vy, s * vx + c * vy


def _exponent(x: float) -> int:
    """The e that brings x into [0.5, 1) as x / 2^e (0 for x = 0): the one
    exact scale of the solvers' frames and weights."""
    return math.frexp(x)[1]


def clamped_acos(value: float) -> float:
    """arccos, clamping values within `ACOS_CLAMP_TOL` of +/-1; beyond that,
    or NaN, error."""
    if not -1.0 - ACOS_CLAMP_TOL <= value <= 1.0 + ACOS_CLAMP_TOL:
        raise InfeasibleTriangleError(
            f"cosine argument {value!r} outside [-1, 1] beyond tolerance {ACOS_CLAMP_TOL}"
        )
    return math.acos(1.0 if value > 1.0 else -1.0 if value < -1.0 else value)


class Point(_Record):
    """A planar point with finite coordinates."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise QuadFTError(f"point coordinates must be finite, got ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def distance_to(self, other: Point) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def unit_toward(self, other: Point) -> tuple[float, float]:
        d = self.distance_to(other)
        if d == 0.0:
            raise QuadFTError("unit vector undefined between coincident points")
        return (other.x - self.x) / d, (other.y - self.y) / d

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def measure_pairs(points, limit: float = sys.float_info.max):
    """Every pair of points measured once, by one hypot: (d, u, diameter).

    d[i][j] is the distance from point i to point j and u[i][j] the unit
    vector from i toward j, the values of `Point.distance_to` and
    `Point.unit_toward` bit for bit; d[j][i] is d[i][j], u[j][i] is
    -u[i][j], and u[i][j] is None where the points coincide (i == j too).
    Two points farther apart than `limit` raise QuadFTError naming the first
    farthest pair; by default, points whose distance overflows.
    """
    n = len(points)
    d = [[0.0] * n for _ in range(n)]
    u = [[None] * n for _ in range(n)]
    diameter, far = 0.0, None
    for i, a in enumerate(points):
        for j in range(i + 1, n):
            b = points[j]
            dx, dy = b.x - a.x, b.y - a.y
            r = d[i][j] = d[j][i] = math.hypot(dx, dy)
            if r > diameter:
                diameter, far = r, (i, j)
            if r:
                ux, uy = dx / r, dy / r
                u[i][j], u[j][i] = (ux, uy), (-ux, -uy)
    if not diameter <= limit:
        i, j = far
        raise QuadFTError(
            f"vertices A{i + 1} {points[i].as_tuple()} and A{j + 1} {points[j].as_tuple()} "
            f"lie {diameter:.7g} apart; no two vertices may lie more than about "
            f"{limit:.3g} apart"
        )
    return tuple(map(tuple, d)), tuple(map(tuple, u)), diameter


def measure_star(p: Point, points):
    """The star of p measured once, one hypot per point: (d, u), lists with
    d[i] the distance from p to points[i] and u[i] the unit vector from p
    toward it, the values of `Point.distance_to` and `Point.unit_toward`
    bit for bit; u[i] is None where the two coincide."""
    px, py = p.x, p.y
    d, u = [], []
    for q in points:
        dx, dy = q.x - px, q.y - py
        r = math.hypot(dx, dy)
        d.append(r)
        u.append((dx / r, dy / r) if r else None)
    return d, u


def angle_at(p: Point, a: Point, b: Point) -> float:
    """Geometric angle at p between the rays toward a and toward b, in [0, pi]."""
    ux, uy = p.unit_toward(a)
    vx, vy = p.unit_toward(b)
    return clamped_acos(ux * vx + uy * vy)


# ------------------------------------------------------------------ #
# Quadrilateral
# ------------------------------------------------------------------ #

class Quadrilateral(_Record):
    """Strictly convex quadrilateral with vertices in counterclockwise order.

    Construction measures it once (`measure_pairs`, one hypot per vertex
    pair): `distances` d[i][j], `unit_vectors` u[i][j] (None where i == j),
    the diameter and `interior_angles`, the angle at each vertex between the
    rays toward its two neighbours.  Repr and equality read the vertices
    alone.  Lengths are squared (the convexity margin, the solvers), so two
    vertices more than `SQUARABLE_LENGTH` apart raise QuadFTError naming
    them, and so do vertices so close that every square underflows to 0.
    """

    __slots__ = ("vertices", "distances", "unit_vectors", "_diameter", "interior_angles")
    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Point, Point, Point, Point]):
        v = tuple(vertices)
        if len(v) != 4:
            raise QuadFTError("a quadrilateral needs exactly 4 vertices")
        d, u, diameter = measure_pairs(v, SQUARABLE_LENGTH)
        scale2 = diameter * diameter
        if scale2 == 0.0:
            if diameter == 0.0:
                raise QuadFTError("all vertices coincide")
            raise QuadFTError(
                f"the vertices lie at most {diameter:.7g} apart; lengths are squared, "
                "and their squares underflow to 0 below about 1.5e-162"
            )
        if 0.0 in (d[0][1], d[1][2], d[2][3], d[3][0]):
            raise QuadFTError("quadrilateral has coincident vertices")
        crosses = [cross2(b.x - a.x, b.y - a.y, c.x - b.x, c.y - b.y)
                   for a, b, c in zip(v, v[1:] + v[:1], v[2:] + v[:2])]
        tol = CONVEXITY_TOL * scale2
        if min(crosses) <= tol:
            if max(crosses) < -tol:
                raise QuadFTError(
                    "vertices are clockwise; supply them in counterclockwise order"
                )
            raise QuadFTError("quadrilateral is not strictly convex")
        angles = []
        for i in range(4):
            (ax, ay), (bx, by) = u[i][i - 1], u[i][i - 3]  # toward both neighbours
            angles.append(clamped_acos(ax * bx + ay * by))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "unit_vectors", u)
        object.__setattr__(self, "_diameter", diameter)
        object.__setattr__(self, "interior_angles", tuple(angles))

    @classmethod
    def from_coords(cls, coords) -> Quadrilateral:
        return cls(tuple(Point(float(x), float(y)) for x, y in coords))

    def diameter(self) -> float:
        return self._diameter

    def contains(self, p: Point) -> bool:
        """True if p lies in the closed quadrilateral inflated by 1e-9 times
        its diameter: no edge has p farther than that on its outer side."""
        v, d = self.vertices, self.distances
        margin = -1e-9 * self._diameter
        for i in range(4):
            a, b = v[i], v[(i + 1) % 4]
            if cross2(b.x - a.x, b.y - a.y, p.x - a.x, p.y - a.y) < margin * d[i][(i + 1) % 4]:
                return False
        return True


def diagonal_intersection(q: Quadrilateral) -> Point:
    """Intersection of the diagonals A1A3 and A2A4 of a convex quadrilateral."""
    a1, a2, a3, a4 = q.vertices
    # Solve a1 + t*(a3-a1) = a2 + s*(a4-a2) as a 2x2 linear system.
    dx1, dy1 = a3.x - a1.x, a3.y - a1.y
    dx2, dy2 = a4.x - a2.x, a4.y - a2.y
    det = cross2(dx1, dy1, dx2, dy2)
    if det == 0.0:
        raise QuadFTError("diagonals are parallel; input is not strictly convex")
    t = cross2(a2.x - a1.x, a2.y - a1.y, dx2, dy2) / det
    return Point(a1.x + t * dx1, a1.y + t * dy1)


# ------------------------------------------------------------------ #
# Counts and sampling
# ------------------------------------------------------------------ #

def _count(value, name: str) -> int:
    """`value` as an int (`operator.index`); QuadFTError naming it if not, or
    if it is a bool, which `operator.index` would read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise QuadFTError(f"{name} must be an integer, got {value!r}")


def linspace(start: float, stop: float, num: int) -> list[float]:
    """`num` evenly spaced floats from start to stop inclusive.

    Sample i is i * step + start, rounded in that order, and the last sample
    is stop itself.
    """
    if num == 1:
        return [float(start)]
    step = (stop - start) / (num - 1)
    out = [i * step + start for i in range(num)]
    if out:
        out[-1] = float(stop)
    return out
