"""Planar primitives: points, convex quadrilaterals and the clamped arccos of
their angles, plus the evenly spaced samples the solvers share.

Angles are radians everywhere; degrees appear only at I/O boundaries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import InfeasibleTriangleError, QuadFTError

ACOS_CLAMP_TOL = 1e-9
CONVEXITY_TOL = 1e-12


# ------------------------------------------------------------------ #
# Vector helpers
# ------------------------------------------------------------------ #

def cross2(ux: float, uy: float, vx: float, vy: float) -> float:
    return ux * vy - uy * vx


def rotate(vx: float, vy: float, theta: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    return c * vx - s * vy, s * vx + c * vy


def clamped_acos(value: float) -> float:
    """arccos, clamping values within `ACOS_CLAMP_TOL` of +/-1; beyond that,
    or NaN, error."""
    if not -1.0 - ACOS_CLAMP_TOL <= value <= 1.0 + ACOS_CLAMP_TOL:
        raise InfeasibleTriangleError(
            f"cosine argument {value!r} outside [-1, 1] beyond tolerance {ACOS_CLAMP_TOL}"
        )
    return math.acos(min(1.0, max(-1.0, value)))


@dataclass(frozen=True)
class Point:
    """A planar point with finite coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise QuadFTError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: Point) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def unit_toward(self, other: Point) -> tuple[float, float]:
        d = self.distance_to(other)
        if d == 0.0:
            raise QuadFTError("unit vector undefined between coincident points")
        return (other.x - self.x) / d, (other.y - self.y) / d

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def unit_matrix(points) -> tuple[tuple[tuple[float, float] | None, ...], ...]:
    """u[i][j], the unit vector from point i toward point j (None where
    i == j); u[j][i] is -u[i][j]."""
    n = len(points)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ux, uy = points[i].unit_toward(points[j])
            rows[i][j] = (ux, uy)
            rows[j][i] = (-ux, -uy)
    return tuple(tuple(row) for row in rows)


def angle_at(p: Point, a: Point, b: Point) -> float:
    """Geometric angle at p between the rays toward a and toward b, in [0, pi]."""
    ux, uy = p.unit_toward(a)
    vx, vy = p.unit_toward(b)
    return clamped_acos(ux * vx + uy * vy)


# ------------------------------------------------------------------ #
# Quadrilateral
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class Quadrilateral:
    """Strictly convex quadrilateral with vertices in counterclockwise order."""

    vertices: tuple[Point, Point, Point, Point]

    def __post_init__(self):
        v = tuple(self.vertices)
        if len(v) != 4:
            raise QuadFTError("a quadrilateral needs exactly 4 vertices")
        object.__setattr__(self, "vertices", v)
        d = self.distances
        scale2 = self._diameter * self._diameter  # inf, where ** 2 would raise
        if scale2 == 0.0:
            raise QuadFTError("all vertices coincide")
        if scale2 == math.inf:
            i, j = next((i, j) for i in range(4) for j in range(i + 1, 4)
                        if d[i][j] == self._diameter)
            raise QuadFTError(
                f"vertices A{i + 1} {v[i].as_tuple()} and A{j + 1} {v[j].as_tuple()} lie "
                f"{d[i][j]:.7g} apart; lengths are squared, so no two vertices may lie "
                "more than about 1.34e154 apart"
            )
        for i in range(4):
            if d[i][(i + 1) % 4] == 0.0:
                raise QuadFTError("quadrilateral has coincident vertices")
        crosses = []
        for i in range(4):
            a, b, c = v[i], v[(i + 1) % 4], v[(i + 2) % 4]
            crosses.append(cross2(b.x - a.x, b.y - a.y, c.x - b.x, c.y - b.y))
        tol = CONVEXITY_TOL * scale2
        if any(cr <= tol for cr in crosses):
            if all(cr < -tol for cr in crosses):
                raise QuadFTError(
                    "vertices are clockwise; supply them in counterclockwise order"
                )
            raise QuadFTError("quadrilateral is not strictly convex")

    @classmethod
    def from_coords(cls, coords) -> Quadrilateral:
        return cls(tuple(Point(float(x), float(y)) for x, y in coords))

    @cached_property
    def unit_vectors(self) -> tuple[tuple[tuple[float, float] | None, ...], ...]:
        """`unit_matrix` of the vertices, measured once per quadrilateral."""
        return unit_matrix(self.vertices)

    @cached_property
    def distances(self) -> tuple[tuple[float, ...], ...]:
        """d[i][j], the distance from vertex i to vertex j, measured once per
        quadrilateral; d[j][i] is d[i][j]."""
        v = self.vertices
        rows = [[0.0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                rows[i][j] = rows[j][i] = v[i].distance_to(v[j])
        return tuple(tuple(row) for row in rows)

    @cached_property
    def interior_angles(self) -> tuple[float, float, float, float]:
        """The angle at each vertex between the rays toward its two
        neighbours, measured once per quadrilateral."""
        u = self.unit_vectors
        angles = []
        for i in range(4):
            (ax, ay), (bx, by) = u[i][i - 1], u[i][(i + 1) % 4]
            angles.append(clamped_acos(ax * bx + ay * by))
        return tuple(angles)

    @cached_property
    def _diameter(self) -> float:
        d = self.distances
        return max(d[i][j] for i in range(4) for j in range(i + 1, 4))

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
