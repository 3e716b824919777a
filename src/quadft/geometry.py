"""Planar primitives: points, convex quadrilaterals, cosine-law angles and the
Cayley-Menger distance machinery, plus the small dense linear algebra (evenly
spaced samples, Gaussian elimination) the solvers share.

Angles are radians everywhere; degrees appear only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InconsistentDistancesError, InfeasibleTriangleError, QuadFTError

ACOS_CLAMP_TOL = 1e-9
CONVEXITY_TOL = 1e-12
PLANARITY_TOL = 1e-9


# ------------------------------------------------------------------ #
# Vector helpers
# ------------------------------------------------------------------ #

def cross2(ux: float, uy: float, vx: float, vy: float) -> float:
    return ux * vy - uy * vx


def rotate(vx: float, vy: float, theta: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    return c * vx - s * vy, s * vx + c * vy


def clamped_acos(value: float, tol: float = ACOS_CLAMP_TOL) -> float:
    """arccos with values within `tol` of +/-1 clamped; beyond that, error."""
    if value > 1.0 + tol or value < -1.0 - tol:
        raise InfeasibleTriangleError(
            f"cosine argument {value!r} outside [-1, 1] beyond tolerance {tol}"
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
        scale2 = max(p.distance_to(q) for p in v for q in v) ** 2
        if scale2 == 0.0:
            raise QuadFTError("all vertices coincide")
        for i in range(4):
            if v[i].distance_to(v[(i + 1) % 4]) == 0.0:
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
        """u[i][j], the unit vector from vertex i toward vertex j (None where
        i == j), measured once per quadrilateral; u[j][i] is -u[i][j]."""
        v = self.vertices
        rows = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                ux, uy = v[i].unit_toward(v[j])
                rows[i][j] = (ux, uy)
                rows[j][i] = (-ux, -uy)
        return tuple(tuple(row) for row in rows)

    def side_lengths(self) -> tuple[float, float, float, float]:
        v = self.vertices
        return tuple(v[i].distance_to(v[(i + 1) % 4]) for i in range(4))

    def diameter(self) -> float:
        v = self.vertices
        return max(v[i].distance_to(v[j]) for i in range(4) for j in range(i + 1, 4))

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        """True if p lies in the closed quadrilateral inflated by `tol`."""
        v = self.vertices
        scale = self.diameter()
        for i in range(4):
            a, b = v[i], v[(i + 1) % 4]
            if cross2(b.x - a.x, b.y - a.y, p.x - a.x, p.y - a.y) < -tol * scale:
                return False
        return True

    def distance_set(self) -> DistanceSet:
        v = self.vertices
        return DistanceSet(
            a12=v[0].distance_to(v[1]),
            a13=v[0].distance_to(v[2]),
            a14=v[0].distance_to(v[3]),
            a23=v[1].distance_to(v[2]),
            a24=v[1].distance_to(v[3]),
            a34=v[2].distance_to(v[3]),
        )


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
# Sampling and small dense linear algebra
# ------------------------------------------------------------------ #

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


def _eliminate(rows) -> float:
    """Gaussian elimination with partial pivoting, in place, on a list of n row
    lists.  The first n columns are reduced to upper-triangular form; any
    further columns (a right-hand side) receive the same row operations.

    Returns the sign of the row permutation, or 0.0 when a pivot is exactly
    zero (a singular matrix).
    """
    n = len(rows)
    sign = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return 0.0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot = rows[k]
        for row in rows[k + 1:]:
            f = row[k] / pivot[k]
            for j in range(k + 1, len(row)):
                row[j] -= f * pivot[j]
    return sign


def solve_linear(a, b) -> list[float] | None:
    """Solution x of the square system a x = b, or None when a is singular."""
    rows = [[*row, rhs] for row, rhs in zip(a, b)]
    if _eliminate(rows) == 0.0:
        return None
    n = len(rows)
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        x[k] = (row[n] - sum(row[j] * x[j] for j in range(k + 1, n))) / row[k]
    return x


def determinant(a) -> float:
    """Determinant of a square matrix given as a sequence of rows."""
    rows = [list(row) for row in a]
    det = _eliminate(rows)
    for k, row in enumerate(rows):
        det *= row[k]
    return det


# ------------------------------------------------------------------ #
# Distance geometry
# ------------------------------------------------------------------ #

_TRIANGLE_TRIPLES = (
    ("a12", "a23", "a13"),
    ("a13", "a34", "a14"),
    ("a12", "a24", "a14"),
    ("a23", "a34", "a24"),
)


@dataclass(frozen=True)
class DistanceSet:
    """All six pairwise distances of four planar points A1..A4.

    Construction enforces positivity, strict triangle inequalities for the four
    triangles of the quadrilateral, and planarity: the Cayley-Menger determinant
    of the six values, of order length^6, must vanish within
    PLANARITY_TOL * scale**6.
    """

    a12: float
    a13: float
    a14: float
    a23: float
    a24: float
    a34: float

    def __post_init__(self):
        values = self.__dict__
        for name, val in values.items():
            if not (val > 0.0 and math.isfinite(val)):
                raise InconsistentDistancesError(f"{name} must be positive, got {val!r}")
        for i, j, k in _TRIANGLE_TRIPLES:
            a, b, c = values[i], values[j], values[k]
            if a + b <= c or b + c <= a or c + a <= b:
                raise InconsistentDistancesError(
                    f"triple ({i}, {j}, {k}) = ({a}, {b}, {c}) violates the triangle inequality"
                )
        scale = max(values.values())
        if abs(cayley_menger(self)) > PLANARITY_TOL * scale**6:
            raise InconsistentDistancesError(
                "distances do not describe coplanar points (Cayley-Menger != 0)"
            )


def triangle_angle(a: float, b: float, c: float) -> float:
    """Angle opposite side c in a triangle with sides a, b, c (cosine law).

    Degenerate triangles are allowed: equality in the triangle inequality gives
    exactly 0 or pi.
    """
    if a <= 0.0 or b <= 0.0 or c < 0.0:
        raise InfeasibleTriangleError(f"side lengths must be positive, got ({a}, {b}, {c})")
    return clamped_acos((a * a + b * b - c * c) / (2.0 * a * b))


def cayley_menger_from_lengths(a12: float, a13: float, a14: float,
                               a23: float, a24: float, a34: float) -> float:
    """Bordered determinant for six raw positive distances (no planarity
    requirement; 288 V^2 of the tetrahedron they span)."""
    return determinant(
        [
            [0.0, a12 * a12, a13 * a13, a14 * a14, 1.0],
            [a12 * a12, 0.0, a23 * a23, a24 * a24, 1.0],
            [a13 * a13, a23 * a23, 0.0, a34 * a34, 1.0],
            [a14 * a14, a24 * a24, a34 * a34, 0.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 0.0],
        ]
    )


def cayley_menger(d: DistanceSet) -> float:
    """Bordered 5x5 determinant of a DistanceSet (zero exactly when the four
    points are coplanar)."""
    return cayley_menger_from_lengths(d.a12, d.a13, d.a14, d.a23, d.a24, d.a34)


def _embed_vertices(a12, a14, a23, a24, a13, a34):
    """Place A1 at the origin and A2 on the +x axis, A4 above the axis, and A3
    on whichever side reproduces a34.  Returns None when no placement fits."""
    x4 = (a12 * a12 + a14 * a14 - a24 * a24) / (2.0 * a12)
    y4sq = a14 * a14 - x4 * x4
    x3 = (a12 * a12 + a13 * a13 - a23 * a23) / (2.0 * a12)
    y3sq = a13 * a13 - x3 * x3
    if y4sq < 0.0 or y3sq < 0.0:
        return None
    y4 = math.sqrt(y4sq)
    scale = max(a12, a13, a14, a23, a24, a34)
    for sign in (1.0, -1.0):
        y3 = sign * math.sqrt(y3sq)
        if abs(math.hypot(x3 - x4, y3 - y4) - a34) <= 1e-6 * scale:
            return (Point(0.0, 0.0), Point(a12, 0.0), Point(x3, y3), Point(x4, y4))
    return None


def resolve_planar_diagonal(
    a12: float, a14: float, a23: float, a34: float, a24: float
) -> list[float]:
    """Diagonal lengths a13 > 0 consistent with a planar quadrilateral.

    The Cayley-Menger determinant is quadratic in a13**2; its positive roots are
    filtered to those whose coordinate embedding is a strictly convex
    counterclockwise quadrilateral, and returned in ascending order.  Callers
    wanting a single value take the largest (the convex-configuration root).
    """
    for name, val in (("a12", a12), ("a14", a14), ("a23", a23), ("a34", a34), ("a24", a24)):
        if not (val > 0.0 and math.isfinite(val)):
            raise InconsistentDistancesError(f"{name} must be positive, got {val!r}")
    # Reconstruct the quadratic det(t) = q2*t^2 + q1*t + q0 in t = a13^2 by
    # sampling at three points spaced on the squared scale of the data.
    s = max(a12, a14, a23, a34, a24) ** 2
    f0 = cayley_menger_from_lengths(a12, 0.0, a14, a23, a24, a34)
    f1 = cayley_menger_from_lengths(a12, math.sqrt(s), a14, a23, a24, a34)
    f2 = cayley_menger_from_lengths(a12, math.sqrt(2.0 * s), a14, a23, a24, a34)
    q2 = (f2 - 2.0 * f1 + f0) / (2.0 * s * s)
    q1 = (f1 - f0) / s - q2 * s
    q0 = f0
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        # Tangential (repeated) roots land a hair negative in floating point.
        if disc > -1e-7 * max(q1 * q1, abs(4.0 * q2 * q0)):
            disc = 0.0
        else:
            raise InconsistentDistancesError("no real diagonal length fits these distances")
    sq = math.sqrt(disc)
    roots = []
    for t in ((-q1 - sq) / (2.0 * q2), (-q1 + sq) / (2.0 * q2)):
        if t > 0.0:
            root = math.sqrt(t)
            if not any(math.isclose(root, r, rel_tol=1e-12) for r in roots):
                roots.append(root)
    feasible = []
    for root in sorted(roots):
        pts = _embed_vertices(a12, a14, a23, a24, root, a34)
        if pts is None:
            continue
        try:
            Quadrilateral(pts)
        except QuadFTError:
            continue
        feasible.append(root)
    if not feasible:
        if roots:
            # Degenerate data (e.g. a collinear triple): report the raw roots.
            return sorted(roots)
        raise InconsistentDistancesError("no positive diagonal root for these distances")
    return feasible
