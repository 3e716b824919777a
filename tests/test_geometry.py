import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadft import (
    InfeasibleTriangleError,
    Point,
    QuadFTError,
    Quadrilateral,
    angle_at,
    diagonal_intersection,
)
from quadft.geometry import (
    ACOS_CLAMP_TOL,
    SQUARABLE_LENGTH,
    clamped_acos,
    linspace,
    measure_pairs,
    measure_star,
)
from oracles import random_convex_quad, rigid_transform


def test_clamped_acos_rejects_nan():
    with pytest.raises(InfeasibleTriangleError, match="nan"):
        clamped_acos(math.nan)
    with pytest.raises(InfeasibleTriangleError, match="outside"):
        clamped_acos(1.0 + 2.0 * ACOS_CLAMP_TOL)
    with pytest.raises(InfeasibleTriangleError, match="outside"):
        clamped_acos(-1.0 - 2.0 * ACOS_CLAMP_TOL)
    assert clamped_acos(1.0 + 0.5 * ACOS_CLAMP_TOL) == 0.0
    assert clamped_acos(-1.0 - 0.5 * ACOS_CLAMP_TOL) == math.pi


class TestQuadrilateral:
    def test_rejects_clockwise(self):
        with pytest.raises(QuadFTError, match="counterclockwise"):
            Quadrilateral.from_coords([(0, 0), (0, 4), (7, 4), (7, 0)])

    def test_rejects_nonconvex(self):
        with pytest.raises(QuadFTError, match="convex"):
            Quadrilateral.from_coords([(0, 0), (4, 0), (1, 1), (0, 4)])

    def test_rejects_coincident(self):
        with pytest.raises(QuadFTError):
            Quadrilateral.from_coords([(0, 0), (0, 0), (7, 4), (0, 4)])

    def test_rejects_nonfinite_point(self):
        with pytest.raises(QuadFTError):
            Point(math.nan, 0.0)

    def test_contains(self, rect):
        assert rect.contains(Point(3.5, 2.0))
        assert rect.contains(Point(0.0, 0.0))  # closed boundary
        assert not rect.contains(Point(-0.1, 2.0))

    @pytest.mark.parametrize("k", [1e-3, 1e-2, 1.0, 1e3, 1e6])
    def test_contains_tolerance_is_relative(self, k):
        # the margin is a fixed fraction of the diameter, and each edge
        # measures distance, so the verdict does not change with the scale of
        # the square
        q = Quadrilateral.from_coords([(0, 0), (k, 0), (k, k), (0, k)])

        def outside(d):
            return [Point(0.5 * k, -d), Point(k + d, 0.5 * k),
                    Point(0.5 * k, k + d), Point(-d, 0.5 * k)]

        assert not any(q.contains(p) for p in outside(1e-7 * k))
        assert all(q.contains(p) for p in outside(1e-10 * k))


class TestUnitMatrix:
    def test_entries_are_the_direct_unit_vectors(self):
        # u[j][i] is stored as -u[i][j], which must equal the vector measured
        # from point j itself bit for bit; so must the distances
        rng = np.random.default_rng(31)
        for n in (3, 4, 6):
            pts = [Point(*(float(t) for t in rng.uniform(-1e3, 1e3, 2))) for _ in range(n)]
            d, u, diameter = measure_pairs(pts)
            for i in range(n):
                for j in range(n):
                    assert u[i][j] == (None if i == j else pts[i].unit_toward(pts[j]))
                    assert d[i][j] == pts[i].distance_to(pts[j])
            assert diameter == max(map(max, d))
        quad = Quadrilateral.from_coords(random_convex_quad(rng))
        assert (quad.distances, quad.unit_vectors, quad.diameter()) == measure_pairs(quad.vertices)

    def test_construction_measures_every_angle_once(self, rect):
        # the interior angles read the unit vectors measured at construction,
        # by the formula of `angle_at`
        v = rect.vertices
        assert rect.interior_angles == tuple(
            angle_at(v[i], v[i - 1], v[(i + 1) % 4]) for i in range(4))
        assert repr(rect) == f"Quadrilateral(vertices={v!r})"
        assert rect == Quadrilateral(v) and hash(rect) == hash(Quadrilateral(v))

    def test_coincident_points_have_no_unit_vector(self):
        d, u, diameter = measure_pairs([Point(1.0, 2.0), Point(1.0, 2.0), Point(4.0, 6.0)])
        assert d[0][1] == 0.0 and u[0][1] is None and u[1][0] is None
        assert diameter == 5.0 and u[0][2] == (0.6, 0.8)


def plain_star(p, points):
    """The star of p by `Point.distance_to` and `Point.unit_toward`."""
    return ([p.distance_to(q) for q in points],
            [None if p == q else p.unit_toward(q) for q in points])


class TestMeasureStar:
    """A frame (k, offset) is read only where points[k] + offset rounds to p;
    elsewhere the star is p's own, bit for bit."""

    FAR = [Point(1e7 + 0.3, 1e7 - 1.1), Point(1e7 + 2.9, 1e7 + 0.2),
           Point(1e7 - 0.7, 1e7 + 3.3), Point(1e7 - 1.8, 1e7 - 0.4)]
    OFFSET = (0.123456789, -0.987654321)  # rounded to the 1.9e-9 grid when added

    def test_frame_that_names_p_is_read(self):
        k, (ox, oy) = 1, self.OFFSET
        a = self.FAR[k]
        p = Point(a.x + ox, a.y + oy)
        d, u = measure_star(p, self.FAR, (k, self.OFFSET))
        diffs = [((q.x - a.x) - ox, (q.y - a.y) - oy) for q in self.FAR]
        assert d == [math.hypot(dx, dy) for dx, dy in diffs]
        assert u == [(dx / r, dy / r) for (dx, dy), r in zip(diffs, d)]
        assert d[k] == math.hypot(ox, oy)
        assert (d, u) != plain_star(p, self.FAR)  # p's rounding would enter

    def test_star_without_a_frame_is_the_points_own(self):
        for p in self.FAR[:1] + [Point(1e7, 1e7), Point(3.5, -2.0)]:
            assert measure_star(p, self.FAR) == plain_star(p, self.FAR)
            assert measure_star(p, self.FAR, None) == plain_star(p, self.FAR)

    def test_stale_frame_is_not_read(self):
        k, (ox, oy) = 1, self.OFFSET
        a = self.FAR[k]
        p = Point(a.x + ox, a.y + oy)
        moved = Point(math.nextafter(p.x, math.inf), p.y)
        foreign = [Point(q.x + 1.0, q.y) for q in self.FAR]
        assert measure_star(moved, self.FAR, (k, self.OFFSET)) == plain_star(moved, self.FAR)
        assert measure_star(p, foreign, (k, self.OFFSET)) == plain_star(p, foreign)
        on_a_vertex = measure_star(a, self.FAR, (k, (0.0, 0.0)))
        assert on_a_vertex == plain_star(a, self.FAR) and on_a_vertex[1][k] is None


class TestCoordinateRange:
    def test_points_too_far_apart_are_named(self):
        # by default a distance that overflows; a quadrilateral squares its
        # lengths, so its limit is the square root of the float maximum
        pts = [Point(-1e308, 0.0), Point(1e308, 0.0), Point(0.0, 1e308)]
        with pytest.raises(QuadFTError, match=r"^vertices A1 \(-1e\+308, 0.0\) and "
                                              r"A2 \(1e\+308, 0.0\) lie inf apart"):
            measure_pairs(pts)
        pts = [Point(0.0, 0.0), Point(1e155, 0.0), Point(0.0, 1.0)]
        assert measure_pairs(pts)[2] == 1e155
        with pytest.raises(QuadFTError, match=r"^vertices A1 .* and A2 .* lie 1e\+155 apart; "
                                              r"no two vertices may lie more than about "
                                              r"1.34e\+154 apart$"):
            measure_pairs(pts, SQUARABLE_LENGTH)
        with pytest.raises(QuadFTError, match=r"^vertices A1 \(0.0, 0.0\) and A3 "):
            Quadrilateral.from_coords([(0, 0), (1e308, 0), (1e308, 1e308), (0, 1e308)])

    def test_squares_that_underflow_are_named(self):
        for k in (1e-170, 1e-200, 1e-300):
            with pytest.raises(QuadFTError, match="squares underflow to 0"):
                Quadrilateral.from_coords([(0, 0), (7 * k, 0), (7 * k, 4 * k), (0, 4 * k)])
        with pytest.raises(QuadFTError, match="^all vertices coincide$"):
            Quadrilateral.from_coords([(1e-300, 0)] * 4)
        # above the underflow, a tiny quadrilateral is measured as usual
        q = Quadrilateral.from_coords([(0, 0), (7e-155, 0), (7e-155, 4e-155), (0, 4e-155)])
        assert q.interior_angles == (0.5 * math.pi,) * 4


class TestDiagonalIntersection:
    def test_rectangle_center(self, rect):
        p = diagonal_intersection(rect)
        assert (p.x, p.y) == pytest.approx((3.5, 2.0), abs=1e-12)

    def test_unit_square(self):
        q = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        p = diagonal_intersection(q)
        assert (p.x, p.y) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_generic_parametric_oracle(self):
        # solve A1 + t (A3 - A1) = A2 + s (A4 - A2) by hand:
        # (0,0)+t(5,3) = (4,0)+s(-3,2)  =>  t = 8/19, point (40/19, 24/19)
        q = Quadrilateral.from_coords([(0, 0), (4, 0), (5, 3), (1, 2)])
        p = diagonal_intersection(q)
        assert (p.x, p.y) == pytest.approx((40.0 / 19.0, 24.0 / 19.0), abs=1e-12)

    @given(
        st.floats(-math.pi, math.pi),
        st.floats(-20.0, 20.0),
        st.floats(-20.0, 20.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_rigid_motion_equivariance(self, theta, tx, ty, seed):
        pts = random_convex_quad(np.random.default_rng(seed))
        q = Quadrilateral.from_coords(pts)
        qt = Quadrilateral.from_coords(rigid_transform(pts, theta, tx, ty))
        p = diagonal_intersection(q)
        pt = diagonal_intersection(qt)
        expected = rigid_transform([(p.x, p.y)], theta, tx, ty)[0]
        assert pt.x == pytest.approx(expected[0], abs=1e-10 * (1 + abs(expected[0])))
        assert pt.y == pytest.approx(expected[1], abs=1e-10 * (1 + abs(expected[1])))


class TestLinspace:
    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(41)
        cases = []
        for num in (1, 2, 17, 65, 129):
            for _ in range(6):
                a, b = (float(v) for v in rng.uniform(0.0, 50.0, 2))
                c = float(rng.uniform(4.0, 12.0))
                b4 = float(rng.uniform(0.1, 0.9)) * c
                cases += [
                    (a, b, num),
                    (b, a, num),                       # reversed
                    (-a, -b, num),                     # negative
                    (-a, b, num),                      # across zero
                    (1e-9, c - b4 - 1e-9, num),        # inset 1e-9 from both ends
                ]
        for start, stop, num in cases:
            got = linspace(start, stop, num)
            ref = np.linspace(start, stop, num)
            assert len(got) == num
            assert all(type(v) is float for v in got)
            assert all(g == r for g, r in zip(got, ref)), (start, stop, num)
