import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadft import (
    DistanceSet,
    InconsistentDistancesError,
    InfeasibleTriangleError,
    Point,
    QuadFTError,
    Quadrilateral,
    cayley_menger,
    cayley_menger_from_lengths,
    diagonal_intersection,
    resolve_planar_diagonal,
    triangle_angle,
)
from quadft.geometry import linspace
from oracles import random_convex_quad, rigid_transform

SQRT65 = math.sqrt(65.0)


class TestTriangleAngle:
    def test_rectangle_corner_right_angle(self):
        assert triangle_angle(7.0, 4.0, SQRT65) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_equilateral(self):
        assert triangle_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_rectangle_corner_atan(self):
        # angle opposite the short side of the 7-4 right triangle: atan(4/7)
        assert triangle_angle(7.0, SQRT65, 4.0) == pytest.approx(
            math.atan2(4.0, 7.0), abs=1e-12
        )

    def test_degenerate_equality_gives_flat_angles(self):
        assert triangle_angle(1.0, 2.0, 3.0) == pytest.approx(math.pi, abs=1e-9)
        assert triangle_angle(2.0, 3.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTriangleError):
            triangle_angle(1.0, 1.0, 3.0)
        with pytest.raises(InfeasibleTriangleError):
            triangle_angle(1.0, 1.0, -1.0)

    @given(
        st.floats(0.1, 50.0),
        st.floats(0.1, 50.0),
        st.floats(1e-6, 1.0 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_angle_sum_is_pi(self, a, b, t):
        # c strictly inside the triangle-inequality interval; at its very edges
        # arccos conditioning alone exceeds the 1e-10 budget in doubles
        c = abs(a - b) + t * ((a + b) - abs(a - b))
        total = (
            triangle_angle(a, b, c)
            + triangle_angle(b, c, a)
            + triangle_angle(c, a, b)
        )
        assert total == pytest.approx(math.pi, abs=1e-10)


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
                    (1e-9, c - b4 - 1e-9, num),        # plasticity_system_new's scan
                ]
        for start, stop, num in cases:
            got = linspace(start, stop, num)
            ref = np.linspace(start, stop, num)
            assert len(got) == num
            assert all(type(v) is float for v in got)
            assert all(g == r for g, r in zip(got, ref)), (start, stop, num)


class TestCayleyMenger:
    def test_regular_tetrahedron(self):
        # edge 1 tetrahedron: volume 1/(6 sqrt 2), so 288 V^2 = 4
        from quadft import cayley_menger_from_lengths

        assert cayley_menger_from_lengths(1, 1, 1, 1, 1, 1) == pytest.approx(4.0, abs=1e-9)

    def test_planar_rectangle_is_zero(self, rect):
        d = rect.distance_set()
        scale = max(d.a12, d.a13, d.a14, d.a23, d.a24, d.a34)
        assert abs(cayley_menger(d)) <= 1e-9 * scale**4

    def test_perturbed_set_is_nonzero(self):
        from quadft import cayley_menger_from_lengths

        base = cayley_menger_from_lengths(7.0, SQRT65, 4.0, 4.0, SQRT65, 7.0)
        bumped = cayley_menger_from_lengths(7.0, 2 * SQRT65, 4.0, 4.0, SQRT65, 7.0)
        assert abs(base) < 1e-6
        assert abs(bumped) > 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_zero_for_random_planar_quads(self, seed):
        pts = random_convex_quad(np.random.default_rng(seed))
        q = Quadrilateral.from_coords(pts)
        d = q.distance_set()
        scale = max(d.a12, d.a13, d.a14, d.a23, d.a24, d.a34)
        assert abs(cayley_menger(d)) <= 1e-9 * scale**4

    def test_matches_numpy_determinant(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = rng.uniform(-5.0, 5.0, (4, 3))
            a12, a13, a14, a23, a24, a34 = (
                float(np.linalg.norm(p[i] - p[j]))
                for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
            )
            m = np.array([
                [0.0, a12**2, a13**2, a14**2, 1.0],
                [a12**2, 0.0, a23**2, a24**2, 1.0],
                [a13**2, a23**2, 0.0, a34**2, 1.0],
                [a14**2, a24**2, a34**2, 0.0, 1.0],
                [1.0, 1.0, 1.0, 1.0, 0.0],
            ])
            ref = float(np.linalg.det(m))
            got = cayley_menger_from_lengths(a12, a13, a14, a23, a24, a34)
            # relative to the size of the entries' products: on a flat
            # tetrahedron neither elimination resolves 288 V^2 relative to itself
            scale = max(a12, a13, a14, a23, a24, a34) ** 6
            assert abs(got - ref) <= 1e-12 * scale

    def test_distance_set_rejects_nonplanar(self):
        with pytest.raises(InconsistentDistancesError):
            DistanceSet(a12=7.0, a13=2 * SQRT65, a14=4.0, a23=4.0, a24=SQRT65, a34=7.0)

    @pytest.mark.parametrize("k", [1e-3, 1.0, 1e3, 1e4, 1e5])
    def test_planar_distance_set_at_any_scale(self, k):
        # the determinant scales as length^6, so must its bound
        q = Quadrilateral.from_coords([(0, 0), (7 * k, 0.3 * k), (6.1 * k, 4.2 * k),
                                       (0.4 * k, 3.9 * k)])
        d = q.distance_set()
        assert d.a12 == pytest.approx(math.hypot(7 * k, 0.3 * k), rel=1e-15)

    @pytest.mark.parametrize("k", [1e-5, 1e-3, 1.0, 1e3, 1e4, 1e5])
    def test_regular_tetrahedron_rejected_at_any_scale(self, k):
        # Cayley-Menger 4 k^6: never planar
        with pytest.raises(InconsistentDistancesError, match="coplanar"):
            DistanceSet(a12=k, a13=k, a14=k, a23=k, a24=k, a34=k)

    def test_distance_set_rejects_triangle_violation(self):
        with pytest.raises(InconsistentDistancesError):
            DistanceSet(a12=1.0, a13=10.0, a14=1.0, a23=1.0, a24=1.0, a34=1.0)


def _embed(a12, a14, a23, a24, a13):
    """Test-local embedding: A1 origin, A2 on +x, A3/A4 above the axis."""
    x4 = (a12**2 + a14**2 - a24**2) / (2 * a12)
    y4 = math.sqrt(max(a14**2 - x4**2, 0.0))
    x3 = (a12**2 + a13**2 - a23**2) / (2 * a12)
    y3 = math.sqrt(max(a13**2 - x3**2, 0.0))
    return [(0.0, 0.0), (a12, 0.0), (x3, y3), (x4, y4)]


class TestResolvePlanarDiagonal:
    def test_rectangle_contains_other_diagonal(self):
        roots = resolve_planar_diagonal(7.0, 4.0, 4.0, 7.0, SQRT65)
        assert any(r == pytest.approx(SQRT65, abs=1e-9) for r in roots)

    def test_collinear_triple_single_repeated_root(self):
        # A2=(3,0), A1=(0,0), A4=(-2,0) collinear (a24 = a12 + a14); with
        # A3=(3,4) the configuration is rigid and a13 = 5 exactly
        roots = resolve_planar_diagonal(3.0, 2.0, 4.0, math.sqrt(41.0), 5.0)
        assert len(roots) <= 2
        for r in roots:
            assert r == pytest.approx(5.0, abs=1e-5)

    def test_generic_roots_against_embedding(self):
        roots = resolve_planar_diagonal(5.0, 3.0, 4.0, 6.0, 7.0)
        assert roots
        for r in roots:
            pts = _embed(5.0, 3.0, 4.0, 7.0, r)
            # every input distance must be reproduced by the embedding
            def d(i, j):
                return math.dist(pts[i], pts[j])

            assert d(0, 1) == pytest.approx(5.0, rel=1e-9)
            assert d(0, 3) == pytest.approx(3.0, rel=1e-9)
            assert d(1, 2) == pytest.approx(4.0, rel=1e-9)
            assert d(2, 3) == pytest.approx(6.0, rel=1e-9)
            assert d(1, 3) == pytest.approx(7.0, rel=1e-9)
            assert d(0, 2) == pytest.approx(r, rel=1e-9)

    def test_no_real_root_raises(self):
        with pytest.raises(InconsistentDistancesError):
            resolve_planar_diagonal(1.0, 1.0, 1.0, 1.0, 10.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_from_random_quads(self, seed):
        pts = random_convex_quad(np.random.default_rng(seed))
        q = Quadrilateral.from_coords(pts)
        d = q.distance_set()
        roots = resolve_planar_diagonal(d.a12, d.a14, d.a23, d.a34, d.a24)
        assert any(r == pytest.approx(d.a13, rel=1e-9) for r in roots)
