import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quadft.fermat as fermat
from quadft import (
    AbsorbedWeightsError,
    CaseKind,
    ConvergenceError,
    InconsistentCaseError,
    Point,
    QuadFTError,
    Quadrilateral,
    WeightedQuadrilateral,
    angle_at,
    classify_case,
    locate_4wft,
    solve_4wft_general,
    solve_4wft_square,
    triangle_wft_angles,
    weighted_distance_sum,
    weiszfeld,
)
from oracles import (
    pull_at,
    random_convex_quad,
    refined_grid_min,
    rigid_transform,
)

TWO_PI = 2.0 * math.pi

# frozen expected values
EX2_POINT = (2.8274502, 1.2787811)
EX2_ANGLES_DEG = (138.625, 50.1502, 102.986, 68.2392)
EX3_POINT = (2.381487, 1.1855484)
EX3_ANGLES_DEG = (139.138, 45.7542, 98.8792, 76.2283)
EX1_ANGLES = {"a102": 2.30886, "a401": 1.57801, "a304": 1.12492, "a203": 1.2714}
EX1_POINT = (4.0700893, 2.146831)
# absorption slack ~1e-3 at the heavy fourth vertex
BARELY_FLOATING_COORDS = [(-0.2207, 0.9828), (-1.3356, 0.7854), (-1.0813, -0.2759),
                          (-0.1229, -2.2068)]
BARELY_FLOATING_WEIGHTS = (0.5959, 0.9887, 0.9059, 2.4538)
# draw 361 of `_floating_weights(default_rng(8), random_convex_quad(rng))`: its
# median lies 1.6e-4 of the diameter from A4
NEAR_A4_COORDS = [(1.1996388047129205, 0.47666720834292237),
                  (0.5014304303984316, 1.7498986751744614),
                  (-0.459092381549631, -3.396219215514096),
                  (0.664951534524167, -0.8212883404488002)]
NEAR_A4_WEIGHTS = (0.8985418352107047, 1.9187092476146819, 2.7500581523176226,
                   0.9062002470219848)


def _pull(points, weights, i):
    """Norm of the weighted pull of the other points on point i, measured
    directly by `Point.unit_toward`."""
    sx = sy = 0.0
    for j, (q, w) in enumerate(zip(points, weights)):
        if j != i:
            ux, uy = points[i].unit_toward(q)
            sx += w * ux
            sy += w * uy
    return math.hypot(sx, sy)


def _slack(points, weights, i):
    """Kuhn's slack at point i: the pull of the others minus its own weight."""
    return _pull(points, weights, i) - weights[i]


def _system_tolerance(wq, p):
    """How far an angle system's point may lie from the median's point p:
    `_REBUILD_RTOL` times the diameter, plus the rounding of both points
    moved back by A1 into the absolute coordinates."""
    return fermat._REBUILD_RTOL * wq.quad.diameter() + 4.0 * math.ulp(max(abs(p.x), abs(p.y)))


def _floating_weights(rng, pts):
    quad = Quadrilateral.from_coords(pts)
    for _ in range(100):
        w = tuple(rng.uniform(0.6, 3.0, 4))
        wq = WeightedQuadrilateral(quad, w)
        if classify_case(wq).kind is CaseKind.FLOATING and max(w) - min(w) > 1e-6:
            return wq
    raise AssertionError("could not draw floating weights")


class TestClassify:
    def test_example_ex2_is_floating(self, wq_ex2):
        assert classify_case(wq_ex2).kind is CaseKind.FLOATING

    def test_dominant_weight_absorbs(self):
        q = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        tag = classify_case(WeightedQuadrilateral(q, (100.0, 1.0, 1.0, 1.0)))
        assert tag.kind is CaseKind.ABSORBED
        assert tag.vertex == 1

    def test_equal_weights_floating_with_diagonal_optimum(self, rect):
        wq = WeightedQuadrilateral(rect, (2.0, 2.0, 2.0, 2.0))
        assert classify_case(wq).kind is CaseKind.FLOATING
        tree = locate_4wft(wq)
        assert tree.case.kind is CaseKind.DIAGONAL
        assert (tree.point.x, tree.point.y) == pytest.approx((3.5, 2.0), abs=1e-12)

    def test_boundary_flag(self, rect):
        # push one weight to the exact absorption threshold of vertex 1
        pts = rect.vertices
        slack = _slack(pts, (1.0, 1.0, 1.0, 1.0), 0)
        b1 = 1.0 + slack  # pull of the others equals b1 exactly
        tag = classify_case(WeightedQuadrilateral(rect, (b1, 1.0, 1.0, 1.0)))
        assert tag.kind is CaseKind.ABSORBED and tag.boundary

    def test_matches_direct_slack_evaluation(self):
        # the unit vectors measured at construction give exactly the tags of
        # a direct evaluation
        from quadft.fermat import CASE_BOUNDARY_TOL, CaseTag

        def direct(wq):
            margin = CASE_BOUNDARY_TOL * wq.total
            for i in range(4):
                slack = _slack(wq.quad.vertices, wq.weights, i)
                if slack <= margin:
                    return CaseTag(CaseKind.ABSORBED, vertex=i + 1,
                                   boundary=abs(slack) <= margin)
            return CaseTag(CaseKind.FLOATING)

        rng = np.random.default_rng(41)
        seen = set()
        for k in range(500):
            quad = Quadrilateral.from_coords(random_convex_quad(rng))
            w = [float(v) for v in rng.uniform(0.6, 3.0, 4)]
            if k % 3 == 0:  # raise weight i to the pull of the other three
                i = k % 4
                w[i] += _slack(quad.vertices, w, i)
            wq = WeightedQuadrilateral(quad, tuple(w))
            tag = classify_case(wq)
            assert tag == direct(wq), k
            seen.add((tag.kind, tag.boundary))
        assert seen == {(CaseKind.FLOATING, False), (CaseKind.ABSORBED, False),
                        (CaseKind.ABSORBED, True)}

    def test_unit_vectors_measured_once_per_quadrilateral(self, monkeypatch, rect):
        # construction measures the 6 vertex pairs by one hypot each, and
        # classify_case measures no length: it reads those unit vectors
        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(math, "hypot", counting("hypot", math.hypot))
        for name in ("distance_to", "unit_toward"):
            monkeypatch.setattr(Point, name, counting(name, getattr(Point, name)))
        quad = Quadrilateral(rect.vertices)
        assert calls == ["hypot"] * 6
        calls.clear()
        measured = (quad.distances, quad.unit_vectors, quad.interior_angles)
        for w in ((3.0, 2.5, 1.7, 1.5), (100.0, 1.0, 1.0, 1.0), (1.0, 1.2, 0.9, 1.1)):
            wq = WeightedQuadrilateral(quad, w)
            calls.clear()
            tag = classify_case(wq)
            # one norm per pull Kuhn's test reads, up to the absorbing vertex
            assert calls == ["hypot"] * (tag.vertex or 4)
        assert (quad.distances, quad.unit_vectors, quad.interior_angles) == measured


class TestTriangleAngles:
    def test_equal_weights_all_120(self):
        for a in triangle_wft_angles(1.0, 1.0, 1.0):
            assert a == pytest.approx(TWO_PI / 3, abs=1e-12)

    def test_boundary_weights_raise(self):
        with pytest.raises(AbsorbedWeightsError):
            triangle_wft_angles(3.0, 1.5, 1.5)   # |bi - bj| == bk
        with pytest.raises(AbsorbedWeightsError):
            triangle_wft_angles(3.0, 1.5, 4.5)   # bk == bi + bj

    def test_near_degenerate_weights_give_angles_or_absorb(self):
        # passes the strict triangle check, yet one cosine rounds past -1
        angles = triangle_wft_angles(3.941560618086337, 1.3856128984282157, 5.327173516514552)
        assert sum(angles) == pytest.approx(TWO_PI, abs=1e-6)
        rng = np.random.default_rng(7)
        for _ in range(5000):
            bi, bj = rng.uniform(0.1, 10.0, 2)
            edge = bi + bj if rng.random() < 0.5 else abs(bi - bj)
            bk = edge * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-17.0, -12.0))
            weights = [float(bi), float(bj), float(bk)]
            rng.shuffle(weights)
            try:
                angles = triangle_wft_angles(*weights)
            except AbsorbedWeightsError:
                continue
            assert sum(angles) == pytest.approx(TWO_PI, abs=1e-6)

    @pytest.mark.parametrize("weights", [(math.nan, 1.0, 1.0), (1.0, 1.0, math.inf)])
    def test_nan_or_infinite_weights_are_no_absorption(self, weights):
        with pytest.raises(QuadFTError, match="finite"):
            triangle_wft_angles(*weights)

    def test_sum_and_grid_oracle(self):
        weights = (3.5, 2.5, 2.0)
        angles = triangle_wft_angles(*weights)
        assert sum(angles) == pytest.approx(TWO_PI, abs=1e-12)
        # independent check: minimize the 3-point objective on a grid, then
        # measure the angles the optimum actually sees
        tri = [(0.0, 0.0), (5.0, 0.5), (2.0, 4.0)]
        best, _ = refined_grid_min(tri, weights, n0=700, zooms=4)
        p = Point(*best)
        measured = (
            _angle(p, tri[0], tri[1]),
            _angle(p, tri[1], tri[2]),
            _angle(p, tri[2], tri[0]),
        )
        for got, ref in zip(angles, measured):
            assert got == pytest.approx(ref, abs=5e-4)

    @given(st.floats(0.5, 4.0), st.floats(0.5, 4.0), st.floats(1e-3, 1 - 1e-3))
    @settings(max_examples=150, deadline=None)
    def test_angle_sum_property(self, bi, bj, t):
        bk = abs(bi - bj) + t * (bi + bj - abs(bi - bj))
        if not abs(bi - bj) < bk < bi + bj:
            return
        assert sum(triangle_wft_angles(bi, bj, bk)) == pytest.approx(TWO_PI, abs=1e-10)


def _angle(p, a, b):
    ua = ((a[0] - p.x), (a[1] - p.y))
    ub = ((b[0] - p.x), (b[1] - p.y))
    na, nb = math.hypot(*ua), math.hypot(*ub)
    return math.acos(max(-1, min(1, (ua[0] * ub[0] + ua[1] * ub[1]) / (na * nb))))


class TestWeiszfeld:
    def test_example_rectangle(self, rect):
        w = (3.0, 2.5, 1.7, 1.5)
        p = weiszfeld(rect.vertices, w)
        assert pull_at(rect.vertices, w, p) < 1e-12 * sum(w)
        assert (p.x, p.y) == pytest.approx(EX2_POINT, abs=1e-5)

    def test_second_rectangle_instance(self, rect):
        w = (3.1, 2.3, 1.7, 1.4)
        p = weiszfeld(rect.vertices, w)
        assert pull_at(rect.vertices, w, p) < 1e-12 * sum(w)
        assert (p.x, p.y) == pytest.approx(EX3_POINT, abs=1e-5)

    def test_equal_weights_hits_diagonal_intersection(self, rect):
        w = (1.0, 1.0, 1.0, 1.0)
        p = weiszfeld(rect.vertices, w)
        assert pull_at(rect.vertices, w, p) < 1e-12 * sum(w)
        assert (p.x, p.y) == pytest.approx((3.5, 2.0), abs=1e-9)

    def test_absorbed_returns_vertex(self):
        q = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        p = weiszfeld(q.vertices, (100.0, 1.0, 1.0, 1.0))
        assert (p.x, p.y) == (0.0, 0.0)

    @pytest.mark.parametrize("weights,vertex", [((100.0, 1.0, 1.0, 1.0), (0.0, 0.0)),
                                                ((1.0, 1.0, 1.0, 100.0), (0.0, 1.0)),
                                                ((1.0, 2.0, 1.0, 1.0), (1.0, 0.0))])
    def test_coincident_points_merge_their_weights(self, weights, vertex):
        # (1, 0) twice is one point of weight B2 + B3; in the last case that
        # weight, 3, outweighs the others' pull on it, 1.85
        pts = [Point(0, 0), Point(1, 0), Point(1, 0), Point(0, 1)]
        assert weiszfeld(pts, weights).as_tuple() == vertex

    def test_collinear_rejected(self):
        with pytest.raises(QuadFTError, match="collinear"):
            weiszfeld([Point(0, 0), Point(1, 0), Point(2, 0)], (1.0, 1.0, 1.0))

    def test_collinear_matches_matrix_rank(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            origin = rng.uniform(-10.0, 10.0, 2)
            phi = rng.uniform(0.0, math.pi)
            along = np.array([math.cos(phi), math.sin(phi)])
            across = np.array([-along[1], along[0]])
            ts = rng.uniform(-5.0, 5.0, n)
            ts -= ts.mean()
            # unit offsets orthogonal to the constant and to ts, so that the
            # smaller singular value of the centred points is the offset size
            basis = np.linalg.qr(np.column_stack([np.ones(n), ts, rng.normal(size=n)]))[0]
            offsets = basis[:, 2]
            threshold = 1e-12 * np.abs(np.outer(ts, along)).max()
            for factor, expected in ((0.0, True), (0.1, True), (10.0, False)):
                xy = origin + np.outer(ts, along) + factor * threshold * np.outer(offsets, across)
                pts = [Point(float(x), float(y)) for x, y in xy]
                xs = xy - xy.mean(axis=0)
                rank = np.linalg.matrix_rank(xs, tol=1e-12 * np.abs(xs).max())
                assert fermat._collinear(pts) == (rank < 2) == expected

    def test_triangle_scaled_and_moved(self):
        # the median moves with the triangle under scales 1e-4..1e6 and
        # translations up to 1e7, small triangles far out included, and at
        # the origin down to 1e-20 (far out, such points round together)
        tri = ((0.0, 0.0), (6.0, 0.0), (2.0, 5.0))
        weights = (2.0, 1.5, 1.8)
        base = weiszfeld([Point(*p) for p in tri], weights)
        cases = [(scale, offset) for scale in (1e-4, 1e-2, 1.0, 1e3, 1e6)
                 for offset in (0.0, 1e4, 1e6, 1e7)] + [(1e-13, 0.0), (1e-20, 0.0)]
        for scale, offset in cases:
            p = weiszfeld([Point(scale * x + offset, scale * y + offset) for x, y in tri],
                          weights)
            want = (scale * base.x + offset, scale * base.y + offset)
            allowed = 1e-9 * scale * 6.4 + 2.0 * math.ulp(max(abs(p.x), abs(p.y)))
            assert math.dist(p.as_tuple(), want) <= allowed, (scale, offset)

    def test_triangle_near_the_square_root_of_the_float_maximum(self):
        # _collinear squared this triangle's coordinate across its principal
        # axis and raised OverflowError; scaled by 2^514, the median scales too
        tri = ((-0.48714806948814804, 0.22147089286444355),
               (-0.1811652583572092, -0.7560744475095753),
               (-0.22610829282081113, 0.46440308497133387))
        base = weiszfeld([Point(*p) for p in tri], (1.0, 1.0, 1.0))
        p = weiszfeld([Point(math.ldexp(x, 514), math.ldexp(y, 514)) for x, y in tri],
                      (1.0, 1.0, 1.0))
        assert p.as_tuple() == pytest.approx(
            (math.ldexp(base.x, 514), math.ldexp(base.y, 514)), rel=1e-12)

    def test_tiny_triangle_solves(self):
        # _median's Newton determinant, of order 1 / r^2, overflowed below
        # about 1e-154 and the median stalled at the Weiszfeld seed (residual
        # 0.0376 of the total); its frame is now scaled by a power of two
        tri = ((0.0, 0.0), (6.0, 0.0), (2.0, 5.0))
        weights = (2.0, 1.5, 1.8)
        base = weiszfeld([Point(*p) for p in tri], weights)
        for scale in (1e-155, 1e-160, 1e-200, 1e-300):
            p = weiszfeld([Point(x * scale, y * scale) for x, y in tri], weights)
            assert p.as_tuple() == pytest.approx((base.x * scale, base.y * scale), rel=1e-12)
        for e in (-520, -1000):  # a power of two scales the solve exactly
            p = weiszfeld([Point(math.ldexp(x, e), math.ldexp(y, e)) for x, y in tri], weights)
            assert p.as_tuple() == (math.ldexp(base.x, e), math.ldexp(base.y, e))

    def test_tiny_rectangle_solves(self, wq_ex2):
        base = locate_4wft(wq_ex2)
        scale = 1e-155
        quad = Quadrilateral.from_coords([(v.x * scale, v.y * scale)
                                          for v in wq_ex2.quad.vertices])
        tree = locate_4wft(WeightedQuadrilateral(quad, wq_ex2.weights))
        assert tree.point.as_tuple() == pytest.approx(
            (base.point.x * scale, base.point.y * scale), rel=1e-12)
        assert tree.angles == pytest.approx(base.angles, rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_weights_scaled_by_a_power_of_two_solve_exactly(self, k):
        # _median scaled its frame but not its weights: its Newton
        # determinant, of order (w / r)^2, under- or overflowed and the
        # median stalled (ConvergenceError)
        tri = [Point(0.0, 0.0), Point(6.0, 0.0), Point(2.0, 5.0)]
        weights = (2.0, 1.5, 1.8)
        assert weiszfeld(tri, [math.ldexp(w, k) for w in weights]) == weiszfeld(tri, weights)

    def test_points_whose_difference_overflows_are_named(self):
        # the difference overflowed, and the median came back as the point
        # (inf, inf): "point coordinates must be finite, got (inf, inf)"
        pts = [Point(-1e308, 0.0), Point(1e308, 0.0), Point(0.0, 1e308)]
        with pytest.raises(QuadFTError, match=r"^vertices A1 \(-1e\+308, 0.0\) and "
                                              r"A2 \(1e\+308, 0.0\) lie inf apart"):
            weiszfeld(pts, (1.0, 1.0, 1.0))

    def test_barely_floating_triangle_returns_its_vertex(self):
        # one weight (1 - s) times the pull of the other two, s = 10^U(-12, -10):
        # Kuhn's slack s * pull is inside classify_case's margin, so the
        # triangle is absorbed there, and weiszfeld must agree
        rng = np.random.default_rng(17)
        for _ in range(200):
            pts = [Point(*(float(t) for t in rng.uniform(-5.0, 5.0, 2))) for _ in range(3)]
            weights = [float(w) for w in rng.uniform(0.6, 3.0, 3)]
            i = int(rng.integers(3))
            pull = _pull(pts, weights, i)
            weights[i] = (1.0 - 10.0 ** rng.uniform(-12.0, -10.0)) * pull
            assert weiszfeld(pts, weights) == pts[i]

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_weights_must_be_positive_and_finite(self, bad):
        # an infinite weight made the margin infinite, so the first vertex
        # "absorbed"; a NaN weight failed later on the point it produced
        tri = [Point(0.0, 0.0), Point(6.0, 0.0), Point(2.0, 5.0)]
        with pytest.raises(QuadFTError, match="weights must be positive and finite"):
            weiszfeld(tri, (2.0, 1.5, bad))
        quad = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(QuadFTError, match="weights must be positive and finite"):
            WeightedQuadrilateral(quad, (2.0, 1.5, 1.0, bad))

    def test_bool_weights_rejected(self):
        # float(True) is 1.0: the bools ran as unit weights
        tri = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)]
        with pytest.raises(QuadFTError, match=r"not bools, got \(True, True, True\)"):
            weiszfeld(tri, (True, True, True))
        rect = Quadrilateral.from_coords([(0, 0), (7, 0), (7, 4), (0, 4)])
        with pytest.raises(QuadFTError, match=r"not bools, got \(True, 2.5, 1.7, 1.5\)"):
            WeightedQuadrilateral(rect, (True, 2.5, 1.7, 1.5))

    @pytest.mark.parametrize("k", [0, -1])
    def test_weights_whose_sum_overflows_rejected(self, k):
        # each weight is finite, but the total is inf: Kuhn's margin was inf,
        # so the first point absorbed and A1 came back with objective inf
        tri = [Point(0.0, 0.0), Point(6.0, 0.0), Point(2.0, 5.0)]
        with pytest.raises(QuadFTError, match="^the weights sum to inf"):
            weiszfeld(tri, [math.ldexp(w, k) for w in (1.5e308, 1.4e308, 1.3e308)])
        rect = Quadrilateral.from_coords([(0, 0), (7, 0), (7, 4), (0, 4)])
        w = (1.5e308, 1.25e308, 0.85e308, 0.75e308)
        with pytest.raises(QuadFTError, match="^the weights sum to inf"):
            WeightedQuadrilateral(rect, tuple(math.ldexp(v, k) for v in w))
        # at 2^-2 the total is finite, and the instance floats as at unit scale
        wq = WeightedQuadrilateral(rect, tuple(math.ldexp(v, -2) for v in w))
        assert classify_case(wq).kind is CaseKind.FLOATING

    def test_agrees_with_classify_and_locate(self):
        # on the same quadrilateral and weights, weiszfeld returns the
        # absorbing vertex exactly when classify_case absorbs, and otherwise
        # the median of locate_4wft (weights unequal, so no diagonal
        # shortcut), a stalled solve included
        def outcome(f, *args):
            try:
                return f(*args)
            except ConvergenceError as exc:
                return str(exc)

        rng = np.random.default_rng(29)
        seen = set()
        for k in range(400):
            quad = Quadrilateral.from_coords(random_convex_quad(rng))
            w = [float(v) for v in rng.uniform(0.6, 3.0, 4)]
            if k % 3 == 0:  # weight i at (1 +- s) times the pull of the others
                i = k % 4
                w[i] = (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -1.0)
                        ) * _pull(quad.vertices, w, i)
            wq = WeightedQuadrilateral(quad, tuple(w))
            tag = classify_case(wq)
            got = outcome(weiszfeld, quad.vertices, w)
            if tag.kind is CaseKind.ABSORBED:
                assert got == quad.vertices[tag.vertex - 1], k
            else:
                assert got not in quad.vertices, k
                want = outcome(locate_4wft, wq)
                assert got == (want if isinstance(want, str) else want.point), k
            seen.add(tag.kind)
        assert seen == {CaseKind.ABSORBED, CaseKind.FLOATING}

    def test_nonconvergence_carries_state(self, rect, monkeypatch):
        monkeypatch.setattr(fermat, "NEWTON_MAX_ITER", 0)
        with pytest.raises(ConvergenceError) as err:
            weiszfeld(rect.vertices, (3.0, 2.5, 1.7, 1.5))
        assert err.value.last is not None
        assert err.value.residual is not None


class TestSquareSystem:
    def test_example_square(self):
        tree = solve_4wft_square(10.0, (3.5, 2.5, 2.0, 1.0))
        a102, a203, a304, a401 = tree.angles
        assert a102 == pytest.approx(EX1_ANGLES["a102"], abs=1e-4)
        assert a401 == pytest.approx(EX1_ANGLES["a401"], abs=1e-4)
        assert a304 == pytest.approx(EX1_ANGLES["a304"], abs=1e-4)
        assert a203 == pytest.approx(EX1_ANGLES["a203"], abs=1e-4)
        assert (tree.point.x, tree.point.y) == pytest.approx(EX1_POINT, abs=1e-4)

    def test_equal_weights_center(self):
        tree = solve_4wft_square(10.0, (1.0, 1.0, 1.0, 1.0))
        assert (tree.point.x, tree.point.y) == pytest.approx((5.0, 5.0), abs=1e-8)
        for a in tree.angles:
            assert a == pytest.approx(math.pi / 2, abs=1e-8)

    def test_matches_weiszfeld(self):
        w = (3.5, 2.5, 2.0, 1.0)
        tree = solve_4wft_square(10.0, w)
        sq = Quadrilateral.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        p = weiszfeld(sq.vertices, w)
        assert pull_at(sq.vertices, w, p) < 1e-12 * sum(w)
        assert tree.point.distance_to(p) < 1e-5

    def test_absorbed_input_rejected(self):
        from quadft import InconsistentCaseError

        with pytest.raises(InconsistentCaseError, match="absorbed"):
            solve_4wft_square(10.0, (100.0, 1.0, 1.0, 1.0))

    def test_weight_scale_invariance(self):
        # the residuals are taken on weights divided by their total
        weights = (3.5, 2.5, 2.0, 1.0)
        base = solve_4wft_square(10.0, weights).point
        for k in range(-12, 13):
            tree = solve_4wft_square(10.0, tuple(w * 10.0 ** k for w in weights))
            assert tree.point.distance_to(base) <= 1e-12 * 10.0, k

    def test_random_weights_give_a_tree_or_a_typed_error(self):
        rng = np.random.default_rng(5)
        trees = 0
        for _ in range(300):
            weights = tuple(float(w) for w in rng.uniform(0.6, 3.0, 4))
            try:
                solve_4wft_square(3.0, weights)
            except QuadFTError:
                continue
            trees += 1
        assert trees > 0

    @given(seed=st.integers(0, 2**32 - 1), side=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
           lam=st.floats(-9.0, 9.0).map(lambda e: 10.0**e))
    @settings(max_examples=30, deadline=None)
    def test_residual_at_the_median_under_weight_scaling(self, seed, side, lam):
        # the circle system reads the weights over their total
        weights = tuple(lam * float(w) for w in np.random.default_rng(seed).uniform(0.6, 3.0, 4))
        quad = Quadrilateral.from_coords([(0, 0), (side, 0), (side, side), (0, side)])
        assume(classify_case(WeightedQuadrilateral(quad, weights)).kind is CaseKind.FLOATING)
        median, _, _ = fermat._median(quad.vertices, weights)
        residual, _ = fermat._square_system(quad.vertices, weights, median)
        assert residual <= fermat._EQUILIBRIUM_RTOL
        tree = solve_4wft_square(side, weights)
        assert tree.point.distance_to(median) <= fermat._REBUILD_RTOL * quad.diameter()


class TestGeneralSystem:
    def test_example_rectangle_angles(self, wq_ex2):
        tree = solve_4wft_general(wq_ex2)
        got_deg = [math.degrees(a) for a in tree.angles]
        for got, ref in zip(got_deg, EX2_ANGLES_DEG):
            assert got == pytest.approx(ref, abs=1e-3)
        assert (tree.point.x, tree.point.y) == pytest.approx(EX2_POINT, abs=1e-5)

    def test_second_instance_angles(self, wq_ex3):
        tree = solve_4wft_general(wq_ex3)
        got_deg = [math.degrees(a) for a in tree.angles]
        for got, ref in zip(got_deg, EX3_ANGLES_DEG):
            assert got == pytest.approx(ref, abs=1e-3)

    def test_matches_weiszfeld_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            pts = random_convex_quad(rng)
            wq = _floating_weights(rng, pts)
            tree = solve_4wft_general(wq)
            ref = weiszfeld(wq.quad.vertices, wq.weights)
            assert pull_at(wq.quad.vertices, wq.weights, ref) < 1e-12 * wq.total
            assert tree.point.distance_to(ref) < 1e-6 * wq.quad.diameter()

    def test_absorbed_input_rejected(self):
        q = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(InconsistentCaseError, match="absorbed"):
            solve_4wft_general(WeightedQuadrilateral(q, (100.0, 1.0, 1.0, 1.0)))

    def test_iterations_count_the_median_steps(self, wq_ex2, wq_ex3):
        near_a4 = WeightedQuadrilateral(Quadrilateral.from_coords(NEAR_A4_COORDS),
                                        NEAR_A4_WEIGHTS)
        for wq in (wq_ex2, wq_ex3, near_a4):
            steps = locate_4wft(wq).iterations
            assert steps > 1
            assert solve_4wft_general(wq).iterations == steps
        square = Quadrilateral.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        weights = (3.5, 2.5, 2.0, 1.0)
        assert (solve_4wft_square(10.0, weights).iterations
                == locate_4wft(WeightedQuadrilateral(square, weights)).iterations)

    def test_far_translation_near_a_vertex_solves(self):
        # moved by (1e7, 1e7), the pull at the float point next to the median
        # is 1.25e-7 of the total; in A1's frame, where the systems gate it,
        # the median pulls 2e-15 of it
        quad = Quadrilateral.from_coords([(x + 1e7, y + 1e7) for x, y in NEAR_A4_COORDS])
        wq = WeightedQuadrilateral(quad, NEAR_A4_WEIGHTS)
        tree = solve_4wft_general(wq)
        ref = locate_4wft(wq)
        assert tree.point.distance_to(ref.point) <= _system_tolerance(wq, ref.point)
        assert tree.iterations == ref.iterations

    @given(seed=st.integers(0, 2**32 - 1), theta=st.floats(-math.pi, math.pi),
           scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
           tx=st.floats(-1e7, 1e7), ty=st.floats(-1e7, 1e7),
           lam=st.floats(-9.0, 9.0).map(lambda e: 10.0**e))
    @settings(max_examples=40, deadline=None)
    def test_similarity_transforms(self, seed, theta, scale, tx, ty, lam):
        # the systems are read at the median, so they solve wherever the
        # median does, and agree with it
        rng = np.random.default_rng(seed)
        wq = _floating_weights(rng, random_convex_quad(rng))
        xy = rigid_transform([(scale * v.x, scale * v.y) for v in wq.quad.vertices],
                             theta, tx, ty)
        moved = WeightedQuadrilateral(Quadrilateral.from_coords(xy),
                                      tuple(lam * w for w in wq.weights))
        assume(classify_case(moved).kind is CaseKind.FLOATING)
        try:
            ref = locate_4wft(moved)
        except QuadFTError:
            assume(False)
        tree = solve_4wft_general(moved)
        assert tree.point.distance_to(ref.point) <= _system_tolerance(moved, ref.point)

    def test_residual_above_the_median_gate_still_solves(self):
        # draw 781 of the barely floating recipe on `default_rng(17)`: one
        # weight at (1 - s) times the pull of the others on its vertex.  The
        # system's residual at the median misses `RESIDUAL_TOL`; the median
        # pulled 5.1e-9 of the total before it was anchored at that vertex,
        # and `locate_4wft` refused it
        quad = Quadrilateral.from_coords([
            (-3.0480143367239627, 0.01633196320897659), (1.0142671667619307, -3.20343038079016),
            (3.3647495513273182, -1.553276426019535), (1.3996082213105905, 0.163954300383793)])
        wq = WeightedQuadrilateral(quad, (1.4080242029205707, 4.659129340734657,
                                          1.8759218897543053, 2.665604307509298))
        a1 = quad.vertices[0]
        v = [Point(p.x - a1.x, p.y - a1.y) for p in quad.vertices]
        median, _, _ = fermat._median(v, wq.weights)
        residual, _ = fermat._general_system(v, wq.weights, median)
        assert residual > fermat.RESIDUAL_TOL
        tree = solve_4wft_general(wq)
        assert tree.case.kind is CaseKind.FLOATING
        assert tree.equilibrium_residual <= fermat._EQUILIBRIUM_RTOL * wq.total
        assert tree == locate_4wft(wq)

    def test_gates_raise_typed_errors(self, monkeypatch, wq_ex2):
        original = fermat._general_system
        diameter = wq_ex2.quad.diameter()

        def reading(extra_residual, shift):
            def system(v, weights, median):
                residual, p = original(v, weights, median)
                return residual + extra_residual, Point(p.x + shift * diameter, p.y)
            return system

        monkeypatch.setattr(fermat, "_general_system", reading(1e-6, 0.0))
        with pytest.raises(InconsistentCaseError, match=r"residual 1\.0\d*e-06"):
            solve_4wft_general(wq_ex2)
        monkeypatch.setattr(fermat, "_general_system", reading(0.0, 1e-9))
        with pytest.raises(InconsistentCaseError, match=r"rebuilt point 1\.0\d*e-09"):
            solve_4wft_general(wq_ex2)
        monkeypatch.setattr(fermat, "_general_system", original)
        median = fermat._median

        def stalled(points, weights, anchor=None):
            # the true median, reported with a pull just above the gate
            point, _, steps = median(points, weights, anchor)
            return point, 1.01 * fermat.RESIDUAL_TOL * sum(weights), steps

        monkeypatch.setattr(fermat, "_median", stalled)
        with pytest.raises(ConvergenceError, match="stalled") as err:
            solve_4wft_general(wq_ex2)
        assert err.value.residual > fermat.RESIDUAL_TOL * wq_ex2.total
        assert isinstance(err.value.last, Point)


def _same_answer(wq, system_tree):
    """The angle systems' answer is `locate_4wft`'s: its tree, `==`, when it
    floats, and InconsistentCaseError when it absorbs; a stalled locate is
    no answer to compare."""
    try:
        tree = locate_4wft(wq)
    except ConvergenceError:
        assume(False)
    if tree.case.kind is CaseKind.ABSORBED:
        with pytest.raises(InconsistentCaseError, match="absorbed"):
            system_tree()
    else:
        assert system_tree() == tree


class TestOneAnswer:
    """The paper's angle systems check the median and return `locate_4wft`'s
    tree, bit for bit, wherever that median is certified."""

    @given(seed=st.integers(0, 2**32 - 1), theta=st.floats(-math.pi, math.pi),
           scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
           tx=st.floats(-1e7, 1e7), ty=st.floats(-1e7, 1e7),
           lam=st.floats(-9.0, 9.0).map(lambda e: 10.0**e),
           barely=st.booleans(), vertex=st.integers(0, 3), s=st.floats(-12.0, -1.0))
    @settings(max_examples=60, deadline=None)
    # the median rounds onto A1, and both solves raised QuadFTError
    @example(seed=0, theta=0.0, scale=1e-6, tx=131073.0, ty=16385.0, lam=1.0, barely=True,
             vertex=0, s=-6.0)
    def test_general_system_returns_the_located_tree(self, seed, theta, scale, tx, ty, lam,
                                                     barely, vertex, s):
        # half the draws barely float: one weight at (1 - 10^s) times the pull
        # of the others on its vertex
        rng = np.random.default_rng(seed)
        xy = rigid_transform([(scale * x, scale * y) for x, y in random_convex_quad(rng)],
                             theta, tx, ty)
        quad = Quadrilateral.from_coords(xy)
        w = [lam * float(v) for v in rng.uniform(0.6, 3.0, 4)]
        if barely:
            w[vertex] = (1.0 - 10.0 ** s) * _pull(quad.vertices, w, vertex)
        assume(max(w) - min(w) > fermat.EQUAL_WEIGHT_RTOL * max(w))
        wq = WeightedQuadrilateral(quad, tuple(w))
        _same_answer(wq, lambda: solve_4wft_general(wq))

    @given(seed=st.integers(0, 2**32 - 1), side=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
           lam=st.floats(-9.0, 9.0).map(lambda e: 10.0**e))
    @settings(max_examples=30, deadline=None)
    def test_square_system_returns_the_located_tree(self, seed, side, lam):
        w = tuple(lam * float(v) for v in np.random.default_rng(seed).uniform(0.6, 3.0, 4))
        assume(max(w) - min(w) > fermat.EQUAL_WEIGHT_RTOL * max(w))
        square = Quadrilateral.from_coords([(0, 0), (side, 0), (side, side), (0, side)])
        _same_answer(WeightedQuadrilateral(square, w), lambda: solve_4wft_square(side, w))

    def test_certified_median_near_a_vertex(self):
        # the median lies next to A2; the old pull gate, measured at the
        # rebuilt point, read 1.3e-6 of the total there and raised
        # ConvergenceError, while locate_4wft certifies 7.6e-12 of it
        quad = Quadrilateral.from_coords([
            (1.8581885747157731, 0.13900342795672416), (1.8933270558066317, 3.020907864708443),
            (-1.7229864319926855, 1.9974056247996785), (1.651543145892957, -3.063611520034134)])
        wq = WeightedQuadrilateral(quad, (0.7422039416292087, 2.4879072860810596,
                                          1.375287231019696, 0.9604793497690844))
        tree = locate_4wft(wq)
        assert tree.equilibrium_residual < fermat.RESIDUAL_TOL * wq.total
        assert solve_4wft_general(wq) == tree


class TestLocate:
    def test_median_that_rounds_onto_a_vertex(self):
        # barely floating at A1, 1e-6 wide and moved to (131073, 16385), where
        # the coordinate ulp is 1.5e-5 of the diameter: the certified median
        # maps back onto A1, and the tree raised "unit vector undefined
        # between coincident points"; it is read at A1 as an absorbed tree is
        xy = [(131072.99999808084, 16384.999998179672), (131072.999999603, 16384.999996096576),
              (131073.00000148, 16384.999996837876), (131073.00000078036, 16384.999999443666)]
        quad = Quadrilateral.from_coords(xy)
        w = (4.577872519730316, 0.8982798635989535, 2.2094985952647126, 2.1532548277782)
        wq = WeightedQuadrilateral(quad, w)
        tree = locate_4wft(wq)
        assert tree.case.kind is CaseKind.FLOATING and tree.point == quad.vertices[0]
        assert [math.isnan(a) for a in tree.angles] == [True, False, False, True]
        assert tree.equilibrium_residual == max(0.0, _slack(quad.vertices, w, 0))
        assert 0.0 < tree.equilibrium_residual < 1e-5 * wq.total
        assert tree.objective == weighted_distance_sum(quad.vertices, w, tree.point)
        assert solve_4wft_general(wq) == tree

    @pytest.mark.parametrize("k", [-2, -3])
    def test_objective_that_overflows_raises(self, k):
        # the point was right, (2.8274518, 1.2787814), and the objective inf
        rect = Quadrilateral.from_coords([(0, 0), (7, 0), (7, 4), (0, 4)])
        w = tuple(math.ldexp(v, k) for v in (1.5e308, 1.25e308, 0.85e308, 0.75e308))
        with pytest.raises(QuadFTError, match=r"^the objective at \(2\.82745\d*, 1\.27878"):
            locate_4wft(WeightedQuadrilateral(rect, w))
        w = tuple(math.ldexp(v, -4) for v in (1.5e308, 1.25e308, 0.85e308, 0.75e308))
        tree = locate_4wft(WeightedQuadrilateral(rect, w))
        assert tree.objective == pytest.approx(1.0804589e308, rel=1e-7)

    def test_floating_residual_and_objective(self, wq_ex2):
        tree = locate_4wft(wq_ex2)
        assert tree.case.kind is CaseKind.FLOATING
        assert tree.equilibrium_residual < 1e-7 * wq_ex2.total
        assert math.isfinite(tree.objective)
        recomputed = weighted_distance_sum(wq_ex2.quad.vertices, wq_ex2.weights, tree.point)
        assert tree.objective == pytest.approx(recomputed, rel=1e-10)

    def test_absorbed_objective(self):
        q = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        wq = WeightedQuadrilateral(q, (100.0, 1.0, 1.0, 1.0))
        tree = locate_4wft(wq)
        assert tree.case.kind is CaseKind.ABSORBED and tree.case.vertex == 1
        expected = 1.0 * 1.0 + 1.0 * math.sqrt(2.0) + 1.0 * 1.0
        assert tree.objective == pytest.approx(expected, rel=1e-12)
        assert math.isnan(tree.angles[0]) and math.isnan(tree.angles[3])
        assert not math.isnan(tree.angles[1]) and not math.isnan(tree.angles[2])

    def test_barely_floating_instance(self):
        # absorption slack at the heavy vertex is ~1e-3, so plain Weiszfeld
        # converges only linearly there; the facade must still deliver the
        # equilibrium invariant
        quad = Quadrilateral.from_coords(BARELY_FLOATING_COORDS)
        wq = WeightedQuadrilateral(quad, BARELY_FLOATING_WEIGHTS)
        assert classify_case(wq).kind is CaseKind.FLOATING
        tree = locate_4wft(wq)
        assert tree.equilibrium_residual < 1e-7 * wq.total
        xy = [(v.x, v.y) for v in quad.vertices]
        best, _ = refined_grid_min(xy, wq.weights)
        assert tree.point.distance_to(Point(*best)) < 1e-4 * quad.diameter()

    def test_far_translation_floats(self, rect, wq_ex2):
        # at (1e7, 1e7) absolute coordinates cannot resolve a 1e-10 * total
        # gradient, so the median must be polished in a local frame
        base = locate_4wft(wq_ex2)
        xy = [(v.x, v.y) for v in rect.vertices]
        moved = WeightedQuadrilateral(
            Quadrilateral.from_coords(rigid_transform(xy, 0.3, 1e7, 1e7)), wq_ex2.weights
        )
        tree = locate_4wft(moved)
        assert tree.case.kind is CaseKind.FLOATING
        ex, ey = rigid_transform([(base.point.x, base.point.y)], 0.3, 1e7, 1e7)[0]
        diam = moved.quad.diameter()
        assert math.hypot(tree.point.x - ex, tree.point.y - ey) <= 1e-9 * diam

    def test_far_translation_residual_is_the_pull_at_the_point(self):
        # the solve gates its relative-frame iterate at 1e-10 * total; moved
        # by (1e7, 1e7) the stored point sits on a grid of 1.9e-9, and the
        # reported residual is the true pull there, which no neighbouring
        # float point brings below that gate
        quad = Quadrilateral.from_coords(
            [(x + 1e7, y + 1e7) for x, y in BARELY_FLOATING_COORDS])
        wq = WeightedQuadrilateral(quad, BARELY_FLOATING_WEIGHTS)
        tree = locate_4wft(wq)

        def exact_pull(px, py):
            sx, sy = [], []
            for w, v in zip(wq.weights, quad.vertices):
                dx = float(Fraction(v.x) - Fraction(px))
                dy = float(Fraction(v.y) - Fraction(py))
                d = math.hypot(dx, dy)
                sx.append(w * dx / d)
                sy.append(w * dy / d)
            return math.hypot(math.fsum(sx), math.fsum(sy))

        p = tree.point
        assert tree.equilibrium_residual == pytest.approx(exact_pull(p.x, p.y), rel=1e-3)
        assert tree.equilibrium_residual > 1e-9 * wq.total
        nearby = [exact_pull(math.nextafter(p.x, p.x + sx), math.nextafter(p.y, p.y + sy))
                  for sx in (-1.0, 0.0, 1.0) for sy in (-1.0, 0.0, 1.0)]
        assert min(nearby) > fermat.RESIDUAL_TOL * wq.total

    @pytest.mark.parametrize("instance", ["ex2", "random"])
    def test_one_classification_and_one_median_run(self, monkeypatch, wq_ex2, instance):
        if instance == "ex2":
            wq = wq_ex2
        else:
            rng = np.random.default_rng(3)
            wq = _floating_weights(rng, random_convex_quad(rng))
        calls = {"classify_case": 0, "_median": 0}

        def counted(name):
            original = getattr(fermat, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(fermat, name, wrapper)

        for name in calls:
            counted(name)
        tree = locate_4wft(wq)
        assert tree.case.kind is CaseKind.FLOATING
        assert calls == {"classify_case": 1, "_median": 1}

    def test_facade_returns_the_general_solution(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            wq = _floating_weights(rng, random_convex_quad(rng))
            tree = locate_4wft(wq)
            ref = solve_4wft_general(wq)
            assert tree.point.distance_to(ref.point) <= 1e-12 * wq.quad.diameter()
            assert tree.equilibrium_residual <= ref.equilibrium_residual + 1e-14 * wq.total

    def test_beats_grid_search(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            pts = random_convex_quad(rng)
            wq = _floating_weights(rng, pts)
            tree = locate_4wft(wq)
            xy = [(v.x, v.y) for v in wq.quad.vertices]
            _, grid_value = refined_grid_min(xy, wq.weights)
            assert tree.objective <= grid_value + 1e-4


# draws 689 of `default_rng(17)`, 837 of seed 7 and 341 of seed 27 of the
# barely floating recipe (one weight at (1 - s) times the others' pull on its
# vertex, on every floating draw): their medians stalled on or next to a vertex
STALLED_DRAWS = [
    ([(2.60583823300891, 1.0720241988875168), (-3.050545548723053, 0.8740884520890917),
      (-2.412982366198615, -0.24432008123143675), (1.2336041043723822, -0.4885727181627495)],
     (2.1539737441193667, 2.732021597306059, 3.417351783368683, 1.1702907144289765)),
    ([(1.7826278820360364, 0.6220566957329485), (1.6370645490598816, 2.7664449575598713),
      (-0.6820401859288261, 3.612549027166374), (-0.07119918428693287, -3.309635266963482)],
     (1.1088057603332242, 3.828021665107442, 2.1582002572457277, 2.5075536323790977)),
    ([(1.5185904053252202, 0.2042336457544204), (2.19140929113429, 1.7881094860171651),
      (-1.702918756631797, 2.277234722008581), (0.38700625340517253, -1.5022053949329348)],
     (2.048530890108539, 6.047352547809059, 2.8307157729641497, 2.4590422134422947)),
]
# a floating quadrilateral of ordinary weight ratios whose least slack, at
# A1, is 0.86% of the total; a Nelder-Mead oracle puts its median 0.0049
# diameters from A1
SLACK_BELOW_ONE_PERCENT = (
    [(-9.664143878296533, 1.7866155113108288e-10), (-9.664143878229623, 7.661028478284024e-10),
     (-9.664143878526284, 1.229097574006717e-09), (-9.664143878528881, -1.5544487806291528e-09)],
    (5.820766091346741e-11, 3.523689589790999e-10, 1.4989801247655512e-10,
     4.601175388617922e-10))


class TestNearAVertex:
    """Medians on or next to a vertex: `_median` anchors its frame at the
    vertex of least Kuhn slack and starts on Kuhn's descent ray from it,
    where they stalled from the weighted centroid in A1's frame."""

    def test_thin_triangle(self):
        # stalled at a pull of 0.24 of the total
        tri = [Point(-2154.2275093503417, 1157.8019148135293),
               Point(0.011312326278685083, -10574806.374464566),
               Point(5.982973091683002e-05, 0.0026121410550597707)]
        w = (589714259.2283477, 564311283.8862406, 541590186.4378655)
        p = weiszfeld(tri, w)
        assert p not in tri
        assert pull_at(tri, w, p) < fermat.RESIDUAL_TOL * sum(w)

    def test_slack_below_one_percent(self):
        # stalled 3.3e-13 diameters from A1 at a pull of 4.8% of the total
        xy, w = SLACK_BELOW_ONE_PERCENT
        wq = WeightedQuadrilateral(Quadrilateral.from_coords(xy), w)
        tree = locate_4wft(wq)
        assert tree.case.kind is CaseKind.FLOATING
        offset = tree.point.distance_to(wq.quad.vertices[0]) / wq.quad.diameter()
        assert offset == pytest.approx(0.0049, abs=1e-4)
        assert solve_4wft_general(wq) == tree

    @pytest.mark.parametrize("xy, w", STALLED_DRAWS, ids=["17-689", "7-837", "27-341"])
    def test_stalled_draws_solve(self, xy, w):
        # certified in the anchor's frame; each median lies within 5e-8
        # diameters of a vertex, so its stored point pulls up to 2e-10 of the total
        wq = WeightedQuadrilateral(Quadrilateral.from_coords(xy), w)
        tree = locate_4wft(wq)
        assert tree.case.kind is CaseKind.FLOATING
        assert solve_4wft_general(wq) == tree

    @given(seed=st.integers(0, 2**32 - 1), corners=st.sampled_from([3, 4]),
           vertex=st.integers(0, 3), s=st.floats(-12.0, -1.0),
           theta=st.floats(-math.pi, math.pi), scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
           tx=st.floats(-1e7, 1e7), ty=st.floats(-1e7, 1e7),
           lam=st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
    @settings(max_examples=80, deadline=None)
    # a triangle and a quadrilateral whose medians stalled
    @example(seed=1, corners=3, vertex=1, s=-8.0, theta=0.0, scale=1.0, tx=0.0, ty=0.0, lam=1.0)
    @example(seed=0, corners=4, vertex=1, s=-8.0, theta=0.0, scale=1.0, tx=0.0, ty=0.0, lam=1.0)
    def test_barely_floating_medians_are_certified(self, seed, corners, vertex, s, theta,
                                                   scale, tx, ty, lam):
        # one weight at (1 - 10^s) times the others' pull on its vertex, then
        # a similarity transform and a weight scale: no median stalls
        rng = np.random.default_rng(seed)
        xy = random_convex_quad(rng)[:corners]
        w = [float(v) for v in rng.uniform(0.6, 3.0, corners)]
        vertex %= corners
        w[vertex] = (1.0 - 10.0 ** s) * _pull([Point(x, y) for x, y in xy], w, vertex)
        xy = rigid_transform([(scale * x, scale * y) for x, y in xy], theta, tx, ty)
        w = [lam * v for v in w]
        try:
            points = [Point(x, y) for x, y in xy]
            if corners == 4:
                wq = WeightedQuadrilateral(Quadrilateral.from_coords(xy), tuple(w))
        except QuadFTError:  # rounded out of strict convexity far from the origin
            assume(False)
        assume(all(_slack(points, w, i) > fermat.CASE_BOUNDARY_TOL * sum(w)
                   for i in range(corners)))
        assume(max(w) - min(w) > fermat.EQUAL_WEIGHT_RTOL * max(w))
        _, pull, _ = fermat._median(points, w)
        assert pull < fermat.RESIDUAL_TOL * sum(w)
        if corners == 3:
            weiszfeld(points, w)  # far out, its point may round onto a vertex
        else:
            assert solve_4wft_general(wq) == locate_4wft(wq)


class TestSolveCost:
    """Count-based guards on the one floating path: no angle-system Newton
    run, and a bounded number of steps and gradient evaluations."""

    def _floating_instances(self, seed, n):
        rng = np.random.default_rng(seed)
        return [_floating_weights(rng, random_convex_quad(rng)) for _ in range(n)]

    def test_floating_solve_runs_no_angle_system(self, monkeypatch, wq_ex2):
        calls = []

        def counted(name):
            original = getattr(fermat, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(fermat, name, wrapper)

        counted("_general_system")
        counted("_square_system")
        for wq in [wq_ex2] + self._floating_instances(23, 20):
            assert locate_4wft(wq).case.kind is CaseKind.FLOATING
        assert calls == []
        solve_4wft_general(wq_ex2)
        solve_4wft_square(10.0, (3.5, 2.5, 2.0, 1.0))
        assert calls == ["_general_system", "_square_system"]

    def test_barely_floating_instance_is_cheap(self):
        # Weiszfeld alone converges only linearly here (absorption slack
        # ~1e-3); Newton from Kuhn's descent ray finishes the solve
        quad = Quadrilateral.from_coords(BARELY_FLOATING_COORDS)
        wq = WeightedQuadrilateral(quad, BARELY_FLOATING_WEIGHTS)
        tree = locate_4wft(wq)
        assert tree.iterations <= 30
        assert tree.equilibrium_residual < 1e-14 * wq.total

    def test_iterations_bounded(self):
        for wq in self._floating_instances(29, 200):
            assert locate_4wft(wq).iterations <= 30

    def test_ordinary_medians_take_few_gradient_evaluations(self, monkeypatch):
        # each evaluation takes one hypot per point and one for the pull's
        # norm; where every Kuhn slack is at least 5% of the total, Newton
        # from the weighted centroid takes 6.3 on average, and 9.9 did with
        # up to 5 Weiszfeld steps first
        instances = [wq for wq in self._floating_instances(3, 240)
                     if min(_slack(wq.quad.vertices, wq.weights, i) for i in range(4))
                     >= 0.05 * wq.total]
        hypot, calls = math.hypot, []

        def counted(*args):
            calls.append(args)
            return hypot(*args)

        evaluations = []
        for wq in instances:
            anchor = classify_case(wq)._anchor
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(math, "hypot", counted)
                fermat._median(wq.quad.vertices, wq.weights, anchor)
            evaluations.append(len(calls) / 5)
        assert len(instances) > 150
        assert sum(evaluations) / len(evaluations) <= 7.0


class TestInvariants:
    def test_angle_sum(self, wq_ex2):
        tree = locate_4wft(wq_ex2)
        assert sum(tree.angles) == pytest.approx(TWO_PI, abs=1e-8)

    def test_squared_balance_identities(self, wq_ex2):
        # both squared equilibrium identities must hold at the solved angles
        b1, b2, b3, b4 = wq_ex2.weights
        a102, a203, a304, a401 = locate_4wft(wq_ex2).angles
        lhs1 = b1**2 + b2**2 + 2 * b1 * b2 * math.cos(a102)
        rhs1 = b3**2 + b4**2 + 2 * b3 * b4 * math.cos(a304)
        assert lhs1 == pytest.approx(rhs1, rel=1e-8)
        lhs2 = b3**2 - (
            b1**2 + b2**2 + b4**2
            + 2 * b2 * b4 * math.cos(a401 + a102)
            + 2 * b1 * b2 * math.cos(a102)
            + 2 * b1 * b4 * math.cos(a401)
        )
        assert abs(lhs2) < 1e-8 * wq_ex2.total**2

    @given(
        theta=st.floats(-math.pi, math.pi),
        tx=st.floats(-1e3, 1e3),
        ty=st.floats(-1e3, 1e3),
    )
    @settings(max_examples=15, deadline=None)
    def test_rigid_motion_equivariance(self, wq_ex2, theta, tx, ty):
        # translations up to 1e3 times the quadrilateral's diameter
        tx, ty = tx * wq_ex2.quad.diameter(), ty * wq_ex2.quad.diameter()
        base = locate_4wft(wq_ex2)
        moved = WeightedQuadrilateral(
            Quadrilateral.from_coords(
                rigid_transform([(v.x, v.y) for v in wq_ex2.quad.vertices], theta, tx, ty)
            ),
            wq_ex2.weights,
        )
        tree = locate_4wft(moved)
        ex, ey = rigid_transform([(base.point.x, base.point.y)], theta, tx, ty)[0]
        diam = moved.quad.diameter()
        assert math.hypot(tree.point.x - ex, tree.point.y - ey) < 1e-9 * diam

    @given(s=st.floats(-3.0, 6.0).map(lambda e: 10.0**e))
    @settings(max_examples=15, deadline=None)
    def test_uniform_scaling(self, wq_ex2, s):
        base = locate_4wft(wq_ex2)
        scaled = WeightedQuadrilateral(
            Quadrilateral.from_coords(
                [(s * v.x, s * v.y) for v in wq_ex2.quad.vertices]
            ),
            wq_ex2.weights,
        )
        tree = locate_4wft(scaled)
        assert tree.point.x == pytest.approx(s * base.point.x, abs=1e-9 * s * 8.1)
        assert tree.point.y == pytest.approx(s * base.point.y, abs=1e-9 * s * 8.1)
        for got, ref in zip(tree.angles, base.angles):
            assert got == pytest.approx(ref, abs=1e-10)

    @given(lam=st.floats(-12.0, 6.0).map(lambda e: 10.0**e))
    @settings(max_examples=15, deadline=None)
    def test_weight_scaling_invariance(self, wq_ex2, lam):
        base = locate_4wft(wq_ex2)
        scaled = WeightedQuadrilateral(
            wq_ex2.quad, tuple(lam * w for w in wq_ex2.weights)
        )
        tree = locate_4wft(scaled)
        assert tree.point.distance_to(base.point) < 1e-9 * wq_ex2.quad.diameter()
        assert tree.objective == pytest.approx(lam * base.objective, rel=1e-9)

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_weights_scaled_by_a_power_of_two_solve_exactly(self, wq_ex2, k):
        # the median stalled there (ConvergenceError): it scaled its frame by
        # a power of two but not its weights; now both scalings are exact
        base = locate_4wft(wq_ex2)
        tree = locate_4wft(WeightedQuadrilateral(
            wq_ex2.quad, tuple(math.ldexp(w, k) for w in wq_ex2.weights)))
        assert tree.point == base.point
        assert tree.angles == base.angles
        assert tree.objective == math.ldexp(base.objective, k)

    def test_normalized_convention_is_explicit(self, wq_ex2):
        norm = wq_ex2.normalized()
        assert sum(norm.weights) == pytest.approx(1.0, abs=1e-15)
        # location is unchanged by the convention
        assert locate_4wft(norm).point.distance_to(locate_4wft(wq_ex2).point) < 1e-8
