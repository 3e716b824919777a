import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadft import (
    AbsorbedWeightsError,
    ConvergenceError,
    InconsistentCaseError,
    InfeasibleWeightsError,
    PlasticityLine,
    PlasticityReport,
    Point,
    QuadFTError,
    Quadrilateral,
    WeightedQuadrilateral,
    angle_at,
    classify_case,
    CaseKind,
    locate_4wft,
    plasticity_line,
    plasticity_system_new,
    universal_set,
    verify_plasticity,
    weiszfeld,
)
import quadft.checks as checks
import quadft.fermat as fermat
import quadft.plasticity as plasticity
from quadft.geometry import cross2, measure_star
from oracles import pull_at, random_convex_quad

# frozen affine coefficients (B_i = x_i * B4 + y_i)
EX2_COEFFS = ((-0.8159745, 4.2239621), (1.1070888, 0.8393665), (-1.2911143, 3.6366712))
EX3_COEFFS = ((-0.7731178, 4.1823652), (1.2871855, 0.49794), (-1.5140677, 3.8196947))
# weights whose optimum is the rectangle's diagonal crossing (3.5, 2)
DIAGONAL_WEIGHTS = ((2.0, 2.0, 2.0, 2.0), (1.5, 2.5, 1.5, 2.5))
EX2_TABLE = [
    (1.5, (3.0, 2.5, 1.7)),
    (1.2, (3.2447927, 2.1678731, 2.0873328)),
    (1.7, (2.8368055, 2.7214176, 1.4417756)),
    (1.7728955, (2.7773246, 2.8021194, 1.3476592)),
]


@pytest.fixture(scope="module")
def line_ex2(rect_mod, wq2_mod):
    return plasticity_line(wq2_mod, locate_4wft(wq2_mod))


@pytest.fixture(scope="module")
def rect_mod():
    return Quadrilateral.from_coords([(0, 0), (7, 0), (7, 4), (0, 4)])


@pytest.fixture(scope="module")
def wq2_mod(rect_mod):
    return WeightedQuadrilateral(rect_mod, (3.0, 2.5, 1.7, 1.5))


def _random_lines(seed, n):
    """(quad, plasticity line) of n seeded floating instances, weights U(0.6, 3.0)."""
    rng = np.random.default_rng(seed)
    lines = []
    while len(lines) < n:
        quad = Quadrilateral.from_coords(random_convex_quad(rng))
        wq = WeightedQuadrilateral(quad, tuple(rng.uniform(0.6, 3.0, 4)))
        if classify_case(wq).kind is CaseKind.FLOATING:
            lines.append((quad, plasticity_line(wq, locate_4wft(wq))))
    return lines


def _median_steps(monkeypatch):
    """The steps of every `fermat._median` call from here on, in call order:
    one entry per re-solve."""
    steps = []
    median = fermat._median

    def counted(*args, **kwargs):
        out = median(*args, **kwargs)
        steps.append(out[2])
        return out

    monkeypatch.setattr(fermat, "_median", counted)
    return steps


def _reference_report(q, line, samples):
    """`verify_plasticity` as one loop measuring everything per sample: a
    WeightedQuadrilateral and `classify_case`, then the balance at the anchor
    (numpy, `_balance`), and where it misses RESIDUAL_TOL the median from the
    weighted centroid, gated on RESIDUAL_TOL, on the line's B4 grid."""
    evaluated, excluded = [], []
    for b4 in plasticity._b4_grid(line, samples):
        try:
            weights = line.weights_at(b4)
        except InfeasibleWeightsError as exc:
            excluded.append((b4, str(exc)))
            continue
        wq = WeightedQuadrilateral(q, weights)
        tag = classify_case(wq)
        if tag.kind is CaseKind.ABSORBED:
            excluded.append((b4, f"absorbed at vertex {tag.vertex}"))
            continue
        if _balance(line, q, b4) < fermat.RESIDUAL_TOL * line.c:
            evaluated.append((b4, 0.0))
            continue
        point, norm = fermat._median(q.vertices, wq.weights)[:2]
        assert norm < fermat.RESIDUAL_TOL * wq.total
        evaluated.append((b4, point.distance_to(line.point)))
    max_dev = max((d for _, d in evaluated), default=math.inf)
    tolerance = 1e-6 * q.diameter()
    return PlasticityReport(
        reference=line.point,
        tolerance=tolerance,
        max_deviation=max_dev,
        passed=bool(evaluated) and max_dev < tolerance,
        evaluated=tuple(evaluated),
        excluded=tuple(excluded),
    )


def _barely_floating_line(rng, vertex, margins):
    """(quad, plasticity line) of a random quadrilateral whose weight at
    `vertex` is (1 - s) times the others' pull on it, its slack s * pull
    `margins` times the CASE_BOUNDARY_TOL margin, the recipe of
    `test_verdicts_equal_the_per_sample_reference`."""
    quad = Quadrilateral.from_coords(random_convex_quad(rng))
    w = [float(v) for v in rng.uniform(0.6, 3.0, 4)]
    others = [j for j in range(4) if j != vertex]
    pull = pull_at([quad.vertices[j] for j in others], [w[j] for j in others],
                   quad.vertices[vertex])
    total = pull + sum(w[j] for j in others)
    w[vertex] = (1.0 - margins * fermat.CASE_BOUNDARY_TOL * total / pull) * pull
    wq = WeightedQuadrilateral(quad, tuple(w))
    return quad, plasticity_line(wq, locate_4wft(wq))


def _kuhn_calls(monkeypatch):
    """The arguments of every `checks._kuhn_case` call from here on."""
    calls = []
    kuhn_case = checks._kuhn_case

    def counted(*args):
        calls.append(args)
        return kuhn_case(*args)

    monkeypatch.setattr(checks, "_kuhn_case", counted)
    return calls


def _certificates(monkeypatch):
    """The verdicts of every `checks._certified` call from here on."""
    verdicts = []
    certified = checks._certified

    def recorded(*args):
        verdicts.append(certified(*args))
        return verdicts[-1]

    monkeypatch.setattr(checks, "_certified", recorded)
    return verdicts


def _declined_report(monkeypatch, quad, line, samples):
    """`verify_plasticity` with its certificate forced to decline: every run
    is decided sample by sample."""
    with monkeypatch.context() as patch:
        patch.setattr(checks, "_certified", lambda *args: False)
        return verify_plasticity(quad, line, samples)


def _triangle_weights(p, tri):
    """(B1, B2, B3) with B1 = 1 that balance the unit vectors from p toward
    the triangle's vertices: the null vector of the 2x3 unit-vector matrix,
    signed where p lies outside the triangle.  On the line through A2 and A3
    the balance leaves B1 out, and no such weights exist."""
    units = np.array([p.unit_toward(a) for a in tri]).T
    null = np.linalg.svd(units)[2][-1]
    if abs(null[0]) < 1e-9:
        raise QuadFTError(f"{p} is on the line through A2 and A3")
    return tuple(float(t) for t in null / null[0])


def _balance(line, quad, b4):
    """|sum B_i u_i| at the line's anchor for the weights at b4, the u_i
    read in the line's frame (k, offset), from A_k + offset, which rounds
    to the anchor; from the anchor itself on a line without one."""
    if line._frame is None:
        units = [line.point.unit_toward(v) for v in quad.vertices]
    else:
        k, (ox, oy) = line._frame
        a = quad.vertices[k]
        assert Point(a.x + ox, a.y + oy) == line.point
        units = []
        for v in quad.vertices:
            dx, dy = (v.x - a.x) - ox, (v.y - a.y) - oy
            units.append((dx / math.hypot(dx, dy), dy / math.hypot(dx, dy)))
    return float(np.linalg.norm(np.array(line.weights_at(b4)) @ np.array(units)))


def _boundary_line(quad, point):
    """A hand-made line on `quad` (B1 = y1 - B4, B2 = B3 = 0.5, B4 in (0, 2.5))
    whose sixth of 16 samples leaves A1 a slack of half CASE_BOUNDARY_TOL * c:
    absorbed, on the floating side of equality.  Returns (line, that B4)."""

    def line_at(c):
        return PlasticityLine(c=c, coefficients=((-1.0, c - 1.0), (0.0, 0.5), (0.0, 0.5)),
                              b4_interval=(0.0, 2.5), point=point)

    b4 = plasticity._b4_grid(line_at(4.0), 16)[5]  # the grid reads only the interval
    units = np.array([quad.vertices[0].unit_toward(v) for v in quad.vertices[1:]])
    pull = float(np.linalg.norm(np.array([0.5, 0.5, b4]) @ units))
    half_band = 0.5 * fermat.CASE_BOUNDARY_TOL
    c = (pull + b4 + 1.0) / (1.0 + half_band)  # B1 = c - 1 - B4 = pull - half_band * c
    line = line_at(c)
    slack = pull - line.weights_at(b4)[0]
    assert 0.0 < slack <= fermat.CASE_BOUNDARY_TOL * c
    return line, b4


def _one_diagonal_instance(quad):
    """The 7x4 rectangle `quad` with weights whose optimum lies on the
    diagonal A1A3 but off A2A4: u1 = -u3 there, so B2, B4 cancel across the
    diagonal and B1 - B3 takes up the pull along it."""
    p = Point(2.8, 1.6)
    u1, u2, _, u4 = (np.array(p.unit_toward(v)) for v in quad.vertices)
    b2 = 1.0
    b4 = -b2 * cross2(*u2, *u1) / cross2(*u4, *u1)
    b3 = 2.0
    b1 = b3 - float((b2 * u2 + b4 * u4) @ u1)
    return WeightedQuadrilateral(quad, (b1, b2, b3, b4)), p


class TestInverseTriangle:
    def test_equilateral_fermat_point(self):
        # the unweighted optimum of an equilateral triangle is its centre
        tri = [Point(0.0, 0.0), Point(2.0, 0.0), Point(1.0, math.sqrt(3.0))]
        centre = Point(1.0, math.sqrt(3.0) / 3.0)
        assert _triangle_weights(centre, tri) == pytest.approx((1.0, 1.0, 1.0))

    def test_forward_resolve_roundtrip(self, rect_mod, wq2_mod):
        # recover weights at the optimum inside triangle A1A2A3, then re-solve
        # the triangle: the optimum must come back
        tree = locate_4wft(wq2_mod)
        tri = list(rect_mod.vertices[:3])
        weights = _triangle_weights(tree.point, tri)
        recovered = weiszfeld(tri, weights)
        assert pull_at(tri, weights, recovered) < 1e-12 * sum(weights)
        assert recovered.distance_to(tree.point) < 1e-8 * rect_mod.diameter()

    def test_right_isosceles_incenter(self):
        # incenter of the right isosceles triangle (0,0),(1,0),(0,1); the
        # subtended angles are measured directly and each weight is the sine
        # of the angle it does not touch
        r = 1.0 - math.sin(math.pi / 4)
        inc = Point(r, r)
        tri = [Point(0, 0), Point(1, 0), Point(0, 1)]
        a12 = angle_at(inc, tri[0], tri[1])
        a23 = angle_at(inc, tri[1], tri[2])
        a31 = angle_at(inc, tri[2], tri[0])
        got = _triangle_weights(inc, tri)
        sines = (math.sin(a23), math.sin(a31), math.sin(a12))
        assert tuple(w / sum(got) for w in got) == pytest.approx(
            tuple(s / sum(sines) for s in sines), abs=1e-12
        )

    @given(
        u=st.floats(0.1, 0.9),
        v=st.floats(0.1, 0.9),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_random_interior_points(self, u, v):
        tri = [Point(0.0, 0.0), Point(4.0, 0.5), Point(1.0, 3.0)]
        # barycentric-ish interior point
        w0 = u * (1 - v)
        w1 = (1 - u) * (1 - v)
        w2 = v
        s = w0 + w1 + w2
        p = Point(
            (w0 * tri[0].x + w1 * tri[1].x + w2 * tri[2].x) / s,
            (w0 * tri[0].y + w1 * tri[1].y + w2 * tri[2].y) / s,
        )
        weights = _triangle_weights(p, tri)
        recovered = weiszfeld(tri, weights)
        assert pull_at(tri, weights, recovered) < 1e-12 * sum(weights)
        assert recovered.distance_to(p) < 1e-7

    @given(x=st.floats(-3.0, 6.0), y=st.floats(-3.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_signed_balance_holds_outside_the_triangle(self, x, y):
        # inside the triangle or outside it, where a ratio turns negative,
        # the weighted unit vectors balance
        tri = [Point(0.0, 0.0), Point(4.0, 0.5), Point(1.0, 3.0)]
        p = Point(x, y)
        try:
            weights = _triangle_weights(p, tri)
        except QuadFTError:
            return  # on a line through two vertices, or at a vertex
        units = [p.unit_toward(a) for a in tri]
        bx = sum(w * ux for w, (ux, _) in zip(weights, units))
        by = sum(w * uy for w, (_, uy) in zip(weights, units))
        assert math.hypot(bx, by) <= 1e-9 * sum(abs(w) for w in weights)


class TestPlasticityLine:
    def test_example_coefficients(self, line_ex2):
        for (gx, gy), (x, y) in zip(EX2_COEFFS, line_ex2.coefficients):
            assert x == pytest.approx(gx, abs=1e-5)
            assert y == pytest.approx(gy, abs=1e-5)
        assert line_ex2.c == pytest.approx(8.7, abs=1e-12)

    def test_second_instance_coefficients(self, rect_mod):
        wq = WeightedQuadrilateral(rect_mod, (3.1, 2.3, 1.7, 1.4))
        line = plasticity_line(wq, locate_4wft(wq))
        for (gx, gy), (x, y) in zip(EX3_COEFFS, line.coefficients):
            assert x == pytest.approx(gx, abs=1e-5)
            assert y == pytest.approx(gy, abs=1e-5)

    def test_input_weights_on_line(self, line_ex2):
        assert line_ex2.weights_at(1.5) == pytest.approx((3.0, 2.5, 1.7, 1.5), abs=1e-9)

    def test_affine_identity(self, line_ex2):
        lo, hi = line_ex2.b4_interval
        for b4 in np.linspace(lo + 1e-6, hi - 1e-6, 9):
            assert sum(line_ex2.weights_at(b4)) == pytest.approx(line_ex2.c, abs=1e-12)

    def test_interval_bounds_positive_weights(self, line_ex2):
        lo, hi = line_ex2.b4_interval
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(2.8166928, abs=1e-4)
        from quadft import InfeasibleWeightsError

        with pytest.raises(InfeasibleWeightsError):
            line_ex2.weights_at(hi + 0.1)
        # the interval is open: its two ends are rejected too
        for end in (lo, hi):
            with pytest.raises(InfeasibleWeightsError,
                               match="outside the open admissible interval"):
                line_ex2.weights_at(end)

    def test_diagonal_optimum_gives_the_symmetric_line(self, rect_mod):
        # at the diagonals' crossing u1 = -u3 and u2 = -u4, so the balance
        # holds exactly when B1 = B3 and B2 = B4; the squared-balance route
        # finds the same weights
        for weights in DIAGONAL_WEIGHTS:
            wq = WeightedQuadrilateral(rect_mod, weights)
            tree = locate_4wft(wq)
            line = plasticity_line(wq, tree)
            c = line.c
            assert line.point.as_tuple() == pytest.approx((3.5, 2.0), abs=1e-12)
            assert [t for co in line.coefficients for t in co] == pytest.approx(
                [-1.0, c / 2, 1.0, 0.0, -1.0, c / 2], abs=1e-12)
            assert line.b4_interval == pytest.approx((0.0, c / 2), abs=1e-12)
            for b4 in (0.5, 1.0, 2.0, 3.0):
                b1, b2, b3, _ = line.weights_at(b4)
                assert (b1, b2, b3) == pytest.approx((c / 2 - b4, b4, c / 2 - b4), abs=1e-12)
                assert any((b1, b2, b3) == pytest.approx(sol, abs=1e-9)
                           for sol in plasticity_system_new(tree.angles, c, b4))

    def test_absorbed_optimum_has_no_line(self):
        q = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        wq = WeightedQuadrilateral(q, (100.0, 1.0, 1.0, 1.0))
        with pytest.raises(AbsorbedWeightsError, match="vertex A1"):
            plasticity_line(wq, locate_4wft(wq))

    def test_coefficients_match_numpy_solve(self):
        # the barycentric coordinates solve the balance and total equations
        # in (B1, B2, B3): slopes for the right side (-u4, -1), intercepts
        # for (0, 0, c)
        for quad, line in _random_lines(29, 100):
            u = np.array([line.point.unit_toward(v) for v in quad.vertices])
            matrix = np.vstack([u[:3].T, np.ones(3)])
            slopes = np.linalg.solve(matrix, np.append(-u[3], -1.0))
            intercepts = np.linalg.solve(matrix, [0.0, 0.0, line.c])
            got = np.array(line.coefficients)
            assert all(type(t) is float for co in line.coefficients for t in co)
            assert np.max(np.abs(got[:, 0] - slopes)) <= 1e-11
            assert np.max(np.abs(got[:, 1] - intercepts)) <= 1e-11 * line.c

    def test_zero_determinant_is_an_inconsistent_case(self):
        # seen from (-1, 0), A1 = (0, 0) and A2 = (1, 0) lie on one ray, so
        # u1 = u2 and the triangle of u1, u2, u3 has zero area exactly
        quad = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        wq = WeightedQuadrilateral(quad, (1.0, 1.0, 1.0, 1.0))
        tree = locate_4wft(wq)._replace(point=Point(-1.0, 0.0))
        with pytest.raises(InconsistentCaseError, match="not inside the quadrilateral"):
            plasticity_line(wq, tree)

    def test_line_hands_its_frame_to_the_family(self):
        # a barely floating instance moved to (1e7, 1e7): the family reads the
        # tree's frame, which names the anchor; a line rebuilt by `_replace`
        # or pickle has none, and a frame on another quadrilateral is not
        # read, so the anchor is measured as stored, by the Point methods
        quad = Quadrilateral.from_coords([(x + 1e7, y + 1e7) for x, y in (
            (-0.2207, 0.9828), (-1.3356, 0.7854), (-1.0813, -0.2759), (-0.1229, -2.2068))])
        wq = WeightedQuadrilateral(quad, (0.5959, 0.9887, 0.9059, 2.4538))
        tree = locate_4wft(wq)
        line = plasticity_line(wq, tree)
        p = line.point
        assert line._frame == tree._frame is not None
        family = plasticity._Family(quad, line)
        assert (family.distances, family.units) == measure_star(p, quad.vertices, tree._frame)

        def plain(q):
            return [p.distance_to(v) for v in q.vertices], [p.unit_toward(v) for v in q.vertices]

        assert (family.distances, family.units) != plain(quad)
        foreign = Quadrilateral.from_coords([(v.x + 1.0, v.y) for v in quad.vertices])
        for stale, q in ((line._replace(point=p), quad), (pickle.loads(pickle.dumps(line)), quad),
                         (line, foreign)):
            assert stale == line and repr(stale) == repr(line)
            family = plasticity._Family(q, stale)
            assert (family.distances, family.units) == plain(q)

    def test_line_balances_at_its_point(self, rect_mod):
        # the line's weights balance the unit vectors at its anchor, also
        # where the anchor sits on one diagonal
        wq, p = _one_diagonal_instance(rect_mod)
        tree = locate_4wft(wq)
        assert tree.point.distance_to(p) < 1e-12 * wq.quad.diameter()
        cases = [(wq.quad, plasticity_line(wq, tree))] + _random_lines(5, 40)
        for quad, line in cases:
            lo, hi = line.b4_interval
            for b4 in np.linspace(lo, hi, 9)[1:-1]:
                assert _balance(line, quad, float(b4)) <= 1e-12 * line.c

    def test_star_measured_once(self, monkeypatch, rect_mod):
        # one hypot per vertex (geometry.measure_star) and no Point method,
        # on the paper's rectangle, a diagonal anchor and random lines
        wq, _ = _one_diagonal_instance(rect_mod)
        cases = [WeightedQuadrilateral(rect_mod, (3.0, 2.5, 1.7, 1.5)), wq]
        rng = np.random.default_rng(3)
        while len(cases) < 8:
            quad = Quadrilateral.from_coords(random_convex_quad(rng))
            wq = WeightedQuadrilateral(quad, tuple(rng.uniform(0.6, 3.0, 4)))
            if classify_case(wq).kind is CaseKind.FLOATING:
                cases.append(wq)
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        for wq in cases:
            tree = locate_4wft(wq)
            calls.clear()
            count(Point, "distance_to")
            count(Point, "unit_toward")
            count(math, "hypot")
            plasticity_line(wq, tree)
            monkeypatch.undo()
            assert calls == ["hypot"] * 4

    def test_anchor_on_a_vertex_has_no_line(self, rect_mod):
        wq = WeightedQuadrilateral(rect_mod, (3.0, 2.5, 1.7, 1.5))
        tree = locate_4wft(wq)._replace(point=rect_mod.vertices[2])
        with pytest.raises(QuadFTError, match="^unit vector undefined between coincident"):
            plasticity_line(wq, tree)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
    def test_total_check_is_relative(self, rect_mod, scale):
        # a diagonal line meets the intercept-sum check at 1e-9 c at any
        # weight scale, and intercepts 1e-8 c off the total fail it
        wq = WeightedQuadrilateral(rect_mod, tuple(scale * w for w in DIAGONAL_WEIGHTS[1]))
        line = plasticity_line(wq, locate_4wft(wq))
        (x1, y1), *rest = line.coefficients
        moved = ((x1, y1 + 1e-8 * line.c), *rest)
        with pytest.raises(QuadFTError, match="preserve the total"):
            line._replace(coefficients=moved)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, line_ex2, value):
        (x1, y1), *rest = line_ex2.coefficients
        lo, hi = line_ex2.b4_interval
        changes = [
            ("c", {"c": value}),
            ("coefficients", {"coefficients": ((value, y1), *rest)}),
            ("coefficients", {"coefficients": ((x1, value), *rest)}),
            ("b4_interval", {"b4_interval": (lo, value)}),
            ("b4_interval", {"b4_interval": (value, hi)}),
        ]
        for name, change in changes:
            with pytest.raises(QuadFTError, match=f"^{name} must be finite"):
                line_ex2._replace(**change)


def _cubic_solutions(angles, c, b4):
    """Positive (B1, B2, B3) from numpy's roots of R = P D - 2 N Q in B2,
    sorted by B2: B1 = K - B2 - B3 with K = c - B4, the first identity is
    P = 2 Q B3 and the second D B3 = N."""
    c12, c23, c34, c14 = (math.cos(a) for a in angles)
    k = c - b4
    t = np.polynomial.Polynomial([0.0, 1.0])
    s = k - t
    p = s * s + t * t + 2 * c12 * s * t - b4 * b4
    q = s + c12 * t + b4 * c34
    d = 2 * (s + b4 * c14 + c23 * t)
    n = s * s + b4 * b4 + 2 * b4 * c14 * s - t * t
    out = []
    for root in (p * d - 2 * n * q).roots():
        if abs(root.imag) > 1e-9 * c:
            continue
        b2 = float(root.real)
        b3 = n(b2) / d(b2)
        if min(k - b2 - b3, b2, b3) > 0.0:
            out.append((k - b2 - b3, b2, b3))
    return sorted(out, key=lambda sol: sol[1])


def _probe_calls(draws):
    """(angles, c, B4) at six B4 in 0.05..0.9 c for the floating ones of
    `draws` seeded instances, weights U(0.6, 3.0)."""
    rng = np.random.default_rng(4)
    calls = []
    for _ in range(draws):
        quad = Quadrilateral.from_coords(random_convex_quad(rng))
        wq = WeightedQuadrilateral(quad, tuple(rng.uniform(0.6, 3.0, 4)))
        if classify_case(wq).kind is CaseKind.FLOATING:
            angles, c = locate_4wft(wq).angles, wq.total
            calls += [(angles, c, float(f) * c) for f in np.linspace(0.05, 0.9, 6)]
    return calls


# the root B2 = 1.46076 lies 3.7e-4 from the pole D = 0 at 1.46038
NEAR_POLE = ((0.6457577221481453, 1.8002716366138096, 1.3591923583858565, 2.477963590031775),
             5.9205241434937435, 2.30900441596256)


class TestSquaredBalanceSystem:
    def test_sign_change_at_the_pole_is_no_root(self):
        # the first identity's residual changes sign across the pole of
        # B3(B2), where the second identity's denominator vanishes; the cubic
        # R = P D - 2 N Q has no pole there, and its one positive root comes
        # back
        angles = (1.5395528764229989, 1.8971284361433125, 1.5840513136487735,
                  1.2624526809645016)
        c, b4 = 6.246309229078088, 1.3741880303971792
        a102, a203, a304, a401 = angles
        sols = plasticity_system_new(angles, c, b4)
        assert len(sols) == 1
        for b1, b2, b3 in sols:
            assert min(b1, b2, b3) > 0.0
            first = (b1**2 + b2**2 + 2 * b1 * b2 * math.cos(a102)
                     - b3**2 - b4**2 - 2 * b3 * b4 * math.cos(a304))
            second = (b1**2 + b4**2 + 2 * b1 * b4 * math.cos(a401)
                      - b2**2 - b3**2 - 2 * b2 * b3 * math.cos(a203))
            assert max(abs(first), abs(second)) <= 1e-12 * c * c

    def test_root_next_to_the_pole(self):
        angles, c, b4 = NEAR_POLE
        sols = plasticity_system_new(angles, c, b4)
        assert len(sols) == 1
        assert sols[0] == pytest.approx((1.3030790306997115, 1.460758788471089,
                                         0.8476819083603829), abs=1e-9 * c)
        (b1, b2, b3), (a102, a203, a304, a401) = sols[0], angles
        first = (b1**2 + b2**2 + 2 * b1 * b2 * math.cos(a102)
                 - b3**2 - b4**2 - 2 * b3 * b4 * math.cos(a304))
        second = (b1**2 + b4**2 + 2 * b1 * b4 * math.cos(a401)
                  - b2**2 - b3**2 - 2 * b2 * b3 * math.cos(a203))
        assert max(abs(first), abs(second)) <= 1e-12 * c * c

    def test_returns_the_positive_roots_of_the_cubic(self):
        # every positive solution numpy finds among the cubic's roots, and no
        # other; the seeded set holds NEAR_POLE
        calls = _probe_calls(100)
        assert NEAR_POLE in calls
        for angles, c, b4 in calls:
            expected = _cubic_solutions(angles, c, b4)
            if not expected:
                with pytest.raises(InfeasibleWeightsError):
                    plasticity_system_new(angles, c, b4)
                continue
            got = plasticity_system_new(angles, c, b4)
            assert len(got) == len(expected), (angles, c, b4)
            for sol, ref in zip(got, expected):
                assert sol == pytest.approx(ref, abs=1e-9 * c), (angles, c, b4)

    def test_nan_angles_fail_the_angle_sum(self):
        # an absorbed optimum has NaN angles
        q = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        tree = locate_4wft(WeightedQuadrilateral(q, (100.0, 1.0, 1.0, 1.0)))
        assert any(math.isnan(a) for a in tree.angles)
        with pytest.raises(QuadFTError, match=r"do not sum to 2\*pi"):
            plasticity_system_new(tree.angles, 103.0, 1.0)

    def test_symmetric_angles_force_equal_pairs(self):
        # angles of a diagonal intersection: a102 = a304 and a203 = a401
        o = Point(3.5, 2.0)
        v = [Point(0, 0), Point(7, 0), Point(7, 4), Point(0, 4)]
        angles = (
            angle_at(o, v[0], v[1]),
            angle_at(o, v[1], v[2]),
            angle_at(o, v[2], v[3]),
            angle_at(o, v[3], v[0]),
        )
        for b4 in (1.0, 1.7, 2.5):
            for b1, b2, b3 in plasticity_system_new(angles, 8.7, b4):
                assert b1 == pytest.approx(b3, abs=1e-9)
                assert b2 == pytest.approx(b4, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_weight_scale_scales_the_roots(self, wq2_mod, scale):
        # the balance is homogeneous in the weights: scaling c and B4 scales
        # the roots, so the input weights come back at every scale
        tree = locate_4wft(wq2_mod)
        sols = plasticity_system_new(tree.angles, 8.7 * scale, 1.5 * scale)
        assert any(sol == pytest.approx((3.0 * scale, 2.5 * scale, 1.7 * scale),
                                        rel=1e-9, abs=0.0) for sol in sols)

    @pytest.mark.parametrize("b4,expected", EX2_TABLE[:2])
    def test_example_rows_recovered(self, wq2_mod, b4, expected):
        tree = locate_4wft(wq2_mod)
        sols = plasticity_system_new(tree.angles, 8.7, b4)
        assert any(
            all(abs(g - e) < 1e-4 for g, e in zip(sol, expected)) for sol in sols
        )

    def test_solutions_satisfy_identities(self, wq2_mod):
        tree = locate_4wft(wq2_mod)
        a102, a203, a304, a401 = tree.angles
        for b4 in (1.2, 1.5, 1.7):
            for b1, b2, b3 in plasticity_system_new(tree.angles, 8.7, b4):
                lhs = b1**2 + b2**2 + 2 * b1 * b2 * math.cos(a102)
                rhs = b3**2 + b4**2 + 2 * b3 * b4 * math.cos(a304)
                assert lhs == pytest.approx(rhs, rel=1e-9)
                lhs = b1**2 + b4**2 + 2 * b1 * b4 * math.cos(a401)
                rhs = b2**2 + b3**2 + 2 * b2 * b3 * math.cos(a203)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_line_weights_satisfy_identities(self, wq2_mod, line_ex2):
        # the affine family and the squared-balance equations agree
        tree = locate_4wft(wq2_mod)
        a102, a203, a304, a401 = tree.angles
        lo, hi = line_ex2.b4_interval
        for b4 in np.linspace(lo + 0.2, hi - 0.2, 7):
            b1, b2, b3, _ = line_ex2.weights_at(b4)
            lhs = b1**2 + b2**2 + 2 * b1 * b2 * math.cos(a102)
            rhs = b3**2 + b4**2 + 2 * b3 * b4 * math.cos(a304)
            assert lhs == pytest.approx(rhs, rel=1e-7)
            lhs = b1**2 + b4**2 + 2 * b1 * b4 * math.cos(a401)
            rhs = b2**2 + b3**2 + 2 * b2 * b3 * math.cos(a203)
            assert lhs == pytest.approx(rhs, rel=1e-7)


@given(seed=st.integers(0, 2**32 - 1), barely=st.booleans(), log_s=st.floats(-12.0, -1.0),
       m_at=st.floats(0.0, 1.0), b4_at=st.floats(0.0, 1.0))
@example(seed=0, barely=True, log_s=-12.0, m_at=0.0, b4_at=1.0)
@example(seed=3, barely=True, log_s=-9.0, m_at=1.0, b4_at=0.0)
@settings(max_examples=300, deadline=None)
def test_tangent_bounds_the_kuhn_slack(seed, barely, log_s, m_at, b4_at):
    # |p_j + B4 q_j| is convex in B4, so its supporting line at the midpoint
    # m lies below it: Kuhn's slack at each vertex, as `_kuhn_case` reads it
    # on a sample's weights, is at least the tangent bound `checks._certified`
    # reads, less that bound's allowance 32 eps S, with m and B4 anywhere on
    # the sampled range, so mostly far apart; lines on random
    # quadrilaterals, one vertex barely floating in half the draws
    rng = np.random.default_rng(seed)
    quad = Quadrilateral.from_coords(random_convex_quad(rng))
    a = quad.vertices
    w = [float(v) for v in rng.uniform(0.6, 3.0, 4)]
    if barely:  # A_k floats by 10^log_s of its pull
        k = int(rng.integers(4))
        w[k] = (1.0 - 10.0 ** log_s) * pull_at([a[i] for i in range(4) if i != k],
                                                [w[i] for i in range(4) if i != k], a[k])
    wq = WeightedQuadrilateral(quad, tuple(w))
    try:
        line = plasticity_line(wq, locate_4wft(wq))
    except (AbsorbedWeightsError, ConvergenceError):
        assume(False)  # absorbed: no line; or a median that stalls near a vertex (item 1)
    lo, hi = plasticity._sampled_range(line)
    m, b4 = lo + m_at * (hi - lo), lo + b4_at * (hi - lo)
    try:
        weights = line.weights_at(b4)
    except InfeasibleWeightsError:
        assume(False)  # a weight rounds to 0 at an end of the range
    family = plasticity._Family(quad, line)
    xs = [x for x, _ in line.coefficients] + [1.0]
    ys = [y for _, y in line.coefficients] + [0.0]
    allowance = 32.0 * sys.float_info.epsilon * sum(
        abs(x) * b4 + abs(y) for x, y in zip(xs, ys))
    for j in range(4):
        slack = math.hypot(*fermat._weighted_sum(weights, quad.unit_vectors[j])) - weights[j]
        alpha, beta = checks._tangent(family, j, m)
        assert slack >= alpha + beta * b4 - allowance, (j, slack, alpha + beta * b4)


@given(seed=st.integers(0, 2**32 - 1), barely=st.booleans(), log_s=st.floats(-12.0, -1.0),
       vertex=st.integers(0, 3), log_r=st.floats(-9.0, 0.5), on_ray=st.booleans(),
       theta=st.floats(0.0, 2.0 * math.pi))
@example(seed=0, barely=True, log_s=-12.0, vertex=0, log_r=-9.0, on_ray=True, theta=0.0)
@settings(max_examples=300, deadline=None)
def test_kuhn_slack_bounds_the_descent_from_each_vertex(seed, barely, log_s, vertex, log_r,
                                                        on_ray, theta):
    # convexity of f = sum B_i |X A_i| gives f(P) >= f(A_j) - |P A_j| slack_j,
    # the bound `checks._certified` reads along a line, to within its
    # allowance 16 eps S + 8 eps S (D + R) / |P A_j|: P near a vertex or far
    # off, on Kuhn's descent ray from it, where the bound is tightest, or not
    rng = np.random.default_rng(seed)
    quad = Quadrilateral.from_coords(random_convex_quad(rng))
    a = quad.vertices
    w = [float(v) for v in rng.uniform(0.6, 3.0, 4)]
    if barely:  # A_k barely floats, or barely absorbs
        k = int(rng.integers(4))
        w[k] = (1.0 - 10.0 ** log_s) * pull_at([a[i] for i in range(4) if i != k],
                                                [w[i] for i in range(4) if i != k], a[k])

    def pull(j):
        sx = sy = 0.0
        for i in range(4):
            if i != j:
                r = math.hypot(a[i].x - a[j].x, a[i].y - a[j].y)
                sx += w[i] * (a[i].x - a[j].x) / r
                sy += w[i] * (a[i].y - a[j].y) / r
        return sx, sy

    if on_ray:
        px, py = pull(vertex)
        theta = math.atan2(py, px)
    diameter = quad.diameter()
    r = diameter * 10.0 ** log_r
    p = Point(a[vertex].x + r * math.cos(theta), a[vertex].y + r * math.sin(theta))
    distances = [p.distance_to(v) for v in a]
    assume(min(distances) > 0.0)

    def f(x):
        return sum(wi * x.distance_to(v) for wi, v in zip(w, a))

    total, eps = sum(w), sys.float_info.epsilon
    for j in range(4):
        slack = math.hypot(*pull(j)) - w[j]
        bound = (f(a[j]) - f(p)) / distances[j]
        allowance = eps * total * (16.0 + 8.0 * (diameter + max(distances)) / distances[j])
        assert slack >= bound - allowance, (j, slack, bound, allowance)


class TestVerify:
    def test_only_declined_runs_test_each_sample(self, monkeypatch, rect_mod, line_ex2):
        # a clearly floating line at its true anchor is certified at its run's
        # two ends, and no sample runs Kuhn's test
        verdicts = _certificates(monkeypatch)
        kuhn = _kuhn_calls(monkeypatch)
        for quad, line in [(rect_mod, line_ex2)] + _random_lines(47, 20):
            for samples in (1, 2, 16, 64):
                verdicts.clear()
                kuhn.clear()
                report = verify_plasticity(quad, line, samples)
                assert report.passed and report.evaluated == tuple(
                    (b4, 0.0) for b4 in plasticity._b4_grid(line, samples))
                assert verdicts == [True] and kuhn == []
        # barely floating lines, the slack at A1 ten margins: the distance
        # bound misses the margin at a run end, and the tangent bound
        # certifies each of the ten lines on which no sample absorbs
        certified = 0
        for seed in range(12):
            quad, line = _barely_floating_line(np.random.default_rng(seed), 0, 10.0)
            verdicts.clear()
            kuhn.clear()
            report = verify_plasticity(quad, line, 16)
            if not report.excluded:
                assert verdicts == [True] and kuhn == []
                certified += 1
        assert certified == 10
        # a line with absorbed samples, and an anchor moved by 1e-3 of the
        # diameter, which misses the balance gate: one Kuhn test per sample
        unit_square = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        absorbing = PlasticityLine(c=4.0, coefficients=((-1.0, 3.0), (0.0, 0.5), (0.0, 0.5)),
                                   b4_interval=(0.0, 3.0), point=Point(0.5, 0.5))
        shift = 1e-3 * rect_mod.diameter()
        moved = line_ex2._replace(point=Point(line_ex2.point.x + shift, line_ex2.point.y))
        for quad, line in ((unit_square, absorbing), (rect_mod, moved)):
            verdicts.clear()
            kuhn.clear()
            report = verify_plasticity(quad, line, 16)
            assert verdicts == [False]
            assert len(kuhn) == len(report.evaluated) + len(report.excluded) == 16
            assert bool(report.excluded) == (line is absorbing)

    def test_certificate_changes_no_verdict(self, monkeypatch):
        # 220 default and 220 barely floating lines (slack 1 to 1e4 margins),
        # true anchors and anchors moved by 1e-3 and 5e-2 of the diameter, 1 to
        # 64 samples: each report equals the one decided sample by sample
        rng = np.random.default_rng(61)
        lines = [("default", quad, line) for quad, line in _random_lines(67, 220)]
        while len(lines) < 440:
            try:
                quad, line = _barely_floating_line(rng, int(rng.integers(4)),
                                                   10.0 ** rng.uniform(0.0, 4.0))
            except (AbsorbedWeightsError, ConvergenceError):
                continue  # as in the per-sample reference test
            lines.append(("barely", quad, line))
        verdicts = _certificates(monkeypatch)
        certified = {"default": 0, "barely": 0}
        for recipe, quad, line in lines:
            diameter = quad.diameter()
            for shift in (0.0, 1e-3, 5e-2):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                moved = line._replace(point=Point(
                    line.point.x + shift * diameter * math.cos(theta),
                    line.point.y + shift * diameter * math.sin(theta)))
                samples = int(rng.integers(1, 65))
                verdicts.clear()
                report = verify_plasticity(quad, moved, samples)
                assert report == _declined_report(monkeypatch, quad, moved, samples)
                if shift:
                    assert verdicts == [False]
                certified[recipe] += verdicts == [True]
        assert certified["default"] == 220
        assert 0 < certified["barely"] < 220

    def test_ill_conditioned_line_is_declined(self, monkeypatch):
        # the line whose coefficients reach 3.4e4 while c is 10.8, A4 weighted
        # at (1 - 2.18e-9) times its pull: its top samples absorb at A4, so the
        # certificate declines at the true anchor and at anchors moved by 1e-3
        # of the diameter in 16 directions, and each report equals the
        # per-sample reference
        quad = Quadrilateral.from_coords([
            (1.6603510129518928, 0.3836727595803164), (1.8040383832611195, 1.6451933383977264),
            (1.1669663925965816, 2.6394669419758947), (1.1613889177561427, -3.338153338054645)])
        wq = WeightedQuadrilateral(quad, (2.037076409183083, 1.5869453177177792,
                                          1.7956433797811147, 5.409490987521291))
        line = plasticity_line(wq, locate_4wft(wq))
        shift = 1e-3 * quad.diameter()
        anchors = [line.point] + [
            Point(line.point.x + shift * math.cos(k * math.pi / 8),
                  line.point.y + shift * math.sin(k * math.pi / 8)) for k in range(16)]
        verdicts = _certificates(monkeypatch)
        for point in anchors:
            for samples in (14, 16):
                verdicts.clear()
                report = verify_plasticity(quad, line._replace(point=point), samples)
                assert verdicts == [False]
                assert report == _reference_report(quad, line._replace(point=point), samples)
        reference = verify_plasticity(quad, line, 14)
        assert reference.passed and len(reference.evaluated) == 11
        assert [why for _, why in reference.excluded] == ["absorbed at vertex 4"] * 3

    def test_table_rows_fix_the_optimum(self, rect_mod, line_ex2):
        reference = (2.8274502, 1.2787811)
        for b4, _ in EX2_TABLE:
            weights = line_ex2.weights_at(b4)
            tree = locate_4wft(WeightedQuadrilateral(rect_mod, weights))
            assert tree.point.x == pytest.approx(reference[0], abs=1e-5)
            assert tree.point.y == pytest.approx(reference[1], abs=1e-5)

    def test_sixteen_samples_pass(self, rect_mod, line_ex2):
        report = verify_plasticity(rect_mod, line_ex2, 16)
        assert report.passed
        assert report.max_deviation < 1e-6 * rect_mod.diameter()

    def test_no_sample_outside_the_open_interval(self, rect_mod, line_ex2):
        lo, hi = line_ex2.b4_interval
        for samples in (1, 2, 16, 65):
            report = verify_plasticity(rect_mod, line_ex2, samples)
            assert not report.excluded and len(report.evaluated) == samples
            assert all(type(b4) is float and lo < b4 < hi for b4, _ in report.evaluated)
            assert report.passed

    def test_two_samples_pass(self, rect_mod, line_ex2):
        # the two samples are the ends of the sampled range, not of the open
        # interval, where no weights exist
        report = verify_plasticity(rect_mod, line_ex2, 2)
        assert report.passed and len(report.evaluated) == 2 and not report.excluded

    def test_samples_are_the_universal_grid(self, rect, wq_ex2, wq_ex3):
        for wq in (wq_ex2, wq_ex3):
            line = plasticity_line(wq, locate_4wft(wq))
            for samples in (1, 2, 16, 65):
                report = verify_plasticity(rect, line, samples)
                assert ([b4 for b4, _ in report.evaluated]
                        == [s.b4 for s in universal_set(rect, line, samples)])

    def test_run_decided_at_its_ends(self, monkeypatch, rect_mod, line_ex2):
        # weights_at at the run's two ends alone, none raising, and no re-solve
        calls = {"weights_at": 0, "raised": 0, "_certified_median": 0}
        weights_at = PlasticityLine.weights_at

        def counted_weights_at(self, b4):
            calls["weights_at"] += 1
            try:
                return weights_at(self, b4)
            except InfeasibleWeightsError:
                calls["raised"] += 1
                raise

        def counted_median(*args, **kwargs):
            calls["_certified_median"] += 1
            return fermat._certified_median(*args, **kwargs)

        monkeypatch.setattr(PlasticityLine, "weights_at", counted_weights_at)
        monkeypatch.setattr(checks, "_certified_median", counted_median)
        report = verify_plasticity(rect_mod, line_ex2, 16)
        assert report.passed and len(report.evaluated) == 16
        assert calls["weights_at"] <= 2
        assert calls["raised"] == calls["_certified_median"] == 0

    def test_non_integer_sample_count_rejected(self, rect_mod, line_ex2):
        with pytest.raises(QuadFTError, match="samples must be an integer, got 2.5"):
            verify_plasticity(rect_mod, line_ex2, 2.5)
        assert (verify_plasticity(rect_mod, line_ex2, np.int64(5))
                == verify_plasticity(rect_mod, line_ex2, 5))

    @pytest.mark.parametrize("samples", [True, False])
    def test_bool_sample_count_rejected(self, rect_mod, line_ex2, samples):
        # operator.index reads True as 1 and False as 0
        with pytest.raises(QuadFTError, match=f"samples must be an integer, got {samples}"):
            verify_plasticity(rect_mod, line_ex2, samples)

    def test_diagonal_line_passes(self, rect_mod):
        for weights in DIAGONAL_WEIGHTS:
            wq = WeightedQuadrilateral(rect_mod, weights)
            report = verify_plasticity(rect_mod, plasticity_line(wq, locate_4wft(wq)), 16)
            assert report.passed and len(report.evaluated) == 16
            assert report.max_deviation <= 1e-12 * rect_mod.diameter()

    def test_random_quadrilateral_line(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            pts = random_convex_quad(rng)
            quad = Quadrilateral.from_coords(pts)
            wq = None
            for _ in range(50):
                w = tuple(rng.uniform(0.8, 2.5, 4))
                cand = WeightedQuadrilateral(quad, w)
                if classify_case(cand).kind is CaseKind.FLOATING and max(w) - min(w) > 1e-3:
                    wq = cand
                    break
            if wq is None:
                continue
            line = plasticity_line(wq, locate_4wft(wq))
            report = verify_plasticity(quad, line, 16)
            assert report.passed, (pts, w, report)

    def test_samples_resolve_from_the_anchor(self, monkeypatch, rect_mod, line_ex2):
        # no per-sample locate_4wft or tree; at the true anchor every sample's
        # balance certifies it, so no sample re-solves the median
        built = []

        def counting(name, original):
            def counted(*args, **kwargs):
                built.append(name)
                return original(*args, **kwargs)
            return counted

        for module in (fermat, plasticity, checks):
            if hasattr(module, "locate_4wft"):
                monkeypatch.setattr(module, "locate_4wft",
                                    counting("locate_4wft", module.locate_4wft))
        monkeypatch.setattr(fermat, "_tree", counting("_tree", fermat._tree))
        steps = _median_steps(monkeypatch)
        report = verify_plasticity(rect_mod, line_ex2, 16)
        assert report.passed and len(report.evaluated) == 16
        assert built == []
        assert steps == []

    def test_true_anchor_costs_one_evaluation_per_sample(self, monkeypatch, rect_mod,
                                                          line_ex2):
        # one measurement per line: no classify_case (so no WeightedQuadrilateral)
        # and no _kuhn_case per sample, whose test reads the line's pulls, and
        # the balance at the anchor, with no re-solve
        calls = {"classify_case": 0, "_kuhn_case": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for module in (fermat, plasticity, checks):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        steps = _median_steps(monkeypatch)
        lines = [(rect_mod, line_ex2)] + _random_lines(47, 20)
        for weights in DIAGONAL_WEIGHTS:
            wq = WeightedQuadrilateral(rect_mod, weights)
            lines.append((rect_mod, plasticity_line(wq, locate_4wft(wq))))
        for quad, line in lines:
            calls.update(dict.fromkeys(calls, 0))
            steps.clear()
            report = verify_plasticity(quad, line, 16)
            assert report.passed
            assert calls == {"classify_case": 0, "_kuhn_case": 0}
            assert steps == []
            assert len(report.evaluated) == 16

    def test_hypot_calls_do_not_grow_with_the_samples(self, monkeypatch, rect_mod, line_ex2):
        # a true anchor: the line's star costs one hypot per vertex, and the
        # samples none, since Kuhn's test and the balance gate are decided
        # on the whole interval
        calls = []
        hypot = math.hypot

        def counted(*args):
            calls.append(args)
            return hypot(*args)

        monkeypatch.setattr(math, "hypot", counted)
        for quad, line in [(rect_mod, line_ex2)] + _random_lines(47, 5):
            counts = []
            for samples in (16, 64):
                calls.clear()
                report = verify_plasticity(quad, line, samples)
                assert report.passed and len(report.evaluated) == samples
                counts.append(len(calls))
            assert counts == [4, 4]

    @given(seed=st.integers(0, 2**32 - 1), vertex=st.integers(0, 3),
           log_margins=st.floats(0.0, 2.0), moved=st.booleans(),
           theta=st.floats(0.0, 2.0 * math.pi), samples=st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_verdicts_equal_the_per_sample_reference(
            self, seed, vertex, log_margins, moved, theta, samples):
        # one weight at (1 - s) times the others' pull on its vertex, its
        # slack s * pull 1 to 100 times the CASE_BOUNDARY_TOL margin: the
        # instance barely floats, and in about one draw in eight Kuhn's slack
        # at some vertex crosses the margin inside the sampled range
        rng = np.random.default_rng(seed)
        quad = Quadrilateral.from_coords(random_convex_quad(rng))
        w = [float(v) for v in rng.uniform(0.6, 3.0, 4)]
        others = [j for j in range(4) if j != vertex]
        pull = pull_at([quad.vertices[j] for j in others], [w[j] for j in others],
                       quad.vertices[vertex])
        total = pull + sum(w[j] for j in others)
        s = 10.0 ** log_margins * fermat.CASE_BOUNDARY_TOL * total / pull
        w[vertex] = (1.0 - s) * pull
        wq = WeightedQuadrilateral(quad, tuple(w))
        try:
            line = plasticity_line(wq, locate_4wft(wq))
        except (AbsorbedWeightsError, ConvergenceError):
            return  # absorbed: no line; or a median that stalls near a vertex (item 1)
        if moved:
            shift = 1e-3 * quad.diameter()
            line = line._replace(point=Point(line.point.x + shift * math.cos(theta),
                                             line.point.y + shift * math.sin(theta)))
        try:
            report = verify_plasticity(quad, line, samples)
        except ConvergenceError:
            # a re-solve from a moved anchor stalls near a vertex (item 1),
            # and the reference's re-solve of that sample stalls alike
            with pytest.raises(AssertionError):
                _reference_report(quad, line, samples)
            return
        assert report == _reference_report(quad, line, samples)

    def test_anchor_inside_the_gate_is_certified(self, monkeypatch):
        # the 127th seeded line: its anchor pulls above the 1e-14 Newton target
        # but below the RESIDUAL_TOL gate, which alone certifies the anchor
        quad, line = _random_lines(1, 127)[-1]
        steps = _median_steps(monkeypatch)
        report = verify_plasticity(quad, line, 16)
        assert report.passed and report.max_deviation == 0.0
        assert steps == [] and len(report.evaluated) == 16

    def test_report_equals_the_per_sample_reference(self, rect_mod):
        # true anchors and anchors moved by 1e-3 and 5e-2 of the diameter, on
        # 200 seeded lines, a hand-made line whose ends absorb and one whose
        # interval overreaches its positive weights (B1 = B4 - 1, B2 = 3 - B4)
        # at both ends
        rng = np.random.default_rng(59)
        absorbing = PlasticityLine(c=4.0, coefficients=((-1.0, 3.0), (0.0, 0.5), (0.0, 0.5)),
                                   b4_interval=(0.0, 3.0), point=Point(0.5, 0.5))
        overreaching = PlasticityLine(c=5.0, coefficients=((1.0, -1.0), (-1.0, 3.0), (-1.0, 3.0)),
                                      b4_interval=(0.0, 4.0), point=Point(0.5, 0.5))
        unit_square = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        reasons = set()
        for quad, line in _random_lines(53, 200) + [(unit_square, absorbing),
                                                    (unit_square, overreaching)]:
            diameter = quad.diameter()
            for shift in (0.0, 1e-3, 5e-2):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                moved = Point(line.point.x + shift * diameter * math.cos(theta),
                              line.point.y + shift * diameter * math.sin(theta))
                moved_line = line._replace(point=moved)
                report = verify_plasticity(quad, moved_line, 16)
                assert report == _reference_report(quad, moved_line, 16)
                reasons.update(why.split()[0] for _, why in report.excluded)
        assert reasons == {"weights", "absorbed"}

    def test_absorption_at_every_vertex_equals_the_reference(self):
        # hand-made lines on the unit square: B_j = 3 - B4 absorbs at A_j for
        # small B4 and at A4 for large B4, and one sample lies just inside
        # the boundary band, with slack in (0, CASE_BOUNDARY_TOL * c]
        unit_square = Quadrilateral.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        center = Point(0.5, 0.5)
        lines = []
        for j in range(3):
            coefficients = [(0.0, 0.5)] * 3
            coefficients[j] = (-1.0, 3.0)
            lines.append(PlasticityLine(c=4.0, coefficients=tuple(coefficients),
                                        b4_interval=(0.0, 3.0), point=center))
        boundary_line, boundary_b4 = _boundary_line(unit_square, center)
        vertices = set()
        for line in lines + [boundary_line]:
            report = verify_plasticity(unit_square, line, 16)
            assert report == _reference_report(unit_square, line, 16)
            vertices.update(int(why.split()[-1]) for _, why in report.excluded
                            if why.startswith("absorbed"))
        assert vertices == {1, 2, 3, 4}
        assert (boundary_b4, "absorbed at vertex 1") in report.excluded  # the last line's

    def test_moved_anchor_resolves_every_evaluated_sample(self, monkeypatch, rect_mod,
                                                          line_ex2):
        # a moved anchor misses the balance gate at every sample it evaluates
        steps = _median_steps(monkeypatch)
        diameter = rect_mod.diameter()
        for shift in (1e-3, 5e-2):
            steps.clear()
            moved = Point(line_ex2.point.x + shift * diameter, line_ex2.point.y)
            report = verify_plasticity(rect_mod, line_ex2._replace(point=moved), 16)
            assert not report.passed
            assert len(steps) == len(report.evaluated) == 16

    def test_anchor_on_a_vertex_reports_its_offset(self, rect_mod, line_ex2):
        # no balance is measurable at a vertex, so every sample re-solves
        vertex = rect_mod.vertices[0]
        report = verify_plasticity(rect_mod, line_ex2._replace(point=vertex), 16)
        assert not report.passed and len(report.evaluated) == 16
        offset = vertex.distance_to(line_ex2.point)
        assert abs(report.max_deviation - offset) <= 1e-9 * rect_mod.diameter()

    @pytest.mark.parametrize("shift", [1e-3, 5e-2])
    def test_moved_anchor_reports_its_offset(self, rect_mod, wq2_mod, shift):
        # the check is not circular: from a wrong anchor the re-solves still
        # reach the true optimum, so the deviation is the anchor's offset
        rng = np.random.default_rng(43)
        cases = [(rect_mod, plasticity_line(wq2_mod, locate_4wft(wq2_mod)))]
        for quad, line in cases + _random_lines(47, 20):
            diameter = quad.diameter()
            theta = rng.uniform(0.0, 2.0 * math.pi)
            moved = Point(line.point.x + shift * diameter * math.cos(theta),
                          line.point.y + shift * diameter * math.sin(theta))
            report = verify_plasticity(quad, line._replace(point=moved), 16)
            assert not report.passed
            offset = moved.distance_to(line.point)
            assert abs(report.max_deviation - offset) <= 1e-9 * diameter
