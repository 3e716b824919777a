import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from quadft import (
    AbsorbedWeightsError,
    DegenerateTreeError,
    GaussWeights,
    InfeasibleWeightsError,
    QuadFTError,
    Quadrilateral,
    angle_at,
    feasible_xg_interval,
    residual_absorbing_rate,
    solve_gauss_tree,
    tree_span,
    triangle_wft_angles,
    weiszfeld,
)
from oracles import gauss_min_oracle, pull_at, random_convex_quad

TWO_PI = 2.0 * math.pi

# Golden trees at storage levels 3.8543169 / 3.82 (see test_universal).  All
# values were frozen from the independent convex oracle below at build time;
# the first tree's span in particular is pinned to the oracle.
EX4_TREES = [
    # (weights, xg, a1, a2, a3, a4, l)
    ((3.2447927, 2.1678731, 2.0873328, 1.2), 3.3543169,
     1.6642065, 2.7738702, 3.6321319, 3.4873166, 3.1495250),
    ((3.0080371, 2.4890958, 1.7127149, 1.4901507), 3.62,
     2.5638686, 3.4255328, 4.2080591, 3.6397828, 1.5309344),
    ((2.5466101, 3.1151456, 0.9826002, 2.0556426), 3.62,
     2.6836315, 3.0204233, 4.0857226, 3.6424502, 1.8001622),
]


def _random_feasible(rng):
    """Random convex quad and weights whose tree solves to a valid interior
    configuration."""
    while True:
        pts = random_convex_quad(rng)
        quad = Quadrilateral.from_coords(pts)
        b = rng.uniform(0.6, 3.0, 4)
        lo, hi = feasible_xg_interval(*b)
        if not lo < hi:
            continue
        xg = lo + rng.uniform(0.3, 0.7) * (hi - lo)
        w = GaussWeights(*b, xg)
        try:
            tree = solve_gauss_tree(quad, w)
        except (InfeasibleWeightsError, DegenerateTreeError):
            continue
        if tree.l > 1e-3:
            return quad, w, tree


def _feasible(rect, w):
    """False when solve_gauss_tree and tree_span both raise
    InfeasibleWeightsError, True when neither does; a degenerate branch still
    counts as feasible weights.  The two disagreeing is a failure."""
    outcomes = []
    for solve in (solve_gauss_tree, tree_span):
        try:
            solve(rect, w)
            outcomes.append(True)
        except InfeasibleWeightsError:
            outcomes.append(False)
        except DegenerateTreeError:
            outcomes.append(True)
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestValidation:
    def test_table_row_is_feasible(self, rect):
        assert _feasible(rect, GaussWeights(3.0, 2.5, 1.7, 1.5, 3.8192408))

    def test_bool_weight_rejected(self):
        # True > 0 and isfinite(True): the bool passed as B1 = 1
        with pytest.raises(QuadFTError, match="b1 must be a number, not a bool, got True"):
            GaussWeights(True, 1, 1, 1, 1.5)

    def test_boundary_sum_is_infeasible(self, rect):
        w = GaussWeights(1.0, 1.0, 1.0, 1.0, 2.0)
        assert not _feasible(rect, w)
        with pytest.raises(InfeasibleWeightsError, match=r"x_G = 2\.0 lies outside"):
            solve_gauss_tree(rect, w)

    def test_exceeding_sum_is_infeasible(self, rect):
        w = GaussWeights(3.0, 2.5, 1.7, 1.5, 4.6)
        assert not _feasible(rect, w)
        lo, hi = feasible_xg_interval(*w.vertex_weights())
        for solve in (solve_gauss_tree, tree_span):
            with pytest.raises(InfeasibleWeightsError, match="4.6") as caught:
                solve(rect, w)
            assert f"({lo}, {hi})" in str(caught.value)

    @given(
        b=st.tuples(*[st.floats(0.5, 3.0)] * 4),
        t=st.floats(-0.5, 1.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_report_matches_interval(self, rect, b, t):
        lo, hi = feasible_xg_interval(*b)
        if not lo < hi:
            return
        xg = lo + t * (hi - lo)
        if xg <= 0 or abs(xg - lo) < 1e-12 or abs(xg - hi) < 1e-12:
            return
        assert _feasible(rect, GaussWeights(*b, xg)) == (lo < xg < hi)


class TestLocalAngles:
    def test_symmetric_weights_give_120(self):
        w = GaussWeights(2.0, 1.5, 1.5, 2.0, 2.0)  # b1 = b4 = xg
        for val in triangle_wft_angles(w.b1, w.b4, w.xg):
            assert val == pytest.approx(TWO_PI / 3, abs=1e-12)

    def test_table_row_sums(self):
        w = GaussWeights(3.2447927, 2.1678731, 2.0873328, 1.2, 3.8543169)
        assert sum(triangle_wft_angles(w.b1, w.b4, w.xg)) == pytest.approx(TWO_PI, abs=1e-10)
        assert sum(triangle_wft_angles(w.b2, w.b3, w.xg)) == pytest.approx(TWO_PI, abs=1e-10)

    def test_infeasible_raises(self, rect):
        # x_G = 4.6 >= B1 + B4: the closed form at A0 rejects the triple, and
        # the tree rejects x_G before it reaches the closed form
        w = GaussWeights(3.0, 2.5, 1.7, 1.5, 4.6)
        with pytest.raises(AbsorbedWeightsError):
            triangle_wft_angles(w.b1, w.b4, w.xg)
        with pytest.raises(InfeasibleWeightsError):
            solve_gauss_tree(rect, w)

    def test_underflowing_weights_give_the_angles_of_unit_weights(self, rect):
        # the products of two weights underflowed to 0: a bare
        # ZeroDivisionError escaped the closed form and the tree, later a
        # QuadFTError; the closed form now scales them by a power of two
        assert triangle_wft_angles(1e-162, 1e-162, 1e-162) == triangle_wft_angles(1.0, 1.0, 1.0)
        for val in triangle_wft_angles(1e-162, 1e-162, 1e-162):
            assert val == pytest.approx(TWO_PI / 3, abs=1e-12)
        tree = solve_gauss_tree(rect, GaussWeights(*(1.1e-162,) * 5))
        unit = solve_gauss_tree(rect, GaussWeights(*(1.0,) * 5))
        for got, want in ((tree.node0, unit.node0), (tree.node0p, unit.node0p)):
            assert got.as_tuple() == pytest.approx(want.as_tuple(), rel=1e-12)
        assert tree.objective == pytest.approx(1.1e-162 * unit.objective, rel=1e-12)

    def test_matches_triangle_median_oracle(self):
        # each node is the geometric median of its three neighbours: solving
        # the triangle (A1, A4, A0') with weights (B1, B4, xg) must land on A0
        # and see exactly the predicted angles
        rng = np.random.default_rng(3)
        for _ in range(6):
            quad, w, tree = _random_feasible(rng)
            v = quad.vertices
            a_104, a_0p04, a_100p = triangle_wft_angles(w.b1, w.b4, w.xg)
            pts, weights = [v[0], v[3], tree.node0p], [w.b1, w.b4, w.xg]
            p = weiszfeld(pts, weights)
            assert pull_at(pts, weights, p) < 1e-12 * sum(weights)
            assert p.distance_to(tree.node0) < 1e-8 * quad.diameter()
            assert angle_at(p, v[0], tree.node0p) == pytest.approx(a_100p, abs=1e-6)
            assert angle_at(p, tree.node0p, v[3]) == pytest.approx(a_0p04, abs=1e-6)
            assert angle_at(p, v[0], v[3]) == pytest.approx(a_104, abs=1e-6)


class TestSolve:
    @pytest.mark.parametrize("weights,xg,a1,a2,a3,a4,l", EX4_TREES)
    def test_collapsing_tree_goldens(self, rect, weights, xg, a1, a2, a3, a4, l):
        tree = solve_gauss_tree(rect, GaussWeights(*weights, xg))
        assert tree.a1 == pytest.approx(a1, abs=1e-5)
        assert tree.a2 == pytest.approx(a2, abs=1e-5)
        assert tree.a3 == pytest.approx(a3, abs=1e-5)
        assert tree.a4 == pytest.approx(a4, abs=1e-5)
        assert tree.l == pytest.approx(l, abs=1e-5)

    @pytest.mark.parametrize("weights,xg", [(w, x) for w, x, *_ in EX4_TREES])
    def test_matches_convex_oracle(self, rect, weights, xg):
        tree = solve_gauss_tree(rect, GaussWeights(*weights, xg))
        n0, n0p = gauss_min_oracle([(v.x, v.y) for v in rect.vertices], weights, xg)
        assert math.hypot(tree.node0.x - n0[0], tree.node0.y - n0[1]) < 1e-8
        assert math.hypot(tree.node0p.x - n0p[0], tree.node0p.y - n0p[1]) < 1e-8

    def test_past_absorbing_value_degenerates(self, rect):
        with pytest.raises(DegenerateTreeError):
            solve_gauss_tree(rect, GaussWeights(3.0, 2.5, 1.7, 1.5, 4.1))

    def test_node_equilibria(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            quad, w, tree = _random_feasible(rng)
            v = quad.vertices
            total = w.total
            r0x = r0y = 0.0
            for (vert, wt) in ((v[0], w.b1), (v[3], w.b4)):
                ux, uy = tree.node0.unit_toward(vert)
                r0x += wt * ux
                r0y += wt * uy
            ux, uy = tree.node0.unit_toward(tree.node0p)
            r0x += w.xg * ux
            r0y += w.xg * uy
            assert math.hypot(r0x, r0y) < 1e-7 * total
            r1x = r1y = 0.0
            for (vert, wt) in ((v[1], w.b2), (v[2], w.b3)):
                ux, uy = tree.node0p.unit_toward(vert)
                r1x += wt * ux
                r1y += wt * uy
            ux, uy = tree.node0p.unit_toward(tree.node0)
            r1x += w.xg * ux
            r1y += w.xg * uy
            assert math.hypot(r1x, r1y) < 1e-7 * total

    def test_beats_coarse_grid_oracle(self, rect):
        # 60^4 candidate pairs, then local refinement of the best cell
        weights, xg, *_ = EX4_TREES[1]
        w = GaussWeights(*weights, xg)
        tree = solve_gauss_tree(rect, w)
        xs = np.linspace(0.0, 7.0, 60)
        ys = np.linspace(0.0, 4.0, 60)
        xx, yy = np.meshgrid(xs, ys)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        v = [(p.x, p.y) for p in rect.vertices]

        def node_cost(anchors):
            cost = np.zeros(len(pts))
            for (px, py), wt in anchors:
                cost += wt * np.hypot(pts[:, 0] - px, pts[:, 1] - py)
            return cost

        g0 = node_cost([(v[0], w.b1), (v[3], w.b4)])
        g1 = node_cost([(v[1], w.b2), (v[2], w.b3)])
        link = np.hypot(
            pts[:, 0][:, None] - pts[:, 0][None, :],
            pts[:, 1][:, None] - pts[:, 1][None, :],
        )
        total = g0[:, None] + g1[None, :] + w.xg * link
        i, j = np.unravel_index(np.argmin(total), total.shape)
        best = float(total[i, j])
        # local refinement around the best pair
        n0, n0p = gauss_min_oracle(v, weights, xg)
        refined = (
            w.b1 * math.dist(n0, v[0]) + w.b4 * math.dist(n0, v[3])
            + w.b2 * math.dist(n0p, v[1]) + w.b3 * math.dist(n0p, v[2])
            + w.xg * math.dist(n0, n0p)
        )
        assert tree.objective <= min(best, refined) + 1e-4

    def test_collapsed_tree_clamps_to_zero(self, rect):
        weights = (3.0, 2.5, 1.7, 1.5)
        root = brentq(
            lambda xg: tree_span(rect, GaussWeights(*weights, xg)),
            3.7, 3.95, xtol=1e-15,
        )
        tree = solve_gauss_tree(rect, GaussWeights(*weights, root))
        assert tree.l == 0.0
        assert tree.node0 == tree.node0p


class TestObjectiveAndSpan:
    def test_absorbed_objective_golden(self, rect):
        weights = (3.0, 2.5, 1.7, 1.5)
        w = GaussWeights(*weights, 3.8192408)
        tree = solve_gauss_tree(rect, w)
        assert tree.objective == pytest.approx(34.5746856, abs=1e-3)

    def test_fourth_row_objective_golden(self, rect):
        weights = (2.7773246, 2.8021194, 1.3476592, 1.7728955)
        w = GaussWeights(*weights, 3.8088826)
        tree = solve_gauss_tree(rect, w)
        assert tree.objective == pytest.approx(34.5178864, abs=1e-3)

    def test_zero_span_reduces_to_vertex_sum(self, rect):
        weights, xg, *_ = EX4_TREES[0]
        w = GaussWeights(*weights, xg)
        tree = solve_gauss_tree(rect, w)
        vertex_sum = w.b1 * tree.a1 + w.b2 * tree.a2 + w.b3 * tree.a3 + w.b4 * tree.a4
        assert tree.objective == pytest.approx(
            vertex_sum + w.xg * tree.l, rel=1e-12
        )

    def test_span_goldens(self, rect):
        for weights, xg, *_rest, l in (EX4_TREES[1], EX4_TREES[2]):
            assert tree_span(rect, GaussWeights(*weights, xg)) == pytest.approx(l, abs=1e-5)

    def test_span_matches_node_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            quad, w, tree = _random_feasible(rng)
            span = tree_span(quad, w)
            assert span == pytest.approx(tree.node0.distance_to(tree.node0p), rel=1e-8)

    def test_stored_fields_match_node_geometry(self):
        # a1..a4 and l are redundant with the node coordinates; the local
        # angles the nodes actually see must be the weight-determined ones
        rng = np.random.default_rng(17)
        for _ in range(8):
            quad, w, tree = _random_feasible(rng)
            v = quad.vertices
            assert tree.a1 == pytest.approx(tree.node0.distance_to(v[0]), rel=1e-9)
            assert tree.a4 == pytest.approx(tree.node0.distance_to(v[3]), rel=1e-9)
            assert tree.a2 == pytest.approx(tree.node0p.distance_to(v[1]), rel=1e-9)
            assert tree.a3 == pytest.approx(tree.node0p.distance_to(v[2]), rel=1e-9)
            assert tree.l == pytest.approx(tree.node0.distance_to(tree.node0p), rel=1e-9)
            _, a_0p04, a_100p = triangle_wft_angles(w.b1, w.b4, w.xg)
            _, a_00p3, a_00p2 = triangle_wft_angles(w.b2, w.b3, w.xg)
            assert angle_at(tree.node0, v[0], tree.node0p) == pytest.approx(
                a_100p, abs=1e-8
            )
            assert angle_at(tree.node0, tree.node0p, v[3]) == pytest.approx(
                a_0p04, abs=1e-8
            )
            assert angle_at(tree.node0p, tree.node0, v[2]) == pytest.approx(
                a_00p3, abs=1e-8
            )
            assert angle_at(tree.node0p, tree.node0, v[1]) == pytest.approx(
                a_00p2, abs=1e-8
            )

    def test_span_root_is_absorbing(self, rect):
        weights = (3.0, 2.5, 1.7, 1.5)
        root = brentq(
            lambda xg: tree_span(rect, GaussWeights(*weights, xg)),
            3.7, 3.95, xtol=1e-13,
        )
        assert abs(tree_span(rect, GaussWeights(*weights, root))) < 1e-5

    def test_span_decreases_to_zero(self, rect):
        # walking x_G up to its absorbing value shrinks the interior edge
        # monotonically and the two nodes merge
        weights = (3.2447927, 2.1678731, 2.0873328, 1.2)
        absorbing = brentq(
            lambda xg: tree_span(rect, GaussWeights(*weights, xg)),
            3.5, 4.0, xtol=1e-13,
        )
        ladder = np.linspace(3.0, absorbing, 12)
        spans = [tree_span(rect, GaussWeights(*weights, x)) for x in ladder]
        assert all(a > b for a, b in zip(spans, spans[1:]))
        assert spans[-1] < 1e-5
        tree = solve_gauss_tree(rect, GaussWeights(*weights, absorbing - 1e-9))
        assert tree.node0.distance_to(tree.node0p) < 1e-5


class TestAbsorbingRate:
    def test_table_row(self):
        w = GaussWeights(3.0, 2.5, 1.7, 1.5, 3.8192408)
        assert residual_absorbing_rate(w) == pytest.approx(8.7 - 3.8192408, abs=1e-12)

    def test_zero_at_total(self):
        w = GaussWeights(1.0, 2.0, 3.0, 4.0, 10.0)
        assert residual_absorbing_rate(w) == pytest.approx(0.0, abs=1e-12)

    def test_second_instance_minimum(self):
        w = GaussWeights(3.1, 2.3, 1.7, 1.4, 3.66326)
        assert residual_absorbing_rate(w) == pytest.approx(4.83674, abs=1e-6)
