import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import random_convex_quad
from quadft import (
    CaseKind,
    GaussWeights,
    InconsistentCaseError,
    InfeasibleWeightsError,
    OverspendError,
    Point,
    QuadFTError,
    Quadrilateral,
    TreeKind,
    TreeState,
    WeightedQuadrilateral,
    absorbing_xg,
    classify_case,
    classify_tree,
    evolve,
    locate_4wft,
    plasticity_line,
    tree_span,
    universal_minimum,
    universal_set,
    weights_for_storage,
)
from quadft.geometry import linspace
from quadft.universal import _sampled_range

EX2_TABLE = [
    (1.5, 3.8192408, 34.5746856),
    (1.2, 3.8543169, 34.6371118),
    (1.7, 3.8096235, 34.5330567),
    (1.7728955, 3.8088826, 34.5178864),
]
EX2_UFT = (3.8088826, 1.7728955, 0.4378025)
EX3_UFT = (3.66326, 1.8199325, 0.4309717)


@pytest.fixture(scope="module")
def rect_mod():
    return Quadrilateral.from_coords([(0, 0), (7, 0), (7, 4), (0, 4)])


@pytest.fixture(scope="module")
def line_ex2(rect_mod):
    wq = WeightedQuadrilateral(rect_mod, (3.0, 2.5, 1.7, 1.5))
    return plasticity_line(wq, locate_4wft(wq))


@pytest.fixture(scope="module")
def line_ex3(rect_mod):
    wq = WeightedQuadrilateral(rect_mod, (3.1, 2.3, 1.7, 1.4))
    return plasticity_line(wq, locate_4wft(wq))


@pytest.fixture(scope="module")
def result_ex2(rect_mod, line_ex2):
    return universal_minimum(rect_mod, line_ex2, grid=65)


class TestAbsorbing:
    @pytest.mark.parametrize("b4,xg,f", EX2_TABLE)
    def test_table_rows(self, rect_mod, line_ex2, b4, xg, f):
        sample = absorbing_xg(rect_mod, line_ex2, b4)
        assert sample.xg_absorbing == pytest.approx(xg, abs=1e-4)
        assert sample.objective == pytest.approx(f, abs=1e-3)

    def test_span_vanishes_at_absorbing_value(self, rect_mod, line_ex2):
        diam = rect_mod.diameter()
        for b4 in (1.2, 1.5, 1.7):
            sample = absorbing_xg(rect_mod, line_ex2, b4)
            span = tree_span(rect_mod, GaussWeights(*sample.weights[:4], sample.xg_absorbing))
            assert 0.0 <= span <= 1e-5 * diam

    def test_infeasible_b4_raises(self, rect_mod, line_ex2):
        with pytest.raises(InfeasibleWeightsError):
            absorbing_xg(rect_mod, line_ex2, 5.0)

    def test_line_of_another_quadrilateral_rejected(self, line_ex2):
        other = Quadrilateral.from_coords([(0, 0), (8, 0), (8, 4), (0, 4)])
        with pytest.raises(InconsistentCaseError, match="do not balance"):
            absorbing_xg(other, line_ex2, 1.5)
        skipped = []
        assert universal_set(other, line_ex2, 4,
                             on_skip=lambda b4, why: skipped.append(why)) == []
        assert len(skipped) == 4


class TestSharedGeometry:
    """P is measured once per line; every sample must equal the one-shot
    absorbing_xg at the same B4."""

    def _assert_sweep_matches(self, quad, line, grid):
        b4s = linspace(*_sampled_range(line), grid)
        assert universal_set(quad, line, grid) == [absorbing_xg(quad, line, b4) for b4 in b4s]

    def test_paper_rectangles(self, rect_mod, line_ex2, line_ex3):
        for line in (line_ex2, line_ex3):
            self._assert_sweep_matches(rect_mod, line, 65)

    def test_random_lines(self, random_lines):
        for quad, line in random_lines[:20]:
            self._assert_sweep_matches(quad, line, 65)

    def test_minimum_measures_p_once(self, monkeypatch, rect_mod, line_ex2):
        calls = []
        original = Point.unit_toward

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Point, "unit_toward", counted)
        universal_minimum(rect_mod, line_ex2, grid=65)
        assert len(calls) <= 4

    def test_line_of_another_quadrilateral_skips_every_sample(self, line_ex2):
        other = Quadrilateral.from_coords([(0, 0), (8, 0), (8, 4), (0, 4)])
        skipped = []
        assert universal_set(other, line_ex2, 65,
                             on_skip=lambda b4, why: skipped.append(why)) == []
        assert len(skipped) == 65
        assert all("do not balance" in why for why in skipped)

    def test_vertex_at_p_skips_every_sample(self, line_ex2):
        p = line_ex2.point
        other = Quadrilateral.from_coords(
            [(p.x, p.y), (p.x + 7, p.y), (p.x + 7, p.y + 4), (p.x, p.y + 4)])
        skipped = []
        assert universal_set(other, line_ex2, 9,
                             on_skip=lambda b4, why: skipped.append(why)) == []
        assert skipped == ["unit vector undefined between coincident points"] * 9
        with pytest.raises(InfeasibleWeightsError):
            absorbing_xg(other, line_ex2, 5.0)


class TestUniversalSet:
    def test_grid_of_one(self, rect_mod, line_ex2):
        samples = universal_set(rect_mod, line_ex2, 1)
        assert len(samples) == 1

    def test_samples_sorted_and_above_minimum(self, rect_mod, line_ex2, result_ex2):
        samples = universal_set(rect_mod, line_ex2, 16)
        b4s = [s.b4 for s in samples]
        assert b4s == sorted(b4s)
        assert all(type(b4) is float for b4 in b4s)
        for s in samples:
            assert s.xg_absorbing >= result_ex2.u_ft - 1e-9

    def test_skip_callback(self, rect_mod, line_ex2):
        skipped = []
        universal_set(rect_mod, line_ex2, 8, on_skip=lambda b4, why: skipped.append(b4))
        assert skipped == []  # the whole interval is feasible here


class TestUniversalMinimum:
    def test_example_values(self, result_ex2):
        u, b4, rate = EX2_UFT
        assert result_ex2.u_ft == pytest.approx(u, abs=1e-4)
        assert result_ex2.b4_star == pytest.approx(b4, abs=1e-4)
        assert result_ex2.rate == pytest.approx(rate, abs=1e-4)

    def test_second_instance_values(self, rect_mod, line_ex3):
        result = universal_minimum(rect_mod, line_ex3, grid=65)
        u, b4, rate = EX3_UFT
        assert result.u_ft == pytest.approx(u, abs=1e-4)
        assert result.b4_star == pytest.approx(b4, abs=1e-4)
        assert result.rate == pytest.approx(rate, abs=1e-4)

    def test_no_constant_absorbing_value(self, rect_mod, line_ex2, result_ex2):
        # the absorbing value genuinely varies across the family
        at_12 = absorbing_xg(rect_mod, line_ex2, 1.2).xg_absorbing
        assert at_12 - result_ex2.u_ft > 1e-2
        values = [s.xg_absorbing for s in result_ex2.samples]
        assert max(values) - min(values) > 0.04

    def test_minimum_bounds_sampled_set(self, result_ex2):
        assert all(result_ex2.u_ft <= s.xg_absorbing + 1e-9 for s in result_ex2.samples)
        assert result_ex2.rate == pytest.approx(result_ex2.u_ft / 8.7, abs=1e-12)


def _random_floating_lines(count):
    """Plasticity lines of the first `count` floating instances drawn from
    random_convex_quad(default_rng(1)) with weights from U(0.6, 3.0)."""
    rng = np.random.default_rng(1)
    lines = []
    while len(lines) < count:
        quad = Quadrilateral.from_coords(random_convex_quad(rng))
        wq = WeightedQuadrilateral(quad, tuple(rng.uniform(0.6, 3.0, 4)))
        if classify_case(wq).kind is CaseKind.FLOATING:
            lines.append((quad, plasticity_line(wq, locate_4wft(wq))))
    return lines


@pytest.fixture(scope="module")
def random_lines():
    return _random_floating_lines(49)


class TestRandomInstances:
    def test_no_sample_skipped_and_span_collapses(self, random_lines):
        for quad, line in random_lines:
            skipped = []
            samples = universal_set(quad, line, 65,
                                    on_skip=lambda b4, why: skipped.append((b4, why)))
            assert not skipped
            diam = quad.diameter()
            for s in samples:
                span = tree_span(quad, GaussWeights(*s.weights, s.xg_absorbing))
                assert abs(span) <= 1e-6 * diam, (s.b4, span)

    def test_minimum_solves(self, random_lines):
        for quad, line in random_lines:
            result = universal_minimum(quad, line)
            assert all(result.u_ft <= s.xg_absorbing for s in result.samples)


def _paper_pipeline(coords, weights, storage):
    quad = Quadrilateral.from_coords(coords)
    wq = WeightedQuadrilateral(quad, weights)
    line = plasticity_line(wq, locate_4wft(wq))
    result = universal_minimum(quad, line)
    return result, weights_for_storage(quad, line, storage, result=result)


RECT = [(0.0, 0.0), (7.0, 0.0), (7.0, 4.0), (0.0, 4.0)]
EX2_WEIGHTS = (3.0, 2.5, 1.7, 1.5)
scales = st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e)
weight_scales = st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e)


class TestScaleInvariance:
    @given(s=weight_scales)
    @example(s=1e-9)
    @example(s=1e-10)
    @example(s=1e-12)
    @settings(max_examples=25, deadline=None)
    def test_weight_scale(self, s):
        base, base_levels = _paper_pipeline(RECT, EX2_WEIGHTS, 3.82)
        result, levels = _paper_pipeline(RECT, tuple(s * w for w in EX2_WEIGHTS), 3.82 * s)
        assert result.u_ft == pytest.approx(s * base.u_ft, rel=1e-9)
        assert result.b4_star == pytest.approx(s * base.b4_star, rel=1e-9)
        assert levels == pytest.approx([s * b for b in base_levels], rel=1e-9)

    @given(s=scales)
    @settings(max_examples=25, deadline=None)
    def test_coordinate_scale(self, s):
        base, _ = _paper_pipeline(RECT, EX2_WEIGHTS, 3.82)
        result, _ = _paper_pipeline([(s * x, s * y) for x, y in RECT], EX2_WEIGHTS, 3.82)
        assert result.u_ft == pytest.approx(base.u_ft, rel=1e-9)
        assert result.b4_star == pytest.approx(base.b4_star, rel=1e-9)


class TestClassification:
    def test_below_threshold_is_steady(self):
        assert classify_tree(3.8, 3.8088826) is TreeKind.STEADY

    def test_state_factory(self):
        from quadft import QuadFTError, TreeState

        steady = TreeState.for_storage(3.8, 3.8088826)
        assert steady.kind is TreeKind.STEADY
        evolving = TreeState.for_storage(3.8543169, 3.8088826, a_g=0.5)
        assert evolving.kind is TreeKind.EVOLUTIONARY
        with pytest.raises(QuadFTError, match="cannot spend"):
            TreeState.for_storage(3.8, 3.8088826, a_g=0.1)
        with pytest.raises(QuadFTError, match="below u_FT"):
            TreeState.for_storage(4.2, 3.8088826, a_g=3.9)

    def test_threshold_is_evolutionary(self):
        assert classify_tree(3.8088826, 3.8088826) is TreeKind.EVOLUTIONARY

    def test_above_threshold_is_evolutionary(self):
        assert classify_tree(3.8543169, 3.8088826) is TreeKind.EVOLUTIONARY

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_storage_threshold_or_rate_rejected(self, value):
        with pytest.raises(QuadFTError, match=f"storage must be finite, got {value}"):
            classify_tree(value, 3.8088826)
        with pytest.raises(QuadFTError, match=f"u_FT must be finite, got {value}"):
            TreeState.for_storage(3.9, value)
        with pytest.raises(QuadFTError, match=f"storage must be finite, got {value}"):
            TreeState.for_storage(value, 3.8088826)
        with pytest.raises(QuadFTError, match="spending rate"):  # +inf: not below u_FT
            TreeState.for_storage(3.9, 3.8, value)
        with pytest.raises(QuadFTError, match=f"storage must be finite, got {value}"):
            TreeState(storage=value, a_g=0.0, kind=TreeKind.EVOLUTIONARY)
        with pytest.raises(QuadFTError, match=f"spending rate must be finite, got {value}"):
            TreeState(storage=3.9, a_g=value, kind=TreeKind.EVOLUTIONARY)


class TestStorageLevels:
    def test_two_candidates_at_382(self, rect_mod, line_ex2, result_ex2):
        got = weights_for_storage(rect_mod, line_ex2, 3.82, result=result_ex2)
        assert len(got) == 2
        assert got[0] == pytest.approx(1.4901507, abs=1e-4)
        assert got[1] == pytest.approx(2.0556426, abs=1e-4)

    def test_minimum_level_is_single(self, rect_mod, line_ex2, result_ex2):
        got = weights_for_storage(rect_mod, line_ex2, result_ex2.u_ft, result=result_ex2)
        assert len(got) == 1
        assert got[0] == pytest.approx(result_ex2.b4_star, abs=1e-6)

    def test_level_contains_table_row(self, rect_mod, line_ex2, result_ex2):
        got = weights_for_storage(rect_mod, line_ex2, 3.8543169, result=result_ex2)
        assert any(abs(b4 - 1.2) < 1e-4 for b4 in got)

    def test_below_minimum_rejected(self, rect_mod, line_ex2, result_ex2):
        with pytest.raises(InfeasibleWeightsError):
            weights_for_storage(rect_mod, line_ex2, 3.7, result=result_ex2)

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_level_rejected(self, rect_mod, line_ex2, result_ex2, level):
        for result in (result_ex2, None):
            with pytest.raises(QuadFTError, match=f"storage level must be finite, got {level}") \
                    as caught:
                weights_for_storage(rect_mod, line_ex2, level, result=result)
            assert type(caught.value) is QuadFTError


class TestEvolve:
    def test_first_tree(self, rect_mod, line_ex2):
        tree = evolve(rect_mod, line_ex2, storage=3.8543169, a_g=0.5, b4=1.2)
        assert tree.a1 == pytest.approx(1.6642065, abs=1e-5)
        assert tree.a2 == pytest.approx(2.7738702, abs=1e-5)
        assert tree.a3 == pytest.approx(3.6321319, abs=1e-5)
        assert tree.a4 == pytest.approx(3.4873166, abs=1e-5)

    def test_second_tree_span(self, rect_mod, line_ex2):
        tree = evolve(rect_mod, line_ex2, storage=3.82, a_g=0.2, b4=1.4901507)
        assert tree.l == pytest.approx(1.5309344, abs=1e-5)

    def test_zero_spend_is_degree_four_limit(self, rect_mod, line_ex2):
        tree = evolve(rect_mod, line_ex2, storage=3.82, a_g=0.0, b4=1.4901507)
        assert tree.l < 1e-4

    def test_spend_monotonicity(self, rect_mod, line_ex2):
        spans = [
            evolve(rect_mod, line_ex2, storage=3.82, a_g=a, b4=1.4901507).l
            for a in np.linspace(0.0, 0.9, 10)
        ]
        assert all(b > a for a, b in zip(spans, spans[1:]))

    def test_overspend_rejected(self, rect_mod, line_ex2):
        with pytest.raises(OverspendError):
            evolve(rect_mod, line_ex2, storage=3.82, a_g=2.6, b4=1.4901507)

    def test_storage_above_ceiling_rejected(self, rect_mod, line_ex2):
        with pytest.raises(InfeasibleWeightsError, match="ceiling"):
            evolve(rect_mod, line_ex2, storage=9.0, a_g=0.1, b4=1.4901507)

    def test_negative_spend_rejected(self, rect_mod, line_ex2):
        from quadft import QuadFTError

        with pytest.raises(QuadFTError, match="nonnegative"):
            evolve(rect_mod, line_ex2, storage=3.82, a_g=-0.1, b4=1.4901507)
