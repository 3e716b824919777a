import gc
import math
import sys

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
    PlasticityLine,
    Point,
    QuadFTError,
    Quadrilateral,
    UniversalSample,
    WeightedQuadrilateral,
    absorbing_xg,
    classify_case,
    evolve,
    locate_4wft,
    plasticity_line,
    tree_span,
    universal_minimum,
    universal_set,
    weights_for_storage,
)
from quadft.geometry import linspace
from quadft.plasticity import _Family, _sampled_range
from quadft.universal import BALANCE_RTOL

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


def _count_calls(monkeypatch, *targets):
    """The names of the (owner, name) targets, in the order they are called."""
    calls = []
    for owner, name in targets:
        def counted(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


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
        # one measurement of P per call, one hypot per vertex and no Point
        # method
        calls = _count_calls(monkeypatch, (_Family, "__init__"), (Point, "distance_to"),
                             (Point, "unit_toward"), (math, "hypot"))
        _Family(rect_mod, line_ex2)
        assert calls == ["__init__"] + ["hypot"] * 4
        calls.clear()
        universal_minimum(rect_mod, line_ex2, grid=65)
        assert calls[:5] == ["__init__"] + ["hypot"] * 4
        assert calls.count("__init__") == 1
        assert "distance_to" not in calls and "unit_toward" not in calls

    def test_minimum_costs_its_arithmetic(self, monkeypatch, rect_mod, line_ex2,
                                          random_lines):
        # a grid is decided at its ends: a few weights_at calls whatever the
        # grid, and one hypot per sample besides a fixed few
        calls = _count_calls(monkeypatch, (PlasticityLine, "weights_at"), (math, "hypot"))
        for quad, line in [(rect_mod, line_ex2)] + random_lines[:5]:
            calls.clear()
            result = universal_minimum(quad, line, 65)
            assert len(result.samples) == 65
            assert calls.count("weights_at") <= 3
            assert calls.count("hypot") <= 65 + 9

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


class TestUniversalSample:
    """A sample is an immutable NamedTuple whose repr names its four fields."""

    def test_sample_is_a_named_tuple(self):
        sample = UniversalSample(1.5, (3.0, 2.5, 1.7, 1.5), 3.8, 34.5)
        assert repr(sample) == ("UniversalSample(b4=1.5, weights=(3.0, 2.5, 1.7, 1.5), "
                                "xg_absorbing=3.8, objective=34.5)")
        assert UniversalSample._fields == ("b4", "weights", "xg_absorbing", "objective")
        with pytest.raises(AttributeError):
            sample.b4 = 2.0

    def test_asdict_of_a_result_keeps_its_samples(self, rect_mod, line_ex2):
        # a record's _asdict is shallow: its samples stay NamedTuples
        result = universal_minimum(rect_mod, line_ex2, grid=9)
        samples = result._asdict()["samples"]
        assert samples == result.samples
        assert all(type(s) is UniversalSample for s in samples)


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

    def test_non_integer_grid_rejected(self, rect_mod, line_ex2):
        with pytest.raises(QuadFTError, match="grid must be an integer, got 2.5"):
            universal_set(rect_mod, line_ex2, 2.5)
        with pytest.raises(QuadFTError, match="grid must be an integer, got 2.5"):
            universal_minimum(rect_mod, line_ex2, grid=2.5)
        assert (universal_minimum(rect_mod, line_ex2, grid=np.int64(9))
                == universal_minimum(rect_mod, line_ex2, grid=9))

    @pytest.mark.parametrize("grid", [True, False])
    def test_bool_grid_rejected(self, rect_mod, line_ex2, grid):
        # operator.index reads True as 1 and False as 0
        with pytest.raises(QuadFTError, match=f"grid must be an integer, got {grid}"):
            universal_set(rect_mod, line_ex2, grid)
        with pytest.raises(QuadFTError, match=f"grid must be an integer, got {grid}"):
            universal_minimum(rect_mod, line_ex2, grid=grid)


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


def _random_floating_instances(count):
    """The first `count` floating instances drawn from
    random_convex_quad(default_rng(1)) with weights from U(0.6, 3.0)."""
    rng = np.random.default_rng(1)
    instances = []
    while len(instances) < count:
        quad = Quadrilateral.from_coords(random_convex_quad(rng))
        wq = WeightedQuadrilateral(quad, tuple(rng.uniform(0.6, 3.0, 4)))
        if classify_case(wq).kind is CaseKind.FLOATING:
            instances.append(wq)
    return instances


@pytest.fixture(scope="module")
def floating_instances():
    return _random_floating_instances(49)


@pytest.fixture(scope="module")
def random_lines(floating_instances):
    return [(wq.quad, plasticity_line(wq, locate_4wft(wq))) for wq in floating_instances]


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


def _similar(quad, angle, scale, shift):
    """quad rotated by `angle`, scaled by `scale` and moved by `shift` times
    its scaled diameter."""
    cos, sin, diam = math.cos(angle), math.sin(angle), scale * quad.diameter()
    return Quadrilateral.from_coords(
        [(scale * (cos * v.x - sin * v.y) + shift[0] * diam,
          scale * (sin * v.x + cos * v.y) + shift[1] * diam) for v in quad.vertices])


def _assert_skips_match(quad, line, grid):
    """universal_set keeps what absorbing_xg returns and skips, with its
    message, what absorbing_xg raises, B4 by B4."""
    skipped = []
    samples = universal_set(quad, line, grid, on_skip=lambda b4, why: skipped.append((b4, why)))
    assert sorted([s.b4 for s in samples] + [b4 for b4, _ in skipped]) \
        == linspace(*_sampled_range(line), grid)
    assert samples == [absorbing_xg(quad, line, s.b4) for s in samples]
    for b4, why in skipped:
        with pytest.raises(QuadFTError) as caught:
            absorbing_xg(quad, line, b4)
        assert str(caught.value) == why
    return skipped


class TestOneSampleLoop:
    """`universal_set`, `universal_minimum` and `absorbing_xg` evaluate every
    B4 in one loop: the same samples and the same skip reasons under
    similarity transforms and weight scales."""

    @given(index=st.integers(0, 48), angle=st.floats(0.0, 2.0 * math.pi),
           s_c=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
           shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           s_w=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
    @settings(max_examples=40, deadline=None)
    def test_samples_minimum_and_skips(self, floating_instances, index, angle, s_c, shift,
                                       s_w):
        wq = floating_instances[index]
        quad = _similar(wq.quad, angle, s_c, shift)
        wq = WeightedQuadrilateral(quad, tuple(s_w * w for w in wq.weights))
        line = plasticity_line(wq, locate_4wft(wq))
        for grid in (1, 2, 65):
            b4s = ([0.5 * sum(line.b4_interval)] if grid == 1
                   else linspace(*_sampled_range(line), grid))
            assert universal_set(quad, line, grid) == [absorbing_xg(quad, line, b4)
                                                       for b4 in b4s]

        # u_FT = |a x b| / |b| for a + B4 b, a = y1 u1, b = x1 u1 + u4
        p = np.array(line.point.as_tuple())
        u1, _, _, u4 = (r / np.linalg.norm(r) for r in np.array(
            [v.as_tuple() for v in quad.vertices]) - p)
        x1, y1 = line.coefficients[0]
        a, b = y1 * u1, x1 * u1 + u4
        lo, hi = _sampled_range(line)
        t = -(a @ b) / (b @ b)
        if lo <= t <= hi:
            expected = abs(a[0] * b[1] - a[1] * b[0]) / np.linalg.norm(b)
        else:
            expected = np.linalg.norm(a + min(max(t, lo), hi) * b)
        assert abs(universal_minimum(quad, line, grid=1).u_ft - expected) <= 1e-12 * line.c

        other = _similar(floating_instances[(index + 1) % 49].quad, angle, s_c, shift)
        skipped = _assert_skips_match(other, line, 9)
        assert len(skipped) == 9 and all("do not balance" in why for _, why in skipped)
        first = quad.vertices[0]
        on_p = Quadrilateral.from_coords(
            [((v.x - first.x) + p[0], (v.y - first.y) + p[1]) for v in quad.vertices])
        assert [why for _, why in _assert_skips_match(on_p, line, 9)] \
            == ["unit vector undefined between coincident points"] * 9


def _grid(line, grid):
    """The B4 grid of `universal_set`."""
    return [0.5 * sum(line.b4_interval)] if grid == 1 else linspace(*_sampled_range(line), grid)


def _per_sample(quad, line, b4s):
    """The reference: `absorbing_xg` at each b4 by itself, as (samples,
    skipped) with each failure's message."""
    samples, skipped = [], []
    for b4 in b4s:
        try:
            samples.append(absorbing_xg(quad, line, b4))
        except QuadFTError as exc:
            skipped.append((b4, str(exc)))
    return samples, skipped


def _imbalance(quad, line, b4):
    """|sum B_i u_i| at the anchor, evaluated as `universal` does."""
    ax, ay, bx, by = _Family(quad, line).imbalance()
    return math.hypot(ax + b4 * bx, ay + b4 * by)


def _near_gate(quad, line, b4, target, angle, above):
    """The line moved to the anchor P + r (cos angle, sin angle) whose
    imbalance at b4 is at most `target`, or just above it, with r bisected
    to float resolution."""
    p, diam = line.point, quad.diameter()

    def moved(r):
        return PlasticityLine(c=line.c, coefficients=line.coefficients,
                              b4_interval=line.b4_interval,
                              point=Point(p.x + r * math.cos(angle), p.y + r * math.sin(angle)))

    lo, hi = 0.0, 1e-12 * diam
    while _imbalance(quad, moved(hi), b4) <= target:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _imbalance(quad, moved(mid), b4) <= target:
            lo = mid
        else:
            hi = mid
    return moved(hi if above else lo)


class TestRunVerdicts:
    """`universal_set` decides a grid at its two ends.  Positivity of the
    weights holds between them exactly and the balance, a convex norm, up
    to rounding: it must equal the per-sample reference of `absorbing_xg`,
    skips and messages included, except for a sample the reference skips
    whose imbalance exceeds the gate by no more than the rounding bound.
    The draws: lines on their own quadrilateral, on another one, with the
    anchor on a vertex, with the anchor moved so that the imbalance at one
    end of the grid sits at the gate, and with an interval widened past
    positive weights at one end."""

    @given(index=st.integers(0, 48), angle=st.floats(0.0, 2.0 * math.pi),
           s_c=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
           shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           s_w=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
           kind=st.sampled_from(["own", "other", "vertex", "near gate", "wider"]),
           grid=st.integers(1, 65), end=st.sampled_from([0, -1]), above=st.booleans(),
           offset=st.sampled_from([0.0, 0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-6, -1e-6]),
           turn=st.floats(0.0, 2.0 * math.pi))
    @example(index=0, angle=0.0, s_c=1.0, shift=(0.0, 0.0), s_w=1.0, kind="near gate",
             grid=65, end=0, above=False, offset=0.0, turn=1.0)
    @settings(max_examples=150, deadline=None)
    def test_grid_equals_the_per_sample_reference(self, floating_instances, index, angle, s_c,
                                                  shift, s_w, kind, grid, end, above, offset,
                                                  turn):
        wq = floating_instances[index]
        quad = _similar(wq.quad, angle, s_c, shift)
        wq = WeightedQuadrilateral(quad, tuple(s_w * w for w in wq.weights))
        line = plasticity_line(wq, locate_4wft(wq))
        b4s = _grid(line, grid)
        gate = BALANCE_RTOL * line.c
        if kind == "other":
            quad = _similar(floating_instances[(index + 1) % 49].quad, angle, s_c, shift)
        elif kind == "vertex":
            first, p = quad.vertices[index % 4], line.point
            quad = Quadrilateral.from_coords(
                [((v.x - first.x) + p.x, (v.y - first.y) + p.y) for v in quad.vertices])
        elif kind == "near gate":
            line = _near_gate(quad, line, b4s[end], gate * (1.0 + offset), turn, above)
        elif kind == "wider":  # an interval past where the weights stay positive
            lo, hi = line.b4_interval
            wider = (lo - turn * (hi - lo), hi) if end == 0 else (lo, hi + turn * (hi - lo))
            line = PlasticityLine(c=line.c, coefficients=line.coefficients, b4_interval=wider,
                                  point=line.point)
            b4s = _grid(line, grid)
        skipped = []
        samples = universal_set(quad, line, grid, on_skip=lambda b4, why: skipped.append((b4, why)))
        want, want_skipped = _per_sample(quad, line, b4s)
        if (samples, skipped) == (want, want_skipped):
            return
        # the run kept every sample; the reference skipped some for a balance
        # within rounding above the gate: each imbalance component a + B4 b
        # rounds by at most 2 eps (|a| + B4 |b|) and the hypot by one ulp,
        # at the run's ends and at the sample alike
        assert skipped == [] and len(samples) == len(b4s)
        ax, ay, bx, by = _Family(quad, line).imbalance()
        eps = sys.float_info.epsilon
        bound = 4.0 * eps * (abs(ax) + abs(ay) + b4s[-1] * (abs(bx) + abs(by)) + gate)
        for b4, why in want_skipped:
            assert "do not balance" in why
            assert gate < _imbalance(quad, line, b4) <= gate + bound
        left = {b4 for b4, _ in want_skipped}
        assert [s for s in samples if s.b4 not in left] == want


class TestNoCyclicGarbage:
    """The pipeline leaves nothing for the cycle collector: a cache that
    referred back to its owner would."""

    def test_no_cyclic_garbage(self):
        other = Quadrilateral.from_coords([(0, 0), (8, 0), (8, 4), (0, 4)])

        def run():
            quad = Quadrilateral.from_coords(RECT)
            wq = WeightedQuadrilateral(quad, EX2_WEIGHTS)
            line = plasticity_line(wq, locate_4wft(wq))
            result = universal_minimum(quad, line, grid=65)
            for b4 in weights_for_storage(quad, line, 3.82, result=result):
                evolve(quad, line, 3.82, 0.2, b4)
            universal_set(other, line, 9)
            for call in (lambda: universal_minimum(other, line, 9),
                         lambda: weights_for_storage(other, line, 3.82),
                         lambda: evolve(other, line, 3.82, 0.2, 1.5),
                         lambda: absorbing_xg(other, line, 1.5)):
                with pytest.raises(InconsistentCaseError):
                    call()

        run()
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestClassification:
    """The storage rule: below u_FT the tree stays steady (evolve grows
    nothing), at or above it the tree evolves, spending below u_FT."""

    def test_below_threshold_is_steady(self, rect_mod, line_ex2, result_ex2):
        # unchecked, this storage grew l = 0.091 at B4* without spend
        for a_g in (0.0, 0.1):
            with pytest.raises(InfeasibleWeightsError,
                               match="storage level 3.8 lies below the universal minimum"):
                evolve(rect_mod, line_ex2, storage=3.8, a_g=a_g, b4=result_ex2.b4_star)

    def test_threshold_is_evolutionary(self, rect_mod, line_ex2, result_ex2):
        tree = evolve(rect_mod, line_ex2, storage=result_ex2.u_ft, a_g=0.01,
                      b4=result_ex2.b4_star)
        assert tree.l > 0.0

    def test_above_threshold_is_evolutionary(self, rect_mod, line_ex2):
        tree = evolve(rect_mod, line_ex2, storage=3.8543169, a_g=0.5, b4=1.2)
        assert tree.l > 0.0

    def test_low_storage_with_spend_rejected(self, rect_mod, line_ex2):
        # unchecked, a storage of 3.0 < u_FT = 3.80888 grew l = 5.505
        with pytest.raises(InfeasibleWeightsError,
                           match="storage level 3.0 lies below the universal minimum 3.80888"):
            evolve(rect_mod, line_ex2, storage=3.0, a_g=0.2, b4=1.2)

    def test_spend_of_u_ft_or_more_rejected(self, rect_mod, line_ex2, result_ex2):
        # unchecked, spending 3.9 > u_FT = 3.80888 grew l = 4.630
        with pytest.raises(OverspendError,
                           match=r"spending rate 3\.9 must stay below u_FT = 3\.80888"):
            evolve(rect_mod, line_ex2, storage=6.9, a_g=3.9, b4=1.2)
        with pytest.raises(OverspendError, match="must stay below u_FT"):
            evolve(rect_mod, line_ex2, storage=6.9, a_g=result_ex2.u_ft, b4=1.2)

    def test_line_of_another_quadrilateral_rejected(self, line_ex2):
        # unchecked, this grew l = 2.533, where absorbing_xg rejects the line
        other = Quadrilateral.from_coords([(0, 0), (8, 0), (8, 4), (0, 4)])
        with pytest.raises(InconsistentCaseError, match="do not balance"):
            evolve(other, line_ex2, storage=3.82, a_g=0.2, b4=1.4901507)

    @given(index=st.integers(0, 48), s_w=weight_scales, s_c=scales)
    @settings(max_examples=40, deadline=None)
    def test_rule_holds_at_every_scale(self, floating_instances, index, s_w, s_c):
        wq = floating_instances[index]
        quad = Quadrilateral.from_coords([(s_c * v.x, s_c * v.y) for v in wq.quad.vertices])
        wq = WeightedQuadrilateral(quad, tuple(s_w * w for w in wq.weights))
        line = plasticity_line(wq, locate_4wft(wq))
        result = universal_minimum(quad, line, grid=1)
        u_ft, step = result.u_ft, 1e-6 * line.c
        with pytest.raises(InfeasibleWeightsError, match="below the universal minimum"):
            evolve(quad, line, u_ft - step, 0.05 * u_ft, result.b4_star)
        try:
            evolve(quad, line, u_ft + step, 0.05 * u_ft, result.b4_star)
        except QuadFTError as exc:
            assert "below the universal minimum" not in str(exc)


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

    @given(index=st.integers(0, 48), angle=st.floats(0.0, 2.0 * math.pi), s_c=scales,
           shift=st.tuples(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7)), s_w=weight_scales)
    @settings(max_examples=60, deadline=None)
    def test_absorbing_storage_is_the_collapsed_tree(self, floating_instances, index, angle,
                                                    s_c, shift, s_w):
        # at the absorbing value the span of `_branch` is rounding noise of
        # either sign, so the limit cannot come from it
        wq = floating_instances[index]
        diam = s_c * wq.quad.diameter()
        quad = _similar(wq.quad, angle, s_c, (shift[0] / diam, shift[1] / diam))
        wq = WeightedQuadrilateral(quad, tuple(s_w * w for w in wq.weights))
        line = plasticity_line(wq, locate_4wft(wq))
        for s in universal_set(quad, line, 9):
            tree = evolve(quad, line, s.xg_absorbing, 0.0, s.b4)
            assert tree.l == 0.0
            assert tree.node0 == tree.node0p == line.point
            assert tree.objective == s.objective

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

    @pytest.mark.parametrize("storage,a_g,name", [
        (math.nan, 0.2, "storage"), (math.inf, 0.2, "storage"),
        (3.82, math.nan, "spending rate"), (3.82, math.inf, "spending rate"),
    ])
    def test_non_finite_input_named(self, rect_mod, line_ex2, storage, a_g, name):
        with pytest.raises(QuadFTError, match=f"{name} must be finite") as caught:
            evolve(rect_mod, line_ex2, storage=storage, a_g=a_g, b4=1.4901507)
        assert type(caught.value) is QuadFTError

    def test_negative_storage_rejected(self, rect_mod, line_ex2):
        with pytest.raises(QuadFTError, match="storage must be nonnegative, got -1.0") \
                as caught:
            evolve(rect_mod, line_ex2, storage=-1.0, a_g=0.0, b4=1.4901507)
        assert type(caught.value) is QuadFTError

    def test_bool_b4_rejected(self, rect_mod, line_ex2):
        # True passed the B4 interval check and ran as B4 = 1
        with pytest.raises(QuadFTError, match="b4 must be a number, not a bool, got True"):
            evolve(rect_mod, line_ex2, storage=3.82, a_g=0.2, b4=True)

    def test_negative_spend_rejected(self, rect_mod, line_ex2):
        from quadft import QuadFTError

        with pytest.raises(QuadFTError, match="nonnegative"):
            evolve(rect_mod, line_ex2, storage=3.82, a_g=-0.1, b4=1.4901507)
