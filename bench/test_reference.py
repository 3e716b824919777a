"""Checks of the benchmark's own reference computations against the paper.

    python3 -m pytest bench
"""

import json
import math
import os

import pytest

import reference as ref
import tracing
from workloads import PAPER_LEVELS, PAPER_RECTANGLES, RECT, SQUARE_POINT, SQUARE_WEIGHTS

HERE = os.path.dirname(os.path.abspath(__file__))

EX2_POINT = (2.8274502, 1.2787811)
EX2_COEFFS = ((-0.8159745, 4.2239621), (1.1070888, 0.8393665), (-1.2911143, 3.6366712))
EX3_POINT = (2.381487, 1.1855484)


def _line(weights, pts=RECT):
    p = ref.geometric_median(pts, weights)
    return p, ref.Line(pts, p, sum(weights))


def test_first_rectangle_matches_the_paper():
    weights, storage, u_paper, b4_paper = PAPER_RECTANGLES[0]
    p, line = _line(weights)
    assert math.dist(p, EX2_POINT) < 1e-5
    for (x, y), (px, py) in zip(line.coefficients, EX2_COEFFS):
        assert abs(x - px) < 1e-5 and abs(y - py) < 1e-5
    u, b4 = line.universal_minimum()
    assert abs(u - u_paper) < 2e-5 and abs(b4 - b4_paper) < 2e-5
    levels = line.level_set(storage)
    assert len(levels) == 2
    for got, want in zip(levels, PAPER_LEVELS):
        assert abs(got - want) < 2e-5


def test_second_rectangle_matches_the_paper():
    weights, _, u_paper, b4_paper = PAPER_RECTANGLES[1]
    p, line = _line(weights)
    assert math.dist(p, EX3_POINT) < 1e-5
    u, b4 = line.universal_minimum()
    assert abs(u - u_paper) < 1e-5 and abs(b4 - b4_paper) < 1e-5


def test_square_median_matches_the_paper():
    side = 10.0
    square = ((0.0, 0.0), (side, 0.0), (side, side), (0.0, side))
    assert math.dist(ref.geometric_median(square, SQUARE_WEIGHTS), SQUARE_POINT) < 1e-5


def test_closed_form_is_the_balance_at_the_collapsed_node():
    """x_G(B4) = |B1 u1 + B4 u4| and equals |B2 u2 + B3 u3| on the line."""
    weights = PAPER_RECTANGLES[0][0]
    p, line = _line(weights)
    lo, hi = line.interval
    for t in (0.1, 0.4, 0.7, 0.95):
        b4 = lo + t * (hi - lo)
        b = line.weights_at(b4)
        left = math.hypot(*ref.pull(p, (RECT[0], RECT[3]), (b[0], b[3])))
        right = math.hypot(*ref.pull(p, (RECT[1], RECT[2]), (b[1], b[2])))
        assert line.absorbing_value(b4) == pytest.approx(left, rel=1e-12)
        assert left == pytest.approx(right, rel=1e-9)
        assert ref.balance_residual(p, RECT, b) < 1e-12 * sum(b)


def test_results_follow_a_similarity_transform():
    weights = PAPER_RECTANGLES[1][0]
    p, line = _line(weights)
    move = ref.similarity(37.0, 1.1, (-250.0, 80.0))
    pts = tuple(move(v) for v in RECT)
    scaled = tuple(40.0 * w for w in weights)
    q, moved = _line(scaled, pts)
    assert math.dist(q, move(p)) < 1e-9 * 37.0 * 8.1
    u, b4 = line.universal_minimum()
    u2, b42 = moved.universal_minimum()
    assert u2 == pytest.approx(40.0 * u, rel=1e-9)
    assert b42 == pytest.approx(40.0 * b4, rel=1e-9)


def test_kuhn_absorption():
    weights = (10.0, 1.0, 1.0, 1.0)
    assert ref.absorbed_vertex(RECT, weights) == 0
    assert ref.kuhn_slack(RECT, weights, 0) > 0.0
    assert ref.geometric_median(RECT, weights) == RECT[0]
    assert ref.absorbed_vertex(RECT, PAPER_RECTANGLES[0][0]) is None


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = tracing.Tracer()
    values, _ = tracing.per_layer_metrics(tracer, 1, {}, [1.0], {})
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {name: unit for name, (_, unit) in values.items()}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "ops_per_s", "op_s_p50", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == ["absorbing", "trees", "cli"]
