import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quadft.fermat as fermat
from quadft.cli import _COMMANDS, build_parser, main
from quadft.documents import (
    OPTION_CHECKS,
    DocumentError,
    SolverOptions,
    RunRecord,
    parse_problem_document,
    record_from_json,
    record_to_json,
    run_timestamp,
)
from quadft import Point, QuadFTError, WeightedQuadrilateral, locate_4wft, weighted_distance_sum
from quadft.svgplot import level_curve_loops

EX2_DOC = """{
  "vertices": [[0, 0], [7, 0], [7, 4], [0, 4]],
  "weights": [3.0, 2.5, 1.7, 1.5]
}
"""

EX4_DOC = """{
  "vertices": [[0, 0], [7, 0], [7, 4], [0, 4]],
  "weights": [3.2447927, 2.1678731, 2.0873328, 1.2],
  "xg": 3.3543169
}
"""

TRI_DOC = """{
  "vertices": [[0, 0], [5, 0.5], [2, 4]],
  "weights": [3.5, 2.5, 2.0]
}
"""


@pytest.fixture
def ex2_doc(tmp_path):
    path = tmp_path / "example2.doc"
    path.write_text(EX2_DOC)
    return path


@pytest.fixture
def ex4_doc(tmp_path):
    path = tmp_path / "example4.doc"
    path.write_text(EX4_DOC)
    return path


class TestDocuments:
    def test_parse_minimal(self):
        doc = parse_problem_document(EX2_DOC)
        assert doc.vertices[2] == (7.0, 4.0)
        assert doc.weights == (3.0, 2.5, 1.7, 1.5)
        assert doc.xg is None

    def test_unknown_key_reports_path(self):
        with pytest.raises(DocumentError, match=r"\$\.wieghts"):
            parse_problem_document('{"vertices": [[0,0],[1,0],[1,1],[0,1]], '
                                   '"weights": [1,1,1,1], "wieghts": 1}')

    def test_unknown_option_reports_path(self):
        with pytest.raises(DocumentError, match=r"\$\.options\.grids"):
            parse_problem_document('{"vertices": [[0,0],[1,0],[1,1],[0,1]], '
                                   '"weights": [1,1,1,1], "options": {"grids": 3}}')

    def test_malformed_json_reports_line_and_column(self):
        with pytest.raises(DocumentError, match=r"line 2, column"):
            parse_problem_document('{\n  "vertices": }')

    def test_weight_count_mismatch(self):
        with pytest.raises(DocumentError, match=r"\$\.weights"):
            parse_problem_document('{"vertices": [[0,0],[1,0],[1,1],[0,1]], '
                                   '"weights": [1,1,1]}')

    def test_nonpositive_weight(self):
        with pytest.raises(DocumentError, match=r"\$\.weights\[2\]"):
            parse_problem_document('{"vertices": [[0,0],[1,0],[1,1],[0,1]], '
                                   '"weights": [1,1,-1,1]}')

    def test_record_roundtrip(self):
        record = RunRecord(
            command="wft-quad",
            inputs={"weights": [3.0, 2.5, 1.7, 1.5]},
            outputs={"point": [2.8274517954, 1.2787814006], "nan": float("nan")},
            diagnostics={"iterations": 2},
            timestamp="1970-01-01T00:00:00Z",
        )
        line = record_to_json(record)
        back = record_from_json(line)
        assert back.command == record.command
        assert back.outputs["point"] == record.outputs["point"]
        assert back.outputs["nan"] is None  # NaN serializes as null
        assert record_to_json(back) == line


class TestCommands:
    def test_wft_quad(self, ex2_doc, capsys):
        assert main(["wft-quad", "--input", str(ex2_doc)]) == 0
        out = capsys.readouterr().out
        assert "A0: (2.8274518, 1.2787814)" in out
        assert "138.6250341 deg" in out

    def test_gauss(self, ex4_doc, capsys):
        assert main(["gauss", "--input", str(ex4_doc)]) == 0
        out = capsys.readouterr().out
        assert "a1: 1.6642066" in out
        assert "l: 3.1495250" in out

    def test_wft_triangle(self, tmp_path, capsys):
        path = tmp_path / "tri.doc"
        path.write_text(TRI_DOC)
        assert main(["wft-triangle", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "A0:" in out and "a102" in out

    def test_plasticity(self, ex2_doc, capsys):
        assert main(["plasticity", "--input", str(ex2_doc)]) == 0
        out = capsys.readouterr().out
        assert "B1 = 4.2239620 - 0.8159747 * B4" in out

    def test_universal(self, ex2_doc, capsys):
        assert main(["universal", "--input", str(ex2_doc), "--grid", "8"]) == 0
        out = capsys.readouterr().out
        assert "u_FT: 3.8088845" in out
        assert "universal absorbing rate: 0.4378028" in out

    def test_evolve(self, ex2_doc, capsys):
        code = main(["evolve", "--input", str(ex2_doc),
                     "--storage", "3.82", "--spend", "0.2", "--b4", "1.4901507"])
        assert code == 0
        out = capsys.readouterr().out
        assert "l: 1.5309" in out

    @pytest.mark.parametrize("flag", ["--records", "--svg"])
    def test_unwritable_output_exits_2(self, flag, ex2_doc, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "out"
        assert main(["wft-quad", "--input", str(ex2_doc), flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {path}: " in err
        assert "Traceback" not in err

    def test_records_and_svg_written(self, ex2_doc, tmp_path, capsys):
        records = tmp_path / "run.ndjson"
        svg = tmp_path / "run.svg"
        assert main(["wft-quad", "--input", str(ex2_doc),
                     "--records", str(records), "--svg", str(svg)]) == 0
        capsys.readouterr()
        record = record_from_json(records.read_text().strip())
        assert record.command == "wft-quad"
        assert record.outputs["point"][0] == pytest.approx(2.8274518, abs=1e-6)
        assert record_to_json(record) == records.read_text().strip()
        assert svg.read_text().startswith("<?xml")

    @pytest.mark.parametrize("epoch", ["99999999999999", "-99999999999999"])
    def test_out_of_range_source_date_epoch_falls_back_to_zero(self, epoch, ex2_doc,
                                                               tmp_path, capsys, monkeypatch):
        # an integer beyond the years datetime holds is treated like a non-integer
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        records = tmp_path / "r.ndjson"
        assert main(["wft-quad", "--input", str(ex2_doc), "--records", str(records)]) == 0
        capsys.readouterr()
        assert record_from_json(records.read_text().strip()).timestamp == "1970-01-01T00:00:00Z"

    @pytest.mark.parametrize("epoch, stamp", [
        ("0", "1970-01-01T00:00:00Z"),
        ("1", "1970-01-01T00:00:01Z"),
        ("-1", "1969-12-31T23:59:59Z"),
        ("-62135596800", "0001-01-01T00:00:00Z"),
        ("-62135596801", "1970-01-01T00:00:00Z"),
        ("253402300799", "9999-12-31T23:59:59Z"),
        ("253402300800", "1970-01-01T00:00:00Z"),
        (str(10**20), "1970-01-01T00:00:00Z"),
        ("x", "1970-01-01T00:00:00Z"),
    ])
    def test_source_date_epoch_timestamp(self, epoch, stamp, monkeypatch):
        # the years 1 to 9999 are written out; other integers and
        # non-integers fall back to 0
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert run_timestamp() == stamp

    @pytest.mark.parametrize("command, vertices, weights", [
        ("wft-quad", [[0, 0], [7, 0], [7, 4], [0, 4]], [1.5e308, 1.25e308, 0.85e308, 0.75e308]),
        ("wft-quad", [[0, 0], [7, 0], [7, 4], [0, 4]],
         [math.ldexp(w, -1) for w in (1.5e308, 1.25e308, 0.85e308, 0.75e308)]),
        ("wft-triangle", [[0, 0], [6, 0], [2, 5]], [1.5e308, 1.4e308, 1.3e308]),
    ], ids=["wft-quad", "wft-quad-half", "wft-triangle"])
    def test_weights_whose_sum_overflows_exit_2(self, tmp_path, capsys, command, vertices,
                                                weights):
        # "absorbed at vertex A1", objective inf, and exit 0
        path = tmp_path / "heavy.doc"
        path.write_text(json.dumps({"vertices": vertices, "weights": weights}))
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the weights sum to inf")
        assert captured.out == ""

    @pytest.mark.parametrize("k", [-2, -3])
    def test_objective_that_overflows_exits_2(self, tmp_path, capsys, k):
        # "objective: inf", and exit 0
        path = tmp_path / "heavy.doc"
        weights = [math.ldexp(w, k) for w in (1.5e308, 1.25e308, 0.85e308, 0.75e308)]
        path.write_text(json.dumps({"vertices": [[0, 0], [7, 0], [7, 4], [0, 4]],
                                    "weights": weights}))
        assert main(["wft-quad", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the objective at (2.82745")
        assert "overflows the largest float" in captured.err
        assert captured.out == ""

    def test_median_next_to_a_vertex_exits_0(self, tmp_path, capsys):
        # least Kuhn slack 0.86% of the total: the median stalled, exit 3
        path = tmp_path / "near.doc"
        path.write_text(json.dumps({
            "vertices": [[-9.664143878296533, 1.7866155113108288e-10],
                         [-9.664143878229623, 7.661028478284024e-10],
                         [-9.664143878526284, 1.229097574006717e-09],
                         [-9.664143878528881, -1.5544487806291528e-09]],
            "weights": [5.820766091346741e-11, 3.523689589790999e-10, 1.4989801247655512e-10,
                        4.601175388617922e-10]}))
        assert main(["universal", "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_storage_below_u_ft_exits_2_with_hint(self, ex2_doc, capsys):
        # with --b4 evolve checks the storage rule, without it weights_for_storage
        for b4 in (["--b4", "1.2"], []):
            assert main(["evolve", "--input", str(ex2_doc), "--storage", "3.0",
                         "--spend", "0.2", *b4]) == 2
            error, hint = capsys.readouterr().err.splitlines()
            assert error.startswith(
                "error: storage level 3.0 lies below the universal minimum 3.80888")
            assert hint == "hint: raise the storage to at least u_FT, the universal minimum"

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["wft-quad", "--input", str(tmp_path / "nope.doc")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_doc_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.doc"
        path.write_text("{nope}")
        assert main(["wft-quad", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    @pytest.mark.parametrize("argv", [
        ["wft-quad"], ["gauss", "--xg", "3.62"], ["plasticity"], ["universal"],
        ["evolve", "--storage", "3.82", "--spend", "0.2"], ["plot", "--svg", "huge.svg"],
    ], ids=lambda argv: argv[0])
    def test_coordinates_too_large_to_square_exit_2(self, tmp_path, monkeypatch, capsys,
                                                    argv):
        # the diameter squared overflowed: an OverflowError traceback, exit 1
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "huge.doc"
        path.write_text(json.dumps({"vertices": [[0, 0], [1e308, 0], [1e308, 1e308], [0, 1e308]],
                                    "weights": [3.0, 2.5, 1.7, 1.5]}))
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vertices A1 (0.0, 0.0) and A3 (1e+308, 1e+308) lie ")
        assert not (tmp_path / "huge.svg").exists()

    def test_triangle_whose_difference_overflows_exits_2(self, tmp_path, capsys):
        # the median came back as (inf, inf), and the error named no input
        path = tmp_path / "far.doc"
        path.write_text(json.dumps({"vertices": [[-1e308, 0], [1e308, 0], [0, 1e308]],
                                    "weights": [1.0, 1.0, 1.0]}))
        assert main(["wft-triangle", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vertices A1 (-1e+308, 0.0) and A2 (1e+308, 0.0) lie inf ")

    def test_gauss_weights_whose_products_underflow_solve(self, tmp_path, capsys):
        # a ZeroDivisionError traceback escaped from the Gauss closed form,
        # later a QuadFTError (exit 2); scaled by a power of two, the weights
        # give the tree of equal weights, 120 degrees at each node
        path = tmp_path / "tiny.doc"
        path.write_text(json.dumps({"vertices": [[0, 0], [7, 0], [7, 4], [0, 4]],
                                    "weights": [1.1113793747425387e-162] * 4,
                                    "xg": 1.1113793747425387e-162}))
        assert main(["gauss", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "A0:  (1.1547005, 2.0000000)" in out and "l: 4.6905989" in out

    @pytest.mark.parametrize("command,vertices,weights", [
        ("wft-quad",
         [[2.641875421683247, -5.927686131843942], [226.64187542168324, -5.927686131843942],
          [226.64187542168324, 122.07231386815606], [2.641875421683247, 122.07231386815606]],
         [7.949204741066971e-169, 1.4000539084901848e-168, 2.6497349136889905e-169,
          7.949204741066971e-169]),
        ("wft-triangle",
         [[4.230921182981106, 9.369642628183726], [6291460.230921183, 9.369642628183726],
          [2097156.230921183, 5242889.369642628]],
         [3.378394109163255e+265, 4.514445769965648e+265, 3.0632312291191526e+265]),
    ], ids=["wft-quad", "wft-triangle"])
    def test_weights_far_from_unit_scale_solve(self, tmp_path, capsys, command, vertices,
                                               weights):
        # the median scaled its frame but not its weights, its Newton
        # determinant under- or overflowed, and the command exited 3
        path = tmp_path / "scaled.doc"
        path.write_text(json.dumps({"vertices": vertices, "weights": weights}))
        assert main([command, "--input", str(path)]) == 0
        assert "A0: (" in capsys.readouterr().out

    def test_tiny_triangle_solves(self, tmp_path, capsys):
        # below about 1e-154 the median stalled, and the command exited 3
        path = tmp_path / "tiny.doc"
        path.write_text(json.dumps({"vertices": [[0, 0], [6e-160, 0], [2e-160, 5e-160]],
                                    "weights": [2.0, 1.5, 1.8]}))
        assert main(["wft-triangle", "--input", str(path)]) == 0
        assert "A0: (" in capsys.readouterr().out

    def test_infeasible_gauss_exits_2_with_hint(self, tmp_path, capsys):
        path = tmp_path / "bad.doc"
        path.write_text(EX2_DOC)
        assert main(["gauss", "--input", str(path), "--xg", "4.6"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "hint:" in err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(EX2_DOC))
        assert main(["wft-quad", "--input", "-"]) == 0
        assert "A0:" in capsys.readouterr().out

    def test_normalize_weights_flag(self, ex2_doc, capsys):
        assert main(["wft-quad", "--input", str(ex2_doc), "--normalize-weights"]) == 0
        out = capsys.readouterr().out
        # location is weight-scale invariant; objective shrinks by the total
        assert "A0: (2.8274518, 1.2787814)" in out
        assert f"objective: {34.5746857 / 8.7:.7f}" in out

    def test_evolve_normalize_weights_scales_storage_and_spend(self, ex2_doc, capsys):
        # storage and spend are in the weights' units, so they are divided by
        # the weight sum 8.7 with the weights; the tree's geometry is unchanged
        assert main(["evolve", "--input", str(ex2_doc), "--storage", "3.82",
                     "--spend", "0.2", "--normalize-weights"]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("B4 candidates: "))
        candidates = [float(v) for v in line[len("B4 candidates: "):].split(",")]
        assert candidates == pytest.approx([1.4901612 / 8.7, 2.0556312 / 8.7], abs=1.5e-7)
        assert "l: 1.5309333" in out

    def test_wft_triangle_normalize_weights_flag(self, tmp_path, capsys):
        path = tmp_path / "tri.doc"
        path.write_text(TRI_DOC)
        raw, norm = tmp_path / "raw.ndjson", tmp_path / "norm.ndjson"
        assert main(["wft-triangle", "--input", str(path), "--records", str(raw)]) == 0
        assert main(["wft-triangle", "--input", str(path), "--records", str(norm),
                     "--normalize-weights"]) == 0
        capsys.readouterr()
        raw_out = record_from_json(raw.read_text().strip()).outputs
        norm_out = record_from_json(norm.read_text().strip()).outputs
        # location is weight-scale invariant; objective shrinks by the total 8
        assert norm_out["point"] == pytest.approx(raw_out["point"], rel=1e-12)
        assert norm_out["objective"] == pytest.approx(raw_out["objective"] / 8.0, rel=1e-12)

    def test_diagonal_optimum_runs_the_line_commands(self, tmp_path, capsys):
        # equal weights on the rectangle put the optimum at the diagonals'
        # crossing, where the line is B1 = B3 = c/2 - B4, B2 = B4
        path = tmp_path / "equal.doc"
        for weights in ("[1,1,1,1]", "[2,2,2,2]"):
            path.write_text('{"vertices": [[0,0],[7,0],[7,4],[0,4]], "weights": %s}' % weights)
            assert main(["plasticity", "--input", str(path)]) == 0
        assert "B1 = 4.0000000 - 1.0000000 * B4" in capsys.readouterr().out
        assert main(["universal", "--input", str(path)]) == 0
        assert "u_FT: 3.4729726" in capsys.readouterr().out
        assert main(["evolve", "--input", str(path), "--storage", "3.82",
                     "--spend", "0.2"]) == 0
        assert "l: " in capsys.readouterr().out

    def test_absorbed_plasticity_exits_2_with_hint(self, tmp_path, capsys):
        path = tmp_path / "abs.doc"
        path.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]], "weights": [100,1,1,1]}')
        assert main(["plasticity", "--input", str(path)]) == 2
        error, hint = capsys.readouterr().err.splitlines()
        assert error.startswith("error:") and "absorbed at vertex A1" in error
        assert hint == "hint: a weight dominates; the optimum sits at that vertex"

    def test_flag_overrides_document_option(self, tmp_path, capsys):
        path = tmp_path / "opt.doc"
        path.write_text('{"vertices": [[0,0],[7,0],[7,4],[0,4]], '
                        '"weights": [3.0,2.5,1.7,1.5], "options": {"grid": 4}}')
        assert main(["universal", "--input", str(path), "--grid", "2"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.lstrip()[:1].isdigit()]
        assert len(rows) == 2  # flag wins over the document's 4

    def test_absorbed_instance_output_and_record(self, tmp_path, capsys):
        path = tmp_path / "abs.doc"
        path.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]], '
                        '"weights": [100,1,1,1]}')
        records = tmp_path / "r.ndjson"
        assert main(["wft-quad", "--input", str(path), "--records", str(records)]) == 0
        out = capsys.readouterr().out
        assert "absorbed at vertex A1" in out
        assert "undefined" in out  # angles at the absorbing vertex
        record = record_from_json(records.read_text())
        assert record.outputs["case"] == "absorbed"
        assert record.outputs["vertex"] == 1
        assert record.outputs["angles_rad"][0] is None  # NaN -> null

    def test_nonconvergence_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fermat, "NEWTON_MAX_ITER", 0)
        path = tmp_path / "tri.doc"
        path.write_text(TRI_DOC)
        code = main(["wft-triangle", "--input", str(path)])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["wft-triangle", "--storage", "1"],
            ["wft-triangle", "--svg", "x.svg"],
            ["wft-quad", "--seed-angles", "2.7,1.2"],
            ["wft-quad", "--tol", "1e-10"],
            ["wft-triangle", "--max-iter", "50"],
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, ex2_doc, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--input", str(ex2_doc)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("universal", "--grid")])
    def test_zero_flag_and_zero_option_exit_2(self, tmp_path, capsys, command, flag):
        # a flag passes the same check as the document option of the same name
        key = flag[2:].replace("-", "_")
        path = tmp_path / "zero.doc"
        path.write_text(json.dumps({"vertices": [[0, 0], [7, 0], [7, 4], [0, 4]],
                                    "weights": [3.0, 2.5, 1.7, 1.5],
                                    "options": {key: 0}}))
        assert main([command, "--input", str(path)]) == 2
        assert f"$.options.{key}" in capsys.readouterr().err
        path.write_text(EX2_DOC)
        assert main([command, "--input", str(path), flag, "0"]) == 2
        assert f"(at {flag})" in capsys.readouterr().err

    def test_nonpositive_xg_flag_exits_2(self, ex2_doc, capsys):
        assert main(["gauss", "--input", str(ex2_doc), "--xg", "-1"]) == 2
        assert "(at --xg)" in capsys.readouterr().err

    def test_seed_angles_document_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "seed.doc"
        path.write_text('{"vertices": [[0,0],[3,0],[3,3],[0,3]], "weights": [2,2.5,1,1.2], '
                        '"options": {"seed_angles": [2.7, 1.2]}}')
        assert main(["wft-quad", "--input", str(path)]) == 2
        assert "$.options.seed_angles" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("tol", 1e-10), ("max_iter", 50)])
    def test_tol_and_max_iter_document_keys_are_unknown(self, tmp_path, capsys, key, value):
        path = tmp_path / "tol.doc"
        path.write_text(json.dumps({"vertices": [[0, 0], [3, 0], [3, 3], [0, 3]],
                                    "weights": [2, 2.5, 1, 1.2], "options": {key: value}}))
        assert main(["wft-quad", "--input", str(path)]) == 2
        assert f"unknown key '{key}' (at $.options.{key})" in capsys.readouterr().err

    def test_xg_flag_is_echoed_in_the_record(self, ex2_doc, tmp_path, capsys):
        records = tmp_path / "g.ndjson"
        assert main(["gauss", "--input", str(ex2_doc), "--xg", "3.62",
                     "--records", str(records)]) == 0
        capsys.readouterr()
        record = record_from_json(records.read_text().strip())
        assert record.inputs["xg"] == 3.62
        assert record.outputs["xg"] == 3.62

    def test_flags_and_document_options_match(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        keys = set(OPTION_CHECKS)
        assert keys == set(SolverOptions._fields)
        flagged = set()
        for name, cmd in sub.choices.items():
            for action in cmd._actions:
                for flag in action.option_strings:
                    if flag in ("-h", "--help", "--input", "--records", "--svg", "--xg"):
                        continue
                    key = flag[2:].replace("-", "_")
                    assert key in keys, f"{name} {flag} is no document option"
                    flagged.add(key)
        assert flagged == keys, f"options without a flag: {sorted(keys - flagged)}"

    def test_readme_flag_table_matches_the_parser(self):
        # the `| command | flags |` table lists each command's flags beyond
        # --input, --records, --normalize-weights and --svg
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = readme[readme.index("| command | flags |"):].splitlines()
        table = {}
        for line in lines[2:]:
            if not line.startswith("|"):
                break
            command, flags = line.strip("|").split("|")
            table[command.strip().strip("`")] = set(re.findall(r"`(--[a-z0-9-]+)", flags))
        common = {"-h", "--help", "--input", "--records", "--normalize-weights", "--svg"}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsed = {name: {f for a in cmd._actions for f in a.option_strings} - common
                  for name, cmd in sub.choices.items()}
        assert table == parsed


class TestNumericFormatting:
    @pytest.mark.parametrize(
        "value",
        [3.8088826, 0.4378025, 34.5746856, 1.2787814006, 2.8166928e-06, 123456.789012,
         3.3306690738754696e-15],
    )
    def test_at_least_seven_significant_digits(self, value):
        from quadft.cli import _fmt

        text = _fmt(value)
        digits = "".join(c for c in text.split("e")[0] if c.isdigit()).lstrip("0")
        assert len(digits) >= 7
        assert float(text) == pytest.approx(value, rel=1e-6)


class TestRecordRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["wft-quad"],
            ["gauss", "--xg", "3.3543169"],
            ["plasticity"],
            ["universal", "--grid", "4"],
            ["evolve", "--storage", "3.82", "--spend", "0.2", "--b4", "1.4901507"],
        ],
    )
    def test_every_command_round_trips(self, tmp_path, capsys, argv):
        doc = tmp_path / "p.doc"
        doc.write_text(EX2_DOC)
        records = tmp_path / "r.ndjson"
        assert main(argv + ["--input", str(doc), "--records", str(records)]) == 0
        capsys.readouterr()
        line = records.read_text().strip()
        assert record_to_json(record_from_json(line)) == line


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, ex2_doc, tmp_path, capsys):
        blobs = []
        for tag in ("a", "b"):
            records = tmp_path / f"{tag}.ndjson"
            svg = tmp_path / f"{tag}.svg"
            assert main(["wft-quad", "--input", str(ex2_doc),
                         "--records", str(records), "--svg", str(svg)]) == 0
            blobs.append((records.read_bytes(), svg.read_bytes()))
        capsys.readouterr()
        assert blobs[0] == blobs[1]


class TestSvg:
    def test_fermat_scene_structure(self, ex2_doc, tmp_path, capsys):
        svg = tmp_path / "t.svg"
        assert main(["plot", "--input", str(ex2_doc), "--svg", str(svg)]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.count("<line ") == 4          # four edges to one node
        assert text.count(">A0<") == 1

    def test_gauss_scene_structure(self, ex4_doc, tmp_path, capsys):
        svg = tmp_path / "t.svg"
        assert main(["plot", "--input", str(ex4_doc), "--svg", str(svg)]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.count("<line ") == 5          # four legs plus the bridge
        assert ">A0<" in text and ">A0&apos;<" in text or ">A0'<" in text

    def test_level_curves_nested_loops(self, ex2_doc, tmp_path, capsys):
        svg = tmp_path / "t.svg"
        assert main(["plot", "--input", str(ex2_doc), "--svg", str(svg),
                     "--levels", "0.5,1,2", "--grid", "161"]) == 0
        capsys.readouterr()
        text = svg.read_text()
        curves = [ln for ln in text.splitlines()
                  if ln.startswith("<polygon") and "#7c3aed" in ln]
        assert len(curves) == 3  # one closed loop per level

        def bbox(line):
            pts = line.split('points="')[1].split('"')[0].split()
            xs = [float(p.split(",")[0]) for p in pts]
            ys = [float(p.split(",")[1]) for p in pts]
            return min(xs), min(ys), max(xs), max(ys)

        boxes = [bbox(c) for c in curves]
        # sublevel sets of a convex objective nest with the level
        areas = [(b[2] - b[0]) * (b[3] - b[1]) for b in boxes]
        inner, mid, outer = sorted(zip(areas, boxes))
        assert inner[1][0] >= mid[1][0] >= outer[1][0]
        assert inner[1][2] <= mid[1][2] <= outer[1][2]

    def test_scene_is_scale_free(self, tmp_path, capsys):
        # the canvas maps the quadrilateral's own extents, at every scale
        blobs = []
        for scale in (1e-12, 1e-10, 1e-6, 1.0, 1e6):
            doc = tmp_path / "scaled.doc"
            doc.write_text(json.dumps({
                "vertices": [[scale * x, scale * y] for x, y in ((0, 0), (7, 0), (7, 4), (0, 4))],
                "weights": [3.0, 2.5, 1.7, 1.5],
            }))
            svg = tmp_path / "scaled.svg"
            assert main(["wft-quad", "--input", str(doc), "--svg", str(svg)]) == 0
            blobs.append(svg.read_bytes())
        capsys.readouterr()
        assert all(blob == blobs[0] for blob in blobs)

    def test_plot_requires_svg(self, ex2_doc, capsys):
        assert main(["plot", "--input", str(ex2_doc)]) == 2
        assert "svg" in capsys.readouterr().err.lower()

    def test_gauss_plot_with_levels(self, ex4_doc, tmp_path, capsys):
        svg = tmp_path / "g.svg"
        assert main(["plot", "--input", str(ex4_doc), "--svg", str(svg),
                     "--levels", "1,2"]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.count("<line ") == 5
        curves = [ln for ln in text.splitlines()
                  if ln.startswith("<polygon") and "#7c3aed" in ln]
        assert len(curves) == 2


class TestLevelCurves:
    def test_single_anchor_gives_a_circle(self):
        # f = w r, so the level L is the circle of radius L / w about the anchor
        ((level, loops),) = level_curve_loops([Point(1.0, -2.0)], [2.5], [7.0])
        assert level == 7.0 and len(loops) == 1
        loop = loops[0]
        assert loop[0] == loop[-1] and len(loop) == 130
        for x, y in loop:
            assert math.hypot(x - 1.0, y + 2.0) == pytest.approx(7.0 / 2.5, rel=1e-12)

    @pytest.mark.parametrize("weights", [(3.0, 2.5, 1.7, 1.5),
                                         (3.2447927, 2.1678731, 2.0873328, 1.2)],
                             ids=["ex2", "ex4"])
    def test_loop_vertices_lie_on_their_level(self, rect, weights):
        base = locate_4wft(WeightedQuadrilateral(rect, weights)).objective
        levels = [base + d for d in (0.5, 1.0, 2.0)]
        curves = level_curve_loops(rect.vertices, weights, levels)
        assert [lvl for lvl, _ in curves] == levels
        for level, loops in curves:
            assert len(loops) == 1 and loops[0][0] == loops[0][-1]
            for x, y in loops[0]:
                f = weighted_distance_sum(rect.vertices, weights, Point(x, y))
                assert abs(f - level) <= 1e-12 * level

    def test_levels_at_or_below_the_minimum_have_no_loop(self, wq_ex2):
        base = locate_4wft(wq_ex2).objective
        curves = level_curve_loops(wq_ex2.quad.vertices, wq_ex2.weights, [base - 1.0, base])
        assert [loops for _, loops in curves] == [[], []]

    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_below_one_raises(self, wq_ex2, grid):
        with pytest.raises(QuadFTError, match="grid must be at least 1"):
            level_curve_loops(wq_ex2.quad.vertices, wq_ex2.weights, [30.0], grid=grid)

    @pytest.mark.parametrize("weights, match", [
        ((0.0, 0.0, 0.0, 0.0), "weights must be positive and finite"),
        ((1.0, -1.0, 1.0, 1.0), "weights must be positive and finite"),
        ((1.0, math.nan, 1.0, 1.0), "weights must be positive and finite"),
        ((1.0, 1.0, 1.0), "need one weight per point, got 3 weights for 4 points"),
        ((1.0, 1.0, 1.0, 1.0, 1.0), "need one weight per point, got 5 weights for 4 points"),
    ])
    def test_bad_weights_raise(self, rect, weights, match):
        with pytest.raises(QuadFTError, match=match):
            level_curve_loops(rect.vertices, weights, [30.0])

    @pytest.mark.parametrize("level", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_raises(self, rect, level):
        with pytest.raises(QuadFTError, match="levels must be finite"):
            level_curve_loops(rect.vertices, (3.0, 2.5, 1.7, 1.5), [30.0, level])

    def test_non_integer_grid_raises(self, wq_ex2):
        with pytest.raises(QuadFTError, match="grid must be an integer, got 2.5"):
            level_curve_loops(wq_ex2.quad.vertices, wq_ex2.weights, [30.0], grid=2.5)
        base = locate_4wft(wq_ex2).objective
        ints = level_curve_loops(wq_ex2.quad.vertices, wq_ex2.weights, [base + 1.0], grid=8)
        numpy = level_curve_loops(wq_ex2.quad.vertices, wq_ex2.weights, [base + 1.0],
                                  grid=np.int64(8))
        assert numpy == ints

    def test_bool_grid_raises(self, wq_ex2):
        with pytest.raises(QuadFTError, match="grid must be an integer, got True"):
            level_curve_loops(wq_ex2.quad.vertices, wq_ex2.weights, [30.0], grid=True)

    def test_gauss_level_below_the_first_node(self, ex4_doc, tmp_path, capsys):
        # f(A0) of the Gauss tree exceeds the minimum of f by about 0.48, so
        # this level lies between them: one closed loop about the minimizer
        svg = tmp_path / "g.svg"
        assert main(["plot", "--input", str(ex4_doc), "--svg", str(svg),
                     "--levels=-0.3"]) == 0
        capsys.readouterr()
        curves = [ln for ln in svg.read_text().splitlines()
                  if ln.startswith("<polygon") and "#7c3aed" in ln]
        assert len(curves) == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(*argv, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True, timeout=60)


def test_runtime_imports_neither_numpy_nor_scipy():
    # the library and the CLI run on the standard library alone: every
    # submodule imported and every export resolved, as the exports are lazy
    code = (
        "import importlib, pkgutil, sys, quadft\n"
        "for m in pkgutil.iter_modules(quadft.__path__, 'quadft.'):\n"
        "    importlib.import_module(m.name)\n"
        "for name in quadft.__all__:\n"
        "    getattr(quadft, name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('quadft.')))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    loaded, heavy = _fresh("-c", code).stdout.splitlines()
    assert loaded == repr(sorted(f"quadft.{p.stem}" for p in (SRC / "quadft").glob("*.py")
                                 if p.stem != "__init__"))
    assert heavy == "[]"


def _imported(*argv, cwd=None) -> set[str]:
    """The modules a fresh interpreter run with `argv` imports, by name."""
    err = _fresh("-X", "importtime", *argv, cwd=cwd).stderr
    return {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
            if line.startswith("import time:")}


@functools.cache
def _bare_imports() -> set[str]:
    return _imported("-c", "pass")


class TestLazyImports:
    """`import quadft` loads no solver module, and a `quadft` process loads
    only the modules its subcommand runs."""

    FRONT = {"quadft", "quadft.errors", "quadft.documents", "quadft.geometry"}
    TREE = {"quadft.fermat"}
    LINE = TREE | {"quadft.plasticity"}
    ALL_BUT_SVG = LINE | {"quadft.gauss", "quadft.universal"}
    SVG = {"quadft.svgplot"}

    def test_import_quadft_loads_no_submodule(self):
        out = _fresh("-c", "import sys, quadft; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'quadft'))").stdout
        assert out.strip() == "['quadft']"

    @pytest.mark.parametrize("argv, modules", [
        (["wft-triangle", "--input", "tri.doc"], TREE),
        (["wft-quad", "--input", "rect.doc"], TREE),
        (["wft-quad", "--input", "rect.doc", "--svg", "out.svg"], TREE | SVG),
        (["gauss", "--input", "rect.doc", "--xg", "3.62"], TREE | {"quadft.gauss"}),
        (["plasticity", "--input", "rect.doc"], LINE),
        (["universal", "--input", "rect.doc", "--grid", "5"], ALL_BUT_SVG),
        (["universal", "--input", "rect.doc", "--grid", "5", "--svg", "out.svg"],
         ALL_BUT_SVG | SVG),
        (["evolve", "--input", "rect.doc", "--storage", "3.82", "--spend", "0.2"], ALL_BUT_SVG),
        (["plot", "--input", "rect.doc", "--svg", "out.svg", "--levels", "1"], TREE | SVG),
        (["plot", "--input", "rect.doc", "--svg", "out.svg", "--xg", "3.62"],
         TREE | {"quadft.gauss"} | SVG),
    ], ids=["wft-triangle", "wft-quad", "wft-quad-svg", "gauss", "plasticity", "universal",
            "universal-svg", "evolve", "plot", "plot-gauss"])
    def test_a_subcommand_loads_its_own_modules(self, tmp_path, argv, modules):
        (tmp_path / "rect.doc").write_text(EX2_DOC)
        (tmp_path / "tri.doc").write_text(TRI_DOC)
        names = _imported("-m", "quadft.cli", *argv, cwd=tmp_path)
        assert {n for n in names if n.split(".")[0] == "quadft"} == self.FRONT | modules
        # class generation and its inspect import, and datetime, cost about
        # 20 ms a process; a bare interpreter may load them through site
        assert not {"dataclasses", "inspect", "datetime"} & (names - _bare_imports())

    def test_every_export_is_its_module_attribute(self):
        import importlib

        import quadft

        assert len(quadft.__all__) == 42 and set(quadft.__all__) <= set(dir(quadft))
        for name in quadft.__all__:
            value = getattr(quadft, name)
            assert getattr(importlib.import_module(value.__module__), name) is value, name
            assert vars(quadft)[name] is value, name
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            quadft.no_such_name


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and the float max too
_SHAPES = (
    [(0.0, 0.0), (6.0, 0.0), (2.0, 5.0)],
    [(0.0, 0.0), (7.0, 0.0), (7.0, 4.0), (0.0, 4.0)],
    [(1.6603510129518928, 0.3836727595803164), (1.8040383832611195, 1.6451933383977264),
     (1.1669663925965816, 2.6394669419758947), (1.1613889177561427, -3.338153338054645)],
    [(0.0, 0.0), (3.0, 0.0), (4.0, 2.0), (1.0, 3.0), (-1.0, 1.0)],
)


@st.composite
def _runs(draw):
    """A subcommand, its flags and a problem document of finite floats.

    The vertices are 3-5 pairs of any floats, or, mostly, a convex shape
    scaled by a power of two and moved; the weights any floats, or, mostly,
    positive ones scaled by a power of two; x_G, B4, storage, spend and the
    levels any floats, or, mostly, multiples of the weight scale, so that
    some runs solve.  Every option and flag is present or not."""
    def rarely():
        return draw(st.sampled_from((False,) * 5 + (True,)))

    def power_of_two():  # times 0.5..10 stays positive and finite
        return math.ldexp(1.0, draw(st.integers(-1073, 1020) if rarely()
                                    else st.integers(-40, 40)))

    def number(unit, top=10.0):
        return draw(_FINITE) if rarely() else unit * draw(st.floats(0.0, top))

    def grid():
        return draw(st.integers(-1, 0) if rarely() else st.integers(1, 65))

    command = draw(st.sampled_from(sorted(_COMMANDS)))
    if rarely():
        vertices = draw(st.lists(st.tuples(_FINITE, _FINITE), min_size=3, max_size=5))
    else:
        shape = draw(st.sampled_from(_SHAPES) if rarely()
                     else st.just(_SHAPES[0]) if command == "wft-triangle"
                     else st.sampled_from(_SHAPES[1:3]))
        scale = power_of_two()
        dx, dy = draw(st.tuples(_FINITE, _FINITE) if rarely()
                      else st.tuples(*[st.floats(-10.0, 10.0)] * 2))
        vertices = [(scale * x + dx, scale * y + dy) for x, y in shape]
        assume(all(map(math.isfinite, (c for v in vertices for c in v))))
    count = draw(st.integers(3, 5)) if rarely() else len(vertices)
    unit = power_of_two()
    if rarely():
        weights = draw(st.lists(_FINITE, min_size=count, max_size=count))
    else:
        weights = [unit * w for w in draw(st.lists(st.floats(0.5, 4.0), min_size=count,
                                                   max_size=count))]
    doc = {"vertices": [list(v) for v in vertices], "weights": weights}
    if draw(st.booleans()) or command == "gauss" and not rarely():
        doc["xg"] = number(unit)
    options = {}
    for key, value in (("grid", grid), ("normalize_weights", lambda: draw(st.booleans())),
                       ("b4", lambda: number(unit)), ("storage", lambda: number(unit)),
                       ("spend", lambda: number(unit, 1.0)),
                       ("levels", lambda: [number(unit) for _ in range(draw(st.integers(1, 3)))])):
        if draw(st.booleans()) or key in ("storage", "spend") and not rarely():
            options[key] = value()
    doc["options"] = options
    flags = []
    for flag in _COMMANDS[command][2]:
        if flag != "--svg" and draw(st.booleans()):
            if flag == "--levels":
                text = ",".join(repr(number(unit)) for _ in range(draw(st.integers(1, 3))))
            else:
                text = repr(grid() if flag == "--grid"
                            else number(unit, 1.0) if flag == "--spend" else number(unit))
            flags.append(f"{flag}={text}")
    if draw(st.booleans()):
        flags.append("--normalize-weights")
    svg = "--svg" in _COMMANDS[command][2] and (command == "plot" or draw(st.booleans()))
    return command, flags, doc, svg, draw(st.booleans())


class TestRobustness:
    """Every document of finite floats ends in exit 0, 2 or 3, and an error
    exit says why on stderr: no traceback escapes `main`."""

    @given(run=_runs())
    @settings(max_examples=150, deadline=None)
    def test_every_document_exits_cleanly(self, tmp_path_factory, run):
        command, flags, doc, svg, records = run
        out = tmp_path_factory.getbasetemp()
        argv = [command, "--input", "-", *flags]
        if svg:
            argv.append(f"--svg={out / 'fuzz.svg'}")
        if records:
            argv.append(f"--records={out / 'fuzz.jsonl'}")
        stderr = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3)
        if code:
            assert stderr.getvalue().startswith("error: ")
