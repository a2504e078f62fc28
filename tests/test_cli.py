import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftcert
from shiftcert import cli
from shiftcert.certificate import to_json
from shiftcert.errors import ZeroMomentError
from shiftcert.cli import (
    CHECK1D_K_MAX,
    CHECK1D_N_MAX,
    CHECK1D_ORDER_MAX,
    DEPTH_MAX,
    FIT_ATOMS_MAX,
    FIT_ROWS_MAX,
    MOMENTS_N_MAX,
    SWEEP_K_MAX,
    SWEEP_N_MAX,
    SWEEP_ROWS_MAX,
    WINDOW_SIDE_MAX,
    WINDOW_WORK_MAX,
    build_parser,
    main,
)
from oracles import cli_main_reference, mu_m_cap_n, xi_a
from shiftcert.measures import AtomicMeasure1D, moment1, restrict_density
from shiftcert.shift2d import WeightDiagram


def dump_measure(mu, path) -> None:
    Path(path).write_text(json.dumps(mu.as_dict()))


def two_atom_csv(rows: int) -> str:
    """The moments (1/2^n + 1) / 2 of 1/2 d(1/2) + 1/2 d(1) as a CSV of ``rows`` rows:
    a fit finds them at order 2 whatever --max-atoms allows."""
    return "n,gamma_n\n" + "\n".join(f"{n},{(F(1, 2**n) + 1) / 2}" for n in range(rows))


@pytest.fixture()
def xi_a_file(tmp_path):
    path = tmp_path / "xi_a.json"
    dump_measure(xi_a(), path)
    return str(path)


@pytest.fixture()
def weights_file(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(
        json.dumps({"kind": "measure", "measure": xi_a().as_dict()})
    )
    return str(path)


@pytest.fixture()
def bad_weights_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "kind": "prefix",
                "squared_weights": ["2", "1/2"],
                "tail": "repeat_last",
                "norm_bound_sq": "2",
            }
        )
    )
    return str(path)


class TestMoments:
    def test_csv_output(self, xi_a_file, capsys):
        assert main(["moments", xi_a_file, "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,gamma_n"
        assert lines[1] == "0,1"
        assert lines[2] == "1,1/11"
        assert lines[4] == "3,1/32"

    def test_json_output(self, xi_a_file, capsys):
        assert main(["moments", xi_a_file, "--format", "json", "--n-max", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[2] == {"n": 2, "gamma": "1/22"}

    def test_out_file(self, xi_a_file, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["moments", xi_a_file, "--out", str(out)]) == 0
        assert out.read_text().startswith("n,gamma_n")

    def test_planar_measure_rejected(self, tmp_path, capsys):
        path = tmp_path / "mu.json"
        dump_measure(mu_m_cap_n(), path)
        assert main(["moments", str(path)]) == 2

    def test_missing_file(self):
        assert main(["moments", "/nonexistent.json"]) == 2


class TestFit:
    def test_round_trip(self, xi_a_file, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        assert main(["moments", xi_a_file, "--n-max", "8", "--out", str(csv)]) == 0
        assert main(["fit", str(csv), "--max-atoms", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == xi_a().as_dict()

    def test_too_few_moments_is_usage_error(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("n,gamma_n\n0,1\n1,1/2\n")
        assert main(["fit", str(csv), "--max-atoms", "2"]) == 2

    def test_unfittable_moments_is_math_failure(self, tmp_path, capsys):
        csv = tmp_path / "fib.csv"
        csv.write_text("0,1\n1,1\n2,2\n3,3\n4,5\n")
        assert main(["fit", str(csv), "--max-atoms", "2"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["error"] == "NoRationalAtomsError"

    def test_sixteen_atoms_fit_at_the_atom_cap(self, tmp_path, capsys):
        # the uniform measure on j/17, 1 <= j <= 16: its recurrence has
        # coefficients far past what a divisor search over them can take
        mu = AtomicMeasure1D([(F(j, 17), F(1, 16)) for j in range(1, 17)])
        csv = tmp_path / "m.csv"
        csv.write_text("n,gamma_n\n" + "\n".join(f"{n},{moment1(mu, n)}" for n in range(33)))
        assert main(["fit", str(csv), "--max-atoms", "16"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == mu.as_dict() and captured.err == ""

    def test_non_contiguous_indices_rejected(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("0,1\n2,1/2\n3,1/4\n")
        assert main(["fit", str(csv), "--max-atoms", "1"]) == 2

    @pytest.mark.parametrize(
        "row", ["\u0663,1/8", "0_3,1/8", "+3,1/8", "3,1/8,1"], ids=["arabic-indic", "underscore", "signed", "three-fields"]
    )
    def test_a_bad_row_is_named(self, row, tmp_path, capsys):
        # int() alone would read the first three indices as 3
        csv = tmp_path / "m.csv"
        csv.write_text(f"n,gamma_n\n0,1\n1,1/2\n2,1/4\n{row}\n")
        assert main(["fit", str(csv), "--max-atoms", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load moments: line 5 must be n,gamma_n with n in digits 0-9, got {row!r}\n"
        )

    @pytest.mark.parametrize(
        "first", ["+0,1", "\u0660,1", "#n,gamma_n", ",gamma_n"], ids=["signed", "arabic-indic", "hash", "empty"]
    )
    def test_a_first_row_is_a_header_only_if_it_starts_with_a_letter(self, first, tmp_path, capsys):
        # any other first row must parse, so a bad one is named, not dropped
        csv = tmp_path / "m.csv"
        csv.write_text(f"{first}\n0,1\n1,1/2\n2,1/3\n")
        assert main(["fit", str(csv), "--max-atoms", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load moments: line 1 must be n,gamma_n with n in digits 0-9, got {first!r}\n"
        )

    @pytest.mark.parametrize("header", ["n,gamma_n", "index,value", "N"])
    def test_a_first_row_starting_with_a_letter_is_a_header(self, header, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        csv.write_text(f"{header}\n" + "\n".join(f"{n},{F(1, 2**n)}" for n in range(3)))
        assert main(["fit", str(csv), "--max-atoms", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"dim": 1, "atoms": [{"point": "1/2", "mass": "1"}]}


class TestIntegerFlags:
    """Every integer flag is read as ``-?[0-9]+`` in ASCII; int() alone would
    also take other scripts' digits, "_" between digits and spaces."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check2d", "--x", "1/5", "--window", "\uff13x\uff13"],
            ["check2d", "--x", "1/5", "--window", "3x3", "--restrict", "1_0,0"],
            ["check2d", "--x", "1/5", "--window", "3x3", "--restrict", "1, 0"],
            ["moments", "{measure}", "--n-max", "\uff13"],
            ["moments", "{measure}", "--n-max", "+3"],
            ["fit", "{csv}", "--max-atoms", "\u0661"],
            ["check1d", "{weights}", "--order", "1_0"],
            ["check1d", "{weights}", "--n-max", " 4"],
            ["check1d", "{weights}", "--k-max", "2.0"],
            ["sweep", "--x-min", "1/5", "--x-max", "1/5", "--x-step", "1", "--n-max", "\u0662"],
            ["sweep", "--x-min", "1/5", "--x-max", "1/5", "--x-step", "1", "--k-max", "1_1"],
        ],
        ids=[
            "window-fullwidth", "restrict-underscore", "restrict-space", "moments-fullwidth", "moments-plus",
            "fit-arabic-indic", "check1d-order", "check1d-n-max", "check1d-k-max", "sweep-n-max", "sweep-k-max",
        ],
    )
    def test_non_ascii_integers_are_usage_errors(self, argv, xi_a_file, weights_file, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text(two_atom_csv(9))
        paths = {"measure": xi_a_file, "weights": weights_file, "csv": str(csv)}
        assert _run_contract([arg.format(**paths) for arg in argv]) == (2, None)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["moments", "{measure}", "--n-max", "-1"], "need --n-max >= 0"),
            (["check2d", "--x", "1/5", "--window=-1x2"], "window sides must be >= 1"),
            (["check2d", "--x", "1/5", "--restrict=-1,0"], "base point must be >= 0"),
            (["sweep", "--x-min", "1/5", "--x-max", "1", "--x-step", "1", "--k-max", "-1"],
             "need --n-max >= 1 and --k-max >= 0"),
        ],
    )
    def test_negative_values_reach_the_range_checks(self, argv, message, xi_a_file, capsys):
        assert main([arg.format(measure=xi_a_file) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCheck1D:
    def test_measure_weights_pass(self, weights_file, capsys):
        assert main(["check1d", weights_file, "--order", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(c["verdict"] == "pass" for c in data["checks"])

    def test_bad_weights_fail(self, bad_weights_file, capsys):
        assert main(["check1d", bad_weights_file, "--order", "2"]) == 1
        data = json.loads(capsys.readouterr().out)
        names = {c["check"]: c["verdict"] for c in data["checks"]}
        assert names["subnormal_necessary"] == "fail"
        assert names["agler_sums_1d"] == "fail"

    def test_backward_extension_flags(self, weights_file, tmp_path, capsys):
        level1 = tmp_path / "level1.json"
        dump_measure(restrict_density(xi_a(), 1), level1)
        code = main(
            [
                "check1d",
                weights_file,
                "--backext-alpha0",
                "1/11",
                "--backext-measure",
                str(level1),
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert any(c["check"] == "backward_extension_1d" for c in data["checks"])

    def test_backext_flags_must_pair(self, weights_file):
        assert main(["check1d", weights_file, "--backext-alpha0", "1/11"]) == 2

    def test_unknown_weight_kind(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "spectral"}))
        assert main(["check1d", str(path)]) == 2


class TestCheck2D:
    def test_family_commutes(self, capsys):
        assert main(["check2d", "--x", "1/5", "--window", "6x6"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["checks"][0]["check"] == "commutativity_check"

    def test_restricted_berger(self, tmp_path, capsys):
        mu = tmp_path / "mu.json"
        dump_measure(mu_m_cap_n(), mu)
        code = main(
            ["check2d", "--x", "1/5", "--restrict", "1,1", "--berger", str(mu), "--window", "5x5"]
        )
        assert code == 0

    def test_wrong_berger_fails(self, xi_a_file, tmp_path, capsys):
        mu = tmp_path / "mu.json"
        dump_measure(mu_m_cap_n(), mu)
        assert main(["check2d", "--x", "1/5", "--berger", str(mu)]) == 1

    def test_path_and_hyponormality(self, capsys):
        # the commutativity check is the exact path-independence test below each window point
        code = main(["check2d", "--x", "1/5", "--window", "4x4", "--hyponormal"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["check"] for c in data["checks"]] == ["commutativity_check", "joint_hyponormality_window"]

    def test_hyponormality_fails_at_one_half(self, capsys):
        assert main(["check2d", "--x", "1/2", "--window", "3x3", "--hyponormal"]) == 1

    def test_dump_writes_weights(self, tmp_path, capsys):
        out = tmp_path / "diagram.csv"
        code = main(["check2d", "--x", "1/5", "--window", "3x3", "--dump", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k1,k2,alpha_sq,beta_sq"
        assert lines[1] == "0,0,1/11,1/5"
        assert len(lines) == 10

    def test_check2d_reads_no_weight_point_by_point(self, tmp_path, capsys, monkeypatch):
        # every check2d weight, --dump included, goes through the window reader
        def refuse(self, k1, k2):
            raise AssertionError(f"a point read at {(k1, k2)}")

        monkeypatch.setattr(WeightDiagram, "alpha_sq", refuse)
        monkeypatch.setattr(WeightDiagram, "beta_sq", refuse)
        mu = tmp_path / "mu.json"
        dump_measure(mu_m_cap_n(), mu)
        out = tmp_path / "diagram.csv"
        argv = ["check2d", "--x", "1/5", "--restrict", "1,1", "--window", "5x4", "--berger", str(mu)]
        assert main(argv + ["--hyponormal", "--dump", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 5 * 4

    @staticmethod
    def counted_family(monkeypatch, calls, bad=None):
        """Wrap the family rule: record each call, and at the point ``bad[1]``
        give -1/2 for ``bad[0]`` ("alpha" or "beta")."""
        family = cli.lubin.family_diagram

        def diagram(x):
            rule = family(x)._rule

            def counted(k1, k2):
                calls.append((k1, k2))
                alpha, beta = rule(k1, k2)
                if bad is not None and bad[1] == (k1, k2):
                    return (F(-1, 2), beta) if bad[0] == "alpha" else (alpha, F(-1, 2))
                return alpha, beta

            return WeightDiagram(counted)

        monkeypatch.setattr(cli.lubin, "family_diagram", diagram)

    def test_check2d_reads_its_window_once(self, tmp_path, capsys, monkeypatch):
        # commutativity's 33 x 33 read serves hyponormality and the dump: 1,089 rule
        # calls, each point once, where a read per check made 3,137
        calls = []
        self.counted_family(monkeypatch, calls)
        out = tmp_path / "diagram.csv"
        argv = ["check2d", "--x", "1/10", "--window", "32x32", "--hyponormal", "--dump", str(out)]
        assert main(argv) == 0
        assert len(calls) == 33 * 33 == 1089
        assert sorted(calls) == sorted({(k1, k2) for k1 in range(33) for k2 in range(33)})
        assert len(out.read_text().splitlines()) == 1 + 32 * 32

    @pytest.mark.parametrize(
        "which, point", [("alpha", (32, 32)), ("beta", (31, 32)), ("alpha", (0, 32)), ("beta", (5, 7))]
    )
    def test_a_bad_weight_in_the_one_read_is_named(self, which, point, tmp_path, capsys, monkeypatch):
        # every point of the (w+1) x (h+1) rectangle is read and checked, inside the
        # checks' w x h window or not
        self.counted_family(monkeypatch, [], bad=(which, point))
        mu = tmp_path / "mu.json"
        dump_measure(mu_m_cap_n(), mu)
        argv = ["check2d", "--x", "1/10", "--window", "32x32", "--hyponormal", "--berger", str(mu)]
        assert main(argv + ["--dump", str(tmp_path / "diagram.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: {which}^2 at {point} must be positive, got -1/2\n")

    def test_check2d_reads_the_family_by_index_runs(self, tmp_path, monkeypatch):
        # the family's own 33 x 33 read makes no point-rule call and looks each index up
        # once: row 0 by k1, column 0 by k2 and the interior by k1 + k2
        calls = {name: [] for name in ("rule", "_row_weights", "_column_weights", "_interior_weights")}

        def counted(name, original):
            def count(*args):
                calls[name].append(args[1:] if name == "rule" else args)
                return original(*args)

            return count

        rule = cli.lubin._FamilyRule
        monkeypatch.setattr(rule, "__call__", counted("rule", rule.__call__))
        for name in ("_row_weights", "_column_weights", "_interior_weights"):
            monkeypatch.setattr(cli.lubin, name, counted(name, getattr(cli.lubin, name)))
        out = tmp_path / "diagram.csv"
        argv = ["check2d", "--x", "1/10", "--window", "32x32", "--hyponormal", "--dump", str(out)]
        assert main(argv) == 0
        assert calls == {
            "rule": [],
            "_row_weights": [(k1,) for k1 in range(33)],
            "_column_weights": [(k2,) for k2 in range(1, 33)],
            "_interior_weights": [(n,) for n in range(2, 65)],
        }
        assert len(out.read_text().splitlines()) == 1 + 32 * 32

    def test_bad_window(self):
        assert main(["check2d", "--x", "1/5", "--window", "six"]) == 2

    def test_bad_parameter(self):
        assert main(["check2d", "--x", "0.2"]) == 2

    def test_empty_window_is_a_usage_error(self, capsys):
        assert main(["check2d", "--x", "1/5", "--window", "0x3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nonpositive_parameter_is_a_usage_error(self, capsys):
        assert main(["check2d", "--x", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_one_variable_berger_measure_is_a_usage_error(self, xi_a_file, capsys):
        assert main(["check2d", "--x", "1/5", "--berger", xi_a_file]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "atoms, message",
        [
            ([[["1/2", "-1"], "1"]], "atom location must be in the quarter-plane, got 1/2,-1"),
            ([[["1/2", "1"], "0"]], "atom mass must be positive, got 0 at 1/2,1"),
            ([[["1/2", "1"], "1/2"], [["2/4", "1"], "1/2"]], "duplicate atom location 1/2,1"),
            ([["1/2", "1"]], "a planar atom point must be a pair of rationals"),
        ],
        ids=["location", "zero-mass", "duplicate", "point-not-pair"],
    )
    def test_bad_planar_atom_is_named_by_its_coordinates(self, tmp_path, capsys, atoms, message):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"dim": 2, "atoms": [{"point": p, "mass": m} for p, m in atoms]}))
        assert main(["check2d", "--x", "1/10", "--berger", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot load measure: {message}\n"

    def test_negative_path_point_is_a_usage_error(self, capsys):
        # --path is gone, for any point: --window with --restrict decides path independence exactly
        for argv in (["--path=-1,2"], ["--path", "1,1"]):
            with pytest.raises(SystemExit) as info:
                main(["check2d", "--x", "1/5", *argv])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert "error: unrecognized arguments: --path" in err and "Traceback" not in err

    @pytest.mark.parametrize("point", ["700,700", "1999,1"])
    def test_deep_path_point_is_decided(self, point, capsys):
        # every path from the base point to ``point`` agrees iff the 1x1 window commutes
        k1, k2 = map(int, point.split(","))
        argv = ["check2d", "--x", "1/5", "--window", "1x1", "--restrict", f"{k1 - 1},{k2 - 1}"]
        assert main(argv) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["check"], c["verdict"]) for c in checks] == [("commutativity_check", "pass")]

    def test_path_past_the_depth_cap_is_a_usage_error(self, capsys):
        argv = ["check2d", "--x", "1/5", "--window", "1x1", "--restrict", f"{DEPTH_MAX - 1},0"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --restrict k1 + k2 plus the window sides")

    def test_window_past_the_side_cap_is_a_usage_error(self, capsys):
        side = WINDOW_SIDE_MAX + 1
        for window in (f"{side}x1", f"1x{side}"):
            assert main(["check2d", "--x", "1/10", "--window", window, "--hyponormal"]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_window_at_the_side_cap_is_decided(self, capsys):
        for window in (f"{WINDOW_SIDE_MAX}x2", f"2x{WINDOW_SIDE_MAX}"):
            assert main(["check2d", "--x", "1/10", "--window", window, "--hyponormal"]) == 0
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert [c["verdict"] for c in checks] == ["pass", "pass"]

    def test_hyponormality_witness_names_the_failing_point(self, capsys):
        assert main(["check2d", "--x", "1/5", "--window", "8x8", "--hyponormal"]) == 1
        checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        witness = checks["joint_hyponormality_window"]["witness"]
        assert witness["k"] == [6, 0]
        assert {"a", "d", "P", "Q"} <= set(witness)


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Well-formed and malformed inputs for the contract fuzzers, by name."""
    root = tmp_path_factory.mktemp("inputs")
    files = {
        "missing": str(root / "missing.json"),
        "out": str(root / "out.txt"),
        "out-no-dir": str(root / "no-dir" / "out.txt"),
    }
    line = xi_a().as_dict()
    contents = {
        "cap": json.dumps(mu_m_cap_n().as_dict()),
        "line": json.dumps(line),
        "empty": json.dumps({"dim": 2, "atoms": []}),
        "empty-line": json.dumps({"dim": 1, "atoms": []}),
        "array": "[1, 2]",
        "broken": "{",
        "deep": "[" * 100_000,
        "atom-numbers": json.dumps({"dim": 2, "atoms": [1]}),
        "atom-no-mass": json.dumps({"dim": 1, "atoms": [{"point": "1/2"}]}),
        "w-measure": json.dumps({"kind": "measure", "measure": line}),
        "w-half": json.dumps({"kind": "prefix", "squared_weights": ["1/2"]}),
        "w-bad": json.dumps({"kind": "prefix", "squared_weights": ["2", "1/2"], "norm_bound_sq": "2"}),
        "w-planar": json.dumps({"kind": "measure", "measure": mu_m_cap_n().as_dict()}),
        "w-no-measure": json.dumps({"kind": "measure"}),
        "w-no-weights": json.dumps({"kind": "prefix"}),
        "w-not-list": json.dumps({"kind": "prefix", "squared_weights": 5}),
        "w-zero": json.dumps({"kind": "prefix", "squared_weights": ["1", "0"]}),
        "w-above-bound": json.dumps({"kind": "prefix", "squared_weights": ["2"], "norm_bound_sq": "1"}),
        "w-kind": json.dumps({"kind": "spectral"}),
        "csv": "n,gamma_n\n" + "\n".join(f"{n},{moment1(xi_a(), n)}" for n in range(12)),
        "csv-fib": "0,1\n1,1\n2,2\n3,3\n4,5\n",
        "csv-short": "0,1\n1,1/2\n",
        "csv-repeated": "0,1\n0,1\n1,1/2\n2,1/4\n",
        "csv-gap": "0,1\n2,1/2\n3,1/4\n",
        "csv-three-columns": "0,1,2\n",
        "csv-decimal": "0,1\n1,0.5\n",
        "csv-header-only": "n,gamma_n\n",
        "csv-rows-at-cap": two_atom_csv(FIT_ROWS_MAX),
        "csv-rows-past-cap": two_atom_csv(FIT_ROWS_MAX + 1),
    }
    for name, text in contents.items():
        path = root / f"{name}.json"
        path.write_text(text)
        files[name] = str(path)
    path = root / "not-utf8.json"
    path.write_bytes(b"\xff\xfe{")
    files["not-utf8"] = str(path)
    return files


def _run_contract(argv, out_path=None):
    """Run ``main(argv)``, writing to ``out_path`` when given, and check the
    contract every command keeps: the exit code is 0, 1 or 2, no traceback is
    printed, and exit 2 prints ``error: ``.  Return the exit code and the
    command's output (None on exit 2)."""
    if out_path is not None:
        Path(out_path).unlink(missing_ok=True)
        argv = argv + [f"--out={out_path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue() + out.getvalue(), argv
    if code == 2:
        assert "error: " in err.getvalue(), argv
        return code, None
    return code, Path(out_path).read_text() if out_path else out.getvalue()


def _mostly(valid, invalid):
    """Draw from ``invalid`` one time in eight, so most command lines reach a verdict."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 0 else valid)


def _points(bound: int):
    return st.tuples(st.integers(0, bound), st.integers(0, bound)).map(lambda p: f"{p[0]},{p[1]}")


def _flag(low: int, high: int, cap: int):
    """Mostly a small legal value, sometimes the cap itself, else just past either bound."""
    return _mostly(_mostly(st.integers(low, high), st.just(cap)), st.sampled_from([low - 1, cap + 1]))


def _argv(command: list[str], options: dict, files: dict) -> list[str]:
    argv = list(command)
    for flag, value in options.items():
        if value is None:
            continue
        if flag.startswith("-"):
            if value is True:
                argv.append(flag)
            elif value is not False:
                value = files.get(value, value) if isinstance(value, str) else value
                argv.append(f"{flag}={value}")  # "=" keeps values like -1,0 off the option parser
        else:
            argv.append(files[value])
    return argv


_X = _mostly(
    st.one_of(
        st.sampled_from(["1/5", "2/11", "8/33", "1/2", "3"]),
        st.fractions(min_value=F(1, 100), max_value=F(3), max_denominator=10**6).map(str),
    ),
    st.sampled_from(["0", "-1/3", "0.2", "1/0", "abc", ""]),
)
_BAD_JSON = ["array", "broken", "deep", "missing", "not-utf8"]
_OUT = st.sampled_from([None, None, "out", "out-no-dir"])

check2d_argv = st.fixed_dictionaries(
    {
        "--x": _X,
        "--window": _mostly(
            st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda w: f"{w[0]}x{w[1]}"),
            st.sampled_from(["0x3", "-1x2", "six", "3x", "2x2x2", f"{WINDOW_SIDE_MAX + 1}x1"]),
        ),
        "--restrict": _mostly(_points(3), st.sampled_from(["-1,0", "1", "a,b", "1,2,3", "", f"{DEPTH_MAX},0"])),
        "--berger": st.one_of(
            st.none(),
            _mostly(
                st.just("cap"),
                st.sampled_from(["line", "empty", "atom-numbers", "atom-no-mass"] + _BAD_JSON),
            ),
        ),
        "--hyponormal": st.booleans(),
    }
)


class TestCheck2DFuzz:
    @given(options=check2d_argv)
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_follow_the_contract(self, input_files, options):
        code, output = _run_contract(_argv(["check2d"], options, input_files))
        if code != 2:
            checks = json.loads(output)["checks"]
            assert (code == 1) == any(c["verdict"] == "fail" for c in checks)
            for c in checks:
                assert c["witness"], c
            if code == 1:
                failed = next(c for c in checks if c["verdict"] == "fail")
                assert "k" in failed["witness"]


CHECK1D_CAPS = {"--order": CHECK1D_ORDER_MAX, "--n-max": CHECK1D_N_MAX, "--k-max": CHECK1D_K_MAX}


class TestContractFuzz:
    """The exit-code contract on every other subcommand: malformed files and
    flags on both sides of each cap exit 2, and exit 1 carries a witness."""

    @given(
        options=st.fixed_dictionaries(
            {
                "measure": _mostly(
                    st.just("line"), st.sampled_from(["cap", "empty-line", "atom-no-mass"] + _BAD_JSON)
                ),
                "--n-max": _flag(0, 12, MOMENTS_N_MAX),
                "--format": st.sampled_from(["csv", "json"]),
            }
        ),
        out=_OUT,
    )
    @settings(max_examples=60, deadline=None)
    def test_moments(self, input_files, options, out):
        code, output = _run_contract(_argv(["moments"], options, input_files), input_files.get(out))
        assert code != 1
        if code == 0:
            assert output.startswith("n,gamma_n" if options["--format"] == "csv" else "[")

    @given(
        options=st.fixed_dictionaries(
            {
                "moments": _mostly(
                    st.sampled_from(["csv", "csv-fib", "csv-rows-at-cap"]),
                    st.sampled_from(
                        ["csv-short", "csv-repeated", "csv-gap", "csv-three-columns", "csv-decimal",
                         "csv-header-only", "csv-rows-past-cap", "missing", "not-utf8"]
                    ),
                ),
                "--max-atoms": _mostly(
                    st.one_of(st.integers(1, 5), st.just(FIT_ATOMS_MAX)),
                    st.sampled_from([0, -1, FIT_ATOMS_MAX + 1, 100]),
                ),
            }
        ),
        out=_OUT,
    )
    @settings(max_examples=60, deadline=None)
    def test_fit(self, input_files, options, out):
        code, output = _run_contract(_argv(["fit"], options, input_files), input_files.get(out))
        if options["moments"] == "csv-rows-past-cap" or options["--max-atoms"] > FIT_ATOMS_MAX:
            assert code == 2
        if options["moments"] == "csv-rows-at-cap" and 2 <= options["--max-atoms"] <= FIT_ATOMS_MAX:
            assert code == (2 if out == "out-no-dir" else 0)
        if code == 1:
            assert set(json.loads(output)) == {"error", "message"}
        elif code == 0:
            assert json.loads(output)["dim"] == 1

    @given(
        options=st.fixed_dictionaries(
            {
                "weights": _mostly(
                    st.sampled_from(["w-measure", "w-half", "w-bad"]),
                    st.sampled_from(
                        ["w-planar", "w-no-measure", "w-no-weights", "w-not-list", "w-zero",
                         "w-above-bound", "w-kind"] + _BAD_JSON
                    ),
                ),
                "--order": _flag(0, 4, CHECK1D_ORDER_MAX),
                "--n-max": _flag(1, 4, CHECK1D_N_MAX),
                "--k-max": _flag(0, 4, CHECK1D_K_MAX),
                "--backext-alpha0": st.one_of(st.none(), st.sampled_from(["1/11", "1/2", "0", "-1/2", "x"])),
                "--backext-measure": st.one_of(
                    st.none(), _mostly(st.just("line"), st.sampled_from(["cap", "empty-line"] + _BAD_JSON))
                ),
            }
        ),
        out=_OUT,
    )
    @settings(max_examples=60, deadline=None)
    def test_check1d(self, input_files, options, out):
        # a cap is sized for seconds, not for a fuzz example: one at a time, on cheap weights
        at_cap = [f for f, cap in CHECK1D_CAPS.items() if options[f] == cap]
        if at_cap:
            options["weights"] = "w-half"
            for flag in at_cap[1:]:
                options[flag] = 1
        code, output = _run_contract(_argv(["check1d"], options, input_files), input_files.get(out))
        if code != 2:
            checks = json.loads(output)["checks"]
            assert (code == 1) == any(c["verdict"] == "fail" for c in checks)
            for c in checks:
                assert c["witness"], c

    @given(
        options=st.fixed_dictionaries(
            {
                "--x-min": _X,
                "--x-max": _X,
                "--x-step": _mostly(
                    st.fractions(min_value=F(1, 20), max_value=F(2), max_denominator=100).map(str),
                    st.sampled_from(["0", "-1", "1/100000000", "0.1"]),
                ),
                "--n-max": _flag(1, 3, SWEEP_N_MAX),
                "--k-max": _flag(0, 3, SWEEP_K_MAX),
            }
        ),
        out=_OUT,
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep(self, input_files, options, out):
        if options["--n-max"] == SWEEP_N_MAX and options["--k-max"] == SWEEP_K_MAX:
            options["--k-max"] = 0  # one corner of the caps at a time keeps the example small
        code, output = _run_contract(_argv(["sweep"], options, input_files), input_files.get(out))
        assert code != 1
        if code == 0:
            assert output.startswith("x,n,k,p_n")

    @given(x=_X, out=_OUT)
    @settings(max_examples=40, deadline=None)
    def test_lubin_certify(self, input_files, x, out):
        code, output = _run_contract(["lubin", "certify", f"--x={x}"], input_files.get(out))
        if code != 2:
            data = json.loads(output)
            assert (code == 1) == (not all(data["verdicts"].values()))
            witnesses = {
                "t1_subnormal": data["certificates"]["t1"]["witness"],
                "t2_subnormal": data["certificates"]["t2"]["witness"],
                "pair_subnormal": data["certificates"]["pair"]["witness"],
                "sum_subnormal_certified": data["sum_certificate"]["witness"],
            }
            for verdict, holds in data["verdicts"].items():
                assert holds or witnesses[verdict], verdict

    @pytest.mark.parametrize("out", [None, "out", "out-no-dir"])
    def test_epsilon(self, input_files, out):
        code, output = _run_contract(["epsilon"], input_files.get(out))
        assert code == (2 if out == "out-no-dir" else 0)
        if code == 0:
            assert json.loads(output)["strictly_positive"] is True


_SWEEP_ONE_X = ["sweep", "--x-min", "1/5", "--x-max", "1/5", "--x-step", "1"]
_PAST_CAPS = {
    "moments-n-max": (["moments", "{measure}", "--n-max", MOMENTS_N_MAX + 1], MOMENTS_N_MAX),
    "fit-max-atoms": (["fit", "{rows_at_cap}", "--max-atoms", FIT_ATOMS_MAX + 1], FIT_ATOMS_MAX),
    "fit-rows": (["fit", "{rows_past_cap}", "--max-atoms", 2], FIT_ROWS_MAX),
    "check1d-order": (["check1d", "{weights}", "--order", CHECK1D_ORDER_MAX + 1], CHECK1D_ORDER_MAX),
    "check1d-n-max": (["check1d", "{weights}", "--n-max", CHECK1D_N_MAX + 1], CHECK1D_N_MAX),
    "check1d-k-max": (["check1d", "{weights}", "--k-max", CHECK1D_K_MAX + 1], CHECK1D_K_MAX),
    "sweep-n-max": (_SWEEP_ONE_X + ["--n-max", SWEEP_N_MAX + 1], SWEEP_N_MAX),
    "sweep-k-max": (_SWEEP_ONE_X + ["--k-max", SWEEP_K_MAX + 1], SWEEP_K_MAX),
    "sweep-rows": (["sweep", "--x-min", "1/10", "--x-max", "1", "--x-step", "1/100000000"], SWEEP_ROWS_MAX),
    "check2d-restrict-depth": (
        ["check2d", "--x", "1/5", "--window", "1x2", "--restrict", f"{DEPTH_MAX - 2},0"],
        DEPTH_MAX,
    ),
    "check2d-window-work": (
        # the shallowest base point whose largest window passes the work cap
        ["check2d", "--x", "1/5", "--window", f"{WINDOW_SIDE_MAX}x{WINDOW_SIDE_MAX}", "--restrict",
         f"{math.isqrt(WINDOW_WORK_MAX // WINDOW_SIDE_MAX**2) + 1 - 2 * WINDOW_SIDE_MAX},0", "--hyponormal"],
        WINDOW_WORK_MAX,
    ),
}

_AT_CAPS = {
    "moments-n-max": ["moments", "{measure}", "--n-max", MOMENTS_N_MAX],
    "fit-max-atoms": ["fit", "{rows_at_cap}", "--max-atoms", FIT_ATOMS_MAX],
    "fit-rows": ["fit", "{rows_at_cap}", "--max-atoms", 2],
    "check1d-order": ["check1d", "{half}", "--order", CHECK1D_ORDER_MAX, "--n-max", 1, "--k-max", 0],
    "check1d-n-max": ["check1d", "{half}", "--order", 0, "--n-max", CHECK1D_N_MAX, "--k-max", 0],
    "check1d-k-max": ["check1d", "{half}", "--order", 0, "--n-max", 1, "--k-max", CHECK1D_K_MAX],
    "sweep-n-max": _SWEEP_ONE_X + ["--n-max", SWEEP_N_MAX, "--k-max", 0],
    "sweep-k-max": _SWEEP_ONE_X + ["--n-max", 1, "--k-max", SWEEP_K_MAX],
    "check2d-restrict-depth": ["check2d", "--x", "1/5", "--window", "1x2", "--restrict", f"{DEPTH_MAX - 3},0"],
}


class TestCaps:
    @pytest.fixture()
    def paths(self, xi_a_file, weights_file, tmp_path):
        half = tmp_path / "half.json"
        half.write_text(json.dumps({"kind": "prefix", "squared_weights": ["1/2"]}))
        rows = {}
        for name, count in (("rows_at_cap", FIT_ROWS_MAX), ("rows_past_cap", FIT_ROWS_MAX + 1)):
            rows[name] = tmp_path / f"{name}.csv"
            rows[name].write_text(two_atom_csv(count))
        return {"measure": xi_a_file, "weights": weights_file, "half": str(half), **rows}

    @pytest.mark.parametrize("case", sorted(_PAST_CAPS))
    def test_past_a_cap_is_a_usage_error(self, case, paths, capsys):
        argv, cap = _PAST_CAPS[case]
        assert main([str(a).format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"at most {cap}," in err

    @pytest.mark.parametrize("case", sorted(_AT_CAPS))
    def test_at_a_cap_is_decided(self, case, paths, capsys):
        assert main([str(a).format(**paths) for a in _AT_CAPS[case]]) == 0
        assert capsys.readouterr().err == ""


def certificate_objects(value):
    """Every JSON object with a "check" key inside ``value``."""
    if isinstance(value, dict):
        if "check" in value:
            yield value
        for item in value.values():
            yield from certificate_objects(item)
    elif isinstance(value, list):
        for item in value:
            yield from certificate_objects(item)


def assert_one_certificate_shape(payload) -> set:
    """Every certificate in ``payload`` is {check, verdict, witness}; returns the check names."""
    found = list(certificate_objects(payload))
    assert found
    for cert in found:
        assert set(cert) == {"check", "verdict", "witness"}, cert
        assert cert["verdict"] in ("pass", "fail"), cert
    return {cert["check"] for cert in found}


class TestOneCertificateShape:
    @pytest.mark.parametrize("x", ["1/6", "7/30", "1/2", "1"])
    def test_lubin_certify(self, x, capsys):
        # one x in each regime: all pass, only the pair fails, only T1 and the sum pass, only T1 passes
        main(["lubin", "certify", "--x", x])
        data = json.loads(capsys.readouterr().out)
        assert "is_pair_subnormal" in assert_one_certificate_shape(data)
        assert all(type(value) is bool for value in data["verdicts"].values())

    def test_check1d_backward_extension_through_an_atom_at_zero(self, weights_file, xi_a_file, capsys):
        code = main(["check1d", weights_file, "--backext-alpha0", "1/11", "--backext-measure", xi_a_file])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert "backward_extension_1d" in assert_one_certificate_shape(data)
        extension = data["checks"][-1]
        assert extension["verdict"] == "fail"
        assert extension["witness"]["reciprocal_norm"] == "infinite"


class TestNoCyclicGarbage:
    def test_each_subcommand_frees_what_it_builds_without_the_collector(
        self, xi_a_file, weights_file, bad_weights_file, tmp_path, capsys
    ):
        # reference counting alone must free what a call leaves behind; a
        # reference cycle (the pure-Python JSON encoder's closures made some on
        # every call) waits for the cyclic collector and inflates the heap
        moments_csv, fib_csv = tmp_path / "m.csv", tmp_path / "fib.csv"
        assert main(["moments", xi_a_file, "--n-max", "8", "--out", str(moments_csv)]) == 0
        fib_csv.write_text("0,1\n1,1\n2,2\n3,3\n4,5\n")
        calls = [
            (["moments", xi_a_file, "--format", "json"], 0),
            (["fit", str(moments_csv)], 0),
            (["fit", str(fib_csv), "--max-atoms", "2"], 1),
            (["check1d", weights_file, "--backext-alpha0", "1/11", "--backext-measure", xi_a_file], 1),
            (["check1d", bad_weights_file], 1),
            (["check2d", "--x", "1/5", "--window", "4x4", "--hyponormal"], 0),
            (["lubin", "certify", "--x", "1/5"], 1),
            (["sweep", "--x-min", "1/5", "--x-max", "1/5", "--x-step", "1"], 0),
            (["epsilon"], 0),
            (["moments", str(tmp_path / "missing.json")], 2),
            (["check2d", "--x", "0"], 2),
        ]
        for argv, code in calls:  # the first round fills the caches
            assert main(argv) == code, argv
        gc.collect()
        gc.disable()
        try:
            for argv, code in calls:
                assert main(argv) == code, argv
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()


class TestLubinCertify:
    def test_counterexample_at_one_fifth(self, capsys):
        code = main(["lubin", "certify", "--x", "1/5"])
        assert code == 1  # the pair check fails, by design
        data = json.loads(capsys.readouterr().out)
        assert data["verdicts"] == {
            "t1_subnormal": True,
            "t2_subnormal": True,
            "pair_subnormal": False,
            "sum_subnormal_certified": True,
        }
        assert data["counterexample"] is True
        assert F(data["sum_certificate"]["epsilon"]) > 0

    def test_all_green_at_the_joint_threshold(self, capsys):
        code = main(["lubin", "certify", "--x", "2/11"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(data["verdicts"].values())
        assert data["counterexample"] is False

    def test_nonpositive_parameter(self):
        assert main(["lubin", "certify", "--x", "0"]) == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "cert.json"
        main(["lubin", "certify", "--x", "1/5", "--out", str(out)])
        assert json.loads(out.read_text())["counterexample"] is True

    def test_a_mathematical_error_is_reported_where_the_output_goes(self, tmp_path, capsys, monkeypatch):
        # any command, not only fit: exit 1 with the error JSON on stdout or in --out
        def refuse(x):
            raise ZeroMomentError("gamma_0 vanished")

        monkeypatch.setattr(cli.lubin, "family_report", refuse)
        error = to_json({"error": "ZeroMomentError", "message": "gamma_0 vanished"})
        assert main(["lubin", "certify", "--x", "1/5"]) == 1
        assert capsys.readouterr() == (error + "\n", "")
        out = tmp_path / "error.json"
        assert main(["lubin", "certify", "--x", "1/5", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "")
        assert out.read_text() == error + "\n"


class TestSweep:
    def test_grid_values(self, capsys):
        code = main(
            ["sweep", "--x-min", "1/10", "--x-max", "1/5", "--x-step", "1/10", "--n-max", "1", "--k-max", "0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,n,k,p_n"
        assert lines[1].startswith("1/10,1,0,")
        assert lines[2].startswith("1/5,1,0,")
        assert len(lines) == 3

    def test_empty_range_gives_header_only(self, capsys):
        code = main(["sweep", "--x-min", "1/2", "--x-max", "1/4", "--x-step", "1/10"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "x,n,k,p_n"

    def test_bad_step(self, capsys):
        # a zero step or a zero start: exit 2 with the one usage line
        table = [
            (["--x-min", "1/10", "--x-step", "0"], "--x-step must be positive"),
            (["--x-min", "0", "--x-step", "1/10"], "--x-min must be positive"),
        ]
        for args, message in table:
            assert main(["sweep", "--x-max", "1/5", *args]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


class TestEpsilon:
    def test_reports_the_certified_gap(self, capsys):
        assert main(["epsilon"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strictly_positive"] is True
        assert data["pair_threshold"] == "2/11"
        assert data["n_tail"] == 101
        assert F(data["certified_x_max"]) > F(2, 11)


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check2d", "--x", "1/5", "--window", "3x3", "--out"],
            ["epsilon", "--out"],
            ["sweep", "--x-min", "1/5", "--x-max", "1/5", "--x-step", "1", "--out"],
            ["check2d", "--x", "1/5", "--window", "3x3", "--dump"],
        ],
        ids=["check2d-out", "epsilon-out", "sweep-out", "check2d-dump"],
    )
    def test_missing_directory_is_a_usage_error(self, argv, tmp_path, capsys):
        assert main(argv + [str(tmp_path / "missing" / "file")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["moments", "check1d"])
    def test_json_array_is_a_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, content",
        [
            ("moments", {"dim": 1, "atoms": [1]}),
            ("moments", {"dim": 1, "atoms": [{"point": 0, "mass": 1}]}),
            ("check1d", {"kind": "prefix", "squared_weights": 5}),
            ("check1d", {"kind": "prefix", "squared_weights": [5]}),
            ("moments", {"dim": True, "atoms": [{"point": "1/2", "mass": "1"}]}),
        ],
        ids=["atom-not-object", "atom-numbers", "weights-not-list", "weight-number", "dim-true"],
    )
    def test_malformed_nested_json_is_a_usage_error(self, command, content, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, content, field",
        [
            ("moments", {"dim": 1, "atoms": [{"point": "1/2"}]}, "'mass'"),
            ("moments", {"dim": 1, "atoms": [{"mass": "1"}]}, "'point'"),
            ("check1d", {"kind": "measure"}, '"measure"'),
            ("check1d", {"kind": "prefix"}, '"squared_weights"'),
        ],
        ids=["atom-without-mass", "atom-without-point", "weights-without-measure", "weights-without-list"],
    )
    def test_missing_field_is_named(self, command, content, field, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load ") and field in err

    @pytest.mark.parametrize("flag", ["measure", "weights", "--backext-measure", "--berger"])
    def test_deeply_nested_json_is_a_usage_error(self, flag, weights_file, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = {
            "measure": ["moments", str(deep)],
            "weights": ["check1d", str(deep)],
            "--backext-measure": ["check1d", weights_file, "--backext-alpha0", "1/2", flag, str(deep)],
            "--berger": ["check2d", "--x", "1/5", flag, str(deep)],
        }[flag]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot load ")

    @pytest.mark.parametrize(
        "flags", [["--order", "-1"], ["--n-max", "0"], ["--k-max", "-1"]], ids=lambda f: f[0]
    )
    def test_out_of_range_check1d_flag_is_a_usage_error(self, flags, weights_file, capsys):
        assert main(["check1d", weights_file] + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "content",
        [
            {"kind": "prefix", "squared_weights": ["1", "0"]},
            {"kind": "prefix", "squared_weights": ["2"], "norm_bound_sq": "1"},
            {"kind": "prefix", "squared_weights": []},
            {"kind": "prefix", "squared_weights": ["1/2"], "norm_bound_sq": "0"},
        ],
        ids=["weight-zero-past-index-0", "weight-above-bound", "empty-prefix", "zero-bound"],
    )
    def test_out_of_range_prefix_weight_is_a_usage_error(self, content, tmp_path, capsys):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(content))
        assert main(["check1d", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tail", ["cycle", 5, "flat"])
    def test_unknown_tail_rule_is_a_usage_error(self, tail, tmp_path, capsys):
        # "repeat_last" is the one tail rule; any other value exits 2 with
        # one error line and no traceback, in process and from a fresh one
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"kind": "prefix", "squared_weights": ["1/2", "1/3"], "tail": tail}))
        assert main(["check1d", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot load weights: unknown tail rule {tail!r}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(shiftcert.__file__).resolve().parent.parent))
        result = subprocess.run(
            [sys.executable, "-m", "shiftcert.cli", "check1d", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: cannot load weights: unknown tail rule {tail!r}\n"

    @pytest.mark.parametrize("alpha0", ["0", "-1/2"])
    def test_nonpositive_backext_alpha0_is_a_usage_error(self, alpha0, weights_file, xi_a_file, capsys):
        argv = ["check1d", weights_file, f"--backext-alpha0={alpha0}", "--backext-measure", xi_a_file]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_moment_count_is_a_usage_error(self, xi_a_file, capsys):
        assert main(["moments", xi_a_file, "--n-max", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_weights_of_a_measure_at_zero_name_the_cause(self, tmp_path, capsys):
        # a Berger measure with its one atom at 0 gives the zero shift; the
        # error says so, not that some norm bound is not positive
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"kind": "measure", "measure": {"dim": 1, "atoms": [{"point": "0", "mass": "1"}]}}))
        assert main(["check1d", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot load weights: the Berger measure has no atom above 0, so every weight would be 0\n"

    def test_empty_backext_measure_is_a_usage_error(self, weights_file, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"dim": 1, "atoms": []}))
        argv = ["check1d", weights_file, "--backext-alpha0", "1/2", "--backext-measure", str(empty)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestParser:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_every_command_takes_one_out_as_its_last_option(self):
        # --out is declared once for every command, after the command's own options,
        # so each usage line and help text ends with it
        leaves = build_parser().leaves
        assert len(leaves) == 7
        for words, leaf in leaves.items():
            options = [action.option_strings for action in leaf._actions]
            assert options.count(["--out"]) == 1, words
            assert options[-1] == ["--out"], words
            assert leaf._actions[-1].dest == "out" and leaf._actions[-1].default is None, words


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    """Every ``shiftcert ...`` line in README's fenced blocks, with its prompt,
    ``[...]`` groups, ``\\`` continuations and comments stripped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.sub(r"\[[^\]]*\]", "", line.split("#")[0]).strip().removeprefix("$ ")
            if line.startswith("shiftcert "):
                commands.append(line)
    return commands


def _subcommands() -> set[str]:
    parser = build_parser()
    return set(next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices)


class TestDocsMatchTheParser:
    def test_every_readme_command_parses(self, capsys):
        commands = _readme_commands()
        assert {shlex.split(c)[1] for c in commands} == _subcommands()
        for command in commands:
            try:
                build_parser().parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")

    def test_module_docstring_lists_the_subcommands(self):
        block = shiftcert.cli.__doc__.split("Subcommands::")[1].split("\n\n")[1]
        assert {line.split()[0] for line in block.splitlines()} == _subcommands()


class TestParserIsBuiltOnce:
    def test_successive_calls_print_what_fresh_processes_print(self, weights_file, capsys):
        # the parser is shared across calls; no value of one call may leak
        # into the next, defaults included
        assert build_parser() is build_parser()
        sequence = [
            ["check1d", weights_file, "--order", "2"],
            ["check1d", weights_file],
            ["check2d", "--x", "1/5", "--window", "3x3", "--hyponormal"],
            ["sweep", "--x-min", "1/5", "--x-max", "1/4", "--x-step", "1/20", "--n-max", "2"],
            ["check2d", "--x", "2/11", "--window", "3x3"],
            ["lubin", "certify", "--x", "1/5"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(shiftcert.__file__).resolve().parent.parent))
        for argv in sequence:
            code = main(argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "shiftcert.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv


def _dispatch_corpus() -> list[list[str]]:
    """Every README command, the help of every parser, and calls that the
    full parser must answer: no or unknown command words, usage errors, and
    words a command's parser does not know."""
    return [
        *(shlex.split(command)[1:] for command in _readme_commands()),
        *([*words, "--help"] for words in build_parser().leaves),
        ["--help"], ["lubin", "--help"], ["-h"],
        [], ["bogus"], ["lubin"], ["lubin", "bogus"], ["lubin certify", "--x", "1/5"],
        ["-h", "lubin"], ["lubin", "-h", "certify"], ["--", "lubin", "certify", "--x", "1/5"],
        ["lubin", "certify"], ["check2d", "--window", "3x3"], ["moments"],
        ["check1d", "WEIGHTS.json", "--order", "4.5"], ["moments", "MEASURE.json", "--n-max", "\u0663"],
        ["lubin", "certify", "--x", "1/5", "--ou", "c.json"], ["lubin", "certify", "--x=1/7"],
        ["lubin", "certify", "--", "--x", "1/5"], ["lubin", "certify", "--x", "1/5", "--"],
        ["lubin", "certify", "--x", "1/5", "--bogus"], ["lubin", "certify", "certify"],
        ["check1d", "WEIGHTS.json", "stray"], ["check1d", "WEIGHTS.json", "--backext", "1/2"],
        ["epsilon", "--out"], ["lubin", "certify", "--x", "0"], ["check1d", "missing.json"],
    ]


class TestDispatchMatchesTheFullParser:
    """``main`` hands each call straight to its command's parser; every exit
    code, output byte and error must be what the full parser gives."""

    @staticmethod
    def readme_inputs(path: Path) -> None:
        """The files README's commands name, in ``path``."""
        path.mkdir()
        dump_measure(xi_a(), path / "MEASURE.json")
        dump_measure(mu_m_cap_n(), path / "MU.json")
        (path / "MOMENTS.csv").write_text(two_atom_csv(10))
        (path / "WEIGHTS.json").write_text(json.dumps({"kind": "measure", "measure": xi_a().as_dict()}))

    @pytest.mark.parametrize("argv", _dispatch_corpus(), ids=lambda argv: " ".join(argv) or "(none)")
    def test_main_answers_as_the_full_parser(self, argv, tmp_path, monkeypatch, capsys):
        outcomes = []
        for call in (main, cli_main_reference):
            where = tmp_path / call.__name__
            self.readme_inputs(where)
            monkeypatch.chdir(where)
            try:
                code = call(list(argv))
            except SystemExit as exc:
                code = exc.code
            files = {path.name: path.read_bytes() for path in sorted(where.iterdir())}
            outcomes.append((code, *capsys.readouterr(), files))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("x, code", [("1/7", 0), ("1/5", 1)])
    def test_a_parsed_call_skips_the_top_level_parser(self, x, code, tmp_path, monkeypatch, capsys):
        want, got = tmp_path / "want.json", tmp_path / "got.json"
        assert cli_main_reference(["lubin", "certify", "--x", x, "--out", str(want)]) == code

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setitem(vars(build_parser()), name, refuse)
        assert main(["lubin", "certify", "--x", x, "--out", str(got)]) == code
        assert got.read_bytes() == want.read_bytes()
        assert capsys.readouterr() == ("", "")

    def test_no_argv_reads_sys_argv(self, monkeypatch, capsys):
        assert main(["epsilon"]) == 0
        want = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["shiftcert", "epsilon"])
        assert main() == 0
        assert capsys.readouterr() == want
        monkeypatch.setattr(sys, "argv", ["shiftcert", "lubin", "certify", "--x", "1/5", "--bogus"])
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: shiftcert [-h]")


class TestGammaGolden:
    def test_cli_moments_agree_with_the_library(self, xi_a_file, capsys):
        main(["moments", xi_a_file, "--n-max", "6"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            n_text, g_text = line.split(",")
            assert F(g_text) == moment1(xi_a(), int(n_text))
