import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftcert
from shiftcert.cli import WINDOW_SIDE_MAX, build_parser, main
from shiftcert.lubin import mu_m_cap_n, xi_a
from shiftcert.measures import measure_to_dict, moment1


def dump_measure(mu, path) -> None:
    Path(path).write_text(json.dumps(measure_to_dict(mu)))


@pytest.fixture()
def xi_a_file(tmp_path):
    path = tmp_path / "xi_a.json"
    dump_measure(xi_a(), path)
    return str(path)


@pytest.fixture()
def weights_file(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(
        json.dumps({"kind": "measure", "measure": measure_to_dict(xi_a())})
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
        assert data == measure_to_dict(xi_a())

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

    def test_non_contiguous_indices_rejected(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("0,1\n2,1/2\n3,1/4\n")
        assert main(["fit", str(csv), "--max-atoms", "1"]) == 2


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
        from shiftcert.lubin import xi_a_level1

        dump_measure(xi_a_level1(), level1)
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
        code = main(
            ["check2d", "--x", "1/5", "--window", "4x4", "--path", "3,2", "--hyponormal"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        checks = {c["check"] for c in data["checks"]}
        assert "path_independence_check" in checks
        assert "joint_hyponormality_window" in checks

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

    def test_negative_path_point_is_a_usage_error(self, capsys):
        assert main(["check2d", "--x", "1/5", "--path=-1,2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("point", ["700,700", "2000,0"])
    def test_deep_path_point_is_decided(self, point, capsys):
        assert main(["check2d", "--x", "1/5", "--window", "3x3", "--path", point]) == 0
        checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["path_independence_check"]["verdict"] == "pass"

    def test_path_past_the_depth_cap_is_a_usage_error(self, capsys):
        assert main(["check2d", "--x", "1/5", "--window", "3x3", "--path", "2001,0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
def berger_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("berger")
    files = {"missing": str(root / "missing.json")}
    contents = {
        "cap": json.dumps(measure_to_dict(mu_m_cap_n())),
        "line": json.dumps(measure_to_dict(xi_a())),
        "empty": json.dumps({"dim": 2, "atoms": []}),
        "array": "[1, 2]",
        "broken": "{",
        "atom-numbers": json.dumps({"dim": 2, "atoms": [1]}),
    }
    for name, text in contents.items():
        path = root / f"{name}.json"
        path.write_text(text)
        files[name] = str(path)
    return files


def _mostly(valid, invalid):
    """Draw from ``invalid`` one time in eight, so most command lines reach a verdict."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 0 else valid)


def _points(bound: int):
    return st.tuples(st.integers(0, bound), st.integers(0, bound)).map(lambda p: f"{p[0]},{p[1]}")


check2d_argv = st.fixed_dictionaries(
    {
        "--x": _mostly(
            st.one_of(
                st.sampled_from(["1/5", "2/11", "8/33", "1/2", "3"]),
                st.fractions(min_value=F(1, 100), max_value=F(3), max_denominator=10**6).map(str),
            ),
            st.sampled_from(["0", "-1/3", "0.2", "1/0", "abc", ""]),
        ),
        "--window": _mostly(
            st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda w: f"{w[0]}x{w[1]}"),
            st.sampled_from(["0x3", "-1x2", "six", "3x", "2x2x2", f"{WINDOW_SIDE_MAX + 1}x1"]),
        ),
        "--restrict": _mostly(_points(3), st.sampled_from(["-1,0", "1", "a,b", "1,2,3", ""])),
        "--path": st.one_of(
            st.none(), _mostly(_points(8), st.sampled_from(["0,-1", "2001,0", "1", "a,b"]))
        ),
        "--berger": st.one_of(
            st.none(),
            _mostly(st.just("cap"), st.sampled_from(["line", "empty", "array", "broken", "atom-numbers", "missing"])),
        ),
        "--hyponormal": st.booleans(),
    }
)


class TestCheck2DFuzz:
    @given(options=check2d_argv)
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_follow_the_contract(self, berger_files, options):
        argv = ["check2d"]
        for flag, value in options.items():
            if flag == "--hyponormal":
                argv += [flag] if value else []
            elif value is not None:
                value = berger_files[value] if flag == "--berger" else value
                argv.append(f"{flag}={value}")  # "=" keeps values like -1,0 off the option parser
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue() + out.getvalue()
        if code == 2:
            assert "error: " in err.getvalue()
        else:
            checks = json.loads(out.getvalue())["checks"]
            assert (code == 1) == any(c["verdict"] == "fail" for c in checks)
            for c in checks:
                assert c["witness"], c
            if code == 1:
                failed = next(c for c in checks if c["verdict"] == "fail")
                assert "k" in failed["witness"] or "path" in failed["witness"]


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

    def test_bad_step(self):
        assert main(["sweep", "--x-min", "1/10", "--x-max", "1/5", "--x-step", "0"]) == 2


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
        ],
        ids=["atom-not-object", "atom-numbers", "weights-not-list", "weight-number"],
    )
    def test_malformed_nested_json_is_a_usage_error(self, command, content, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
        ],
        ids=["weight-zero-past-index-0", "weight-above-bound"],
    )
    def test_out_of_range_prefix_weight_is_a_usage_error(self, content, tmp_path, capsys):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(content))
        assert main(["check1d", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("alpha0", ["0", "-1/2"])
    def test_nonpositive_backext_alpha0_is_a_usage_error(self, alpha0, weights_file, xi_a_file, capsys):
        argv = ["check1d", weights_file, f"--backext-alpha0={alpha0}", "--backext-measure", xi_a_file]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_moment_count_is_a_usage_error(self, xi_a_file, capsys):
        assert main(["moments", xi_a_file, "--n-max", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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


class TestGammaGolden:
    def test_cli_moments_agree_with_the_library(self, xi_a_file, capsys):
        main(["moments", xi_a_file, "--n-max", "6"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            n_text, g_text = line.split(",")
            assert F(g_text) == moment1(xi_a(), int(n_text))
