"""The CLI output-identity corpus: commands, how one is run, and how the
expected outputs are rebuilt; and the demos' pinned stdout.

Each case runs ``shiftcert.cli.main`` in process, from a scratch directory
that holds a copy of ``inputs/`` and nothing else, with relative paths
(``check1d`` echoes its input path).  What a case leaves is its exit code,
its stdout and stderr, and every file it wrote there (``--out``,
``--dump``).  ``expected.json`` keeps those, and ``tests/test_golden.py``
compares them byte for byte.  Each script in ``demos/`` runs in a fresh
interpreter, and its stdout is kept as ``demos/<script>.txt`` here, which
``tests/test_package.py`` compares byte for byte too.

Regenerate both, from the repository root, with the package under test first
on the path::

    PYTHONPATH=src python tests/golden/regenerate.py

A regenerated corpus changes what the CLI is held to, so a change that
regenerates it should say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected.json"
DEMOS = HERE.parent.parent / "demos"
DEMO_OUTPUTS = HERE / "demos"

CERTIFIED = "482964062/585323453"  # the certified bound for the sum, in the lubin cases
# x with a 60-bit prime denominator 2^60 - 93, the widest the battery benchmark draws:
# 0.15 in (0, 2/11], where the pair is subnormal, and 0.21 in (2/11, 8/33], where it is not
X_PAIR = "172938225691027032/1152921504606846883"
X_T2 = "242113515967437845/1152921504606846883"

CASES = {
    # moments
    "moments-csv": ["moments", "xi_a.json", "--n-max", "6"],
    "moments-csv-zero": ["moments", "two_atoms.json", "--n-max", "0"],
    "moments-json": ["moments", "two_atoms.json", "--n-max", "5", "--format", "json"],
    "moments-json-out": ["moments", "xi_a.json", "--format", "json", "--out", "out.json"],
    "moments-csv-out": ["moments", "atom_at_zero.json", "--n-max", "4", "--out", "out.csv"],
    "moments-negative": ["moments", "xi_a.json", "--n-max", "-1"],
    "moments-dim2": ["moments", "mu_1_11.json"],
    "moments-missing": ["moments", "absent.json"],
    # fit
    "fit-two-atoms": ["fit", "two_atoms.csv"],
    "fit-bare": ["fit", "two_atoms_bare.csv", "--max-atoms", "2", "--out", "out.json"],
    "fit-three-atoms": ["fit", "three_atoms.csv", "--max-atoms", "3"],
    "fit-rank": ["fit", "three_atoms.csv", "--max-atoms", "2"],
    "fit-irrational": ["fit", "irrational.csv", "--max-atoms", "2"],
    "fit-negative-mass": ["fit", "negative_mass.csv", "--max-atoms", "2"],
    "fit-gap": ["fit", "gap.csv", "--max-atoms", "1"],
    "fit-bad-value": ["fit", "bad_value.csv", "--max-atoms", "1"],
    # check1d
    "check1d-measure": ["check1d", "w_measure.json"],
    "check1d-flat": ["check1d", "w_flat.json", "--order", "3", "--n-max", "4", "--k-max", "2"],
    "check1d-drop": ["check1d", "w_drop.json"],
    "check1d-zero-pivot": ["check1d", "w_kink.json", "--order", "2"],
    "check1d-dip": ["check1d", "w_dip.json", "--order", "2", "--n-max", "3", "--k-max", "3"],
    "check1d-backext-pass": [
        "check1d", "w_measure.json", "--backext-alpha0", "1/2", "--backext-measure", "two_atoms.json",
    ],
    "check1d-backext-fail": [
        "check1d", "w_measure.json", "--backext-alpha0", "7/8", "--backext-measure", "two_atoms.json",
        "--out", "out.json",
    ],
    "check1d-backext-infinite": [
        "check1d", "w_flat.json", "--backext-alpha0", "1/2", "--backext-measure", "atom_at_zero.json",
    ],
    "check1d-backext-half": ["check1d", "w_flat.json", "--backext-alpha0", "1/2"],
    "check1d-bad-kind": ["check1d", "w_bad_kind.json"],
    # the order cap: two failing 129 x 129 Hankel tests on a prefix whose tail is flat
    "check1d-flat-tail-128": ["check1d", "w_flat_tail.json", "--order", "128"],
    # check2d
    "check2d-default": ["check2d", "--x", "1/5"],
    "check2d-berger-pass": ["check2d", "--x", "1/11", "--window", "5x4", "--berger", "mu_1_11.json"],
    "check2d-berger-wrong": ["check2d", "--x", "1/12", "--window", "4x4", "--berger", "mu_1_11.json"],
    "check2d-hyponormal-pass": ["check2d", "--x", "2/11", "--window", "4x4", "--hyponormal"],
    "check2d-hyponormal-fail": ["check2d", "--x", "1/4", "--window", "4x4", "--hyponormal"],
    "check2d-restrict-dump": [
        "check2d", "--x", "1/5", "--window", "3x2", "--restrict", "2,1", "--dump", "dump.csv",
        "--out", "out.json",
    ],
    "check2d-all": [
        "check2d", "--x", "1/11", "--window", "3X3", "--berger", "mu_1_11.json", "--hyponormal",
    ],
    "check2d-hyponormal-row": ["check2d", "--x", "1/5", "--window", "6x1", "--hyponormal"],
    "check2d-hyponormal-column": ["check2d", "--x", "1/5", "--window", "1x6", "--hyponormal"],
    "check2d-hyponormal-32-fail": ["check2d", "--x", X_T2, "--window", "32x32", "--hyponormal"],
    "check2d-hyponormal-32-dump": [
        "check2d", "--x", X_PAIR, "--window", "32x32", "--hyponormal", "--dump", "dump.csv",
    ],
    "check2d-restrict-hyponormal": ["check2d", "--x", "1/5", "--window", "4x9", "--restrict", "5,7", "--hyponormal"],
    "check2d-bad-window": ["check2d", "--x", "1/5", "--window", "8by8"],
    "check2d-bad-x": ["check2d", "--x", "0.2"],
    # lubin certify, one case per regime and at each boundary
    "lubin-pair": ["lubin", "certify", "--x", "1/11"],
    "lubin-at-pair": ["lubin", "certify", "--x", "2/11"],
    "lubin-counterexample": ["lubin", "certify", "--x", "1/5"],
    "lubin-at-t2": ["lubin", "certify", "--x", "8/33"],
    "lubin-past-t2": ["lubin", "certify", "--x", "1/2", "--out", "out.json"],
    "lubin-at-certified": ["lubin", "certify", "--x", CERTIFIED],
    "lubin-sum-violation": ["lubin", "certify", "--x", "5/6"],
    "lubin-sum-violation-k0": ["lubin", "certify", "--x", "5"],
    "lubin-sum-violation-n6": ["lubin", "certify", "--x", "17/20"],
    "lubin-past-cap": ["lubin", "certify", "--x", "2"],
    "lubin-nonpositive": ["lubin", "certify", "--x=-1/5"],
    # sweep
    "sweep-small": ["sweep", "--x-min", "1/10", "--x-max", "3/10", "--x-step", "1/10", "--n-max", "3", "--k-max", "2"],
    "sweep-out": [
        "sweep", "--x-min", "1/5", "--x-max", "1/5", "--x-step", "1", "--n-max", "2", "--k-max", "1",
        "--out", "out.csv",
    ],
    "sweep-empty": ["sweep", "--x-min", "1", "--x-max", "1/2", "--x-step", "1/4"],
    "sweep-bad-step": ["sweep", "--x-min", "1/5", "--x-max", "1", "--x-step", "0"],
    # epsilon
    "epsilon": ["epsilon"],
    "epsilon-out": ["epsilon", "--out", "out.json"],
}


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run the CLI on ``argv`` in ``workdir`` (a fresh copy of the inputs);
    return the exit code, stdout, stderr and the files the run wrote.
    An argparse rejection counts as its ``SystemExit`` code (no case here
    has one: its usage text wraps to the terminal's width)."""
    from shiftcert.cli import main

    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    before = set(os.listdir(workdir))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        os.chdir(cwd)
    files = {
        name: (workdir / name).read_text(encoding="utf-8")
        for name in sorted(set(os.listdir(workdir)) - before)
    }
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """Run the script ``demo`` in a fresh interpreter with the imported
    package's directory as its path; stdout and stderr are kept as bytes."""
    import shiftcert

    env = dict(os.environ, PYTHONPATH=str(Path(shiftcert.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)


def regenerate() -> None:
    corpus = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            corpus[name] = {"argv": argv, **run_case(argv, Path(workdir))}
    EXPECTED.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {EXPECTED}", file=sys.stderr)
    DEMO_OUTPUTS.mkdir(exist_ok=True)
    for demo in sorted(DEMOS.glob("*.py")):
        result = run_demo(demo)
        if result.returncode:
            raise SystemExit(f"{demo.name} exited {result.returncode}:\n{result.stderr.decode()}")
        (DEMO_OUTPUTS / f"{demo.stem}.txt").write_bytes(result.stdout)
        print(f"wrote the stdout of {demo.name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
