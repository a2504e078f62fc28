"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks, from the root of a checkout:

1. a wrong verdict written into one op's output, and a traceback raised by
   one op, each count as a failed op (in process and in a subprocess);
2. a tiny run of every workload prints all metrics of ``BENCHMARK.json``
   with their units, untraced and traced, and every op passes;
3. without the package next to it, the harness exits non-zero and prints
   no result.

Exits 0 when every check holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FAKE_TRACEBACK = (
    "import sys; sys.stderr.write('Traceback (most recent call last):\\n"
    "RuntimeError: injected\\n'); sys.exit(1)"
)


def _flip_pair_verdict(output: str) -> str:
    payload = json.loads(output)
    payload["verdicts"]["pair_subnormal"] = not payload["verdicts"]["pair_subnormal"]
    return json.dumps(payload)


def _shift_sweep_values(output: str) -> str:
    lines = output.splitlines()
    return "\n".join([lines[0]] + [line + "1" for line in lines[1:]])


def _move_fit_mass(output: str) -> str:
    payload = json.loads(output)
    payload["atoms"][0]["mass"] = "2"
    return json.dumps(payload)


# Per workload: which op's output is made wrong before the oracle sees it, and how.
WRONG_RESULT = {
    "family-warm": (1, _flip_pair_verdict),
    "cli-cold": (1, _flip_pair_verdict),
    "sweep": (2, _shift_sweep_values),
    "battery": (0, _move_fit_mass),
}
CRASHING_OP = 4


def injected_failures(workload: str) -> dict:
    """Run ``workload`` briefly with a wrong result and a traceback injected."""
    cli = sys.modules["shiftcert.cli"]
    real_main, real_command, real_next_op = cli.main, run.Subprocess.command, workloads.Workload.next_op
    wrong_index, tamper = WRONG_RESULT[workload]
    crashing = []

    def next_op(self):
        op = real_next_op(self)
        if self.count - 1 == CRASHING_OP:
            crashing.append(op.argv)
        elif self.count - 1 == wrong_index:
            check = op.check
            op.check = lambda code, output: check(code, tamper(output))
        return op

    def faulty_main(argv):
        if crashing and argv is crashing[0]:
            raise RuntimeError("injected")
        return real_main(argv)

    def faulty_command(self, op):
        if crashing and op.argv is crashing[0]:
            return [sys.executable, "-c", FAKE_TRACEBACK]
        return real_command(self, op)

    real_rows = workloads.SWEEP_ORACLE_ROWS
    workloads.Workload.next_op = next_op
    workloads.SWEEP_ORACLE_ROWS = 10**6  # re-derive every op's sampled row
    cli.main = faulty_main
    run.Subprocess.command = faulty_command
    try:
        return run.run(workload, seed=0, seconds=1, trace=False)
    finally:
        workloads.Workload.next_op = real_next_op
        workloads.SWEEP_ORACLE_ROWS = real_rows
        cli.main = real_main
        run.Subprocess.command = real_command


def check_injection() -> list[str]:
    problems = []
    run.load_package()
    for workload in WORKLOADS:
        result = injected_failures(workload)
        ratio = result["metrics"]["success_ratio"]["value"]
        if result["correct"] or result["failed"] != 2 or ratio >= 1.0:
            problems.append(f"{workload}: injected 2 faults, got failed={result['failed']}, success_ratio={ratio}")
    return problems


def last_line_result(command: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def check_tiny_runs() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            code, result = last_line_result(command, run.ROOT)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, no result")
                continue
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {got} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
    return problems


def check_without_package() -> list[str]:
    bare = run.ROOT / ".bench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        command = [sys.executable, "bench/run.py", "--workload", "family-warm", "--seed", "0", "--seconds", "1", "--trace", "0"]
        code, result = last_line_result(command, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # a benchmark run is using it
            pass
    if code == 0 or result is not None:
        return [f"without src/: exit {code}, result {result}"]
    return []


def main() -> int:
    problems = check_injection() + check_tiny_runs() + check_without_package()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
