"""Benchmark harness for shiftcert.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness imports the package from the
checkout's ``src/`` (nothing needs installing), builds the workload's
inputs from the seed, warms up, and runs a closed loop with one client for
S seconds.  Every op's output is checked by the workload's oracle.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` the
first half of the run is untraced and the second half traced, and the
JSON carries the per-layer metrics, including the tracing overhead.  The
line before it records the run's environment.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from tracing import Tracer, cache_state, parse_importtime
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = str(BENCH_DIR / "child.py")

SETUP_PROBES = (5, 25)  # fresh interpreters per set-up measurement: at least, at most
SETUP_PROBE_SECONDS = 2.0  # keep probing up to the maximum until this much time is spent
TRACE_PROBES = 3  # fresh interpreters for the cold layers of a traced run
P90_TAIL = 20  # samples that must lie above the 90th percentile
MAX_EXTENSION = 3  # a run may last up to this many times --seconds to get them

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python ``Fraction`` loop, garbage collector off.

    On a shared machine the speed of interpreted code drifts by tens of
    percent over seconds.  Timing this kernel between ops tracks that
    drift, and the interpreted part of every op time is rescaled to the
    kernel's nominal time (``REFERENCE_SECONDS``), so that runs taken at
    different moments compare.  The kernel does not touch shiftcert.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(i, i * i + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


REFERENCE_SECONDS = 0.001  # nominal time of the reference kernel


class NativeClock:
    """Wall time spent inside ``numpy.linalg`` routines (LAPACK and BLAS).

    Native linear algebra does not slow down with interpreted code when
    the machine is loaded, so this part of an op is not rescaled.  The
    wrappers replace the attributes of ``numpy.linalg``, where callers
    look them up.
    """

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0
        self._patched: list[tuple[str, object]] = []

    def install(self) -> None:
        import numpy.linalg as linalg

        for name in linalg.__all__:
            function = getattr(linalg, name)
            if callable(function) and not isinstance(function, type):
                setattr(linalg, name, self._wrap(function))
                self._patched.append((name, function))

    def remove(self) -> None:
        import numpy.linalg as linalg

        for name, function in self._patched:
            setattr(linalg, name, function)
        self._patched.clear()

    def _wrap(self, function):
        def wrapper(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self._depth -= 1
                if not self._depth:
                    self.seconds += time.perf_counter() - start

        return wrapper


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Sample:
    """One op: wall time, the native part of it, oracle verdict, and the
    machine-speed scale for the interpreted part."""

    __slots__ = ("seconds", "native", "failure", "output_bytes", "rss_kb", "trace", "scale")

    def __init__(self, seconds, failure, output_bytes=0, rss_kb=0, trace=None, native=0.0):
        self.seconds = seconds
        self.native = native
        self.failure = failure
        self.output_bytes = output_bytes
        self.rss_kb = rss_kb
        self.trace = trace
        self.scale = 1.0

    @property
    def scaled(self) -> float:
        return (self.seconds - self.native) * self.scale + self.native


def _judge(op, code, stderr_text: str, out_path: Path) -> tuple[str | None, int]:
    """Apply the oracle; an op that prints a traceback fails whatever it returned."""
    if "Traceback" in stderr_text:
        return f"{op.kind}: traceback: {stderr_text.strip().splitlines()[-1]}", 0
    try:
        output = out_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return f"{op.kind}: exit {code} and no output", 0
    try:
        return op.check(code, output), len(output.encode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{op.kind}: unreadable output ({type(exc).__name__}: {exc})", 0


class InProcess:
    """Calls ``shiftcert.cli.main`` in this interpreter."""

    def __init__(self, out_path: Path, native: NativeClock):
        self.cli = sys.modules["shiftcert.cli"]
        self.out_path = out_path
        self.native = native

    def run(self, op) -> Sample:
        self.out_path.unlink(missing_ok=True)
        self.native.seconds = 0.0
        sink, errors = io.StringIO(), io.StringIO()
        with redirect_stdout(sink), redirect_stderr(errors):
            start = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed op, not a failed benchmark
                code = None
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        failure, size = _judge(op, code, errors.getvalue(), self.out_path)
        return Sample(elapsed, failure, size, native=self.native.seconds)


class Subprocess:
    """Runs each op in a fresh interpreter, one at a time.

    Untraced ops run ``python -m shiftcert.cli``; traced ops run the
    benchmark's launcher under ``-X importtime``.
    """

    def __init__(self, out_path: Path, tmp: Path, traced: bool):
        self.out_path = out_path
        self.err_path = tmp / "stderr"
        self.trace_path = tmp / "trace.json"
        self.traced = traced
        self.env = child_env()

    def command(self, op) -> list[str]:
        if self.traced:
            return [sys.executable, "-X", "importtime", CHILD, "cli", str(self.trace_path), *op.argv]
        return [sys.executable, "-m", "shiftcert.cli", *op.argv]

    def run(self, op) -> Sample:
        self.out_path.unlink(missing_ok=True)
        self.trace_path.unlink(missing_ok=True)
        command = self.command(op)
        with open(self.err_path, "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr_text = err.read()
        trace = None
        if self.traced:
            imports, stderr_text = parse_importtime(stderr_text)
            try:
                trace = json.loads(self.trace_path.read_text(encoding="utf-8"))
                trace["imports"] = imports
            except FileNotFoundError:
                pass
        failure, size = _judge(op, proc.returncode, stderr_text, self.out_path)
        return Sample(elapsed, failure, size, usage.ru_maxrss, trace)


def measure(workload, runner, seconds: float, min_samples: int = 0) -> list[Sample]:
    """Closed loop with one client: the next op starts when the last is checked."""
    samples = []
    start = time.perf_counter()
    before = reference_seconds()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(samples) >= min_samples or elapsed >= MAX_EXTENSION * seconds
        if elapsed >= seconds and len(samples) >= 2 and enough:
            return samples
        sample = runner.run(workload.next_op())
        after = reference_seconds()
        sample.scale = 2 * REFERENCE_SECONDS / (before + after)
        before = after
        samples.append(sample)


def warm_up(workload, runner) -> None:
    for op in workload.warm_up_ops():
        sample = runner.run(op)
        if sample.failure:
            raise HarnessError(f"warm-up op failed: {sample.failure}")


def probe(workload_name: str, tmp: Path, trace_path: Path | None = None) -> tuple[float, dict | None]:
    """Time one fresh interpreter from spawn until it reports that import
    and warm-up are done, rescaled to the reference kernel's nominal speed
    like the op times.  Interpreter exit is not set-up, so it is not timed."""
    probe_tmp = tmp / "probe"
    probe_tmp.mkdir(exist_ok=True)
    command = [sys.executable, CHILD, "setup", workload_name, str(probe_tmp)]
    if trace_path is not None:
        command[1:1] = ["-X", "importtime"]
        command.append(str(trace_path))
    with open(probe_tmp / "stderr", "w+", encoding="utf-8") as err:
        before = reference_seconds()
        start = time.perf_counter()
        with subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            env=child_env(), cwd=ROOT, text=True,
        ) as proc:
            ready = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        wall *= 2 * REFERENCE_SECONDS / (before + reference_seconds())
        err.seek(0)
        stderr_text = err.read()
    if code != 0 or ready != "ready\n":
        raise HarnessError(f"set-up probe failed with exit {code}: {stderr_text[-2000:]}")
    trace = None
    if trace_path is not None:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace["imports"] = parse_importtime(stderr_text)[0]
    return wall, trace


def _median_ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def failures_of(samples: list[Sample], deferred: dict[int, str]) -> list[str]:
    reasons = [s.failure for s in samples if s.failure]
    return reasons + [reason for index, reason in sorted(deferred.items()) if not samples[index].failure]


def end_to_end(samples: list[Sample], failed: int, setup_walls: list[float], peak_rss_kb: int) -> dict:
    raw = [s.seconds * 1000.0 for s in samples]
    latencies = sorted(s.scaled * 1000.0 for s in samples)
    p90 = statistics.quantiles(latencies, n=10)[8]
    print(f"samples {len(latencies)}, above p90 {sum(1 for v in latencies if v > p90)}")
    print(
        f"unscaled wall times: p50 {statistics.median(raw):.3f} ms, "
        f"p90 {statistics.quantiles(raw, n=10)[8]:.3f} ms, "
        f"{len(raw) / (sum(raw) / 1000.0):.3f} ops/s; "
        f"machine speed scale median {statistics.median(s.scale for s in samples):.4f}, "
        f"native share {sum(s.native for s in samples) / sum(s.seconds for s in samples):.4f}"
    )
    return {
        "throughput_ops_s": throughput(samples),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "success_ratio": 1.0 - failed / len(samples),
    }


def merge_traces(traces: list[dict]) -> dict:
    merged = {"durations": {}, "self_times": {}, "counts": {}}
    for trace in traces:
        for key in ("durations", "self_times"):
            for name, values in trace[key].items():
                merged[key].setdefault(name, []).extend(values)
        for name, count in trace["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + count
    return merged


def per_layer(
    spans: dict, ops: int, cold: list[dict], moment2d_entries: float, integral_misses: int,
    output_bytes: float, overhead: float,
) -> dict:
    """Per-layer metrics.  ``spans`` covers the traced ops; ``cold`` holds
    the traces of fresh interpreters, which give import times and the
    first (cold) call of the certified bound."""
    durations, self_times, counts = spans["durations"], spans["self_times"], spans["counts"]
    metrics = {
        "import.shiftcert_ms": statistics.median(t["imports"].get("shiftcert", 0.0) for t in cold),
        "import.numpy_ms": statistics.median(t["imports"].get("numpy", 0.0) for t in cold),
        "agler.certified_x_max.cold_ms": _median_ms(
            [t["first_call"]["agler.certified_x_max"] for t in cold if "agler.certified_x_max" in t["first_call"]]
        ),
        "agler.integral_moment.misses": integral_misses / ops,
        "lubin.moment2d.cache_entries": moment2d_entries,
        "cli.main.self_ms": _median_ms(self_times.get("cli.main", [])),
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": overhead,
    }
    for name in (
        "agler.certify_sum", "agler.p_n_closed", "lubin.family_report", "lubin.is_pair_subnormal",
        "shift2d.check_berger_2d", "shift2d.commutativity_check", "shift1d.berger_fit",
        "shift1d.subnormal_necessary", "shift1d.agler_sums_1d", "numerics.is_psd", "numerics.rref",
    ):
        metrics[f"{name}.ms"] = _median_ms(durations.get(name, []))
    for side in (8, 16, 32):
        metrics[f"shift2d.joint_hyponormality_window.ms.w{side}"] = _median_ms(
            durations.get(f"shift2d.joint_hyponormality_window.w{side}", [])
        )
    for name in ("agler.p_n_closed", "numerics.is_psd", "numerics.rref"):
        metrics[f"{name}.calls"] = len(durations.get(name, [])) / ops
    for name in (
        "agler.positivity_over_all_k", "agler.per_n_exact_sup", "agler.abc_coefficients",
        "agler.integral_moment", "lubin.threshold_t1", "lubin.threshold_t2", "measures.moment1",
    ):
        metrics[f"{name}.calls"] = counts.get(name, 0) / ops
    return metrics


def throughput(samples: list[Sample]) -> float:
    return len(samples) / sum(s.scaled for s in samples)


def run_untraced(workload, runner, seconds: float, tmp: Path) -> tuple[dict, int, int]:
    samples = measure(workload, runner, seconds, min_samples=10 * P90_TAIL)
    if workload.in_process:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_rss_kb = max(s.rss_kb for s in samples)
    reasons = failures_of(samples, workload.finish())
    for reason in reasons[:5]:
        print(f"failed: {reason}")
    setup_walls = []
    start = time.perf_counter()
    while len(setup_walls) < SETUP_PROBES[0] or (
        len(setup_walls) < SETUP_PROBES[1] and time.perf_counter() - start < SETUP_PROBE_SECONDS
    ):
        setup_walls.append(probe(workload.name, tmp)[0])
    return end_to_end(samples, len(reasons), setup_walls, peak_rss_kb), len(samples), len(reasons)


def run_traced(workload, runner, traced_runner, seconds: float, tmp: Path) -> tuple[dict, int, int]:
    untraced = measure(workload, runner, seconds / 2)
    tracer = Tracer()
    if workload.in_process:
        tracer.install()
        before = cache_state()
    try:
        traced = measure(workload, traced_runner, seconds / 2)
    finally:
        tracer.remove()
    if workload.in_process:
        after = cache_state()
        spans = tracer.snapshot()
        moment2d_entries = after["moment2d_entries"]
        misses = after["integral_moment_misses"] - before["integral_moment_misses"]
    else:
        children = [s.trace for s in traced if s.trace is not None]
        if not children:
            raise HarnessError("no traced op left a trace")
        spans = merge_traces(children)
        moment2d_entries = statistics.median(t["caches"]["moment2d_entries"] for t in children)
        misses = sum(t["caches"]["integral_moment_misses"] for t in children)
    cold = [probe(workload.name, tmp, tmp / "probe-trace.json")[1] for _ in range(TRACE_PROBES)]
    samples = untraced + traced
    reasons = failures_of(samples, workload.finish())
    for reason in reasons[:5]:
        print(f"failed: {reason}")
    metrics = per_layer(
        spans, len(traced), cold, moment2d_entries, misses,
        statistics.fmean(s.output_bytes for s in traced), throughput(untraced) / throughput(traced),
    )
    return metrics, len(samples), len(reasons)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_package() -> None:
    if not (SRC / "shiftcert" / "__init__.py").is_file():
        raise HarnessError(f"no shiftcert package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shiftcert.cli

    if Path(shiftcert.cli.__file__).resolve().parent != (SRC / "shiftcert").resolve():
        raise HarnessError(f"imported shiftcert from {shiftcert.cli.__file__}, not from {SRC}")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark and return the result object."""
    units = declared_units(trace)
    load_package()
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    native = NativeClock()
    try:
        workload = WORKLOADS[workload_name](seed, tmp)
        out_path = tmp / "out"
        native.install()
        if workload.in_process:
            runner = traced_runner = InProcess(out_path, native)
        else:
            runner = Subprocess(out_path, tmp, traced=False)
            traced_runner = Subprocess(out_path, tmp, traced=True)
        warm_up(workload, runner)
        if trace:
            metrics, attempted, failed = run_traced(workload, runner, traced_runner, seconds, tmp)
        else:
            metrics, attempted, failed = run_untraced(workload, runner, seconds, tmp)
    finally:
        native.remove()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run is using it
            pass
    if set(metrics) != set(units):
        raise HarnessError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print("environment " + json.dumps(environment(seed), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
