"""Per-layer tracing from outside the package.

The benchmark does not edit ``src/``.  Instead :class:`Tracer` replaces
selected public functions with wrappers in every ``shiftcert`` module that
holds them, so a call is seen wherever the caller looks the name up
(``cli.joint_hyponormality_window``, ``lubin.check_berger_2d``, ...).

Two kinds of wrapper:

* a *span* records the wall time of each call and its self time (the
  duration minus the time spent in spans it called directly);
* a *counter* only counts calls.  Hot, tiny functions get counters so
  that tracing does not distort them.

Spans and counts stay in memory; :meth:`Tracer.snapshot` returns them as
plain data so that a child process can hand them to the parent as JSON.
"""

from __future__ import annotations

import sys
import time

# (layer metric prefix, module, function): wall time of every call.
SPANS = (
    ("cli.main", "shiftcert.cli", "main"),
    ("agler.certify_sum", "shiftcert.agler", "certify_sum"),
    ("agler.certified_x_max", "shiftcert.agler", "certified_x_max"),
    ("agler.p_n_closed", "shiftcert.agler", "p_n_closed"),
    ("lubin.family_report", "shiftcert.lubin", "family_report"),
    ("lubin.is_pair_subnormal", "shiftcert.lubin", "is_pair_subnormal"),
    ("shift2d.joint_hyponormality_window", "shiftcert.shift2d", "joint_hyponormality_window"),
    ("shift2d.check_berger_2d", "shiftcert.shift2d", "check_berger_2d"),
    ("shift2d.commutativity_check", "shiftcert.shift2d", "commutativity_check"),
    ("shift1d.berger_fit", "shiftcert.shift1d", "berger_fit"),
    ("shift1d.subnormal_necessary", "shiftcert.shift1d", "subnormal_necessary"),
    ("shift1d.agler_sums_1d", "shiftcert.shift1d", "agler_sums_1d"),
    ("numerics.is_psd", "shiftcert.numerics", "is_psd"),
    ("numerics.rref", "shiftcert.numerics", "rref"),
)

# (layer metric prefix, module, function): call count only.
COUNTERS = (
    ("agler.positivity_over_all_k", "shiftcert.agler", "positivity_over_all_k"),
    ("agler.per_n_exact_sup", "shiftcert.agler", "per_n_exact_sup"),
    ("agler.abc_coefficients", "shiftcert.agler", "abc_coefficients"),
    ("agler.integral_moment", "shiftcert.agler", "integral_moment"),
    ("lubin.threshold_t1", "shiftcert.lubin", "threshold_t1"),
    ("lubin.threshold_t2", "shiftcert.lubin", "threshold_t2"),
    ("measures.moment1", "shiftcert.measures", "moment1"),
)

# Spans whose calls are split by an argument: name -> key function.
_SPAN_KEYS = {
    # joint_hyponormality_window(diagram, window, ...): one series per side.
    "shift2d.joint_hyponormality_window": lambda args, kwargs: "w%d" % args[1][0],
}


class Tracer:
    """Install wrappers, collect spans and counts, and remove the wrappers."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.self_times: dict[str, list[float]] = {}
        self.first_call: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, function in SPANS:
            self._patch(module, function, self._span(name, getattr(sys.modules[module], function)))
        for name, module, function in COUNTERS:
            self._patch(module, function, self._counter(name, getattr(sys.modules[module], function)))

    def remove(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _patch(self, module: str, function: str, wrapper) -> None:
        original = wrapper.__wrapped__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "shiftcert" and not mod_name.startswith("shiftcert."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _span(self, name: str, original):
        key_of = _SPAN_KEYS.get(name)
        stack = self._stack
        durations = self.durations
        self_times = self.self_times
        first_call = self.first_call

        def wrapper(*args, **kwargs):
            series = name if key_of is None else f"{name}.{key_of(args, kwargs)}"
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                durations.setdefault(series, []).append(elapsed)
                self_times.setdefault(series, []).append(elapsed - frame[0])
                first_call.setdefault(series, elapsed)

        wrapper.__wrapped__ = original
        return wrapper

    def _counter(self, name: str, original):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def snapshot(self) -> dict:
        return {
            "durations": self.durations,
            "self_times": self.self_times,
            "first_call": self.first_call,
            "counts": self.counts,
        }


def cache_state() -> dict:
    """Entries in the per-parameter moment cache, and misses so far of the
    integral-moment cache (read through any tracing wrapper)."""
    integral = sys.modules["shiftcert.agler"].integral_moment
    while not hasattr(integral, "cache_info"):
        integral = integral.__wrapped__
    return {
        "moment2d_entries": sys.modules["shiftcert.lubin"].moment2d.cache_info().currsize,
        "integral_moment_misses": integral.cache_info().misses,
    }


def parse_importtime(stderr_text: str) -> tuple[dict[str, float], str]:
    """Split ``-X importtime`` lines from the rest of stderr.

    Returns the cumulative import time in ms per top-level module name and
    the remaining stderr text.
    """
    cumulative: dict[str, float] = {}
    rest = []
    for line in stderr_text.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
        else:
            rest.append(line)
    return cumulative, "\n".join(rest)
