"""Fresh-interpreter entry points of the benchmark.

    python bench/child.py setup WORKLOAD TMPDIR [TRACE_JSON]
        Import shiftcert, run the workload's warm-up, print "ready" and
        exit.  The parent times this from spawn to "ready"; that is one
        sample of set-up time.  With TRACE_JSON the tracing wrappers are installed,
        the certified bound is computed cold, and then the warm-up runs.

    python bench/child.py cli TRACE_JSON ARG...
        Install the tracing wrappers, run ``shiftcert.cli.main(ARG...)``
        and exit with its code: the traced form of one ``cli-cold`` op.

Run under ``-X importtime`` when traced; ``shiftcert`` is imported
first so that its cumulative import time covers all of its
dependencies.  ``PYTHONPATH`` must point at the checkout's ``src``.
"""

import sys

import shiftcert.cli  # noqa: E402  (first import on purpose, see above)

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, cache_state  # noqa: E402


def _dump(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**tracer.snapshot(), "caches": cache_state()}, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        from workloads import WORKLOADS

        workload = WORKLOADS[argv[1]](0, Path(argv[2]))
        trace_path = argv[3] if len(argv) > 3 else None
        tracer = Tracer()
        if trace_path:
            tracer.install()
            # The first call in a fresh interpreter is the cold one.
            shiftcert.agler.certified_x_max()
        if workload.in_process:
            for op in workload.warm_up_ops():
                if shiftcert.cli.main(op.argv) not in (0, 1):
                    return 3
        print("ready", flush=True)
        if trace_path:
            tracer.remove()
            _dump(tracer, trace_path)
        return 0
    if mode == "cli":
        tracer = Tracer()
        tracer.install()
        try:
            return shiftcert.cli.main(argv[2:])
        finally:
            tracer.remove()
            _dump(tracer, argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
