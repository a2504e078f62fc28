"""Command-line interface.

Subcommands::

    moments   dump gamma_0..gamma_N of a measure's shift as CSV (or JSON)
    fit       recover the atomic measure behind a moment CSV, exactly
    check1d   run the one-variable subnormality battery on a weight file
    check2d   run the planar battery on the parametric family diagram
    lubin     certify  -- full verdict sheet at a parameter x
    sweep     grid of alternating-sum values P_n(k, 0) over x as CSV
    epsilon   print the certified margin past the joint threshold

Exit codes: 0 all requested checks pass, 1 a mathematical check failed
(the JSON output carries the witness), 2 usage or input errors: commands
raise ``ValueError`` for bad input, and :func:`main` turns it into exit 2
with ``error: ...`` (only an unwritable ``--out`` or ``--dump`` is reported
where it is written).  Every size flag, and fit's row count, has a cap.
Every JSON payload on stdout or in ``--out`` comes from ``certificate.to_json``
(sorted keys, indent 2); the one-line error on stderr is compact.

The argument parser is built once per process and reused by every call
of :func:`main`; argparse keeps each call's values in a fresh namespace.

Weight files for ``check1d`` are JSON, either a measure reference::

    {"kind": "measure", "measure": {"dim": 1, "atoms": [...]}}

or an explicit prefix of squared weights, the last one repeated::

    {"kind": "prefix", "squared_weights": ["2", "1/2"],
     "tail": "repeat_last", "norm_bound_sq": "2"}

``"tail"`` is optional and ``"repeat_last"`` is its only value;
``"norm_bound_sq"`` defaults to the largest prefix weight.  Either form
becomes the shift's moment sequence: the measure's moments, or the
running products of the prefix.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from . import agler, lubin
from .certificate import to_json
from .errors import ShiftCertError
from .measures import measure_from_dict, moment1
from .numerics import parse_rational, rat_str
from .shift1d import (
    WeightSequence1D,
    agler_sums_1d,
    backward_extension_1d,
    berger_fit,
    subnormal_necessary,
)
from .shift2d import check_berger_2d, commutativity_check, joint_hyponormality_window

# Caps on the size flags; the largest call each admits takes a few seconds on 2 cores.
MOMENTS_N_MAX = 1000
FIT_ATOMS_MAX = 16  # berger_fit isolates the roots of a recurrence of degree up to --max-atoms
FIT_ROWS_MAX = 200
CHECK1D_ORDER_MAX = 128
CHECK1D_N_MAX = 64  # the Agler sums take one integer difference table of n_max + k_max + 1 moments
CHECK1D_K_MAX = 64
SWEEP_N_MAX = 200
SWEEP_K_MAX = 200
SWEEP_ROWS_MAX = 50_000
# check2d weights at depth k1 + k2 have about 2 (k1 + k2) bits.  DEPTH_MAX caps the deepest
# point read, the window's far corner offset by --restrict, which also keeps printed
# rationals inside Python's 4300-digit limit; the window tests cost about w h d^2 at
# depth d = k1 + k2 + w + h, so WINDOW_WORK_MAX caps --restrict with the window.
DEPTH_MAX = 2000
WINDOW_SIDE_MAX = 256
WINDOW_WORK_MAX = 2 * 10**10


def _cap(what: str, value: int, limit: int) -> None:
    """Reject a size flag's ``value`` past its cap ``limit``."""
    if value > limit:
        raise ValueError(f"{what} must be at most {limit}, got {value}")


def _emit(text: str, out_path: str | None, code: int = 0) -> int:
    """Print ``text``, or write it to ``out_path``; return ``code``, or 2
    when the file cannot be written."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            return _fail_usage(f"cannot write {out_path}: {exc}")
    else:
        print(text)
    return code


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load(path: str, what: str, parse):
    """``parse`` applied to the open file at ``path``; a file that cannot be
    read or parsed becomes one ``ValueError`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"cannot load {what}: {exc}") from exc


def _measure(data, dim: int):
    """The measure that the JSON value ``data`` describes, of dimension ``dim``."""
    mu = measure_from_dict(data)
    if mu.dim != dim:
        raise ValueError(f"need a measure with dim = {dim}")
    return mu


def _weights(fh) -> WeightSequence1D:
    data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("weight file must hold a JSON object")
    kind = data.get("kind")
    if kind == "measure":
        if "measure" not in data:
            raise ValueError("a weight file of kind \"measure\" needs a \"measure\" field")
        return WeightSequence1D.from_measure(_measure(data["measure"], 1))
    if kind == "prefix":
        raw = data.get("squared_weights")
        if not isinstance(raw, list):
            raise ValueError("\"squared_weights\" must be a list")
        prefix = [parse_rational(v) for v in raw]
        bound = data.get("norm_bound_sq")
        bound = None if bound is None else parse_rational(bound)
        tail = data.get("tail", "repeat_last")
        if prefix and tail != "repeat_last":  # an empty prefix is reported first
            raise ValueError(f"unknown tail rule {tail!r}")
        return WeightSequence1D.from_prefix(prefix, bound)
    raise ValueError("weight file needs \"kind\": \"measure\" or \"prefix\"")


_INDEX_RE = re.compile("[0-9]+")  # int() alone also takes any Unicode digit, and "0_3"


def _moments(fh) -> list:
    """gamma_0, gamma_1, ... from CSV rows ``n,gamma_n`` after an optional header;
    each index n is written in the ASCII digits 0-9."""
    rows = [(number, line.strip()) for number, line in enumerate(fh, 1) if line.strip()]
    if rows and not rows[0][1].split(",")[0].strip().lstrip("-").isdigit():
        rows = rows[1:]  # header
    pairs = []
    for number, row in rows:
        fields = row.split(",")
        if len(fields) != 2 or not _INDEX_RE.fullmatch(fields[0].strip()):
            raise ValueError(f"line {number} must be n,gamma_n with n in digits 0-9, got {row!r}")
        pairs.append((int(fields[0]), parse_rational(fields[1])))
    pairs.sort()
    if [n for n, _ in pairs] != list(range(len(pairs))):
        raise ValueError("moment indices must be contiguous from 0")
    return [g for _, g in pairs]


def _parse_pair(text: str, sep: str, shape: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split(sep)
        return int(a), int(b)
    except ValueError as exc:
        raise ValueError(f"{shape}, got {text!r}") from exc


def cmd_moments(args) -> int:
    if args.n_max < 0:
        raise ValueError("need --n-max >= 0")
    _cap("--n-max", args.n_max, MOMENTS_N_MAX)
    mu = _load(args.measure, "measure", lambda fh: _measure(json.load(fh), 1))
    values = [(n, moment1(mu, n)) for n in range(args.n_max + 1)]
    if args.format == "json":
        payload = [{"n": n, "gamma": g} for n, g in values]
        return _emit(to_json(payload), args.out)
    lines = ["n,gamma_n"] + [f"{n},{rat_str(g)}" for n, g in values]
    return _emit("\n".join(lines), args.out)


def cmd_fit(args) -> int:
    _cap("--max-atoms", args.max_atoms, FIT_ATOMS_MAX)
    moments = _load(args.moments, "moments", _moments)
    _cap("the moment CSV's rows", len(moments), FIT_ROWS_MAX)
    try:
        measure = berger_fit(moments, args.max_atoms)
    except ShiftCertError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        return _emit(to_json(error), args.out, 1)
    return _emit(to_json(measure), args.out)


def cmd_check1d(args) -> int:
    _cap("--order", args.order, CHECK1D_ORDER_MAX)
    _cap("--n-max", args.n_max, CHECK1D_N_MAX)
    _cap("--k-max", args.k_max, CHECK1D_K_MAX)
    weights = _load(args.weights, "weights", _weights)
    checks = [
        subnormal_necessary(weights, args.order),
        agler_sums_1d(weights, args.n_max, args.k_max),
    ]
    if args.backext_alpha0 is not None or args.backext_measure is not None:
        if args.backext_alpha0 is None or args.backext_measure is None:
            raise ValueError("--backext-alpha0 and --backext-measure go together")
        alpha0 = parse_rational(args.backext_alpha0)
        mu = _load(args.backext_measure, "backward-extension measure", lambda fh: _measure(json.load(fh), 1))
        checks.append(backward_extension_1d(alpha0, mu))
    payload = {"input": args.weights, "checks": checks}
    code = 0 if all(c.ok for c in checks) else 1
    return _emit(to_json(payload), args.out, code)


def cmd_check2d(args) -> int:
    x = parse_rational(args.x)
    window = w, h = _parse_pair(args.window, "x", "window must look like 8x8")
    base = _parse_pair(args.restrict, ",", "lattice point must look like 1,2")
    depth = sum(base) + w + h
    _cap("a --window side", max(window), WINDOW_SIDE_MAX)
    _cap("--restrict k1 + k2 plus the window sides", depth, DEPTH_MAX)
    _cap("the window's work w h (k1 + k2 + w + h)^2", w * h * depth**2, WINDOW_WORK_MAX)
    diagram = lubin.family_diagram(x).restricted(*base)
    checks = [commutativity_check(diagram, window)]
    if args.berger:
        mu = _load(args.berger, "measure", lambda fh: _measure(json.load(fh), 2))
        checks.append(check_berger_2d(diagram, mu, window))
    if args.hyponormal:
        checks.append(joint_hyponormality_window(diagram, window))
    if args.dump:
        lines = ["k1,k2,alpha_sq,beta_sq"]
        for k2 in range(h):
            for k1 in range(w):
                lines.append(
                    f"{k1},{k2},{rat_str(diagram.alpha_sq(k1, k2))},{rat_str(diagram.beta_sq(k1, k2))}"
                )
        if _emit("\n".join(lines), args.dump) == 2:
            return 2
    payload = {
        "x": x,
        "base_point": base,
        "window": window,
        "checks": checks,
    }
    code = 0 if all(c.ok for c in checks) else 1
    return _emit(to_json(payload), args.out, code)


def cmd_lubin_certify(args) -> int:
    x = parse_rational(args.x)
    report = lubin.family_report(x)
    sum_certificate = agler.certify_sum(x)
    sum_witness = sum_certificate.witness
    verdicts = dict(report["verdicts"])
    verdicts["sum_subnormal_certified"] = sum_certificate.ok
    payload = {
        "x": report["x"],
        "thresholds": {**report["thresholds"], "sum_certified": sum_witness["certified_x_max"]},
        "verdicts": verdicts,
        "counterexample": (
            verdicts["t1_subnormal"]
            and verdicts["t2_subnormal"]
            and verdicts["sum_subnormal_certified"]
            and not verdicts["pair_subnormal"]
        ),
        "sum_certificate": {
            "n_tail": sum_witness["n_tail"],
            "certified_x_max": sum_witness["certified_x_max"],
            "epsilon": sum_witness["epsilon"],
            "witness": sum_witness["violation"],
            "tail_witness": sum_witness["tail_witness"],
        },
        "certificates": report["certificates"],
    }
    code = 0 if all(verdicts.values()) else 1
    return _emit(to_json(payload), args.out, code)


def cmd_sweep(args) -> int:
    x_min = parse_rational(args.x_min)
    x_max = parse_rational(args.x_max)
    x_step = parse_rational(args.x_step)
    if x_step <= 0:
        raise ValueError("--x-step must be positive")
    if x_min <= 0:
        raise ValueError("--x-min must be positive")
    if args.n_max < 1 or args.k_max < 0:
        raise ValueError("need --n-max >= 1 and --k-max >= 0")
    _cap("--n-max", args.n_max, SWEEP_N_MAX)
    _cap("--k-max", args.k_max, SWEEP_K_MAX)
    count = max(0, (x_max - x_min) // x_step + 1)
    _cap("the sweep's row count", count * args.n_max * (args.k_max + 1), SWEEP_ROWS_MAX)
    lines = ["x,n,k,p_n"]
    ks = range(args.k_max + 1)
    for x in (x_min + i * x_step for i in range(count)):
        for n in range(1, args.n_max + 1):
            for k, value in zip(ks, agler.p_n_closed_values(x, n, ks)):
                lines.append(f"{rat_str(x)},{n},{k},{rat_str(value)}")
    return _emit("\n".join(lines), args.out)


def cmd_epsilon(args) -> int:
    epsilon = agler.certified_epsilon()
    tail = agler.tail_stopping_index()
    payload = {
        "pair_threshold": lubin.PAIR_THRESHOLD,
        "certified_x_max": agler.certified_x_max(),
        "epsilon": epsilon,
        "n_tail": tail.n_star,
        "strictly_positive": epsilon > 0,
    }
    return _emit(to_json(payload), args.out)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftcert",
        description="Exact subnormality certificates for weighted shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="dump shift moments of a measure")
    p.add_argument("measure", help="measure JSON file (dim 1)")
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("fit", help="recover the atomic measure behind moments")
    p.add_argument("moments", help="CSV file with columns n,gamma_n")
    p.add_argument("--max-atoms", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("check1d", help="one-variable subnormality battery")
    p.add_argument("weights", help="weight JSON file (measure or prefix form)")
    p.add_argument("--order", type=int, default=4, help="Hankel order")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--backext-alpha0", help="squared weight to prepend (p/q)")
    p.add_argument("--backext-measure", help="measure JSON for the extension test")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check1d)

    p = sub.add_parser("check2d", help="planar battery on the family diagram")
    p.add_argument("--x", required=True, help="family parameter (p/q)")
    p.add_argument("--window", default="8x8")
    p.add_argument("--restrict", default="0,0", help="base point i,j of the restriction")
    p.add_argument("--berger", help="measure JSON to verify against the diagram")
    p.add_argument(
        "--hyponormal", action="store_true", help="exact joint hyponormality test on the window"
    )
    p.add_argument("--dump", help="write the window's weights as CSV here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check2d)

    p = sub.add_parser("lubin", help="verdicts for the parametric family")
    lubin_sub = p.add_subparsers(dest="lubin_command", required=True)
    pc = lubin_sub.add_parser("certify", help="full verdict sheet at a parameter")
    pc.add_argument("--x", required=True, help="family parameter (p/q)")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_lubin_certify)

    p = sub.add_parser("sweep", help="grid of alternating sums as CSV")
    p.add_argument("--x-min", required=True)
    p.add_argument("--x-max", required=True)
    p.add_argument("--x-step", required=True)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("epsilon", help="certified margin past the joint threshold")
    p.add_argument("--out")
    p.set_defaults(func=cmd_epsilon)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ShiftCertError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        return _fail_usage(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
