"""The four benchmark workloads: seeded inputs, the ops, and their oracles.

Every op is one call of the command-line interface, given as an argument
list that writes its JSON or CSV to a file.  Each workload's oracle knows
the right answer without asking ``shiftcert`` for it: the threshold
constants below are written out here, measures are generated with known
atoms, and non-subnormal weight prefixes are built to fail.  The one
exception is ``sweep``, whose sampled rows are re-derived by the package's
brute-force moment-table path (``agler.p_n_bruteforce``), a code path
separate from the closed form that ``sweep`` prints.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# The headline table, written out rather than imported from the package.
T2_THRESHOLD = Fraction(8, 33)
PAIR_THRESHOLD = Fraction(2, 11)
SUM_CERTIFIED = Fraction(482964062, 585323453)

# Parameter regimes of the headline table: both components, the sum and
# the pair subnormal; the pair fails; T2 fails; the sum certificate fails.
REGIMES = (
    (Fraction(0), PAIR_THRESHOLD),
    (PAIR_THRESHOLD, T2_THRESHOLD),
    (T2_THRESHOLD, SUM_CERTIFIED),
    (SUM_CERTIFIED, Fraction(3, 2)),
)

# Fixed warm-up parameters, one per regime, independent of the seed.
WARM_X = (Fraction(1, 6), Fraction(7, 30), Fraction(1, 2), Fraction(1))


def sample_x(rng: random.Random, regime: int) -> Fraction:
    """A rational in the regime's half-open interval (lo, hi].

    The denominator has between 3 and 60 bits, because the cost of the
    exact arithmetic grows with bit length.
    """
    lo, hi = REGIMES[regime]
    while True:
        bits = rng.randint(3, 60)
        q = rng.randrange(1 << (bits - 1), 1 << bits)
        p_lo = (lo * q).__floor__() + 1
        p_hi = (hi * q).__floor__()
        if p_lo <= p_hi:
            return Fraction(rng.randint(p_lo, p_hi), q)


class Op:
    """One call of the CLI and the oracle for its result.

    ``check(code, output)`` returns ``None`` when the result is right and
    a one-line reason otherwise.
    """

    __slots__ = ("argv", "check", "kind")

    def __init__(self, kind: str, argv: list[str], check):
        self.kind = kind
        self.argv = argv
        self.check = check


def _expect(condition: bool, reason: str) -> str | None:
    return None if condition else reason


def _certify_check(x: Fraction):
    expected = {
        "t1_subnormal": True,
        "t2_subnormal": x <= T2_THRESHOLD,
        "pair_subnormal": x <= PAIR_THRESHOLD,
        "sum_subnormal_certified": x <= SUM_CERTIFIED,
    }
    counterexample = expected["t2_subnormal"] and expected["sum_subnormal_certified"] and not expected["pair_subnormal"]
    want_code = 0 if all(expected.values()) else 1

    def check(code, output: str) -> str | None:
        if code != want_code:
            return f"lubin certify --x {x}: exit {code}, want {want_code}"
        payload = json.loads(output)
        return (
            _expect(payload["x"] == str(x), f"lubin certify echoed x={payload['x']}, want {x}")
            or _expect(payload["verdicts"] == expected, f"lubin certify --x {x}: verdicts {payload['verdicts']}")
            or _expect(payload["counterexample"] == counterexample, f"lubin certify --x {x}: counterexample flag")
            or _expect(
                payload["thresholds"]["sum_certified"] == str(SUM_CERTIFIED),
                f"lubin certify --x {x}: certified bound {payload['thresholds']['sum_certified']}",
            )
        )

    return check


def _epsilon_check(code, output: str) -> str | None:
    if code != 0:
        return f"epsilon: exit {code}, want 0"
    payload = json.loads(output)
    want = {
        "pair_threshold": str(PAIR_THRESHOLD),
        "certified_x_max": str(SUM_CERTIFIED),
        "epsilon": str(SUM_CERTIFIED - PAIR_THRESHOLD),
        "strictly_positive": True,
    }
    got = {key: payload.get(key) for key in want}
    return _expect(got == want, f"epsilon: {got}")


class Workload:
    """Seeded op stream.  ``in_process`` ops call ``cli.main``; the others
    run the CLI as a subprocess."""

    name = ""
    in_process = True

    def __init__(self, seed: int, tmp: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tmp = tmp
        self.out = str(tmp / "out")
        self.count = 0

    def warm_up_ops(self) -> list[Op]:
        """Ops run before timing: they fill the caches and make the first
        BLAS call.  Fixed, so that every seed pays the same set-up."""
        return []

    def next_op(self) -> Op:
        op = self._make(self.count)
        self.count += 1
        return op

    def _make(self, index: int) -> Op:
        raise NotImplementedError

    def finish(self) -> dict[int, str]:
        """Checks deferred until after the timed loop: op index -> reason."""
        return {}


class FamilyWarm(Workload):
    """In-process verdict sheets at fresh parameters, cycling the regimes."""

    name = "family-warm"

    def certify(self, x: Fraction) -> Op:
        return Op("certify", ["lubin", "certify", "--x", str(x), "--out", self.out], _certify_check(x))

    def warm_up_ops(self) -> list[Op]:
        return [self.certify(x) for x in WARM_X]

    def _make(self, index: int) -> Op:
        return self.certify(sample_x(self.rng, index % len(REGIMES)))


class CliCold(FamilyWarm):
    """One fresh interpreter per op; every fourth op asks for the margin."""

    name = "cli-cold"
    in_process = False

    def warm_up_ops(self) -> list[Op]:
        return [self.certify(WARM_X[0]), Op("epsilon", ["epsilon", "--out", self.out], _epsilon_check)]

    def _make(self, index: int) -> Op:
        if index % 4 == 3:
            return Op("epsilon", ["epsilon", "--out", self.out], _epsilon_check)
        return self.certify(sample_x(self.rng, (index - index // 4) % len(REGIMES)))


SWEEP_N_MAX = 30
SWEEP_K_MAX = 10
SWEEP_ORACLE_ROWS = 48  # rows re-derived by brute force per run


class Sweep(Workload):
    """In-process closed-form grids over one parameter slice each."""

    name = "sweep"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.sampled: list[tuple[int, Fraction, int, int, Fraction]] = []

    def slice_op(self, x: Fraction, index: int | None) -> Op:
        argv = [
            "sweep", "--x-min", str(x), "--x-max", str(x), "--x-step", "1",
            "--n-max", str(SWEEP_N_MAX), "--k-max", str(SWEEP_K_MAX), "--out", self.out,
        ]
        pick = None if index is None else self.rng.randrange(SWEEP_N_MAX * (SWEEP_K_MAX + 1))

        def check(code, output: str) -> str | None:
            if code != 0:
                return f"sweep at x={x}: exit {code}, want 0"
            lines = output.splitlines()
            if lines[0] != "x,n,k,p_n" or len(lines) != 1 + SWEEP_N_MAX * (SWEEP_K_MAX + 1):
                return f"sweep at x={x}: {len(lines)} lines"
            grid = [(n, k) for n in range(1, SWEEP_N_MAX + 1) for k in range(SWEEP_K_MAX + 1)]
            rows = [line.split(",") for line in lines[1:]]
            if [(int(n), int(k)) for _, n, k, _ in rows] != grid or any(r[0] != str(x) for r in rows):
                return f"sweep at x={x}: rows out of order or wrong x"
            if pick is not None:
                n, k = grid[pick]
                self.sampled.append((index, x, n, k, Fraction(rows[pick][3])))
            return None

        return Op("sweep", argv, check)

    def warm_up_ops(self) -> list[Op]:
        return [self.slice_op(Fraction(1, 5), None)]

    def _make(self, index: int) -> Op:
        return self.slice_op(sample_x(self.rng, index % len(REGIMES)), index)

    def finish(self) -> dict[int, str]:
        from shiftcert import agler

        chosen = self.sampled
        if len(chosen) > SWEEP_ORACLE_ROWS:
            chosen = random.Random(len(chosen)).sample(chosen, SWEEP_ORACLE_ROWS)
        failures = {}
        for index, x, n, k, value in chosen:
            want = agler.p_n_bruteforce(x, k, n)
            if value != want:
                failures[index] = f"sweep at x={x}: P_{n}({k},0) = {value}, brute force gives {want}"
        return failures


def random_measure(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """A probability measure with 1-4 distinct rational atoms in (0, 1]."""
    count = rng.randint(1, 4)
    points: set[Fraction] = set()
    while len(points) < count:
        q = rng.randint(1, 12)
        points.add(Fraction(rng.randint(1, q), q))
    weights = [rng.randint(1, 20) for _ in points]
    total = sum(weights)
    return sorted((p, Fraction(w, total)) for p, w in zip(points, weights))


def measure_json(atoms) -> dict:
    return {"dim": 1, "atoms": [{"point": str(p), "mass": str(m)} for p, m in atoms]}


FIT_MOMENTS = 10  # gamma_0 .. gamma_9, enough for --max-atoms 4
PREFIX_ORDER = 4  # check1d's default Hankel order

# One cycle of battery ops.  A fixed cycle, not a random draw, keeps the
# share of each kind the same for every seed.  Sorted by cost, the cycle
# runs prefix < fit < check1d < 8x8 < 16x16 < 32x32, so one 32x32 window
# in eight ops puts the 90th percentile inside the 32x32 latencies, and
# three check1d ops put the median inside theirs; neither sits on a gap
# between kinds of op.
BATTERY_CYCLE = ("fit", "check1d", "check2d-8", "prefix", "check1d", "check2d-16", "check1d", "check2d-32")


class Battery(Workload):
    """In-process one- and two-variable checks on generated inputs."""

    name = "battery"

    def _write(self, name: str, text: str) -> str:
        path = self.tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def fit_op(self, atoms) -> Op:
        lines = ["n,gamma_n"] + [
            f"{n},{sum(m * p**n for p, m in atoms)}" for n in range(FIT_MOMENTS)
        ]
        path = self._write("moments.csv", "\n".join(lines) + "\n")
        want = {(p, m) for p, m in atoms}

        def check(code, output: str) -> str | None:
            if code != 0:
                return f"fit: exit {code}, want 0"
            payload = json.loads(output)
            got = {(Fraction(a["point"]), Fraction(a["mass"])) for a in payload["atoms"]}
            return _expect(payload["dim"] == 1 and got == want, f"fit recovered {got}, generated {want}")

        return Op("fit", ["fit", path, "--max-atoms", "4", "--out", self.out], check)

    def check1d_op(self, atoms) -> Op:
        path = self._write("weights.json", json.dumps({"kind": "measure", "measure": measure_json(atoms)}))

        def check(code, output: str) -> str | None:
            checks = json.loads(output)["checks"] if code in (0, 1) else []
            failing = [c["check"] for c in checks if c["verdict"] != "pass"]
            return _expect(code == 0 and not failing, f"check1d on a measure: exit {code}, failing {failing}")

        return Op("check1d", ["check1d", path, "--out", self.out], check)

    def prefix_op(self, rng: random.Random) -> Op:
        """Squared weights that increase except for one adjacent descent.

        A subnormal shift has nondecreasing weights, and a descent at
        index j makes a 2x2 principal minor of one of the two Hankel
        matrices of order 4 negative, so the Hankel test must fail.
        """
        length = rng.randint(3, 2 * PREFIX_ORDER)
        values: set[Fraction] = set()
        while len(values) < length:
            q = rng.randint(1, 16)
            values.add(Fraction(rng.randint(1, q), q))
        squared = sorted(values)
        j = rng.randrange(length - 1)
        squared[j], squared[j + 1] = squared[j + 1], squared[j]
        data = {"kind": "prefix", "squared_weights": [str(v) for v in squared], "tail": "repeat_last"}
        path = self._write("prefix.json", json.dumps(data))

        def check(code, output: str) -> str | None:
            if code != 1:
                return f"check1d on a prefix with a descent at {j}: exit {code}, want 1"
            verdicts = {c["check"]: c["verdict"] for c in json.loads(output)["checks"]}
            return _expect(
                verdicts.get("subnormal_necessary") == "fail",
                f"check1d on a prefix with a descent at {j}: Hankel test {verdicts}",
            )

        return Op("prefix", ["check1d", path, "--out", self.out], check)

    def check2d_op(self, x: Fraction, side: int) -> Op:
        argv = ["check2d", "--x", str(x), "--window", f"{side}x{side}", "--hyponormal", "--out", self.out]

        def check(code, output: str) -> str | None:
            if code not in (0, 1):
                return f"check2d --x {x} at {side}x{side}: exit {code}"
            verdicts = {c["check"]: c["verdict"] for c in json.loads(output)["checks"]}
            if code != (0 if all(v == "pass" for v in verdicts.values()) else 1):
                return f"check2d --x {x} at {side}x{side}: exit {code} with verdicts {verdicts}"
            if verdicts.get("commutativity_check") != "pass":
                return f"check2d --x {x} at {side}x{side}: the family diagram must commute"
            # A subnormal pair is hyponormal.
            if x <= PAIR_THRESHOLD and verdicts.get("joint_hyponormality_window") != "pass":
                return f"check2d --x {x} at {side}x{side}: hyponormality fails below 2/11"
            return None

        return Op(f"check2d-{side}", argv, check)

    def _op_of_kind(self, kind: str, rng: random.Random, regime: int) -> Op:
        if kind == "fit":
            return self.fit_op(random_measure(rng))
        if kind == "check1d":
            return self.check1d_op(random_measure(rng))
        if kind == "prefix":
            return self.prefix_op(rng)
        side = int(kind.split("-")[1])
        return self.check2d_op(sample_x(rng, regime), side)

    def warm_up_ops(self) -> list[Op]:
        rng = random.Random("battery-warm-up")
        return [self._op_of_kind(kind, rng, 0) for kind in sorted(set(BATTERY_CYCLE))]

    def _make(self, index: int) -> Op:
        kind = BATTERY_CYCLE[index % len(BATTERY_CYCLE)]
        return self._op_of_kind(kind, self.rng, (index // len(BATTERY_CYCLE)) % len(REGIMES))


WORKLOADS = {cls.name: cls for cls in (FamilyWarm, CliCold, Sweep, Battery)}
