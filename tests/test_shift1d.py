import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import from_prefix_reference, minimal_recurrence_reference, moment1_reference, scaled
from shiftcert import measures, shift1d
from shiftcert.certificate import Certificate, to_json
from shiftcert.errors import (
    InconsistentMomentsError,
    NoRationalAtomsError,
    RankExceededError,
)
from shiftcert.measures import AtomicMeasure1D, moment1, restrict_density
from shiftcert.numerics import _integers, rref
from shiftcert.shift1d import (
    WeightSequence1D,
    agler_sums_1d,
    backward_extension_1d,
    berger_fit,
    subnormal_necessary,
)


def dirac(point):
    """The unit point mass at ``point``."""
    return AtomicMeasure1D([(point, F(1))])


def restrict(w, i):
    """The shift on the invariant subspace of indices >= i: its weights shifted
    by i, so its moments are gamma_(k+i) / gamma_i."""
    return WeightSequence1D(lambda k: w.moment(k + i) / w.moment(i), w.norm_bound_sq)


XI_A = AtomicMeasure1D(
    [(F(0), F(3, 4)), (F(1, 4), F(2, 11)), (F(1, 2), F(1, 22)), (F(1), F(1, 44))]
)
XI_A_LEVEL1 = AtomicMeasure1D(
    [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(1), F(1, 4))]
)

# squared weights 2, 1/2, 1/2, ...: gamma = 1, 2, 1, 1/2, ... is not a
# Hausdorff moment sequence (the formal fit is 4 d(1/4) - 3 d(0))
BAD = WeightSequence1D.from_prefix([F(2), F(1, 2)], norm_bound_sq=F(2))


def first_moments(w, count):
    """gamma_0, ..., gamma_(count - 1) of the shift w."""
    return [w.moment(k) for k in range(count)]


def seq_a() -> WeightSequence1D:
    return WeightSequence1D.from_measure(XI_A)


def agler_sums_1d_reference(w, n_max, k_max):
    """Every alternating sum sum_l (-1)^l C(n,l) gamma_(k+l) / gamma_k as a
    Fraction, in the scan order of agler_sums_1d: the oracle for its
    integer difference table."""
    scale = w.norm_bound_sq if w.norm_bound_sq > 1 else F(1)
    gammas = [w.moment(i) / scale**i for i in range(n_max + k_max + 1)]
    for n in range(1, n_max + 1):
        for k in range(k_max + 1):
            total = sum(
                F((-1) ** ell * math.comb(n, ell)) * gammas[k + ell] / gammas[k]
                for ell in range(n + 1)
            )
            if total < 0:
                return Certificate(
                    "agler_sums_1d",
                    False,
                    {"n": n, "k": k, "value": total, "rescaled_by": scale},
                )
    return Certificate(
        "agler_sums_1d", True, {"n_max": n_max, "k_max": k_max, "rescaled_by": scale}
    )


FACTOR_CAP = 10**12  # the divisor search refuses end coefficients above this


def divisors(n: int) -> set[int]:
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.update((i, n // i))
        i += 1
    return out


def rational_root(ints: list[int], numerators: set[int], denominators: set[int]) -> tuple[int, int] | None:
    """One rational root s/q of sum ints[i] z^i, or None: each candidate
    +-p/q with p | ints[0] and q | ints[-1] is tried by Horner's rule."""
    for p in numerators:
        for q in denominators:
            if math.gcd(p, q) != 1:
                continue
            for s in (p, -p):
                value, power = ints[-1], 1
                for a in reversed(ints[:-1]):
                    power *= q
                    value = value * s + a * power
                if value == 0:
                    return s, q
    return None


def rational_roots_reference(coeffs: list[F]) -> list[F]:
    """The rational roots by the rational root theorem: the oracle for the
    root isolation of berger_fit.  Degrees 1 and 2 are solved directly;
    above that each root found by a divisor-pair search is divided out."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    degree = len(ints) - 1
    roots: list[F] = []
    if ints[0] == 0:
        if len(ints) > 1 and ints[1] == 0:
            raise InconsistentMomentsError("recurrence polynomial has a repeated root at 0")
        roots.append(F(0))
        ints = ints[1:]
    if len(ints) > 3:
        low, high = abs(ints[0]), abs(ints[-1])
        if low > FACTOR_CAP or high > FACTOR_CAP:
            raise NoRationalAtomsError("coefficients too large for a rational root search")
        numerators, denominators = divisors(low), divisors(high)
    while len(ints) > 3:
        root = rational_root(ints, numerators, denominators)
        if root is None:
            break
        s, q = root
        roots.append(F(s, q))
        quotient = [ints[-1] // q]  # divide by q z - s, from the top
        for a in reversed(ints[1:-1]):
            quotient.append((a + s * quotient[-1]) // q)
        ints = quotient[::-1]
        numerators = {d for d in numerators if ints[0] % d == 0}
        denominators = {d for d in denominators if ints[-1] % d == 0}
    if len(ints) == 2:
        roots.append(F(-ints[0], ints[1]))
    elif len(ints) == 3:
        c, b, a = ints
        disc = b * b - 4 * a * c
        root = math.isqrt(max(disc, 0))
        if root * root == disc:
            roots.extend({F(-b - root, 2 * a), F(-b + root, 2 * a)})
    distinct = set(roots)
    if len(distinct) != degree:
        raise NoRationalAtomsError(
            f"recurrence polynomial of degree {degree} has only "
            f"{len(distinct)} distinct rational roots"
        )
    return sorted(roots)


def times(p: list[F], q: list[F]) -> list[F]:
    """The product of two polynomials, coefficients lowest degree first."""
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def root_polynomials(draw) -> list[F]:
    """A monic polynomial with rational roots (some repeated) times
    factors with no rational root."""
    roots = draw(st.lists(st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6), max_size=5))
    repeated = draw(st.lists(st.sampled_from(roots), max_size=2)) if roots else []
    irreducible = draw(
        st.lists(
            st.sampled_from(
                [
                    [F(-2), F(0), F(1)],  # z^2 - 2
                    [F(1), F(1), F(1)],  # z^2 + z + 1
                    [F(-3, 4), F(0), F(1)],  # z^2 - 3/4
                    [F(1, 3), F(-1), F(1)],  # z^2 - z + 1/3
                    [F(-2), F(0), F(0), F(1)],  # z^3 - 2
                    [F(-1), F(-1), F(0), F(1)],  # z^3 - z - 1
                ]
            ),
            max_size=2,
        )
    )
    coeffs = [F(1)]
    for r in roots + repeated:
        coeffs = times(coeffs, [-r, F(1)])
    for factor in irreducible:
        coeffs = times(coeffs, factor)
    assume(len(coeffs) > 1)
    return coeffs


def roots_or_message(find, coeffs: list[F]):
    try:
        return find(coeffs)
    except (InconsistentMomentsError, NoRationalAtomsError) as exc:
        return type(exc).__name__, str(exc)


squared_prefixes = st.lists(
    st.fractions(min_value=F(1, 16), max_value=F(3), max_denominator=16),
    min_size=1,
    max_size=6,
)

probability_measures = st.lists(
    st.tuples(
        st.fractions(min_value=F(0), max_value=F(3), max_denominator=8),
        st.fractions(min_value=F(1, 16), max_value=F(1), max_denominator=16),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda a: a[0],
).filter(lambda atoms: any(p > 0 for p, _ in atoms)).map(
    lambda atoms: AtomicMeasure1D([(p, m / sum(m for _, m in atoms)) for p, m in atoms])
)


class TestWeightSequence:
    def test_golden_weights_from_measure(self):
        w = seq_a()
        assert [w.squared_weight(n) for n in range(3)] == [F(1, 11), F(1, 2), F(11, 16)]

    def test_moments_are_running_products(self):
        w = seq_a()
        assert w.moment(0) == 1
        assert w.moment(3) == F(1, 11) * F(1, 2) * F(11, 16)
        assert [w.moment(n) for n in range(4)] == [F(1), F(1, 11), F(1, 22), F(1, 32)]

    def test_from_measure_needs_probability(self):
        with pytest.raises(ValueError):
            WeightSequence1D.from_measure(scaled(XI_A, F(2)))

    def test_from_measure_needs_an_atom_above_zero(self):
        with pytest.raises(ValueError, match="no atom above 0"):
            WeightSequence1D.from_measure(dirac(F(0)))

    def test_prefix_tail_repeats(self):
        assert BAD.squared_weight(0) == 2
        assert BAD.squared_weight(7) == F(1, 2)

    def test_norm_bound_enforced(self):
        with pytest.raises(ValueError):
            WeightSequence1D.from_prefix([F(2)], norm_bound_sq=F(1))

    @pytest.mark.parametrize(
        "prefix, bound, message",
        [
            ([F(0), F(1, 2)], None, "squared weight at 0 must be positive, got 0"),
            ([F(-1, 3), F(1, 2)], None, "squared weight at 0 must be positive, got -1/3"),
            ([F(3), F(1, 2)], F(2), "squared weight 3 at 0 exceeds the declared bound 2"),
            ([F(1, 2), F(1, 3), F(0), F(-1)], None, "squared weight at 2 must be positive, got 0"),
            ([F(1, 2), F(1, 3), F(-2, 5), F(5)], F(1), "squared weight at 2 must be positive, got -2/5"),
            ([F(1, 2), F(1, 3), F(1, 4), F(3, 2), F(0)], F(1), "squared weight 3/2 at 3 exceeds the declared bound 1"),
            ([], None, "prefix must be nonempty"),
            ([F(1, 2)], F(0), "norm bound must be positive"),
        ],
        ids=[
            "zero-at-0", "negative-at-0", "above-bound-at-0", "zero-at-2", "negative-at-2", "above-bound-at-3",
            "empty", "zero-bound",
        ],
    )
    def test_prefix_is_checked_at_construction(self, prefix, bound, message):
        # every prefix weight is checked once, in index order, so the first
        # bad index is reported before any later one
        with pytest.raises(ValueError) as caught:
            WeightSequence1D.from_prefix(prefix, norm_bound_sq=bound)
        assert str(caught.value) == message

    @given(prefix=squared_prefixes)
    @settings(max_examples=60, deadline=None)
    def test_prefix_moments_are_running_products(self, prefix):
        w = WeightSequence1D.from_prefix(prefix, norm_bound_sq=F(3))
        gamma = F(1)
        for k in range(3 * len(prefix) + 1):
            assert w.moment(k) == gamma
            gamma *= prefix[min(k, len(prefix) - 1)]

    def test_prefix_reader_matches_the_fraction_reader(self):
        # 3,000 seeded prefixes, some with a zero, a negative or an above-bound
        # weight, or a bound of 0: the integer running products give the moments
        # of the Fraction products, and a bad prefix the same message
        rng = random.Random(37)
        seen = set()
        for _ in range(3000):
            size = rng.randint(1, 6)
            prefix = [F(rng.randint(1, 60), rng.randint(1, 40)) for _ in range(size)]
            bound = rng.choice([None, None, F(rng.randint(1, 90), rng.randint(1, 20)), F(0)])
            bad = rng.randrange(4)
            if bad == 1:
                prefix[rng.randrange(size)] = F(0)
            elif bad == 2:
                prefix[rng.randrange(size)] = -F(rng.randint(1, 9), rng.randint(1, 9))
            elif bad == 3 and bound:
                prefix[rng.randrange(size)] = bound + F(1, rng.randint(1, 50))
            outcomes = []
            for read in (WeightSequence1D.from_prefix, from_prefix_reference):
                try:
                    w = read(prefix, bound)
                    outcomes.append((w.norm_bound_sq, [w.moment(k) for k in range(2 * size + 3)]))
                except ValueError as exc:
                    outcomes.append(str(exc))
            got = outcomes[0]
            assert got == outcomes[1]
            if isinstance(got, str):
                seen.add("zero" if got.endswith("got 0") else "negative" if "got -" in got else "above" if "exceeds" in got else got)
            else:
                assert all(type(g) is F for g in got[1])
                seen.add("moments")
        assert seen == {"moments", "zero", "negative", "above", "norm bound must be positive"}

    def test_a_measure_backed_sequence_builds_one_fraction_per_moment(self, fractions_built):
        # the atoms are read into integers once, and the probability check is the
        # run's first moment
        xi = AtomicMeasure1D([(F(1, 7), F(1, 10)), (F(2, 5), F(1, 5)), (F(3, 4), F(3, 10)), (F(1), F(2, 5))])
        moments, built = fractions_built(lambda: first_moments(WeightSequence1D.from_measure(xi), 13))
        assert moments == [moment1_reference(xi, k) for k in range(13)] and built == 13

    def test_a_prefix_builds_one_fraction_per_moment(self, fractions_built):
        prefix = [F(1, 3), F(2, 5), F(3, 7), F(1, 2), F(4, 9)]
        moments, built = fractions_built(lambda: first_moments(WeightSequence1D.from_prefix(prefix), 13))
        assert moments == first_moments(from_prefix_reference(prefix), 13) and built == 13

    def test_constant_shift(self):
        w = WeightSequence1D.from_prefix([F(1, 3)])
        assert w.moment(4) == F(1, 3) ** 4

    def test_restrict_shifts_weights(self):
        w1 = restrict(seq_a(), 1)
        assert w1.squared_weight(0) == F(1, 2)
        assert w1.squared_weight(1) == F(11, 16)

    def test_restrict_matches_density_restriction(self):
        # shifting the weight sequence == taking the measure s/gamma_1 d(xi)
        w1 = restrict(seq_a(), 1)
        v1 = WeightSequence1D.from_measure(restrict_density(XI_A, 1))
        assert [w1.squared_weight(n) for n in range(8)] == [
            v1.squared_weight(n) for n in range(8)
        ]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda w: w.moment(2.0), "moment order must be an integer, got 2.0"),
        (lambda w: w.squared_weight(1.0), "weight index must be an integer, got 1.0"),
        (lambda w: subnormal_necessary(w, 2.0), "order must be an integer, got 2.0"),
        (lambda w: agler_sums_1d(w, 2.0, 1), "n_max must be an integer, got 2.0"),
        (lambda w: berger_fit([w.moment(i) for i in range(10)], 4.5), "max_atoms must be an integer, got 4.5"),
        (lambda w: berger_fit([w.moment(i) for i in range(10)], "4"), "max_atoms must be an integer, got '4'"),
    ],
    ids=["moment", "squared_weight", "subnormal_necessary", "agler_sums_1d", "berger_fit", "berger_fit-str"],
)
def test_a_float_index_is_refused(call, message):
    with pytest.raises(ValueError) as caught:
        call(seq_a())
    assert str(caught.value) == message


class TestSubnormalNecessary:
    def test_measure_shift_passes(self):
        cert = subnormal_necessary(seq_a(), 3)
        assert cert.ok
        assert cert.witness["hankel"].ok and cert.witness["shifted_hankel"].ok

    def test_bad_sequence_fails_in_the_plain_hankel(self):
        cert = subnormal_necessary(BAD, 2)
        assert not cert.ok
        plain, shifted = cert.witness["hankel"], cert.witness["shifted_hankel"]
        # the signed formal measure hides from the shifted test (its
        # restriction drops the negative atom at 0) but not the plain one
        assert not plain.ok
        assert shifted.ok
        v = [F(t) for t in plain.witness["vector"]]
        gammas = [BAD.moment(i) for i in range(5)]
        value = sum(v[i] * v[j] * gammas[i + j] for i in range(3) for j in range(3))
        assert value < 0

    def test_order_zero_is_trivial(self):
        assert subnormal_necessary(seq_a(), 0).ok


class TestPastTheDigitLimit:
    """A witness holds exact values, so a verdict on rationals past Python's
    4300-digit str() limit still returns, and its witness replays."""

    TINY = F(1, 10**5000)

    def weights(self):
        return WeightSequence1D.from_prefix([F(1), self.TINY, F(1)])

    def test_hankel_witness_replays(self):
        w = self.weights()
        cert = subnormal_necessary(w, 2)
        assert not cert.ok
        plain = cert.witness["hankel"]
        assert not plain.ok
        v, gammas = plain.witness["vector"], [w.moment(i) for i in range(5)]
        value = sum(v[i] * v[j] * gammas[i + j] for i in range(3) for j in range(3))
        assert value == plain.witness["value"] < 0

    def test_agler_witness_replays(self):
        cert = agler_sums_1d(self.weights(), 3, 2)
        assert not cert.ok
        n, k = cert.witness["n"], cert.witness["k"]
        gammas = [F(1), F(1), self.TINY, self.TINY, self.TINY, self.TINY]  # the bound is 1
        table = gammas
        for _ in range(n):
            table = [a - b for a, b in zip(table, table[1:])]
        assert cert.witness["rescaled_by"] == 1
        assert cert.witness["value"] == table[k] / gammas[k] < 0


class TestAglerSums1D:
    def test_measure_shift_passes(self):
        assert agler_sums_1d(seq_a(), 8, 4).ok

    def test_bad_sequence_fails_at_n2(self):
        cert = agler_sums_1d(BAD, 4, 2)
        assert not cert.ok
        assert cert.witness["n"] == 2 and cert.witness["k"] == 0
        assert F(cert.witness["rescaled_by"]) == 2
        # independent recomputation: rescaled gammas 1, 1, 1/4, then
        # 1 - 2*1 + 1/4 = -3/4
        assert F(cert.witness["value"]) == F(-3, 4)

    def test_rescaling_keeps_expanding_subnormal_shifts_green(self):
        # constant squared weight 2: moments 2^k, a contraction only
        # after rescaling, and genuinely subnormal (measure d(2))
        w = WeightSequence1D.from_prefix([F(2)])
        cert = agler_sums_1d(w, 6, 3)
        assert cert.ok
        assert F(cert.witness["rescaled_by"]) == 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            agler_sums_1d(seq_a(), 0, 2)

    @pytest.mark.parametrize(
        "prefix, n_max, k_max, n, k, value, rescaled_by",
        [
            # 1 - 2 (3/4) + (3/4)(1/4) = -5/16 at k = 1, while k = 0 gives 11/16
            ([F(1, 4), F(3, 4), F(1, 4)], 2, 2, 2, 1, "-5/16", "1"),
            # rescaled weights 1/6, 1, 1/3: 1 - 2 + 1/3 at k = 1
            ([F(1, 4), F(3, 2), F(1, 2)], 2, 3, 2, 1, "-2/3", "3/2"),
            # every sum with n <= 3 is nonnegative
            ([F(1, 8), F(3, 8), F(1, 8)], 4, 3, 4, 1, "-989/4096", "1"),
            ([F(2), F(1, 2)], 2, 0, 2, 0, "-3/4", "2"),
        ],
    )
    def test_first_failure_at_k_above_0_and_at_n_max(self, prefix, n_max, k_max, n, k, value, rescaled_by):
        w = WeightSequence1D.from_prefix(prefix)
        cert = agler_sums_1d(w, n_max, k_max)
        assert json.loads(to_json(cert))["witness"] == {"n": n, "k": k, "value": value, "rescaled_by": rescaled_by}
        assert cert == agler_sums_1d_reference(w, n_max, k_max)

    @given(prefix=squared_prefixes, n_max=st.integers(1, 12), k_max=st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_sums_on_prefixes(self, prefix, n_max, k_max):
        w = WeightSequence1D.from_prefix(prefix)
        assert agler_sums_1d(w, n_max, k_max) == agler_sums_1d_reference(w, n_max, k_max)

    @given(xi=probability_measures, n_max=st.integers(1, 12), k_max=st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_sums_on_measures(self, xi, n_max, k_max):
        w = WeightSequence1D.from_measure(xi)
        assert agler_sums_1d(w, n_max, k_max) == agler_sums_1d_reference(w, n_max, k_max)

    @pytest.mark.parametrize("bound", [F(2), F(7, 3)], ids=["2", "7_3"])
    def test_the_integer_rescale_on_seeded_shifts_above_one(self, bound):
        # prefixes of squared weights in (0, bound], which mostly fail, and shifts
        # whose measures have atoms in (0, bound], which pass
        rng = random.Random(33)
        outcomes = set()
        for _ in range(120):
            if rng.random() < 0.5:
                prefix = [bound * F(rng.randint(1, q), q) for q in (rng.randint(1, 12) for _ in range(rng.randint(1, 6)))]
                w = WeightSequence1D.from_prefix(prefix, norm_bound_sq=bound)
            else:
                points = {bound * F(rng.randint(1, q), q) for q in (rng.randint(1, 12) for _ in range(rng.randint(1, 4)))}
                xi = AtomicMeasure1D((p, F(1, len(points))) for p in points)
                w = WeightSequence1D(lambda k, xi=xi: moment1(xi, k), bound)
            n_max, k_max = rng.randint(1, 12), rng.randint(0, 8)
            cert = agler_sums_1d(w, n_max, k_max)
            assert cert == agler_sums_1d_reference(w, n_max, k_max)
            assert type(cert.witness["rescaled_by"]) is F and cert.witness["rescaled_by"] == bound
            outcomes.add(cert.ok)
        assert outcomes == {True, False}

    def test_each_moment_is_computed_and_read_once(self, monkeypatch):
        # at n_max = k_max = 64 the sums read gamma_0 .. gamma_128 once each; a
        # measure-backed sequence runs its rule once per index, in index order,
        # and reads the atoms into integers once (the masses and the points)
        xi = AtomicMeasure1D([(F(1, 5), F(1, 4)), (F(1, 2), F(1, 4)), (F(1), F(1, 4)), (F(3, 2), F(1, 4))])
        integer_reads = []
        monkeypatch.setattr(measures, "_integers", lambda values: integer_reads.append(len(values)) or _integers(values))
        w = WeightSequence1D.from_measure(xi)
        rule, ruled = w._moment_rule, []
        w._moment_rule = lambda k: ruled.append(k) or rule(k)
        reads = []
        moment = w.moment
        w.moment = lambda n: reads.append(n) or moment(n)
        assert agler_sums_1d(w, 64, 64).ok
        assert reads == list(range(129))
        assert ruled == list(range(129))
        assert integer_reads == [4, 4]
        assert [w.moment(k) for k in range(129)] == [moment1_reference(xi, k) for k in range(129)]


class TestBackwardExtension1D:
    def test_passes_at_the_family_weight(self):
        cert = backward_extension_1d(F(1, 11), XI_A_LEVEL1)
        assert cert.ok
        assert F(cert.witness["reciprocal_norm"]) == F(11, 4)
        assert F(cert.witness["margin"]) == F(3, 11)

    def test_boundary_weight_passes(self):
        assert backward_extension_1d(F(4, 11), XI_A_LEVEL1).ok

    def test_just_past_boundary_fails(self):
        assert not backward_extension_1d(F(4, 11) + F(1, 10**6), XI_A_LEVEL1).ok

    def test_atom_at_zero_blocks_extension(self):
        cert = backward_extension_1d(F(1, 100), XI_A)
        assert not cert.ok
        assert cert.witness["reciprocal_norm"] == "infinite"

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            backward_extension_1d(F(0), XI_A_LEVEL1)

    def test_measure_without_atoms_is_rejected(self):
        # ||1/s|| is 0 for the zero measure; the bound 1/||1/s|| does not exist
        with pytest.raises(ValueError, match="at least one atom"):
            backward_extension_1d(F(1, 2), AtomicMeasure1D([]))


class TestBergerFit:
    def test_recovers_xi_a(self):
        moments = [moment1(XI_A, n) for n in range(9)]
        assert berger_fit(moments, 4) == XI_A

    def test_headroom_does_not_change_the_answer(self):
        moments = [moment1(XI_A, n) for n in range(13)]
        assert berger_fit(moments, 6) == XI_A

    def test_point_mass_at_zero(self):
        assert berger_fit([F(1), F(0), F(0)], 1) == dirac(F(0))

    def test_irrational_atoms_detected(self):
        # Fibonacci: recurrence x^2 = x + 1 has irrational roots
        with pytest.raises(NoRationalAtomsError):
            berger_fit([F(1), F(1), F(2), F(3), F(5)], 2)

    def test_signed_fit_detected(self):
        # 2 - (1/2)^j: formal fit 2 d(1) - 1 d(1/2)
        moments = [2 - F(1, 2) ** j for j in range(5)]
        with pytest.raises(InconsistentMomentsError):
            berger_fit(moments, 2)

    def test_negative_location_detected(self):
        # moments of 1/2 d(1/2) + 1/2 d(-1/2)
        with pytest.raises(InconsistentMomentsError):
            berger_fit([F(1), F(0), F(1, 4), F(0), F(1, 16)], 2)

    def test_rank_exceeded(self):
        mu = AtomicMeasure1D([(F(1, 4), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
        moments = [moment1(mu, n) for n in range(5)]
        with pytest.raises(RankExceededError):
            berger_fit(moments, 2)

    @pytest.mark.parametrize(
        "points",
        [
            [F(j, 17) for j in range(1, 17)],
            [F(1, 1000003), F(1, 1000033), F(1, 1000037)],
            [F(43243200, 10131543907)],
            [F(963761198400, 1700637401)],
            [F(963761198400), F(1, 963761198400)],
            [F(1, 10**7 + 19), F(1, 10**7 + 79)],
            [F(963761198400), F(1, 963761198400), F(1)],
            [F(481880599200), F(1, 481880599200), F(2)],
            [F(240940299600), F(1, 240940299600), F(1, 4), F(4)],
        ],
        ids=[
            "sixteen-atoms",
            "three-close-atoms",
            "one-atom",
            "one-large-atom",
            "two-atoms",
            "two-close-atoms",
            "cubic-root-1",
            "cubic-root-2",
            "quartic",
        ],
    )
    def test_uniform_measures_with_large_coefficients_fit_exactly(self, points):
        # the first two exceeded the divisor search's coefficient cap; the
        # rest have end coefficients with thousands of divisors
        mu = AtomicMeasure1D([(p, F(1, len(points))) for p in points])
        r = len(points)
        assert berger_fit([moment1(mu, n) for n in range(2 * r + 1)], r) == mu

    def test_cubic_without_rational_roots_is_refused_by_a_short_bisection(self, monkeypatch):
        # the recurrence N z^3 + z + N: a divisor search scans 6,720 x 6,720
        # pairs of its end coefficients' divisors; R(u) = u^3 + 4 N u + 8 N^3
        # has its one real root in (-4 N, 4 N), and halving that interval
        # down to width 2 takes about log2(4 N) = 42 evaluations of the chain
        n = 963761198400
        moments = [F(1), F(1, 2), F(1, 3)]
        while len(moments) < 7:
            moments.append(-(moments[-2] / n + moments[-3]))
        calls = []
        sign_changes = shift1d._sign_changes
        monkeypatch.setattr(shift1d, "_sign_changes", lambda chain, u: calls.append(u) or sign_changes(chain, u))
        with pytest.raises(NoRationalAtomsError) as caught:
            berger_fit(moments, 3)
        assert str(caught.value) == "recurrence polynomial of degree 3 has only 0 distinct rational roots"
        assert 0 < len(calls) <= 2 + (8 * n).bit_length()

    def test_a_cell_with_one_crossing_is_halved_by_the_sign_of_r_alone(self, monkeypatch):
        # eight atoms at 1/(10^20 + j): once the Sturm chain (nine polynomials)
        # has put each root in a cell of its own, one evaluation of R per step
        # finds it; evaluating the whole chain at every step took 29,996
        mu = AtomicMeasure1D([(F(1, 10**20 + j), F(1, 8)) for j in range(1, 9)])
        calls = []
        value = shift1d._value
        monkeypatch.setattr(shift1d, "_value", lambda p, u: calls.append(u) or value(p, u))
        assert berger_fit([moment1(mu, n) for n in range(17)], 8) == mu
        assert len(calls) < 6000

    @pytest.mark.parametrize(
        "coeffs, found",
        [
            ([F(1, 4), F(-1), F(1)], 1),  # (z - 1/2)^2
            ([F(-2), F(0), F(1)], 0),  # z^2 - 2
            ([F(4), F(-2), F(-2), F(1)], 1),  # (z - 2)(z^2 - 2)
            ([F(-1, 4), F(5, 4), F(-2), F(1)], 2),  # (z - 1/2)^2 (z - 1)
        ],
    )
    def test_repeated_or_irrational_roots_are_reported(self, coeffs, found):
        with pytest.raises(NoRationalAtomsError, match=f"only {found} distinct"):
            shift1d._rational_roots(coeffs)

    @given(
        roots=st.lists(
            st.fractions(min_value=F(-4), max_value=F(4), max_denominator=12),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rational_roots_of_split_polynomials(self, roots):
        coeffs = [F(1)]  # lowest degree first; multiply by (z - r) for each root r
        for r in roots:
            coeffs = [a - r * b for a, b in zip([F(0)] + coeffs, coeffs + [F(0)])]
        assert shift1d._rational_roots(coeffs) == sorted(roots)

    @given(coeffs=root_polynomials())
    @settings(max_examples=200, deadline=None)
    def test_roots_and_messages_match_the_divisor_search(self, coeffs):
        expected = roots_or_message(rational_roots_reference, coeffs)
        assume(expected != ("NoRationalAtomsError", "coefficients too large for a rational root search"))
        assert roots_or_message(shift1d._rational_roots, coeffs) == expected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            berger_fit([F(1), F(1, 2)], 1)
        with pytest.raises(ValueError):
            berger_fit([F(2), F(1), F(1)], 1)

    @given(
        atoms=st.lists(
            st.tuples(
                st.fractions(min_value=F(0), max_value=F(3), max_denominator=8),
                st.fractions(min_value=F(1, 16), max_value=F(1), max_denominator=16),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda a: a[0],
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random_measures(self, atoms):
        total = sum(m for _, m in atoms)
        mu = AtomicMeasure1D([(p, m / total) for p, m in atoms])
        r = len(mu.atoms)
        moments = [moment1(mu, n) for n in range(2 * r + 1)]
        assert berger_fit(moments, r) == mu


def recurrence_polynomial_reference(ms: list[F], max_atoms: int) -> list[F] | None:
    """The first order <= max_atoms at which the moment windows have a monic
    kernel vector, by one rref per order: the oracle for Berlekamp-Massey."""
    for order in range(1, max_atoms + 1):
        rows = [ms[j : j + order + 1] for j in range(len(ms) - order)]
        reduced, pivot_cols = rref(rows)
        if order in pivot_cols:
            continue  # every kernel vector has leading coefficient 0
        coeffs = [F(0)] * (order + 1)
        coeffs[order] = F(1)
        for row_index, col in enumerate(pivot_cols):
            coeffs[col] = -reduced[row_index][order]
        return coeffs
    return None


@st.composite
def moment_lists(draw):
    """Moments of 1-5 atoms (some at 0), a few of them perturbed off a moment list,
    with 2 max_atoms + 1 to 2 max_atoms + 4 entries, normalized to gamma_0 = 1."""
    points = draw(
        st.lists(st.fractions(min_value=F(0), max_value=F(2), max_denominator=30), min_size=1, max_size=5, unique=True)
    )
    masses = draw(st.lists(st.fractions(min_value=F(1, 9), max_value=F(5), max_denominator=9), min_size=len(points), max_size=len(points)))
    max_atoms = draw(st.integers(1, 6))
    size = 2 * max_atoms + 1 + draw(st.integers(0, 3))
    ms = [sum(m * p**k for p, m in zip(points, masses)) for k in range(size)]
    if draw(st.integers(0, 4)) == 0:
        ms[draw(st.integers(1, size - 1))] += draw(st.fractions(min_value=F(1, 50), max_value=F(1), max_denominator=50))
    return [m / ms[0] for m in ms], max_atoms


class TestMinimalRecurrence:
    @given(moment_lists())
    @settings(max_examples=300, deadline=None)
    def test_berlekamp_massey_matches_the_rref_loop(self, case):
        ms, max_atoms = case
        assert shift1d._minimal_recurrence(ms, max_atoms) == recurrence_polynomial_reference(ms, max_atoms)

    def test_integer_pass_matches_the_fraction_pass(self):
        # 3,000 seeded moment lists of 1-6 atoms (some at 0), a fifth of them
        # perturbed off a moment list, with max_atoms above and below the rank
        rng = random.Random(19)
        orders = set()
        for _ in range(3000):
            points = {F(rng.randint(0, 60), rng.randint(1, 30)) for _ in range(rng.randint(1, 6))}
            masses = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
            max_atoms = rng.randint(1, 7)
            ms = [sum(m * p**k for p, m in zip(points, masses)) for k in range(2 * max_atoms + 1 + rng.randint(0, 3))]
            if rng.randrange(5) == 0:
                ms[rng.randrange(1, len(ms))] += F(rng.randint(1, 50), 50)
            ms = [m / ms[0] for m in ms]
            coeffs = shift1d._minimal_recurrence(ms, max_atoms)
            assert coeffs == minimal_recurrence_reference(ms, max_atoms)
            orders.add(coeffs and len(coeffs) - 1)
        assert orders == {None, 1, 2, 3, 4, 5, 6, 7}

    def test_a_pass_builds_only_its_answer(self, fractions_built):
        mu = AtomicMeasure1D([(F(1, 7), F(1, 10)), (F(2, 5), F(1, 5)), (F(3, 4), F(3, 10)), (F(1), F(2, 5))])
        ms = [moment1(mu, n) for n in range(10)]
        coeffs, built = fractions_built(lambda: shift1d._minimal_recurrence(ms, 4))
        assert coeffs == minimal_recurrence_reference(ms, 4) and built == 5

    def test_sixteen_large_atoms_by_hand(self):
        points = [F(1, 10**12 + j) for j in range(1, 17)]
        ms = [sum(p**k for p in points) / 16 for k in range(33)]
        assert shift1d._minimal_recurrence(ms, 15) is None is minimal_recurrence_reference(ms, 15)
        coeffs = shift1d._minimal_recurrence(ms, 16)
        assert coeffs == minimal_recurrence_reference(ms, 16)
        assert len(coeffs) == 17 and coeffs[-1] == 1
        for p in points:
            assert sum(c * p**i for i, c in enumerate(coeffs)) == 0

    def test_one_rref_per_fit_and_none_on_a_rank_refusal(self, monkeypatch):
        calls = []
        monkeypatch.setattr(shift1d, "rref", lambda rows: calls.append(len(rows)) or rref(rows))
        mu = AtomicMeasure1D([(F(1, 4), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
        moments = [moment1(mu, n) for n in range(9)]
        assert berger_fit(moments, 4) == mu
        assert calls == [3]  # the Vandermonde solve on the three atoms
        calls.clear()
        with pytest.raises(RankExceededError, match="no linear recurrence of order <= 2 fits the moments"):
            berger_fit(moments[:5], 2)
        assert calls == []
