import itertools
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_psd_reference, sum_block_hankel
from shiftcert.agler import integral_moment
from shiftcert.lubin import PAIR_THRESHOLD, family_diagram, family_report
from shiftcert.measures import AtomicMeasure1D, AtomicMeasure2D, moment1
from shiftcert.numerics import (
    _negativity_certificate,
    exponential_sum_sign,
    exponential_sum_threshold,
    is_psd,
    parse_rational,
    rref,
)
from shiftcert.shift1d import WeightSequence1D, backward_extension_1d, berger_fit


def from_function(order, fn):
    """The rows of the order x order matrix [fn(i, j)]."""
    return [[fn(i, j) for j in range(order)] for i in range(order)]


def quadratic_form(rows, v):
    """v^T M v for the matrix with the given rows, summed directly."""
    return sum(v[i] * rows[i][j] * v[j] for i in range(len(rows)) for j in range(len(rows)))


rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=40
)


class TestParseRational:
    def test_accepts_plain_and_fraction_forms(self):
        assert parse_rational("2/11") == F(2, 11)
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("+7") == F(7)
        assert parse_rational("0") == F(0)

    # Fraction reads any Unicode decimal digit ("\uff15" is a fullwidth 5), so 0-9 only
    @pytest.mark.parametrize(
        "bad", ["0.5", "1e-3", "2/0", "1/-2", "", "a/b", "1 / 2", 5, None, "\uff15", "-\u0663/4", "1\u0660"]
    )
    def test_rejects_non_rational_text(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_round_trips_with_str(self):
        for value in (F(2, 11), F(-5), F(0), F(43, 48)):
            assert parse_rational(str(value)) == value

    @pytest.mark.parametrize("text", ["7" + "0" * 5000, "-1/7" + "0" * 5000], ids=["numerator", "denominator"])
    def test_a_literal_past_the_digit_limit_gives_its_digit_count(self, text):
        # Fraction meets Python's integer string limit; the one message counts the
        # literal's digits and does not echo it
        limit = sys.get_int_max_str_digits()
        digits = sum(c.isdigit() for c in text)
        message = f"a rational literal of {digits} digits passes the limit of {limit} digits per integer"
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == message
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_a_literal_at_the_digit_limit_parses(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1/{'7' * limit}") == F(1, int("7" * limit))


def chu_vandermonde_sum(n):
    """Brute-force sum of C(n, k)^2 over k; equals C(2n, n)."""
    return sum(math.comb(n, k) ** 2 for k in range(n + 1))


def arcsine_moment_quadrature(n, panels=64):
    """(1/pi) int_0^4 s^n / sqrt(4s - s^2) ds by the trapezoid rule.

    With s = 2(1 - cos t) the integrand is a cosine polynomial of degree n,
    so the rule is exact up to rounding once panels > n.
    """
    values = [(2.0 * (1.0 - math.cos(math.pi * i / panels))) ** n for i in range(panels + 1)]
    return (math.fsum(values[1:-1]) + 0.5 * (values[0] + values[-1])) / panels


class TestChuVandermonde:
    def test_small_cases_by_hand(self):
        # n = 2: 1 + 4 + 1 = 6 = C(4,2)
        assert chu_vandermonde_sum(2) == 6
        # n = 3: 1 + 9 + 9 + 1 = 20 = C(6,3)
        assert chu_vandermonde_sum(3) == 20

    def test_identity_through_64(self):
        assert all(chu_vandermonde_sum(n) == math.comb(2 * n, n) for n in range(65))


class TestArcsineQuadrature:
    def test_matches_central_binomials(self):
        # [PAPER] moments of 1/(pi sqrt(s(4-s))) on [0,4] are C(2n,n)
        for n in range(8):
            approx = arcsine_moment_quadrature(n)
            exact = math.comb(2 * n, n)
            assert abs(approx - exact) <= 1e-8 * exact

    def test_zeroth_moment_is_one(self):
        assert abs(arcsine_moment_quadrature(0) - 1.0) < 1e-12


class TestSymmetricExactMatrix:
    # is_psd takes a matrix as its rows and checks the shape and symmetry itself
    def test_quadratic_form_by_hand(self):
        m = from_function(2, lambda i, j: F(i + j + 1))
        # [[1,2],[2,3]], v = (1,-1): 1 - 2 - 2 + 3 = 0
        assert quadratic_form(m, [F(1), F(-1)]) == 0

    def test_asymmetric_function_rejected(self):
        with pytest.raises(ValueError, match="not symmetric at"):
            is_psd(from_function(2, lambda i, j: F(i - j)))

    @pytest.mark.parametrize(
        "rows", [[[F(1), F(0)]], [[F(1), F(0)], [F(0)]], [[F(1)], [F(0), F(1)]]], ids=["wide", "short-row", "long-row"]
    )
    def test_non_square_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="square"):
            is_psd(rows)

    def test_integer_rows_fail_with_a_rational_witness(self):
        # int entries: an int / int division would give a float vector
        rows = [[1, 2], [2, 1]]
        cert = is_psd(rows)
        assert not cert.ok
        v, value = cert.witness["vector"], cert.witness["value"]
        assert all(type(t) is F for t in v) and type(value) is F
        assert quadratic_form(rows, v) == value < 0


class TestIsPsd:
    def test_diagonal_psd(self):
        m = from_function(3, lambda i, j: F(i + 1) if i == j else F(0))
        assert is_psd(m).ok

    def test_hilbert_matrix_is_psd(self):
        h = from_function(4, lambda i, j: F(1, i + j + 1))
        cert = is_psd(h)
        assert cert.ok
        assert len(cert.witness["pivots"]) == 4

    def test_rank_deficient_psd(self):
        ones = from_function(3, lambda i, j: F(1))
        assert is_psd(ones).ok

    def test_indefinite_has_checkable_witness(self):
        m = from_function(2, lambda i, j: F(1) if i == j else F(2))
        cert = is_psd(m)
        assert not cert.ok
        v = [F(t) for t in cert.witness["vector"]]
        value = quadratic_form(m, v)
        assert value < 0
        assert value == F(cert.witness["value"])

    def test_zero_pivot_psd(self):
        m = from_function(
            2, lambda i, j: F(1) if i == j == 1 else F(0)
        )
        assert is_psd(m).ok

    def test_zero_pivot_indefinite(self):
        # [[0,1],[1,0]] has eigenvalues +-1
        m = from_function(2, lambda i, j: F(0) if i == j else F(1))
        cert = is_psd(m)
        assert not cert.ok
        v = [F(t) for t in cert.witness["vector"]]
        assert quadratic_form(m, v) < 0

    @given(
        entries=st.lists(rationals, min_size=9, max_size=9),
    )
    @settings(max_examples=60)
    def test_gram_matrices_pass(self, entries):
        b = [entries[0:3], entries[3:6], entries[6:9]]

        def gram(i, j):
            return sum(b[k][i] * b[k][j] for k in range(3))

        assert is_psd(from_function(3, gram)).ok

    @given(entries=st.lists(rationals, min_size=6, max_size=6))
    @settings(max_examples=60)
    def test_failures_carry_negative_witness(self, entries):
        pool = iter(entries)
        vals = {}
        for i in range(3):
            for j in range(i, 3):
                vals[(i, j)] = next(pool)
        m = from_function(
            3, lambda i, j: vals[(min(i, j), max(i, j))]
        )
        cert = is_psd(m)
        if not cert.ok:
            v = [F(t) for t in cert.witness["vector"]]
            assert quadratic_form(m, v) < 0


def hankel(moments, order, shift=0):
    """The rows of [moments[i + j + shift]], 0 <= i, j <= order."""
    return [moments[i + shift : i + shift + order + 1] for i in range(order + 1)]


def random_measure(rng, atoms):
    points = {F(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(atoms)}
    return AtomicMeasure1D((p, F(rng.randint(1, 9), rng.randint(1, 9))) for p in points)


def symmetric_nudge(rng, rows):
    """``rows`` with one entry and its mirror moved by a small random rational."""
    rows = [row[:] for row in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    e = F(rng.randint(-4, 4), rng.randint(1, 50))
    rows[i][j] += e
    if i != j:
        rows[j][i] += e
    return rows


def zeroed(rng, rows):
    """``rows`` with a random row and its column set to 0."""
    z = rng.randrange(len(rows))
    return [[F(0) if z in (i, j) else v for j, v in enumerate(row)] for i, row in enumerate(rows)]


def gram(rng, order, rank):
    """B^T B for a random rank x order rational B: PSD of rank at most ``rank``."""
    b = [[F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(order)] for _ in range(rank)]
    return [[sum((r[i] * r[j] for r in b), F(0)) for j in range(order)] for i in range(order)]


def seeded_matrices(seed=27, count=1300):
    """(kind, rows) for measure Hankels, perturbed Hankels, low-rank Gram
    matrices and zeroed rows of either, and zero pivots ahead of a nonzero row."""
    rng = random.Random(seed)
    for _ in range(count):
        mu = random_measure(rng, rng.randint(1, 4))
        order = rng.randint(1, 6)
        moments = [moment1(mu, n) for n in range(2 * order + 2)]
        shift = rng.randint(0, 1)
        yield "hankel", hankel(moments, order, shift)
        yield "perturbed hankel", symmetric_nudge(rng, hankel(moments, order, shift))
        size = rng.randint(1, 7)
        low = gram(rng, size, rng.randint(0, size))
        yield "gram", low
        yield "zeroed", zeroed(rng, rng.choice([low, symmetric_nudge(rng, low), hankel(moments, order)]))
    for t in range(-3, 4):
        yield "zero pivot", [[F(0), F(1)], [F(1), F(t)]]
        yield "zero pivot", [[F(1), F(1), F(2)], [F(1), F(1), F(5)], [F(2), F(5), F(t)]]


def assert_same_certificate(rows):
    got, want = is_psd(rows), is_psd_reference(rows)
    assert (got.ok, dict(got.witness)) == (want.ok, dict(want.witness))
    for key in ("pivots", "vector", "value"):
        if key in got.witness:
            values = got.witness[key] if key != "value" else [got.witness[key]]
            assert all(type(v) is F for v in values)
    return got


class TestIsPsdAgainstTheReference:
    """The integer elimination gives the rational LDL^T's certificates exactly."""

    def test_seeded_matrices(self):
        outcomes, cases = {}, 0
        for kind, rows in seeded_matrices():
            outcomes.setdefault(kind, set()).add(assert_same_certificate(rows).ok)
            cases += 1
            # the matrix scaled to ints gives, to the type of each value, its Fraction form's certificate
            scale = math.lcm(*(v.denominator for row in rows for v in row))
            ints = [[int(v * scale) for v in row] for row in rows]
            assert repr(is_psd(ints)) == repr(is_psd([[F(v) for v in row] for row in ints]))
        assert cases >= 5000
        # Hankels and Gram matrices are PSD, a zero pivot ahead of a nonzero row is not,
        # and the perturbed and zeroed matrices go both ways
        assert outcomes == {
            "hankel": {True},
            "perturbed hankel": {True, False},
            "gram": {True},
            "zeroed": {True, False},
            "zero pivot": {False},
        }

    def test_the_zero_pivot_branch(self):
        cert = assert_same_certificate([[0, 1], [1, 5]])
        assert not cert.ok
        # the pivot 0 meets sigma = 1 and tau = 5: v = (1, -sigma / (|tau| + 1))
        assert cert.witness["vector"] == [1, F(-1, 6)]
        assert cert.witness["value"] == F(-7, 36)

    def test_the_sum_block_hankels(self):
        psd = assert_same_certificate(sum_block_hankel(PAIR_THRESHOLD))
        assert psd.ok and sum(1 for p in psd.witness["pivots"] if p) == 19
        assert not assert_same_certificate(sum_block_hankel(F(1, 5))).ok

    def test_the_largest_admitted_hankel_of_a_four_atom_measure(self):
        # check1d --order 128: 129 x 129 of rank 4
        mu = AtomicMeasure1D([(F(1, 7), F(1, 10)), (F(2, 5), F(1, 5)), (F(3, 4), F(3, 10)), (F(1), F(2, 5))])
        moments = [moment1(mu, n) for n in range(257)]
        cert = assert_same_certificate(hankel(moments, 128))
        assert cert.ok and sum(1 for p in cert.witness["pivots"] if p) == 4

    def test_a_lifted_vector_that_is_not_negative_is_refused(self):
        # the identity with an empty elimination log: v = e_0 gives v^T M v = 1
        with pytest.raises(ArithmeticError, match="lifted witness is not negative"):
            _negativity_certificate([[(1, 1), (0, 1)], [(0, 1), (1, 1)]], [], {0: F(1)})

    @pytest.mark.parametrize("shift, support", [(0, [0, 1, 51]), (1, [0, 1, 50])], ids=["plain", "shifted"])
    def test_the_flat_tail_hankels(self, shift, support):
        # 51 squared weights 1/2, then 51/100 repeated: subnormal would need a flat shift
        w = WeightSequence1D.from_prefix([F(1, 2)] * 51 + [F(51, 100)])
        moments = [w.moment(n) for n in range(122)]
        cert = assert_same_certificate(hankel(moments, 60, shift))
        assert not cert.ok and [i for i, v in enumerate(cert.witness["vector"]) if v] == support


def battery_prefix(rng):
    """3 to 8 distinct squared weights p/q in (0, 1], q <= 16, increasing but for one
    swapped adjacent pair: the shape of the benchmark's non-subnormal prefixes."""
    length = rng.randint(3, 8)
    values = set()
    while len(values) < length:
        q = rng.randint(1, 16)
        values.add(F(rng.randint(1, q), q))
    squared = sorted(values)
    j = rng.randrange(length - 1)
    squared[j], squared[j + 1] = squared[j + 1], squared[j]
    return squared


class TestTheFailureWitness:
    """The witness of a failing test is lifted and checked in integers."""

    def test_battery_prefixes_with_one_descent(self):
        rng = random.Random(33)
        for _ in range(500):
            w = WeightSequence1D.from_prefix(battery_prefix(rng))
            moments = [w.moment(n) for n in range(10)]
            plain, shifted = (assert_same_certificate(hankel(moments, 4, shift)) for shift in (0, 1))
            # a descent makes a 2x2 principal minor of one of the two Hankels negative
            assert not (plain.ok and shifted.ok)

    def test_a_failing_hankel_builds_only_its_witness(self, fractions_built):
        w = WeightSequence1D.from_prefix([F(1, 2), F(1, 4), F(3, 4)])
        rows = hankel([w.moment(n) for n in range(9)], 4)
        cert, built = fractions_built(lambda: is_psd(rows))
        assert not cert.ok and cert == is_psd_reference(rows)
        assert built == len(cert.witness["vector"]) + 1 == 6  # the vector and the value


class TestExactInputs:
    """Every exact input is read by one reader, which refuses a float."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda v: is_psd([[v]]),
            lambda v: is_psd([[F(1), v], [v, F(1)]]),
            lambda v: rref([[F(1), v]]),
            lambda v: AtomicMeasure1D([(v, F(1))]),
            lambda v: AtomicMeasure1D([(F(1, 2), v)]),
            lambda v: AtomicMeasure2D([((F(1, 2), v), F(1))]),
            lambda v: WeightSequence1D(itertools.repeat(F(1)), v),
            lambda v: WeightSequence1D.from_prefix([F(1, 2), v]),
            lambda v: backward_extension_1d(v, AtomicMeasure1D([(F(1, 2), F(1))])),
            lambda v: berger_fit([F(1), v, F(1, 4)], 1),
            lambda v: integral_moment(v, 1),
            lambda v: family_diagram(v),
            lambda v: exponential_sum_sign([(v, F(1))]),
            lambda v: exponential_sum_sign([(F(1, 2), v)]),
            lambda v: exponential_sum_threshold([(F(1, 2), F(1), v)]),
        ],
        ids=[
            "is_psd", "is_psd-off-diagonal", "rref", "measure-point", "measure-mass", "planar-point",
            "norm-bound", "prefix", "backward-extension", "fit", "integral_moment", "family_diagram",
            "sign-base", "sign-coefficient", "threshold-slope",
        ],
    )
    def test_a_float_is_refused(self, call):
        call(F(1, 2))  # the rational passes
        with pytest.raises(ValueError, match="must be a rational, got 0.5"):
            call(0.5)

    @pytest.mark.parametrize("text", ["0.1", "1e-3", "1_0/3", "\u0661/\u0663", "1/ 3"])
    @pytest.mark.parametrize("call", [lambda c: integral_moment(c, 2), family_report], ids=["integral_moment", "x"])
    def test_exact_text_has_one_grammar(self, call, text):
        # parse_rational's "p/q" or integer: no decimal, exponent, "_" or non-ASCII digit
        assert call(" 1/10 ") == call(F(1, 10))
        with pytest.raises(ValueError, match="not a rational literal"):
            call(text)

    @pytest.mark.parametrize("entry", ["1", "1/2", None, 1j, 0.1])
    def test_is_psd_takes_ints_and_fractions_only(self, entry):
        # as a Fraction, 0.1 would be 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match="a matrix entry must be a rational"):
            is_psd([[entry]])


class TestLinearAlgebraHelpers:
    def test_solve_square_system(self):
        # the augmented matrix [A | b]: pivots 0..n-1, the last column holds the solution
        reduced, pivots = rref([[F(2), F(1), F(5)], [F(1), F(3), F(10)]])
        assert pivots == [0, 1]
        assert [row[2] for row in reduced] == [F(1), F(3)]

    def test_singular_system_misses_a_pivot(self):
        consistent = [[F(1), F(2), F(1)], [F(2), F(4), F(2)]]
        inconsistent = [[F(1), F(2), F(1)], [F(2), F(4), F(3)]]
        assert rref(consistent)[1] == [0]
        assert rref(inconsistent)[1] == [0, 2]

    def test_rref_refuses_ragged_rows(self):
        with pytest.raises(ValueError, match="matrix rows must have the same length"):
            rref([[F(1), F(2)], [F(3)]])

    def test_rref_pivots(self):
        rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)]]
        reduced, pivots = rref(rows)
        assert pivots == [0, 2]
        assert reduced[0] == [F(1), F(2), F(0)]
        assert reduced[1] == [F(0), F(0), F(1)]


def first_negative_reference(terms, k_max=400):
    """(k, f(k)) for the least k <= k_max with f(k) = sum c a^k < 0, by brute force."""
    for k in range(k_max + 1):
        value = sum(c * a**k for a, c in terms)
        if value < 0:
            return k, value
    return None


def dominance_reference(terms):
    """The least k >= 1 where the first nonzero term c a^k, largest base
    first, is positive and at least the negative terms' sizes, by brute force."""
    for k in itertools.count(1):
        values = [c * a**k for a, c in sorted(terms, reverse=True)]
        lead = next((v for v in values if v), 0)
        if lead >= 0 and lead >= sum(-v for v in values if v < 0):
            return k


def sign_outcome(terms):
    cert = exponential_sum_sign(terms)
    return None if cert.ok else (cert.witness["k"], cert.witness["value"])


def shifted(terms, j):
    """The sum k -> f(k + j), whose coefficients are c a^j (0^0 = 1)."""
    return [(a, c * a**j) for a, c in terms]


def random_sum(rng, size):
    """A sum with ``size`` distinct bases in [0, 1], 0 and 1 among the candidates."""
    pool = [F(0), F(1)] + [F(rng.randint(1, 15), 16), F(rng.randint(1, 99), 100), F(1, rng.randint(2, 9))]
    bases = list(dict.fromkeys(rng.sample(pool, size)))
    return [(a, F(rng.randint(-30, 30), rng.randint(1, 12))) for a in bases]


class TestExponentialSumSign:
    def test_matches_a_brute_force_scan_on_seeded_sums(self):
        rng = random.Random(316)
        for _ in range(400):
            terms = shifted(random_sum(rng, rng.randint(1, 4)), rng.choice([0, 0, 1, 2, 7]))
            assert sign_outcome(terms) == first_negative_reference(terms)
            cert = exponential_sum_sign(terms)
            if cert.ok:
                assert cert.witness["stop_index"] == dominance_reference(terms)

    def test_knife_edge_sums_vanish_at_the_chosen_index(self):
        # f(k) = 1 - 2^(j - k) is zero at k = j, negative before and positive after
        for j in range(0, 30, 3):
            terms = [(F(1), F(1)), (F(1, 2), -(F(2) ** j))]
            assert sum(c * a**j for a, c in terms) == 0
            assert exponential_sum_sign(shifted(terms, j)).ok
            if j:
                assert sign_outcome(terms) == first_negative_reference(terms) == (0, 1 - F(2) ** j)
                assert sign_outcome(shifted(terms, j - 1)) == (0, F(-1))
        # (1/2)^k - (3/2)^j (1/3)^k is zero at k = j and positive after
        for j in (1, 5, 40):
            terms = [(F(1, 2), F(1)), (F(1, 3), -(F(3, 2) ** j))]
            assert sum(c * a**j for a, c in terms) == 0
            assert exponential_sum_sign(shifted(terms, j)).ok
            assert first_negative_reference(terms) == sign_outcome(terms)

    def test_a_zero_dominant_coefficient_passes_the_lead_on(self):
        # the base 1 carries nothing, so 1/2 dominates with a negative coefficient
        terms = [(F(1), F(0)), (F(1, 2), F(-1)), (F(1, 4), F(5))]
        assert sign_outcome(terms) == first_negative_reference(terms) == (3, F(-3, 64))
        cert = exponential_sum_sign([(F(1), F(0)), (F(1, 2), F(1)), (F(1, 4), F(-1))])
        assert cert.ok and cert.witness["dominant_base"] == F(1, 2)

    def test_the_base_zero_counts_at_index_zero_only(self):
        assert sign_outcome([(F(0), F(-1))]) == (0, F(-1))
        assert exponential_sum_sign(shifted([(F(0), F(-1))], 1)).witness == {"dominant_base": None, "stop_index": 1}
        assert sign_outcome([(F(0), F(-2)), (F(1, 2), F(1))]) == (0, F(-1))
        assert exponential_sum_sign([(F(0), F(-1)), (F(1, 2), F(1))]).ok

    def test_the_base_one_is_constant(self):
        assert sign_outcome(shifted([(F(1), F(-1, 3))], 5)) == (0, F(-1, 3))
        terms = [(F(1), F(1, 3)), (F(9, 10), F(-1))]
        cert = exponential_sum_sign(terms)
        assert not cert.ok and cert.witness["k"] == 0
        cert = exponential_sum_sign(shifted(terms, 11))
        assert cert.ok and cert.witness["dominant_base"] == 1
        assert first_negative_reference(terms)[0] == 0
        assert first_negative_reference(shifted(terms, 11)) is None

    def test_the_stop_index_is_where_domination_starts(self):
        # (1 - 100 (1/2)^k)^2: 1 first outweighs the one negative term 200 (1/2)^k at k = 8
        assert exponential_sum_sign([(F(1), F(1)), (F(1, 2), F(-200)), (F(1, 4), F(10**4))]).witness["stop_index"] == 8
        # with no negative term past k = 0 the lead outweighs the rest at once
        assert exponential_sum_sign([(F(1), F(1)), (F(1, 2), F(100))]).witness["stop_index"] == 1
        assert exponential_sum_sign([(F(1), F(1)), (F(1, 2), F(1, 2))]).witness["stop_index"] == 1
        # 1 - 100 (1/2)^k turns nonnegative at k = 7, where 1 dominates
        assert sign_outcome([(F(1), F(1)), (F(1, 2), F(-100))]) == (0, F(-99))
        assert exponential_sum_sign(shifted([(F(1), F(1)), (F(1, 2), F(-100))], 7)).ok

    @pytest.mark.parametrize("r, stop", [(F(999, 1000), 693), (F(9999, 10**4), 6932)])
    def test_the_stop_index_is_exact_for_close_top_bases(self, r, stop):
        # (1 - r^k)^2 >= 0; 1 first outweighs the one negative term 2 r^k at
        # this index, the least k >= ln 2 / ln(1/r)
        cert = exponential_sum_sign([(F(1), F(1)), (r, F(-2)), (r * r, F(1))])
        assert cert.witness == {"dominant_base": 1, "stop_index": stop}
        assert 2 * r**stop <= 1 < 2 * r ** (stop - 1)

    @pytest.mark.parametrize(
        "terms",
        [
            [(F(1), F(-1)), (F(1, 2), F(100))],
            [(F(1), F(-1)), (F(99, 100), F(2)), (F(0), F(5))],
            [(F(9, 10), F(-1, 3)), (F(1, 2), F(40)), (F(1, 4), F(-7))],
        ],
    )
    def test_a_negative_lead_is_refused_at_the_first_negative_index(self, terms):
        # the lead outgrows the rest, so f goes negative; it never passes the stop rule
        outcome = sign_outcome(terms)
        assert outcome is not None and outcome[0] > 0
        assert outcome == first_negative_reference(terms)

    def test_close_top_bases_are_decided_past_a_large_stop_index(self):
        # 1 - 2 r^k + 2 0^k with r = 199999/200000 fails at k = 1; its stop
        # index is about 200000 ln 2, where 1 would first dominate 2 r^k
        r = F(199999, 200000)
        assert sign_outcome([(F(1), F(1)), (r, F(-2)), (F(0), F(2))]) == (1, 1 - 2 * r)

    def test_the_empty_and_zero_sums_pass(self):
        assert exponential_sum_sign([]).ok
        assert exponential_sum_sign([(F(1, 2), F(0))]).ok

    def test_bases_are_validated(self):
        with pytest.raises(ValueError):
            exponential_sum_sign([(F(3, 2), F(1))])
        with pytest.raises(ValueError):
            exponential_sum_sign([(F(1, 2), F(1)), (F(1, 2), F(-1))])
        # ragged terms whose coefficients still number one per base
        with pytest.raises(ValueError):
            exponential_sum_sign([(F(1, 2), F(1)), (F(1, 4), F(1), F(2)), (F(1, 8),)])


def threshold_reference(terms, k_max=400):
    """The least root -A_k / B_k over k <= k_max with B_k < 0, with its least index."""
    best = None
    for k in range(k_max + 1):
        constant = sum(c * a**k for a, c, _ in terms)
        slope = sum(d * a**k for a, _, d in terms)
        assert constant >= 0
        if slope < 0 and (best is None or constant / -slope < best[0]):
            best = (constant / -slope, k)
    return best


class TestExponentialSumThreshold:
    def test_matches_the_least_root_on_seeded_sums(self):
        rng = random.Random(1406)
        checked = 0
        while checked < 150:
            size = rng.randint(1, 3)
            pool = [F(0), F(1), F(1, 2), F(1, 3), F(3, 4), F(1, 8)]
            bases = rng.sample(pool, size)
            terms = [(a, F(rng.randint(0, 20), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))) for a in bases]
            if first_negative_reference([(a, c) for a, c, _ in terms]) is not None:
                with pytest.raises(ArithmeticError):
                    exponential_sum_threshold(terms)
                continue
            try:
                threshold, index = exponential_sum_threshold(terms)
            except ArithmeticError:
                # no x > 0 passes: some root is 0, or the roots fall to 0
                reference = threshold_reference(terms)
                assert reference is None or reference[0] < F(1, 10**6) or reference[0] == 0
                continue
            reference = threshold_reference(terms)
            if threshold is None:
                assert reference is None
            elif index is not None:
                assert (threshold, index) == reference
            else:
                # the limit of the roots: no root below it, and it passes itself
                assert reference is None or reference[0] >= threshold
                assert exponential_sum_sign([(a, c + d * threshold) for a, c, d in terms]).ok
            if threshold is not None:
                above = threshold + F(1, 10**9)
                assert not exponential_sum_sign([(a, c + d * above) for a, c, d in terms]).ok
            checked += 1

    def test_the_family_column_at_t_zero(self):
        # column k1's mass at t = 0: (2/11 - x) 4^-k1 + (1/22 - x/4) 2^-k1 + 1/44 (+ 3/4 - 5x/8 at k1 = 0)
        terms = [(F(1, 4), F(2, 11), F(-1)), (F(1, 2), F(1, 22), F(-1, 4)), (F(1), F(1, 44), F(0)), (F(0), F(3, 4), F(-5, 8))]
        assert exponential_sum_threshold(terms) == (F(8, 33), 1)
        # a positive scale of every coefficient leaves the range as it is
        assert exponential_sum_threshold([(a, 88 * c, 88 * d) for a, c, d in terms]) == (F(8, 33), 1)

    def test_a_limit_that_no_root_attains(self):
        # roots (1 + 2^-k) / 1 fall to 1 and never reach it
        terms = [(F(1), F(1), F(-1)), (F(1, 2), F(1), F(0))]
        assert exponential_sum_threshold(terms) == (F(1), None)

    def test_every_x_passes(self):
        assert exponential_sum_threshold([(F(1, 2), F(0), F(1)), (F(0), F(1), F(-1))]) == (None, None)

    def test_a_negative_constant_part_is_refused(self):
        with pytest.raises(ArithmeticError, match="not \\(0, X\\]"):
            exponential_sum_threshold([(F(1, 2), F(-1), F(1))])

    @pytest.mark.parametrize(
        "terms",
        [
            [(F(1, 2), F(1), F(0)), (F(1, 2), F(0), F(1))],
            [(F(3, 2), F(1), F(0))],
            [(F(-1, 2), F(1), F(0)), (F(1), F(1), F(0))],
        ],
        ids=["duplicate", "above-one", "negative"],
    )
    def test_bases_are_validated(self, terms):
        with pytest.raises(ValueError, match=r"the bases must be distinct and lie in \[0, 1\]"):
            exponential_sum_threshold(terms)

    def test_no_positive_x_is_refused(self):
        with pytest.raises(ArithmeticError):
            exponential_sum_threshold([(F(1), F(0), F(-1))])
        with pytest.raises(ArithmeticError):
            exponential_sum_threshold([(F(1), F(0), F(-1)), (F(1, 2), F(1), F(0))])
