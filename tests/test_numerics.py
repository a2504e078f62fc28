import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert.numerics import (
    SymmetricExactMatrix,
    _first_power_at_least,
    exponential_sum_sign,
    exponential_sum_threshold,
    is_psd,
    parse_rational,
    rat_str,
    rref,
)


def from_function(order, fn):
    """The order x order matrix [fn(i, j)]."""
    return SymmetricExactMatrix([[fn(i, j) for j in range(order)] for i in range(order)])


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

    def test_round_trips_with_rat_str(self):
        for value in (F(2, 11), F(-5), F(0), F(43, 48)):
            assert parse_rational(rat_str(value)) == value


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
    def test_hankel_layout(self):
        values = [F(1), F(2), F(3), F(4), F(5)]
        h = SymmetricExactMatrix.hankel(values, 3)
        assert h.entry(0, 2) == h.entry(1, 1) == F(3)
        assert h.entry(2, 2) == F(5)

    def test_hankel_needs_enough_values(self):
        with pytest.raises(ValueError):
            SymmetricExactMatrix.hankel([F(1), F(2)], 2)

    def test_quadratic_form_by_hand(self):
        m = from_function(2, lambda i, j: F(i + j + 1))
        # [[1,2],[2,3]], v = (1,-1): 1 - 2 - 2 + 3 = 0
        assert m.quadratic_form([F(1), F(-1)]) == 0

    def test_asymmetric_function_rejected(self):
        with pytest.raises(ValueError):
            from_function(2, lambda i, j: F(i - j))


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
        value = m.quadratic_form(v)
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
        assert m.quadratic_form(v) < 0

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
            assert m.quadratic_form(v) < 0


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
        assert exponential_sum_sign([(F(1), F(1)), (F(1, 2), F(100))]).witness["stop_index"] == 7
        assert exponential_sum_sign([(F(1), F(1)), (F(1, 2), F(1, 2))]).witness["stop_index"] == 1
        # 1 - 100 (1/2)^k turns nonnegative at k = 7, where 1 dominates
        assert sign_outcome([(F(1), F(1)), (F(1, 2), F(-100))]) == (0, F(-99))
        assert exponential_sum_sign(shifted([(F(1), F(1)), (F(1, 2), F(-100))], 7)).ok

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

    def test_first_power_at_least(self):
        assert _first_power_at_least(F(2), 1) == 0
        assert _first_power_at_least(F(2), F(1, 3)) == 0
        assert _first_power_at_least(F(2), 1024) == 10
        assert _first_power_at_least(F(2), 1025) == 11
        assert _first_power_at_least(F(31, 30), 27) == 101
        assert _first_power_at_least(F(3, 2), F(9, 4)) == 2
        assert _first_power_at_least(F(10**40), 10**400 + 1) == 11
        with pytest.raises(ValueError):
            _first_power_at_least(F(1), 2)

    @pytest.mark.parametrize("ratio, target", [(F(100001, 100000), 3), (F(200000, 199999), 2), (F(3, 2), F(7, 5))])
    def test_first_power_at_least_finds_a_far_index_exactly(self, ratio, target):
        # the two close ratios need n past 100,000
        n = _first_power_at_least(ratio, target)
        assert ratio**n >= target > ratio ** (n - 1)


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

    def test_no_positive_x_is_refused(self):
        with pytest.raises(ArithmeticError):
            exponential_sum_threshold([(F(1), F(0), F(-1))])
        with pytest.raises(ArithmeticError):
            exponential_sum_threshold([(F(1), F(0), F(-1)), (F(1, 2), F(1), F(0))])
