import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert.numerics import (
    SymmetricExactMatrix,
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

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", "2/0", "1/-2", "", "a/b", "1 / 2", 5, None])
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
