import itertools
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert import agler
from shiftcert.agler import (
    K0_CAP,
    abc_coefficients,
    certified_epsilon,
    certified_x_max,
    certify_sum,
    integral_moment,
    p_n_bruteforce,
    p_n_closed,
    p_n_closed_values,
    per_n_coefficients,
    per_n_exact_sup,
    positivity_over_all_k,
    tail_stopping_index,
)
from shiftcert.certificate import to_json
from shiftcert.lubin import PAIR_THRESHOLD, moment2d
from shiftcert.measures import moment1
from oracles import xi_a

xs = st.fractions(min_value=F(1, 32), max_value=F(2), max_denominator=64)
wide_xs = st.builds(F, st.integers(1, 1 << 200), st.integers(1, 1 << 200))


def positivity_reference(x: F, n: int) -> tuple[bool, int | None, F | None]:
    """(ok, least failing k, P_n(k, 0) there) by Fraction signs and a k-scan at x."""
    p0 = p_n_closed(x, 0, n)
    if p0 < 0:
        return False, 0, p0
    a, b, c = abc_coefficients(x, n)
    if a >= 0 and b >= 0:
        return True, None, None
    for k in itertools.count(1):
        wa, wb = F(1, 4) ** k, F(1, 2) ** k
        value = a * wa + b * wb + c
        if value < 0:
            return False, k, value / moment1(xi_a(), k)
        if abs(a) * wa + abs(b) * wb <= c:
            return True, None, None


def decision(x: F, n: int) -> tuple[bool, int | None, F | None]:
    cert = positivity_over_all_k(x, n)
    return cert.ok, cert.witness.get("k"), cert.witness.get("value")


def roots(n: int) -> list[F]:
    """The k = 0 root, each exposed root and the sup of the per-n record."""
    r = per_n_coefficients(n)
    found = [F(-const, slope) for _, const, slope in r.exposed] + [r.sup]
    if r.k0_slope < 0:
        found.append(F(-r.k0_const, r.k0_slope))
    return [root for root in found if root is not None]


def integral_moment_sum(c: F, n: int) -> F:
    """I_n(c) = sum_l C(n,l) (-c)^l C(2l,l) over a common denominator: the
    O(n^2) binomial sum, the oracle for the recurrence of integral_moment."""
    p, q = c.numerator, c.denominator
    numerator = sum(
        math.comb(n, ell) * math.comb(2 * ell, ell) * (-p) ** ell * q ** (n - ell) for ell in range(n + 1)
    )
    return F(numerator, q**n)


def tail_inequalities(n: int) -> tuple[bool, bool]:
    """I_n(1/16) >= (15/16)^n and I_n(1/8) >= (7/8)^n, the two inequalities
    that close the n-tail."""
    return integral_moment(F(1, 16), n) >= F(15, 16) ** n, integral_moment(F(1, 8), n) >= F(7, 8) ** n


def per_n_coefficients_reference(n: int) -> dict:
    """The per-n record's fields by the Fraction k-scan, with I_n from the binomial sum."""
    i16, i8 = integral_moment_sum(F(1, 16), n), integral_moment_sum(F(1, 8), n)
    p16, p8, p4 = F(15, 16) ** n, F(7, 8) ** n, F(3, 4) ** n
    const_a, slope_a = PAIR_THRESHOLD * p16, i16 - p16
    const_b, slope_b = F(1, 22) * p8, (i8 - p8) / 4
    c_n = F(1, 44) * p4
    k0_const = F(3, 4) + const_a + const_b + c_n
    k0_slope = slope_a + slope_b - F(5, 8) * (1 - p4)
    exposed = []
    sup = None
    if slope_a < 0 or slope_b < 0:
        for k in itertools.count(1):
            wa, wb = F(1, 4) ** k, F(1, 2) ** k
            slope_k = slope_a * wa + slope_b * wb
            if slope_k < 0:
                const_k = const_a * wa + const_b * wb + c_n
                exposed.append((k, const_k, slope_k))
                root = const_k / -slope_k
                if sup is None or root < sup:
                    sup = root
            if slope_b >= 0 and slope_k >= 0:
                break
            if sup is not None and (abs(slope_a) * wa + abs(slope_b) * wb) * sup < c_n:
                break
    if k0_slope < 0 and (sup is None or k0_const / -k0_slope < sup):
        sup = k0_const / -k0_slope
    return {
        "const_a": const_a,
        "slope_a": slope_a,
        "const_b": const_b,
        "slope_b": slope_b,
        "c_n": c_n,
        "k0_const": k0_const,
        "k0_slope": k0_slope,
        "exposed": tuple(exposed),
        "sup": sup,
    }


def quadrature_oracle(c: F, n: int) -> float:
    # (1/pi) int_0^pi (1 - 2c(1 - cos t))^n dt, plain trapezoid
    t = np.linspace(0.0, math.pi, 1 << 16)
    values = (1.0 - 2.0 * float(c) * (1.0 - np.cos(t))) ** n
    return float(np.trapezoid(values, t)) / math.pi


class TestIntegralMoment:
    def test_low_orders_by_hand(self):
        c = F(1, 16)
        assert integral_moment(c, 0) == 1
        assert integral_moment(c, 1) == 1 - 2 * c
        assert integral_moment(c, 2) == 1 - 4 * c + 6 * c**2
        assert integral_moment(c, 3) == 1 - 6 * c + 18 * c**2 - 20 * c**3

    def test_family_values(self):
        assert integral_moment(F(1, 16), 1) == F(7, 8)
        assert integral_moment(F(1, 8), 1) == F(3, 4)

    def test_against_quadrature(self):
        for c, n in [(F(1, 16), 7), (F(1, 8), 5), (F(1, 5), 4), (F(1, 16), 20)]:
            exact = float(integral_moment(c, n))
            approx = quadrature_oracle(c, n)
            assert abs(exact - approx) <= 1e-9 * max(1.0, abs(exact))

    def test_stays_in_unit_interval_and_decreases(self):
        for c in (F(1, 16), F(1, 8)):
            previous = F(1)
            for n in range(1, 30):
                value = integral_moment(c, n)
                assert 0 < value < previous
                previous = value

    def test_smaller_c_dominates(self):
        for n in range(1, 20):
            assert integral_moment(F(1, 16), n) > integral_moment(F(1, 8), n)

    def test_validation(self):
        with pytest.raises(ValueError):
            integral_moment(F(3, 2), 1)
        with pytest.raises(ValueError):
            integral_moment(F(1, 16), -1)

    def test_recurrence_matches_the_binomial_sum(self):
        for c in (F(1, 16), F(1, 8), F(1, 5), F(3, 7), F(99, 100)):
            for n in range(201):
                assert integral_moment(c, n) == integral_moment_sum(c, n), (c, n)

    def test_cold_high_order_has_no_recursion(self):
        agler.integral_moment.cache_clear()
        agler._moment_numerators.cache_clear()
        try:
            value = integral_moment(F(1, 16), 3000)
        finally:
            agler.integral_moment.cache_clear()
            agler._moment_numerators.cache_clear()
        assert 0 < value < integral_moment(F(1, 16), 2999)

    def test_a_remainder_in_the_recurrence_raises(self):
        # with c = 1/3, 2 J_2 = 3 J_1 + 3; a corrupted even J_1 leaves a remainder
        c = F(1, 3)
        agler._moment_numerators.cache_clear()
        try:
            agler._moment_numerators(c)[1] = 2
            with pytest.raises(ArithmeticError):
                agler.integral_moment.__wrapped__(c, 2)
        finally:
            agler._moment_numerators.cache_clear()


class TestDualRoutes:
    def test_exact_agreement_on_a_grid(self):
        for x in (F(1, 10), F(2, 11), F(1, 4)):
            for n in range(1, 7):
                for k in range(6):
                    assert p_n_closed(x, k, n) == p_n_bruteforce(x, k, n)

    @given(
        x=xs,
        n=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_agreement_property(self, x, n, k):
        assert p_n_closed(x, k, n) == p_n_bruteforce(x, k, n)

    def test_closed_form_coefficients(self):
        # P_n(k,0) gamma_k == A (1/4)^k + B (1/2)^k + C for k >= 1
        for x, n in [(F(1, 5), 1), (F(1, 2), 3), (F(6, 5), 4)]:
            a, b, c = abc_coefficients(x, n)
            for k in range(1, 8):
                gamma_k = moment1(xi_a(), k)
                assert p_n_closed(x, k, n) * gamma_k == a * F(1, 4) ** k + b * F(1, 2) ** k + c

    def test_coefficient_definitions(self):
        x, n = F(1, 5), 3
        a, b, c = abc_coefficients(x, n)
        assert a == (F(2, 11) - x) * F(15, 16) ** n + x * integral_moment(F(1, 16), n)
        assert b == (F(1, 22) - x / 4) * F(7, 8) ** n + (x / 4) * integral_moment(F(1, 8), n)
        assert c == F(1, 44) * F(3, 4) ** n


class TestPerNBounds:
    def test_affine_bounds_at_n1_by_hand(self):
        r = per_n_coefficients(1)
        assert F(-r.const_a, r.slope_a) == F(30, 11)
        assert F(-r.const_b, r.slope_b) == F(14, 11)
        assert F(-r.k0_const, r.k0_slope) == F(43, 11)
        # the scan stops once no later root can fall below the running minimum 28/11
        assert [(k, F(-const, slope)) for k, const, slope in r.exposed] == [
            (1, F(28, 11)),
            (2, F(106, 33)),
            (3, F(278, 55)),
        ]

    def test_k0_bound_matches_the_first_moment(self):
        # P_1(0) = 1 - (gamma_(1,0) + gamma_(0,1))/4 = 1 - (1/11 + x)/4
        assert p_n_closed(F(43, 11), 0, 1) == 0
        assert p_n_closed(F(43, 11) + F(1, 100), 0, 1) < 0

    def test_exact_sup_at_n1(self):
        assert per_n_exact_sup(1) == F(28, 11)

    def test_sup_is_sharp_at_n1(self):
        sup = per_n_exact_sup(1)
        assert positivity_over_all_k(sup, 1).ok
        assert not positivity_over_all_k(sup + F(1, 10**6), 1).ok

    def test_all_finite_sups_clear_the_pair_threshold(self):
        n_star = tail_stopping_index().n_star
        for n in range(1, n_star + 1):
            sup = per_n_exact_sup(n)
            assert sup is None or sup > PAIR_THRESHOLD

    def test_validation(self):
        with pytest.raises(ValueError):
            per_n_exact_sup(0)


class TestPerNRecord:
    def test_integer_record_matches_the_fraction_scan(self):
        # every field, for each n up to the sweep's --n-max cap: the integers
        # are numerators over 88 * 16^n, and the k-th form's over 88 * 16^n * 4^k
        for n in range(201):
            record, den = per_n_coefficients(n), 88 * 16**n
            scaled = {name: F(v, den) for name, v in record._asdict().items() if name not in ("exposed", "sup")}
            scaled["exposed"] = tuple((k, F(c, den * 4**k), F(s, den * 4**k)) for k, c, s in record.exposed)
            scaled["sup"] = record.sup
            assert scaled == per_n_coefficients_reference(n), n

    def test_exposed_roots_are_zeros_of_the_oracle(self):
        nudge = F(1, 10**40)
        checked = 0
        for n in range(1, tail_stopping_index().n_star + 1):
            for k, const, slope in per_n_coefficients(n).exposed:
                assert slope < 0 < const
                root = F(-const, slope)
                assert p_n_bruteforce(root, k, n) == 0
                assert p_n_bruteforce(root + nudge, k, n) < 0
                checked += 1
        assert checked > 0

    def test_no_k_goes_negative_at_the_sup(self):
        # a scan that stopped too early would miss a k with a lower root
        for n in range(1, tail_stopping_index().n_star + 1):
            sup = per_n_coefficients(n).sup
            if sup is not None:
                assert min(p_n_closed_values(sup, n, range(1, 65))) >= 0, n

    def test_certify_sum_cross_check_catches_a_dropped_form(self, monkeypatch):
        x_max = certified_x_max()
        n = next(m for m in range(1, 102) if per_n_coefficients(m).sup == x_max)
        record = per_n_coefficients(n)
        kept = tuple(form for form in record.exposed if F(-form[1], form[2]) != x_max)
        assert len(kept) < len(record.exposed)  # the bound is attained by an exposed form
        broken = record._replace(exposed=kept)
        original = agler.per_n_coefficients
        monkeypatch.setattr(agler, "per_n_coefficients", lambda m: broken if m == n else original(m))
        with pytest.raises(ArithmeticError):
            certify_sum(x_max + F(1, 10**40))


class TestPositivityDecision:
    def test_passes_below_the_bound(self):
        for n in range(1, 7):
            cert = positivity_over_all_k(F(1, 5), n)
            assert cert.ok
            assert cert.witness == {"n": n, "forms_checked": 1 + len(per_n_coefficients(n).exposed)}

    def test_failure_witness_is_replayable(self):
        cert = positivity_over_all_k(F(3), 1)
        assert not cert.ok
        n, k = cert.witness["n"], cert.witness["k"]
        value = F(cert.witness["value"])
        assert value < 0
        assert value == p_n_bruteforce(F(3), k, n)

    def test_k0_failure_witness(self):
        cert = positivity_over_all_k(F(4), 1)
        assert not cert.ok
        assert cert.witness["k"] == 0
        assert F(cert.witness["value"]) == p_n_closed(F(4), 0, 1)

    def test_integer_sign_tests_on_the_knife_edges(self):
        # the k = 0 root, every exposed root and every sup, and each of
        # them nudged by 10^-40 to either side
        nudge = F(1, 10**40)
        checked = 0
        for n in range(1, tail_stopping_index().n_star + 1):
            for root in roots(n):
                for x in (root - nudge, root, root + nudge):
                    assert decision(x, n) == positivity_reference(x, n), (x, n)
                    checked += 1
        assert checked > 600

    @given(x=wide_xs, n=st.integers(min_value=1, max_value=tail_stopping_index().n_star))
    @settings(max_examples=200, deadline=None)
    def test_integer_sign_tests_match_the_reference(self, x, n):
        assert decision(x, n) == positivity_reference(x, n)

    @given(x=xs, n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_decision_matches_the_sup(self, x, n):
        sup = per_n_exact_sup(n)
        expected = sup is None or x <= sup
        assert positivity_over_all_k(x, n).ok == expected


class TestTail:
    def test_stopping_indices_are_exact(self):
        tail = tail_stopping_index()
        assert tail.n_sixteenth == 101
        assert tail.n_eighth == 48
        assert tail.n_star == 101
        # independent: first n with ratio^n >= 27, checked at the fence
        assert F(31, 30) ** 101 >= 27 > F(31, 30) ** 100
        assert F(15, 14) ** 48 >= 27 > F(15, 14) ** 47

    def test_inequalities_fail_early_and_hold_late(self):
        assert tail_inequalities(1) == (False, False)
        for n in range(101, 131):
            assert tail_inequalities(n) == (True, True)

    def test_tail_makes_coefficients_safe_for_large_x(self):
        # past the stopping index A_n and B_n are nonnegative for any x
        for n in (101, 120):
            for x in (F(1), F(100)):
                a, b, _ = abc_coefficients(x, n)
                assert a >= 0 and b >= 0


class TestCertifiedBound:
    def test_bound_brackets(self):
        x_max = certified_x_max()
        assert PAIR_THRESHOLD < x_max <= K0_CAP

    def test_bound_is_the_minimum_of_the_per_n_sups(self):
        n_star = tail_stopping_index().n_star
        sups = [per_n_exact_sup(n) for n in range(1, n_star + 1)]
        finite = [s for s in sups if s is not None]
        assert certified_x_max() == min(finite + [K0_CAP])

    def test_frozen_value(self):
        # regression pin of the machine-derived bound (~0.8251)
        assert certified_x_max() == F(482964062, 585323453)

    def test_epsilon_is_the_gap(self):
        assert certified_epsilon() == certified_x_max() - PAIR_THRESHOLD
        assert certified_epsilon() > 0


class TestCertifySum:
    def test_passes_at_the_counterexample_parameter(self):
        cert = certify_sum(F(1, 5))
        assert cert.ok and bool(cert) and cert.verdict == "pass"
        assert cert.witness["x"] == F(1, 5)
        assert cert.witness["n_tail"] == 101
        assert cert.witness["violation"] is None

    def test_passes_exactly_up_to_the_certified_bound(self):
        x_max = certified_x_max()
        assert certify_sum(x_max).ok
        bad = certify_sum(x_max + F(1, 10**6))
        assert not bad.ok and bad.verdict == "fail"
        violation = bad.witness["violation"]
        value = F(violation["value"])
        assert value < 0
        assert value == p_n_bruteforce(x_max + F(1, 10**6), violation["k"], violation["n"])

    def test_tail_flags_recorded(self):
        # the certificate closes the n-tail where both per-n tail inequalities hold
        cert = certify_sum(F(1, 5))
        n_tail = cert.witness["n_tail"]
        assert tail_inequalities(n_tail) == (True, True)
        assert not tail_inequalities(1)[0]
        assert f"for n > {n_tail}" in cert.witness["tail_witness"]

    def test_serialization(self):
        cert = certify_sum(F(2, 11))
        data = json.loads(to_json(cert))
        assert data == {
            "check": "certify_sum",
            "verdict": "pass",
            "witness": {
                "x": "2/11",
                "n_tail": 101,
                "certified_x_max": str(certified_x_max()),
                "epsilon": str(certified_epsilon()),
                "tail_witness": tail_stopping_index().witness,
                "violation": None,
            },
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            certify_sum(F(0))


class TestSumMomentsAreConsistent:
    def test_rescaled_sum_moment_identity(self):
        # gamma_1 of the rescaled sum at x: (gamma_(1,0) + gamma_(0,1))/4
        for x in (F(1, 5), F(1, 2)):
            lhs = 1 - p_n_closed(x, 0, 1)
            assert lhs == (moment2d(1, 0, x) + moment2d(0, 1, x)) / 4
