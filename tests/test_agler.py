import functools
import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert import agler, lubin
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
    per_n_exact_sup,
    positivity_over_all_k,
    tail_stopping_index,
)
from shiftcert.certificate import to_json
from shiftcert.lubin import PAIR_THRESHOLD, moment2d
from shiftcert.measures import moment1
from shiftcert.numerics import exponential_sum_threshold
from oracles import certify_sum_reference, integral_moment_sum, per_n_coefficients_reference, seeded_x, xi_a

xs = st.fractions(min_value=F(1, 32), max_value=F(2), max_denominator=64)
wide_xs = st.builds(F, st.integers(1, 1 << 200), st.integers(1, 1 << 200))

# the closed-form oracle costs O(n^2) per n; the tests read each n many times
closed_form = functools.lru_cache(maxsize=None)(per_n_coefficients_reference)


def closed_form_at(x: F, n: int) -> tuple[F, F, F, F]:
    """A_n(x), B_n(x), C_n and P_n(0, 0) from the closed-form oracle."""
    r = closed_form(n)
    return r["const_a"] + r["slope_a"] * x, r["const_b"] + r["slope_b"] * x, r["c_n"], r["k0_const"] + r["k0_slope"] * x


def positivity_reference(x: F, n: int) -> tuple[bool, int | None, F | None]:
    """(ok, least failing k, P_n(k, 0) there) by Fraction signs and a k-scan
    of the closed form at x."""
    a, b, c, p0 = closed_form_at(x, n)
    if p0 < 0:
        return False, 0, p0
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
    """The k = 0 root and each exposed root of the closed form, and the sup."""
    r = closed_form(n)
    found = [-const / slope for _, const, slope in r["exposed"]] + [per_n_exact_sup(n)]
    if r["k0_slope"] < 0:
        found.append(-r["k0_const"] / r["k0_slope"])
    return [root for root in found if root is not None]


def slice_form(n: int, k: int) -> tuple[F, F]:
    """(const, slope) with P_n(k, 0) gamma_k = const + slope x, read off the per-n slice."""
    den, terms, _ = agler._slice(n)
    return sum(F(c) * s**k for s, c, _ in terms) / den, sum(F(d) * s**k for s, _, d in terms) / den


def tail_inequalities(n: int) -> tuple[bool, bool]:
    """I_n(1/16) >= (15/16)^n and I_n(1/8) >= (7/8)^n, the two inequalities
    that close the n-tail."""
    return integral_moment(F(1, 16), n) >= F(15, 16) ** n, integral_moment(F(1, 8), n) >= F(7, 8) ** n


def clear_family_caches() -> None:
    for module in (lubin, agler):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def counted_calls(monkeypatch) -> list:
    """(name, n) for each later call of agler.per_n_exact_sup and agler.positivity_over_all_k."""
    calls = []
    for name in ("per_n_exact_sup", "positivity_over_all_k"):
        original = getattr(agler, name)

        def counted(*args, name=name, original=original):
            calls.append((name, args[-1]))
            return original(*args)

        monkeypatch.setattr(agler, name, counted)
    return calls


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
            agler._moment_numerators(c.numerator, c.denominator)[1] = 2
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
        den, terms, _ = agler._slice(1)
        forms = {s: (F(c, den), F(d, den)) for s, c, d in terms}
        assert -forms[F(1, 4)][0] / forms[F(1, 4)][1] == F(30, 11)
        assert -forms[F(1, 2)][0] / forms[F(1, 2)][1] == F(14, 11)
        const, slope = slice_form(1, 0)
        assert -const / slope == F(43, 11)
        # the roots of k = 1, 2, 3; the least over every k binds at k = 1
        assert [(k, -const / slope) for k, (const, slope) in ((k, slice_form(1, k)) for k in (1, 2, 3))] == [
            (1, F(28, 11)),
            (2, F(106, 33)),
            (3, F(278, 55)),
        ]
        assert exponential_sum_threshold(terms) == (F(28, 11), 1)

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
        # every field of the closed form, for each n up to the sweep's --n-max
        # cap: the slice read off mu holds integers over 88 * 16^n
        for n in range(201):
            reference = closed_form(n)
            den, terms, sup = agler._slice(n)
            assert den == 88 * 16**n
            forms = {s: (F(c, den), F(d, den)) for s, c, d in terms}
            assert forms[F(1, 4)] == (reference["const_a"], reference["slope_a"]), n
            assert forms[F(1, 2)] == (reference["const_b"], reference["slope_b"]), n
            assert forms[F(1)] == (reference["c_n"], 0), n
            assert slice_form(n, 0) == (reference["k0_const"], reference["k0_slope"]), n
            last = max((k for k, _, _ in reference["exposed"]), default=0)
            exposed = tuple((k, *slice_form(n, k)) for k in range(1, last + 1) if slice_form(n, k)[1] < 0)
            assert exposed == reference["exposed"], n
            assert sup == exponential_sum_threshold(terms)[0] == reference["sup"], n

    def test_exposed_roots_are_zeros_of_the_oracle(self):
        nudge = F(1, 10**40)
        checked = 0
        for n in range(1, tail_stopping_index().n_star + 1):
            for k, const, slope in closed_form(n)["exposed"]:
                assert slope < 0 < const
                root = -const / slope
                assert p_n_closed(root, k, n) == 0
                assert p_n_bruteforce(root, k, n) == 0
                assert p_n_bruteforce(root + nudge, k, n) < 0
                checked += 1
        assert checked > 0

    def test_no_k_goes_negative_at_the_sup(self):
        # a scan that stopped too early would miss a k with a lower root
        for n in range(1, tail_stopping_index().n_star + 1):
            sup = per_n_exact_sup(n)
            if sup is not None:
                assert min(p_n_closed_values(sup, n, range(1, 65))) >= 0, n

    def test_certify_sum_cross_check_catches_a_dropped_form(self, monkeypatch):
        # a sup that missed the form binding the certified bound lets every
        # n pass just past it, against the cached bound
        x_max = certified_x_max()
        n = next(m for m in range(1, 102) if per_n_exact_sup(m) == x_max)
        assert exponential_sum_threshold(agler._slice(n)[1])[1] >= 1  # the bound binds at a form with k >= 1
        original = agler.per_n_exact_sup
        monkeypatch.setattr(agler, "per_n_exact_sup", lambda m: x_max + 1 if m == n else original(m))
        with pytest.raises(ArithmeticError):
            certify_sum(x_max + F(1, 10**40))

    def test_certify_sum_cross_check_catches_a_raised_bound(self, monkeypatch):
        # the record walk and certified_x_max are found apart: a raised bound lets x pass
        # the bound while its record still fails it, and the two must agree
        x_max = certified_x_max()
        certify_sum(F(1, 5))
        monkeypatch.setattr(agler, "certified_x_max", lambda: x_max + 1)
        with pytest.raises(ArithmeticError, match="per-n decisions must match the certified bound"):
            certify_sum(x_max + F(1, 10**40))

    def test_positivity_cross_check_catches_a_wrong_sup(self, monkeypatch):
        # the sign test at x must agree with the threshold it is read against
        assert positivity_over_all_k(F(2), 1).ok
        monkeypatch.setattr(agler, "per_n_exact_sup", lambda m: F(1))
        with pytest.raises(ArithmeticError, match="disagrees with the threshold 1"):
            positivity_over_all_k(F(2), 1)

    def test_the_slices_follow_mu(self, monkeypatch):
        # the slices are read off lubin.MU, not restated: a changed mass at
        # (1, 0) moves the closed form and the brute force together
        x = F(1, 5)
        before = p_n_closed(x, 2, 3)
        changed = tuple((point, F(1, 22) if point == (1, 0) else c, d) for point, c, d in lubin.MU)
        monkeypatch.setattr(lubin, "MU", changed)
        clear_family_caches()
        try:
            assert p_n_closed(x, 2, 3) != before
            for x, k, n in [(F(1, 5), 2, 3), (F(1, 5), 0, 1), (F(1, 2), 1, 6), (F(3, 7), 5, 2), (F(6, 5), 0, 4)]:
                assert p_n_closed(x, k, n) == p_n_bruteforce(x, k, n)
        finally:
            monkeypatch.undo()
            clear_family_caches()
        assert p_n_closed(F(1, 5), 2, 3) == before


class TestPositivityDecision:
    def test_passes_below_the_bound(self):
        # the witness is the sign test's: C_n at the base 1 outweighs the
        # negative terms from stop_index on, and first there
        for n in range(1, 7):
            cert = positivity_over_all_k(F(1, 5), n)
            assert cert.ok
            assert set(cert.witness) == {"n", "dominant_base", "stop_index"}
            assert cert.witness["n"] == n and cert.witness["dominant_base"] == 1
            a, b, c, _ = closed_form_at(F(1, 5), n)
            stop = cert.witness["stop_index"]

            def outweighs(j):
                return c >= max(-a, 0) * F(1, 4) ** j + max(-b, 0) * F(1, 2) ** j

            assert outweighs(stop) and (stop == 1 or not outweighs(stop - 1))

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

    def test_a_pass_reads_no_sup_and_decides_no_n(self, monkeypatch):
        # the record sups are read once per process: a warm pass compares x with them in integers
        certify_sum(F(1, 5))
        calls = counted_calls(monkeypatch)
        for x in (F(1, 6), F(1, 2), certified_x_max()):
            assert certify_sum(x).ok
        assert calls == []

    def test_a_failure_decides_only_its_first_failing_n(self, monkeypatch):
        # x past the bound decides one n, the first whose sup it exceeds, which reads its own sup
        certify_sum(F(1, 5))
        calls = counted_calls(monkeypatch)
        for x, n in [(certified_x_max() + F(1, 10**40), 7), (F(5, 6), 7), (F(2), 2)]:
            calls.clear()
            assert certify_sum(x).witness["violation"]["n"] == n
            assert calls == [("positivity_over_all_k", n), ("per_n_exact_sup", n)]

    def test_matches_the_reference_scan_at_every_sup_and_the_cap(self):
        eps = F(1, 10**12)
        sups = [per_n_exact_sup(n) for n in range(1, tail_stopping_index().n_star + 1)]
        points = {s + e for s in [s for s in sups if s is not None] + [K0_CAP] for e in (-eps, 0, eps)}
        for x in sorted(points):
            assert certify_sum(x) == certify_sum_reference(x), x

    def test_matches_the_reference_scan_at_seeded_x(self):
        rng = random.Random(31)
        for i in range(200):
            x = seeded_x(rng, i % 4)
            assert certify_sum(x) == certify_sum_reference(x), x

    def test_the_cap_decides_when_it_lies_below_every_sup(self, monkeypatch):
        # the cap 6/5 lies above the certified bound, so no x reaches it today; lowered below
        # every sup, it ends the record table and decides each x past it that no n fails
        monkeypatch.setattr(agler, "K0_CAP", F(1, 2))
        clear_family_caches()
        try:
            assert agler._records()[-1] == (None, 1, 2) and certified_x_max() == F(1, 2)
            for x in (F(1, 2), F(1, 2) + F(1, 10**12), F(3, 5), F(5, 6), F(2)):
                assert certify_sum(x) == certify_sum_reference(x), x
            reason = "x exceeds the k = 0 tail cap 1/2 for the analytic region"
            assert certify_sum(F(3, 5)).witness["violation"] == {"reason": reason}
        finally:
            monkeypatch.undo()
            clear_family_caches()

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


class TestValidation:
    @pytest.mark.parametrize(
        "function, good, bad",
        [
            (p_n_closed, ("1/5", 1, 2), ("1/5", 1, 2.0)),
            (p_n_closed, ("1/5", 1, 2), ("1/5", 1.0, 2)),
            (p_n_closed_values, ("1/5", 2, [0, 1]), ("1/5", 2, [0, 1.0])),
            (positivity_over_all_k, ("1/5", 2), ("1/5", 2.0)),
            (per_n_exact_sup, (2,), (2.0,)),
            (integral_moment, ("1/16", 2), ("1/16", 2.0)),
            (p_n_bruteforce, ("1/5", 1, 2), ("1/5", 1, 2.0)),
            (abc_coefficients, ("1/5", 2), ("1/5", 2.0)),
        ],
        ids=lambda value: getattr(value, "__name__", None) or repr(value),
    )
    def test_a_float_order_or_index_is_a_value_error(self, function, good, bad):
        # the int form is computed first, so a cache cannot hand it to the float
        function(*good)
        with pytest.raises(ValueError, match="must be an integer"):
            function(*bad)


class TestSumMomentsAreConsistent:
    def test_rescaled_sum_moment_identity(self):
        # gamma_1 of the rescaled sum at x: (gamma_(1,0) + gamma_(0,1))/4
        for x in (F(1, 5), F(1, 2)):
            lhs = 1 - p_n_closed(x, 0, 1)
            assert lhs == (moment2d(1, 0, x) + moment2d(0, 1, x)) / 4
