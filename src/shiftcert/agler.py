"""Certified subnormality of the rescaled sum T1 + T2.

For a contraction S, subnormality is equivalent to nonnegativity of every
alternating sum  P_n(v) = sum_l (-1)^l C(n,l) ||S^l v||^2.  Here
S = (T1 + T2)/2 for the parametric family of :mod:`.lubin`, v runs over
the bottom-row basis vectors e_{(k,0)}, and everything reduces to the
moment table:

    P_n(k, 0) = sum_l (-1)^l C(n,l) 4^{-l}
                sum_i C(l,i)^2 gamma_{(k+l-i, i)} / gamma_{(k, 0)},

because the images of e_{(k,0)} under distinct monomials in T1, T2 of the
same degree are orthogonal (:func:`p_n_bruteforce`).  Collapsing the inner
sum with the square-binomial convolution identity gives the closed form
(:func:`p_n_closed`): for k >= 1,

    P_n(k,0) gamma_k = A_n(x) (1/4)^k + B_n(x) (1/2)^k + C_n,
    A_n = (2/11 - x)(15/16)^n + x I_n(1/16),
    B_n = (1/22 - x/4)(7/8)^n + (x/4) I_n(1/8),
    C_n = (1/44)(3/4)^n,

where

    I_n(c) = sum_l C(n,l) (-c)^l C(2l, l)
           = integral of (1 - c s)^n against the arcsine-type density
             (1/pi) / sqrt(4s - s^2) on [0, 4].

The generating function  sum_n I_n(c) t^n = ((1 - t)(1 - (1 - 4c) t))^(-1/2)
gives the three-term recurrence

    (n + 1) I_(n+1) = (2n + 1)(1 - 2c) I_n - n (1 - 4c) I_(n-1),
    I_0 = 1,  I_1 = 1 - 2c,

so :func:`integral_moment` costs O(n) integer steps.  The k = 0 value
has an analogous affine-in-x expression.  All coefficients are
exact rationals, so per-n positivity over all k is decidable: C_n > 0
dominates the tail in k, and the k = 0 form is affine in x.

The infinite family of n is closed off analytically: restricting the
integral to [1/3, 1/2] gives  I_n(c) >= (1/(6 pi sqrt(2))) (1 - c/2)^n,
and with the rational outer bounds pi < 22/7, sqrt(2) < 17/12 (so
6 pi sqrt(2) < 27 because 6 * 22/7 * 17/12 = 187/7 < 27), the exact
inequalities  I_n(1/16) >= (15/16)^n  and  I_n(1/8) >= (7/8)^n  hold for
all n past explicit stopping indices where (31/30)^n and (15/14)^n clear
27.  Past the stopping index, A_n and B_n are nonnegative for *every*
x > 0 and the k = 0 form only needs x <= 6/5.

The upshot is an exact certified bound ``certified_x_max`` strictly above
2/11: the rescaled sum is subnormal on (0, 2/11 + epsilon] with
``epsilon = certified_epsilon()`` a positive rational, even though the
pair itself stops being jointly subnormal at 2/11.

Everything above that does not depend on x is computed once per process,
in the per-n record :func:`per_n_coefficients`: the constants and slopes
of A_n and B_n, C_n, the k = 0 affine pair, the two tail inequalities,
and one k-scan.  For each k >= 1, P_n(k, 0) gamma_k is a positive multiple
of const_k + slope_k x with const_k > 0, so only the forms with slope_k < 0 can go negative; the
record keeps those ``exposed`` forms up to the index past which no root
can fall below the running minimum, and ``sup``, the least root over
them and the k = 0 form.  The caches are keyed by n or by nothing, so no
cache grows with x.  The record is integers: each coefficient is a
numerator over the one denominator 88 * 16^n (the k-th form over a further
4^k), read straight off the recurrence's numerators, and only ``sup`` is a
Fraction.  At x = p/q a form holds iff const q + slope p >= 0, so a per-n
decision tests the k = 0 form and each exposed form by the sign of one
integer, never against a cached root, and :func:`certify_sum` can check
its verdict against the certified bound.  Fractions are built only for
what a function returns.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .certificate import Certificate
from .lubin import PAIR_THRESHOLD, _parameter, gamma_row, moment2d

C_SIXTEENTH = Fraction(1, 16)
C_EIGHTH = Fraction(1, 8)
K0_CAP = Fraction(6, 5)  # the k = 0 tail constraint: 3/4 - (5x/8)(1 - (3/4)^n) >= 0

_SCAN_LIMIT = 100_000


# c values whose numerator lists are kept; the certificate reads two, 1/16 and 1/8
_NUMERATOR_CACHE = 8
# entries of the (c, n)-keyed integral_moment cache
_MOMENT_CACHE = 1024


@lru_cache(maxsize=_NUMERATOR_CACHE)
def _moment_numerators(c: Fraction) -> list[int]:
    # J_n = q^n I_n(c) for c = p/q, for n = 0, 1, ...; _moment_numerator extends the list in place
    return [1, c.denominator - 2 * c.numerator]


def _moment_numerator(c: Fraction, n: int) -> int:
    """J_n = q^n I_n(c) for c = p/q, by the integer recurrence of :func:`integral_moment`."""
    p, q = c.numerator, c.denominator
    numerators = _moment_numerators(c)
    for m in range(len(numerators) - 1, n):
        step = (2 * m + 1) * (q - 2 * p) * numerators[m] - m * q * (q - 4 * p) * numerators[m - 1]
        value, remainder = divmod(step, m + 1)
        if remainder:
            raise ArithmeticError(f"the recurrence for I_{m + 1}({c}) left a remainder")
        numerators.append(value)
    return numerators[n]


@lru_cache(maxsize=_MOMENT_CACHE)
def integral_moment(c, n: int) -> Fraction:
    """I_n(c) = sum_l C(n,l) (-c)^l C(2l,l), by its three-term recurrence.

    The generating function sum_n I_n(c) t^n = ((1 - t)(1 - (1 - 4c) t))^(-1/2)
    gives (n + 1) I_(n+1) = (2n + 1)(1 - 2c) I_n - n (1 - 4c) I_(n-1) with
    I_0 = 1 and I_1 = 1 - 2c.  For c = p/q the numerators J_n = q^n I_n are
    integers with

        (n + 1) J_(n+1) = (2n + 1)(q - 2p) J_n - n q (q - 4p) J_(n-1),

    filled in ascending n into a list kept per c (at most ``_NUMERATOR_CACHE``
    of them), and each division by n + 1 is checked to be exact.
    """
    c = Fraction(c)
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(_moment_numerator(c, n), c.denominator**n)


class PerNCoefficients(
    namedtuple(
        "PerNCoefficients",
        "const_a slope_a const_b slope_b c_n k0_const k0_slope exposed sup",
    )
):
    """The x-free data of one n, from which every per-n fact at x follows.

    The coefficients are integers, numerators over den = 88 * 16^n:

        den A_n = const_a + slope_a x,  den B_n = const_b + slope_b x,
        den C_n = c_n,  den P_n(0, 0) = k0_const + k0_slope x.

    ``exposed`` holds each (k, const_k, slope_k) with k >= 1, slope_k < 0
    and const_k + slope_k x = den 4^k P_n(k, 0) gamma_k, in increasing k,
    up to the scan's stop; every later k has its root at or above ``sup``,
    the least root over the exposed forms and the k = 0 form, a Fraction
    (``None`` when no form has a negative slope).
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def per_n_coefficients(n: int) -> PerNCoefficients:
    """The per-n record, computed once per process for each n.

    For each k >= 1 the form const_k + slope_k x has const_k > 0, so each k
    contributes either no constraint (nonnegative slope) or a root; the
    roots grow without bound in k because C_n > 0 dominates, so the scan
    stops once no later k can undercut the running minimum.

    16^n I_n(1/16) is the recurrence's J_n for c = 1/16, and 16^n I_n(1/8)
    is 2^n J_n for c = 1/8, so the record is integers throughout, and the
    k-scan compares slopes, consts and roots by cross-multiplication.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sixteen, fifteen, fourteen, twelve = 16**n, 15**n, 14**n, 12**n
    j16 = _moment_numerator(C_SIXTEENTH, n)  # 16^n I_n(1/16)
    j8 = _moment_numerator(C_EIGHTH, n) << n  # 16^n I_n(1/8)
    # numerators over 88 * 16^n; (15/16)^n, (7/8)^n, (3/4)^n are 15^n, 14^n, 12^n over 16^n
    const_a, slope_a = 16 * fifteen, 88 * (j16 - fifteen)  # (2/11)(15/16)^n, I_n(1/16) - (15/16)^n
    const_b, slope_b = 4 * fourteen, 22 * (j8 - fourteen)  # (1/22)(7/8)^n, (I_n(1/8) - (7/8)^n) / 4
    c_n = 2 * twelve  # (1/44)(3/4)^n
    # P_n(0,0) = 3/4 + A_n + B_n + C_n - (5x/8)(1 - (3/4)^n)
    k0_const = 66 * sixteen + const_a + const_b + c_n
    k0_slope = slope_a + slope_b - 55 * (sixteen - twelve)
    exposed = []
    sup: tuple[int, int] | None = None  # (numerator, positive denominator)
    if slope_a < 0 or slope_b < 0:
        two_k = 1  # the k-th form over 88 * 16^n * 4^k is const_k + slope_k x below
        for k in range(1, _SCAN_LIMIT):
            two_k *= 2
            slope_k = slope_a + slope_b * two_k
            if slope_k < 0:
                const_k = const_a + const_b * two_k + c_n * two_k * two_k
                exposed.append((k, const_k, slope_k))
                if sup is None or const_k * sup[1] < sup[0] * -slope_k:
                    sup = (const_k, -slope_k)
            if slope_b >= 0 and slope_k >= 0:
                break  # slope_k = slope_a + slope_b 2^k is nondecreasing
            reach = abs(slope_a) + abs(slope_b) * two_k
            if sup is not None and reach * sup[0] < c_n * two_k * two_k * sup[1]:
                break  # later k cannot push the root below the running minimum
        else:
            raise ArithmeticError("per-n scan failed to terminate")
    if k0_slope < 0 and (sup is None or k0_const * sup[1] < sup[0] * -k0_slope):
        sup = (k0_const, -k0_slope)
    return PerNCoefficients(
        const_a, slope_a, const_b, slope_b, c_n, k0_const, k0_slope,
        exposed=tuple(exposed), sup=None if sup is None else Fraction(*sup),
    )


def _numerators_at(n: int, x: Fraction) -> tuple[int, int, int, int]:
    """A_n(x), B_n(x), C_n and P_n(0, 0) at x = p/q, as numerators over 88 * 16^n * q."""
    r, p, q = per_n_coefficients(n), x.numerator, x.denominator
    a, b = r.const_a * q + r.slope_a * p, r.const_b * q + r.slope_b * p
    return a, b, r.c_n * q, r.k0_const * q + r.k0_slope * p


def abc_coefficients(x, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The coefficients A_n(x), B_n(x), C_n of the k >= 1 closed form."""
    x = Fraction(x)
    if n < 1:
        raise ValueError("n must be >= 1")
    den = (88 << 4 * n) * x.denominator
    return tuple(Fraction(v, den) for v in _numerators_at(n, x)[:3])


def p_n_closed(x, k: int, n: int) -> Fraction:
    """P_n(k, 0) via the collapsed coefficients; exact rational."""
    return p_n_closed_values(x, n, (k,))[0]


def p_n_closed_values(x, n: int, ks) -> list[Fraction]:
    """P_n(k, 0) for each k in ``ks``, with A_n(x), B_n(x), C_n computed once,
    as integer numerators; one Fraction is built per k."""
    x = _parameter(x)
    if n < 1 or any(k < 0 for k in ks):
        raise ValueError("need n >= 1 and k >= 0")
    a, b, c, k0 = _numerators_at(n, x)
    den = (88 << 4 * n) * x.denominator
    values = []
    for k in ks:
        # P_n(k, 0) gamma_k = (a + b 2^k + c 4^k) / (den 4^k) for k >= 1, and gamma_0 = 1
        gamma = gamma_row(k)
        numerator = k0 if k == 0 else a + (b << k) + (c << 2 * k)
        values.append(Fraction(numerator * gamma.denominator, (den << 2 * k) * gamma.numerator))
    return values


def p_n_bruteforce(x, k: int, n: int) -> Fraction:
    """P_n(k, 0) straight from the moment table; the oracle for p_n_closed.

    Expands ||((T1+T2)/2)^l e_{(k,0)}||^2 by orthogonality of the images
    under distinct degree-l monomials, with multinomial weights C(l,i)^2
    and moment ratios off anti-diagonals of the table.
    """
    x = _parameter(x)
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    base = moment2d(k, 0, x)
    total = Fraction(0)
    for ell in range(n + 1):
        inner = sum(
            Fraction(math.comb(ell, i) ** 2) * moment2d(k + ell - i, i, x)
            for i in range(ell + 1)
        )
        total += Fraction((-1) ** ell * math.comb(n, ell), 4**ell) * inner / base
    return total


def per_n_exact_sup(n: int) -> Fraction | None:
    """Largest x with P_n(k, 0) >= 0 for every k >= 0, or ``None`` if unconstrained."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return per_n_coefficients(n).sup


def _first_negative_k(record: PerNCoefficients, x: Fraction) -> int | None:
    """The least k >= 0 with P_n(k, 0) < 0 at x, or ``None`` when there is none.

    Tests the k = 0 form, then each exposed form, at x = p/q: a form holds
    iff const q + slope p >= 0, one integer sign.  Every k the scan passed
    over without exposing it has a nonnegative slope, and every k past the
    scan's stop has its root at or above ``sup``, which one of the tested
    forms attains; so a form fails at x iff some k fails, and the first one
    found is the least.
    """
    p, q = x.numerator, x.denominator
    for k, const, slope in ((0, record.k0_const, record.k0_slope), *record.exposed):
        if const * q + slope * p < 0:
            return k
    return None


def positivity_over_all_k(x, n: int) -> Certificate:
    """Exact decision of P_n(k, 0) >= 0 for every k >= 0 at fixed n.

    Evaluates at x the k = 0 form and each exposed form of the per-n
    record :func:`per_n_coefficients`, by integer signs and never against
    a cached root.  A pass witness counts the forms checked; a failure
    witness names the least failing k and the value P_n(k, 0) < 0 there.
    """
    x = _parameter(x)
    if n < 1:
        raise ValueError("n must be >= 1")
    record = per_n_coefficients(n)
    k = _first_negative_k(record, x)
    if k is None:
        return Certificate(
            "positivity_over_all_k", True, {"n": n, "forms_checked": 1 + len(record.exposed)}
        )
    return Certificate(
        "positivity_over_all_k", False, {"n": n, "k": k, "value": p_n_closed(x, k, n)}
    )


class TailBound(namedtuple("TailBound", "n_star n_sixteenth n_eighth witness")):
    """Analytic closure of the n-tail, with exact stopping indices."""

    __slots__ = ()


@lru_cache(maxsize=1)
def tail_stopping_index() -> TailBound:
    """Smallest window past which both tail inequalities hold for all n.

    On [1/3, 1/2] the arcsine-type density exceeds 1/(pi sqrt(2 * 7/4)),
    so I_n(c) >= (1/(6 pi sqrt(2))) (1 - c/2)^n.  Exact rational chain:
    6 pi sqrt(2) < 6 * (22/7) * (17/12) = 187/7 < 27 (and 288 < 289
    witnesses sqrt(2) < 17/12), hence I_n(c) >= (1 - c/2)^n / 27.  The
    ratios against the targets are then (31/30)^n for c = 1/16 and
    (15/14)^n for c = 1/8, and each only needs to clear 27.
    """
    if not (2 * 12**2 < 17**2 and Fraction(6 * 22 * 17, 7 * 12) < 27):
        raise ArithmeticError("the rational bounds sqrt(2) < 17/12 and 6*pi*sqrt(2) < 27 failed")
    n_sixteenth = next(n for n in count() if 31**n >= 27 * 30**n)
    n_eighth = next(n for n in count() if 15**n >= 27 * 14**n)
    n_star = max(n_sixteenth, n_eighth)
    witness = (
        "I_n(1/16) >= (31/32)^n / 27 and I_n(1/8) >= (15/16)^n / 27 from the "
        "[1/3, 1/2] window of the arcsine-type integral with 6*pi*sqrt(2) < 27; "
        f"(31/30)^n >= 27 from n = {n_sixteenth} and (15/14)^n >= 27 from "
        f"n = {n_eighth}, so for n > {n_star} the coefficients A_n, B_n are "
        "nonnegative for every x > 0 and the k = 0 value only requires x <= 6/5."
    )
    return TailBound(n_star=n_star, n_sixteenth=n_sixteenth, n_eighth=n_eighth, witness=witness)


@lru_cache(maxsize=1)
def certified_x_max() -> Fraction:
    """Largest x certified here for subnormality of the rescaled sum."""
    tail = tail_stopping_index()
    best = K0_CAP
    for n in range(1, tail.n_star + 1):
        sup = per_n_exact_sup(n)
        if sup is not None and sup < best:
            best = sup
    if not best > PAIR_THRESHOLD:
        raise ArithmeticError("the certified bound must clear 2/11 strictly")
    return best


def certified_epsilon() -> Fraction:
    """The certified gap past the joint-subnormality threshold; exact and > 0."""
    return certified_x_max() - PAIR_THRESHOLD


def certify_sum(x) -> Certificate:
    """Decide subnormality of (T1 + T2)/2 at parameter x, with certificate.

    Exact per-n positivity for every n up to the analytic stopping index
    ``n_tail``, and the k = 0 cap x <= 6/5 covering all larger n.  The
    verdict is equivalent to x <= certified_x_max(), which the
    construction re-asserts.  The witness records x, ``n_tail``,
    ``certified_x_max``, ``epsilon``, the analytic ``tail_witness``, and the
    ``violation``: ``None`` on a pass, else the least failing n with its
    least failing k and the value P_n(k, 0) < 0 there, or the cap it
    exceeds.
    """
    x = _parameter(x)
    tail = tail_stopping_index()
    violation = None
    for n in range(1, tail.n_star + 1):
        k = _first_negative_k(per_n_coefficients(n), x)
        if k is not None:
            violation = {"n": n, "k": k, "value": p_n_closed(x, k, n)}
            break
    if violation is None and x > K0_CAP:
        violation = {"reason": f"x exceeds the k = 0 tail cap {K0_CAP} for the analytic region"}
    x_max = certified_x_max()
    if (violation is None) != (x <= x_max):
        raise ArithmeticError("per-n decisions must match the certified bound")
    return Certificate(
        "certify_sum",
        violation is None,
        {
            "x": x,
            "n_tail": tail.n_star,
            "certified_x_max": x_max,
            "epsilon": certified_epsilon(),
            "tail_witness": tail.witness,
            "violation": violation,
        },
    )
