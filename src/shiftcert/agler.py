"""The certified bottom-row Agler test of the rescaled sum T1 + T2.

For a contraction S, subnormality is equivalent to nonnegativity of every
alternating sum  P_n(v) = sum_l (-1)^l C(n,l) ||S^l v||^2.  Here
S = (T1 + T2)/2 for the parametric family of :mod:`.lubin`, v runs over
the bottom-row basis vectors e_{(k,0)}, and everything reduces to the
moment table:

    P_n(k, 0) = sum_l (-1)^l C(n,l) 4^{-l}
                sum_i C(l,i)^2 gamma_{(k+l-i, i)} / gamma_{(k, 0)},

because the images of e_{(k,0)} under distinct monomials in T1, T2 of the
same degree are orthogonal (:func:`p_n_bruteforce`).  The table is the
moments of the family's signed measure mu (:data:`.lubin.MU`), so the
inner sum splits over mu's atoms.  An atom at (s, t) with mass c + d x
adds to P_n(k, 0) gamma_k

    (c + d x) s^k (1 - (s + t)/4)^n   on an axis, where s t = 0,
    (c + d x) s^k I_n(s/4)            on the diagonal s = t,

since sum_i C(l,i)^2 s^(l-i) t^i is (s + t)^l on an axis and
C(2l, l) s^l on the diagonal; I_n(c) = sum_l C(n,l) (-c)^l C(2l, l) is
:func:`integral_moment`.  Grouped by s, the atoms make P_n(k, 0) gamma_k
one exponential sum in k with coefficients affine in x, the shape of
lubin's slices: the per-n slice, integers over one denominator, built
from mu once per n in a bounded cache.  The range (0, X_n] on which it
stays nonnegative for every k >= 0 comes from
:func:`.numerics.exponential_sum_threshold`, the kernel of lubin's
thresholds (:func:`per_n_exact_sup`).  :func:`certify_sum` compares x in
integers with an x-free table of the record sups (:func:`_records`), and
only the first n whose X_n x exceeds runs the sign test on its slice,
checked against X_n (:func:`positivity_over_all_k`).  No cache is keyed by x.

The n past an explicit stopping index are closed off analytically
(:func:`tail_stopping_index`), so an exact certified bound
``certified_x_max`` lies strictly above 2/11: the rescaled sum passes the
bottom-row Agler test on (0, 2/11 + epsilon] with
``epsilon = certified_epsilon()`` a positive rational, even though the
pair itself stops being jointly subnormal at 2/11.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count

from . import lubin
from .certificate import Certificate
from .lubin import _ROW, PAIR_THRESHOLD, _moment, _parameter, moment2d
from .numerics import _index, _integers, _rational, exponential_sum_sign, exponential_sum_threshold

# the k = 0 tail constraint: mu's mass at the origin, constant + slope x, stays >= 0
K0_CAP = next(c / -d for (s, t), c, d in lubin.MU if s == t == 0)

# c values whose numerator lists are kept; the certificate reads two, 1/16 and 1/8
_NUMERATOR_CACHE = 8
# entries of the (c, n)-keyed integral_moment cache
_MOMENT_CACHE = 1024
# entries of each n-keyed cache and numerator list: every n that sweep (n <= 200) and the certificate (n <= 101) reach
_ORDER_CACHE = 256
# entries of the (n, k)-keyed row cache, which a sweep reads again at every x: grids up to 4,096 pairs stay whole
_ROW_CACHE = 4096


@lru_cache(maxsize=_NUMERATOR_CACHE)
def _moment_numerators(p: int, q: int) -> list[int]:
    # J_n = q^n I_n(p/q) for n = 0, 1, ..., _ORDER_CACHE at most; _moment_numerator extends the list in place
    return [1, q - 2 * p]


def _moment_numerator(c: Fraction, n: int) -> int:
    """J_n = q^n I_n(c) for c = p/q, by the integer recurrence of :func:`integral_moment`."""
    p, q = c.numerator, c.denominator
    numerators = _moment_numerators(p, q)
    if n < len(numerators):
        return numerators[n]
    previous, current = numerators[-2:]
    for m in range(len(numerators) - 1, n):
        step = (2 * m + 1) * (q - 2 * p) * current - m * q * (q - 4 * p) * previous
        value, remainder = divmod(step, m + 1)
        if remainder:
            raise ArithmeticError(f"the recurrence for I_{m + 1}({c}) left a remainder")
        previous, current = current, value
        if m < _ORDER_CACHE:
            numerators.append(value)
    return current


@lru_cache(maxsize=_MOMENT_CACHE, typed=True)
def integral_moment(c, n: int) -> Fraction:
    """I_n(c) = sum_l C(n,l) (-c)^l C(2l,l), by its three-term recurrence.

    The generating function sum_n I_n(c) t^n = ((1 - t)(1 - (1 - 4c) t))^(-1/2)
    gives (n + 1) I_(n+1) = (2n + 1)(1 - 2c) I_n - n (1 - 4c) I_(n-1) with
    I_0 = 1 and I_1 = 1 - 2c.  For c = p/q the numerators J_n = q^n I_n are
    integers with

        (n + 1) J_(n+1) = (2n + 1)(q - 2p) J_n - n q (q - 4p) J_(n-1),

    filled in ascending n into a list kept per c (at most ``_NUMERATOR_CACHE``
    of them, each up to n = ``_ORDER_CACHE``), and each division by n + 1 is
    checked to be exact.  The cache is typed, so a float n never meets the
    value cached for the int.
    """
    c, n = _rational(c, "c", text=True), _index(n, "n")
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    return Fraction(_moment_numerator(c, n), c.denominator**n)


@lru_cache(maxsize=1)
def _atoms() -> tuple[int, int, tuple, tuple]:
    """mu's atoms in integers, read once: (mass_den, weight_den, bases, atoms),
    ``bases`` the distinct s in increasing order.  An atom (i, c, d, moment, g)
    at s = bases[i] has the mass (c + d x) / mass_den and, at n, the weight
    g^n / weight_den^n on an axis (moment ``None``) or J_n g^n / weight_den^n
    on the diagonal, J_n the numerator of I_n(moment)."""
    lubin._pieces()  # raises ArithmeticError unless every interior atom lies on the diagonal
    mass_den, masses = _integers([v for _, c, d in lubin.MU for v in (c, d)])
    bases = tuple(sorted({s for (s, _), _, _ in lubin.MU}))
    atoms = []
    for (s, t), _, _ in lubin.MU:
        moment = s / 4 if s and t else None
        # the weight's ratio: I_n(p/q) = J_n (1/q)^n, and (1 - (s + t)/4)^n on an axis
        atoms.append((bases.index(s), moment, Fraction(1, moment.denominator) if moment else 1 - (s + t) / 4))
    weight_den, weights = _integers([ratio for *_, ratio in atoms])
    cs, ds = masses[::2], masses[1::2]
    return mass_den, weight_den, bases, tuple((i, c, d, m, g) for (i, m, _), c, d, g in zip(atoms, cs, ds, weights))


@lru_cache(maxsize=_ORDER_CACHE)
def _slice(n: int) -> tuple[int, tuple, Fraction | None]:
    """(den, terms, sup): den P_n(k, 0) gamma_k is the sum of (c + d x) s^k
    over the integer terms (s, c, d), one per base s of mu in increasing s
    (0^0 = 1), and sup is its threshold, the largest x where no k fails."""
    mass_den, weight_den, bases, atoms = _atoms()
    constants, slopes = [0] * len(bases), [0] * len(bases)
    for i, c, d, moment, g in atoms:
        weight = g**n if moment is None else _moment_numerator(moment, n) * g**n
        constants[i] += c * weight
        slopes[i] += d * weight
    terms = tuple(zip(bases, constants, slopes))
    return mass_den * weight_den**n, terms, exponential_sum_threshold(terms)[0]


@lru_cache(maxsize=_ROW_CACHE, typed=True)
def _row(n: int, k) -> tuple[int, int, int]:
    """(c, d, den), x-free integers with P_n(k, 0) = (c + d x) / den.  The cache
    is typed and validates k, so a float k never meets the int it equals."""
    k = _index(k, "k")
    den, terms, _ = _slice(n)
    scale, bases = _integers([s for s, _, _ in terms])
    powers = [u**k for u in bases]
    gamma = _moment(_ROW, k)
    return (
        sum(c * u for u, (_, c, _) in zip(powers, terms)) * gamma.denominator,
        sum(d * u for u, (_, _, d) in zip(powers, terms)) * gamma.denominator,
        den * scale**k * gamma.numerator,
    )


def abc_coefficients(x, n: int) -> tuple[Fraction, ...]:
    """The coefficients A_n(x), B_n(x), C_n of 4^-k, 2^-k and 1 in
    P_n(k, 0) gamma_k for k >= 1: the slice's terms with s > 0, in increasing s."""
    x = _parameter(x)
    den, terms, _ = _slice(_index(n, "n", 1))
    p, q = x.numerator, x.denominator
    return tuple(Fraction(c * q + d * p, den * q) for s, c, d in terms if s)


def p_n_closed(x, k: int, n: int) -> Fraction:
    """P_n(k, 0) read off the per-n slice of mu; exact rational."""
    return p_n_closed_values(x, n, (k,))[0]


def p_n_closed_values(x, n: int, ks) -> list[Fraction]:
    """P_n(k, 0) for each k in ``ks``, from the x-free integers of each
    (n, k) row; one Fraction is built per k."""
    x, n = _parameter(x), _index(n, "n", 1)
    p, q = x.numerator, x.denominator
    values = []
    for k in ks:
        c, d, den = _row(n, k)
        values.append(Fraction(c * q + d * p, den * q))
    return values


def p_n_bruteforce(x, k: int, n: int) -> Fraction:
    """P_n(k, 0) straight from the moment table; the oracle for p_n_closed.

    Expands ||((T1+T2)/2)^l e_{(k,0)}||^2 by orthogonality of the images
    under distinct degree-l monomials, with multinomial weights C(l,i)^2
    and moment ratios off anti-diagonals of the table.
    """
    x, n, k = _parameter(x), _index(n, "n", 1), _index(k, "k")
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
    """Largest x with P_n(k, 0) >= 0 for every k >= 0, or ``None`` if
    unconstrained: the threshold of the per-n slice, once per process."""
    return _slice(_index(n, "n", 1))[2]


def positivity_over_all_k(x, n: int) -> Certificate:
    """Exact decision of P_n(k, 0) >= 0 for every k >= 0 at fixed n.

    Runs :func:`.numerics.exponential_sum_sign` on the per-n slice at x and
    raises ``ArithmeticError`` if it disagrees with :func:`per_n_exact_sup`.
    A pass witness is the sign test's (the dominant base and the index from
    which it outweighs the negative terms); a failure witness names the
    least failing k and the value P_n(k, 0) < 0 there.
    """
    x, n = _parameter(x), _index(n, "n", 1)
    p, q = x.numerator, x.denominator
    sign = exponential_sum_sign([(s, c * q + d * p) for s, c, d in _slice(n)[1]])
    sup = per_n_exact_sup(n)
    if sign.ok != (sup is None or x <= sup):
        raise ArithmeticError(f"the sign test of P_{n} at x = {x} disagrees with the threshold {sup}")
    if sign.ok:
        return Certificate("positivity_over_all_k", True, {"n": n, **sign.witness})
    k = sign.witness["k"]
    return Certificate("positivity_over_all_k", False, {"n": n, "k": k, "value": p_n_closed(x, k, n)})


# Analytic closure of the n-tail, with exact stopping indices.
TailBound = namedtuple("TailBound", "n_star n_sixteenth n_eighth witness")


@lru_cache(maxsize=1)
def tail_stopping_index() -> TailBound:
    """Smallest window past which the tail inequalities hold for all n.

    On [1/3, 1/2] the arcsine-type density exceeds 1/(pi sqrt(2 * 7/4)),
    so I_n(c) >= (1/(6 pi sqrt(2))) (1 - c/2)^n.  Exact rational chain:
    6 pi sqrt(2) < 6 * (22/7) * (17/12) = 187/7 < 27 (and 288 < 289
    witnesses sqrt(2) < 17/12), hence I_n(c) >= (1 - c/2)^n / 27.  A
    diagonal atom (s, s) of mu has c = s/4 and must meet an axis atom
    (s, 0) of the opposite slope, whose weight (1 - c)^n is the target, so
    the ratio (31/30)^n for c = 1/16, and (15/14)^n for c = 1/8, only
    needs to clear 27.  Past both indices no slope at s > 0 is negative,
    and the k = 0 value is at least mu's mass at the origin, 3/4 - 5x/8.
    The diagonal atoms are those of :func:`.lubin._pieces`' diagonal piece,
    which proves each slope positive and cancelled at s by the axis atom.
    """
    if not (2 * 12**2 < 17**2 and Fraction(6 * 22 * 17, 7 * 12) < 27):
        raise ArithmeticError("the rational bounds sqrt(2) < 17/12 and 6*pi*sqrt(2) < 27 failed")
    diagonal = lubin._pieces()[lubin._DIAGONAL].atoms
    bounds = [(s / 4, 1 - s / 8, (1 - s / 8) / (1 - s / 4)) for s, _ in diagonal]  # (c, 1 - c/2, its ratio to 1 - c)
    indices = [next(n for n in count() if r.numerator**n >= 27 * r.denominator**n) for *_, r in bounds]
    n_sixteenth, n_eighth = indices
    n_star = max(indices)
    witness = (
        " and ".join(f"I_n({c}) >= ({lower})^n / 27" for c, lower, _ in bounds)
        + " from the [1/3, 1/2] window of the arcsine-type integral with 6*pi*sqrt(2) < 27; "
        + " and ".join(f"({r})^n >= 27 from n = {m}" for (*_, r), m in zip(bounds, indices))
        + f", so for n > {n_star} the coefficients A_n, B_n are nonnegative for every x > 0"
        f" and the k = 0 value only requires x <= {K0_CAP}."
    )
    return TailBound(n_star=n_star, n_sixteenth=n_sixteenth, n_eighth=n_eighth, witness=witness)


@lru_cache(maxsize=1)
def certified_x_max() -> Fraction:
    """Largest x certified here to pass the rescaled sum's bottom-row Agler test."""
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


@lru_cache(maxsize=1)
def _records() -> tuple[tuple[int | None, int, int], ...]:
    """The per-n sups num/den, n <= n_tail, below every earlier one, as (n, num, den),
    then (None, num, den) for K0_CAP if it lies lower still: the first n
    whose sup x exceeds is a record, the first record x exceeds."""
    records, least = [], None
    for n in range(1, tail_stopping_index().n_star + 1):
        sup = _slice(n)[2]
        if sup is not None and (least is None or sup < least):
            records.append((n, sup.numerator, sup.denominator))
            least = sup
    if least is None or K0_CAP < least:
        records.append((None, K0_CAP.numerator, K0_CAP.denominator))
    return tuple(records)


def certify_sum(x) -> Certificate:
    """Decide the bottom-row Agler test of (T1 + T2)/2 at parameter x, with certificate.

    Exact per-n positivity for every n up to the analytic stopping index
    ``n_tail``, and the k = 0 cap x <= 6/5 covering all larger n.  x = p/r
    is compared in integers with the x-free record sups of :func:`_records`:
    the first record it exceeds is the first n whose exact sup it exceeds,
    which :func:`positivity_over_all_k` decides again, or the cap.  The
    verdict must be x <= certified_x_max(), which is found by its own loop.
    The witness records x, ``n_tail``, ``certified_x_max``, ``epsilon``,
    the analytic ``tail_witness``, and the ``violation``: ``None`` on a
    pass, else the least failing n with its least failing k and the value
    P_n(k, 0) < 0 there, or the cap it exceeds.
    """
    x = _parameter(x)
    tail = tail_stopping_index()
    p, r = x.numerator, x.denominator
    violation = None
    for n, num, den in _records():
        if p * den > num * r:
            cap = {"reason": f"x exceeds the k = 0 tail cap {K0_CAP} for the analytic region"}
            violation = cap if n is None else dict(positivity_over_all_k(x, n).witness)
            break
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
