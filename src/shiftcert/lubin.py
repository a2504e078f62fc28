"""The parametric two-variable shift family with a subnormality gap.

One rational parameter x > 0 drives the family.  Its moment table
:func:`moment2d` is given in closed form: row 0 carries the moments of
xi_a = 3/4 d(0) + 2/11 d(1/4) + 1/22 d(1/2) + 1/44 d(1), column 0 those of
xi_b(x) = (1 - 15x/8) d(0) + x d(1/4) + x/4 d(1/2) + 5x/8 d(1), and the
interior is (x/8) f(k1 + k2 - 2), with f(p) = 1/2 4^-p + 1/2 2^-p.  The
squared weight at (0, 2) is therefore 43/48 (the surd sqrt(44/48)
sometimes quoted for it is inconsistent with these moments).

Only the row-0 vertical weights depend on x: beta^2_(k1,0) = x c(k1),
with c(0) = 1.  Every other weight is an x-free ratio of moment cores,
cached by the one index it depends on in a bounded cache, so a diagram
costs nothing to build and pays for x with one product per column of
row 0.  :func:`moment2d` is built from the same cores.

Every verdict reads the one signed measure :data:`MU`,

    mu = x d(1/4,1/4) + x/4 d(1/2,1/2) + 5x/8 d(0,1)
       + (2/11 - x) d(1/4,0) + (1/22 - x/4) d(1/2,0) + 1/44 d(1,0)
       + (3/4 - 5x/8) d(0,0),

whose moments are moment2d's (checked once per process).  Moments
determine a signed measure on [0, 1] and on [0, 1]^2, so T1, the direct
sum of its rows, is subnormal iff each row's Berger measure, the
s-pushforward of t^k2 mu, is positive: for every x > 0.  T2 is subnormal
iff each column's, the t-pushforward of s^k1 mu, is: its mass at t = 0
is 1/11 - 3x/8 at column 1, so iff x <= 8/33.  The pair is jointly
subnormal iff mu >= 0: iff x <= 2/11.  Each slice mass is a short
exponential sum in the slice index, so each threshold is read off by
:func:`.numerics.exponential_sum_threshold` once per process, and each
verdict at x runs :func:`.numerics.exponential_sum_sign` on every slice
and checks the result against the threshold.  The rescaled sum T1 + T2
is the subject of :mod:`.agler`.

The one cache keyed by x, :func:`moment2d`, holds at most 1024 entries;
the index-keyed caches hold at most 2048 each, so no cache grows with x,
a window or a lattice depth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .certificate import Certificate
from .measures import AtomicMeasure1D, moment1
from .numerics import exponential_sum_sign, exponential_sum_threshold
from .shift2d import WeightDiagram

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

T2_THRESHOLD = Fraction(8, 33)
PAIR_THRESHOLD = Fraction(2, 11)


@lru_cache(maxsize=1)
def xi_a() -> AtomicMeasure1D:
    return AtomicMeasure1D(
        [
            (Fraction(0), Fraction(3, 4)),
            (Fraction(1, 4), Fraction(2, 11)),
            (Fraction(1, 2), Fraction(1, 22)),
            (Fraction(1), Fraction(1, 44)),
        ]
    )


# entries per index-keyed cache: every index a check2d window reaches (depth k1 + k2 <= 2000)
_INDEX_CACHE = 2048


@lru_cache(maxsize=_INDEX_CACHE)
def gamma_row(k: int) -> Fraction:
    """gamma_(k,0) = gamma_k(xi_a), the row-0 moments; x-free."""
    return moment1(xi_a(), k)


@lru_cache(maxsize=_INDEX_CACHE)
def _b_moment_core(k: int) -> Fraction:
    # gamma_k(xi_b) / x for k >= 1
    return _QUARTER**k + _QUARTER * _HALF**k + Fraction(5, 8)


@lru_cache(maxsize=_INDEX_CACHE)
def _interior_core(p: int) -> Fraction:
    # f(p) = 1/2 (1/4)^p + 1/2 (1/2)^p, so gamma_(k1,k2) = (x/8) f(k1+k2-2) for k1, k2 >= 1
    return _HALF * _QUARTER**p + _HALF * _HALF**p


@lru_cache(maxsize=_INDEX_CACHE)
def _row_weights(k1: int) -> tuple[Fraction, Fraction]:
    # (alpha^2_(k1,0), beta^2_(k1,0) / x); beta^2_(0,0) / x = gamma_1(xi_b) / x = 1
    alpha_sq = gamma_row(k1 + 1) / gamma_row(k1)
    if k1 == 0:
        return alpha_sq, _b_moment_core(1)
    return alpha_sq, _interior_core(k1 - 1) / (8 * gamma_row(k1))


@lru_cache(maxsize=_INDEX_CACHE)
def _column_weights(k2: int) -> tuple[Fraction, Fraction]:
    # (alpha^2_(0,k2), beta^2_(0,k2)) for k2 >= 1; x cancels in both
    core = _b_moment_core(k2)
    return _interior_core(k2 - 1) / (8 * core), _b_moment_core(k2 + 1) / core


@lru_cache(maxsize=_INDEX_CACHE)
def _interior_weight(s: int) -> Fraction:
    # alpha^2_k == beta^2_k == f(s-1) / f(s-2) for k1, k2 >= 1 with k1 + k2 = s
    return _interior_core(s - 1) / _interior_core(s - 2)


def _parameter(x) -> Fraction:
    """x as a Fraction, which must be positive."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    return x


@lru_cache(maxsize=1024)
def moment2d(k1: int, k2: int, x) -> Fraction:
    """Closed-form moment table of the family at parameter x.

    Row 0 carries the xi_a moments, column 0 the xi_b(x) moment rule, and
    the interior is x/8 times moments of mu_{M int N} shifted one step:
    gamma_{(k1,k2)} = (x/8) (1/2 (1/4)^{k1+k2-2} + 1/2 (1/2)^{k1+k2-2}).
    """
    x = _parameter(x)
    if k1 < 0 or k2 < 0:
        raise ValueError("lattice indices must be >= 0")
    if k2 == 0:
        return gamma_row(k1)
    if k1 == 0:
        return x * _b_moment_core(k2)
    return (x / 8) * _interior_core(k1 + k2 - 2)


def family_diagram(x) -> WeightDiagram:
    """The family's weight diagram at x > 0, gamma_{k+e} / gamma_k in closed form.

    Each weight is one of the index-keyed x-free helpers above, except
    beta^2_(k1,0), which is x times one; so a window costs its x-free
    lookups and one product with x per column.
    """
    x = _parameter(x)

    def alpha_sq(k1: int, k2: int) -> Fraction:
        if k1 < 0 or k2 < 0:
            raise ValueError("lattice indices must be >= 0")
        if k2 == 0:
            return _row_weights(k1)[0]
        if k1 == 0:
            return _column_weights(k2)[0]
        return _interior_weight(k1 + k2)

    def beta_sq(k1: int, k2: int) -> Fraction:
        if k1 < 0 or k2 < 0:
            raise ValueError("lattice indices must be >= 0")
        if k2 == 0:
            return x * _row_weights(k1)[1]
        if k1 == 0:
            return _column_weights(k2)[1]
        return _interior_weight(k1 + k2)

    return WeightDiagram(alpha_sq, beta_sq)


# mu, the family's signed representing measure, as (point, constant, slope): the mass at
# the point is constant + slope x.  Three atoms on the s-axis go negative, past 2/11, 2/11
# and 6/5, so mu is a table rather than a measure.
MU = (
    ((_QUARTER, _QUARTER), Fraction(0), Fraction(1)),
    ((_HALF, _HALF), Fraction(0), _QUARTER),
    ((Fraction(0), Fraction(1)), Fraction(0), Fraction(5, 8)),
    ((_QUARTER, Fraction(0)), Fraction(2, 11), Fraction(-1)),
    ((_HALF, Fraction(0)), Fraction(1, 22), -_QUARTER),
    ((Fraction(1), Fraction(0)), Fraction(1, 44), Fraction(0)),
    ((Fraction(0), Fraction(0)), Fraction(3, 4), Fraction(-5, 8)),
)


@lru_cache(maxsize=1)
def _mu_identity() -> None:
    """Check, x-free and once per process, that mu reproduces moment2d.

    Each piece of moment2d is an exponential sum over known bases: row 0
    over xi_a's points 0, 1/4, 1/2, 1; column 0 (k2 >= 1) over 1/4, 1/2
    and 1; the interior over the diagonal points (1/4, 1/4) and (1/2, 1/2).
    mu's atoms on a piece must use only those bases, and then two such sums
    agree everywhere iff they agree at as many indices as there are bases
    (a Vandermonde system; the interior is read on the line k2 = 1, where
    the points' s differ).  moment2d is affine in x, so its constant and
    slope parts come from x = 1 and x = 2, and each is compared on its own.
    A mismatch raises ``ArithmeticError``.
    """
    diagonal = {(_QUARTER, _QUARTER), (_HALF, _HALF)}
    pieces = (
        # (mu's bases on the piece, moment2d's bases on it, lattice point of index k)
        ({s for (s, _), _, _ in MU}, {0, _QUARTER, _HALF, 1}, lambda k: (k, 0)),
        ({t for (_, t), _, _ in MU if t}, {_QUARTER, _HALF, 1}, lambda k: (0, k + 1)),
        ({p for p, _, _ in MU if p[0] and p[1]}, diagonal, lambda k: (k + 1, 1)),
    )
    for mu_bases, bases, point in pieces:
        if not mu_bases <= bases:
            raise ArithmeticError(f"mu uses the bases {sorted(mu_bases - bases)} that moment2d has not")
        for k1, k2 in map(point, range(len(bases))):
            one, two = moment2d(k1, k2, 1), moment2d(k1, k2, 2)
            constant = sum(c * s**k1 * t**k2 for (s, t), c, _ in MU)
            slope = sum(d * s**k1 * t**k2 for (s, t), _, d in MU)
            if (constant, slope) != (2 * one - two, two - one):
                raise ArithmeticError(f"mu fails to reproduce moment2d at ({k1}, {k2})")


@lru_cache(maxsize=3)
def _slices(kind: str) -> tuple:
    """The sign questions of one verdict, as (point, den, terms), each term
    (base, constant, slope) scaled by the positive integer ``den`` to integers.

    Row k2's mass at s = p sums mass * t^k2 over mu's atoms at (p, t), an
    exponential sum in k2; a column's mass at t = p likewise sums over the
    atoms at (s, p).  The pair reads each atom as a sum with the one base 1.
    """
    if kind == "atom":
        grouped = {point: [(Fraction(1), c, d)] for point, c, d in MU}
    else:
        axis = 0 if kind == "row" else 1
        grouped = {}
        for point, c, d in MU:
            grouped.setdefault(point[axis], []).append((point[1 - axis], c, d))
    slices = []
    for point, terms in sorted(grouped.items()):
        den = lcm(*(v.denominator for _, c, d in terms for v in (c, d)))
        slices.append((point, den, tuple((a, int(c * den), int(d * den)) for a, c, d in terms)))
    return tuple(slices)


@lru_cache(maxsize=3)
def _threshold(kind: str) -> tuple:
    """(X, index, point, den, terms): the least threshold over the slices of
    ``kind`` and the slice where it binds; all ``None`` when no x > 0 fails."""
    _mu_identity()
    best = (None,) * 5
    for point, den, terms in _slices(kind):
        threshold, index = exponential_sum_threshold(terms)
        if threshold is not None and (best[0] is None or threshold < best[0]):
            best = (threshold, index, point, den, terms)
    return best


def _verdict(check: str, kind: str, x: Fraction, threshold) -> Certificate:
    """The sign test of ``kind`` at x, checked against the cached ``threshold``.

    At x = p/q the scaled coefficients give the integers constant q +
    slope p, den q times the masses, and the test runs on those.  The
    witness names the first slice point with a negative mass at x, or on a
    pass the point where the threshold binds, with its mass at x.
    """
    p, q = x.numerator, x.denominator
    failure = None
    for point, den, terms in _slices(kind):
        sign = exponential_sum_sign([(a, c * q + d * p) for a, c, d in terms])
        if not sign.ok:
            failure = (sign.witness["k"], point, sign.witness["value"] / (den * q))
            break
    ok = failure is None
    if ok != (threshold is None or x <= threshold):
        raise ArithmeticError(f"the sign test at x = {x} disagrees with the threshold {threshold}")
    if failure is None:
        _, index, point, den, terms = _threshold(kind)
        mass = None if index is None else sum((c * q + d * p) * a**index for a, c, d in terms) / (den * q)
        failure = (index, point, mass)
    index, point, mass = failure
    where = {"atom": point} if kind == "atom" else {"slice": kind, "index": index, "point": point}
    return Certificate(check, ok, {"x": x, "threshold": threshold, **where, "mass": mass})


@lru_cache(maxsize=1)
def threshold_t1() -> Certificate:
    """T1 is subnormal for every x > 0: no row of mu's slices ever goes negative."""
    threshold, index, point, _, _ = _threshold("row")
    return Certificate(
        "threshold_t1",
        threshold is None,
        {"threshold": threshold, "slice": "row", "index": index, "point": point},
    )


def _headline(kind: str, expected: Fraction) -> Fraction:
    """The threshold of ``kind``, which must be the headline value ``expected``."""
    threshold = _threshold(kind)[0]
    if threshold != expected:
        raise ArithmeticError(f"expected the {kind} threshold to be {expected}, got {threshold}")
    return threshold


def threshold_t2() -> Fraction:
    """Exact T2 threshold 8/33, read off mu's column slices: column 1 binds, at t = 0."""
    return _headline("column", T2_THRESHOLD)


def threshold_pair() -> Fraction:
    """Exact joint threshold 2/11: the least x past which an atom of mu goes negative."""
    return _headline("atom", PAIR_THRESHOLD)


def is_t1_subnormal(x) -> Certificate:
    """T1 is subnormal iff every row slice of mu is a positive measure: every x > 0."""
    return _verdict("is_t1_subnormal", "row", _parameter(x), threshold_t1().witness["threshold"])


def is_t2_subnormal(x) -> Certificate:
    """T2 is subnormal iff every column slice of mu is a positive measure: x <= 8/33."""
    return _verdict("is_t2_subnormal", "column", _parameter(x), threshold_t2())


def is_pair_subnormal(x) -> Certificate:
    """The pair is jointly subnormal iff mu >= 0 at x: x <= 2/11."""
    return _verdict("is_pair_subnormal", "atom", _parameter(x), threshold_pair())


def family_report(x) -> dict:
    """The family's thresholds, verdicts and certificates at parameter x."""
    x = Fraction(x)
    t1, t2, pair = is_t1_subnormal(x), is_t2_subnormal(x), is_pair_subnormal(x)
    return {
        "x": str(x),
        "thresholds": {"t1": "every x > 0", "t2": str(T2_THRESHOLD), "pair": str(PAIR_THRESHOLD)},
        "verdicts": {"t1_subnormal": t1.ok, "t2_subnormal": t2.ok, "pair_subnormal": pair.ok},
        "certificates": {"t1": t1, "t2": t2, "pair": pair},
    }
