"""Exact rational kernels shared by the whole package.

Scalars are ``fractions.Fraction`` at every interface: arbitrary-precision
rationals in lowest terms, which is exactly the arithmetic needed to
separate thresholds such as 2/11 from 8/33 without any tolerance budget.
No float appears anywhere in the package: :func:`_rational` reads every
exact scalar input and refuses a float, as :func:`_index` reads indices.

The matrix kernels :func:`is_psd` (in integers) and :func:`rref` take a
matrix as the list of its rows.  Besides them, :func:`exponential_sum_sign`
decides the sign of a short exponential sum f(k) = sum_i c_i a_i^k at
every k at once, and :func:`exponential_sum_threshold` finds the exact
parameter range on which such a sum, with coefficients affine in a
parameter, stays nonnegative.  Both read their terms into integers with
:func:`_integer_terms` and scan k upward until the stop rule
:func:`_outweighs` proves that no later k fails; the sign scan alone is
:func:`_sign_scan`, in integers and with no certificate, for a caller
that keeps its read to scan it again at each parameter.
:func:`_integers`, the one reader of rationals as integers over their
least common denominator, serves every module that computes in integers.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from numbers import Rational
from typing import Sequence

from .certificate import Certificate

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$", re.ASCII)  # \d: 0-9 only


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer string.

    Decimal literals are rejected on purpose: every interface of this
    package is exact, and a caller holding ``0.1`` has already lost.  An
    integer past Python's string limit is refused with the literal's digit count.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ValueError:  # the syntax is checked, so only the integer digit limit remains
        digits, limit = sum(c.isdigit() for c in s), sys.get_int_max_str_digits()
        raise ValueError(f"a rational literal of {digits} digits passes the limit of {limit} digits per integer") from None


def _index(value, what: str, least: int = 0) -> int:
    """``value`` as an int at least ``least``, for a lattice index, a moment
    order or a window side.

    Only integer types pass (``operator.index``): a float would be truncated
    or leak into the exact arithmetic as a float power.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def _rational(value, what: str, text: bool = False) -> Fraction:
    """``value`` as a Fraction, for an exact scalar input.

    Only rational types pass (``numbers.Rational``: int, Fraction, ...),
    and with ``text`` a string that :func:`parse_rational` reads, the one
    grammar of exact text.  A binary float has lost the rational it stood
    for, so it raises ``ValueError``, as does any other value.
    """
    if type(value) is Fraction:
        return value
    if text and isinstance(value, str):
        return parse_rational(value)
    if not isinstance(value, Rational):
        raise ValueError(f"{what} must be a rational, got {value!r}")
    return Fraction(value)


def is_psd(rows: Sequence[Sequence]) -> Certificate:
    """Exact positive-semidefiniteness decision with witnesses.

    ``rows`` are the rows of a square symmetric matrix of rationals (ints
    or Fractions); anything else raises ``ValueError``.  Symmetric Gaussian
    elimination in integers: row i of the Schur complement is an int list
    r_i over its own positive denominator d_i, in lowest terms, and pivot
    row k updates it as r_i <- r_kk r_i - r_ik r_k, d_i <- d_i r_kk (with
    the common factor of r_kk and r_ik taken out first), after which one
    gcd of d_i and the row takes it back to lowest terms.  So the stored
    integers are those of the exact rational Schur complement, and no
    Fraction is built while eliminating.  The pivot r_kk / d_k is decided
    by the sign of r_kk.  A zero pivot is legal only when its entire
    residual row vanishes; otherwise, or when a pivot goes negative, the
    bad Schur-complement vector lifts to an explicit rational vector v
    with v^T M v < 0, which the certificate carries.  The lift
    (:func:`_negativity_certificate`) is in integers too: one reverse pass
    over the log of the rows each pivot changed, with v^T M v summed on
    v's support only, so it builds no n x n table.  A pass carries the
    pivots r_kk / d_k; Fractions are built for the witness only.
    """
    n = len(rows)
    # each entry as (numerator, positive denominator), in lowest terms
    ratios = [[_rational(v, "a matrix entry").as_integer_ratio() for v in row] for row in rows]
    if any(len(row) != n for row in ratios):
        raise ValueError("matrix must be square")
    if ratios != [list(column) for column in zip(*ratios)]:
        i, j = next((i, j) for i in range(n) for j in range(i) if ratios[i][j] != ratios[j][i])
        raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    dens = [lcm(*[q for _, q in row]) for row in ratios]
    # row k of the Schur complement over columns k..n-1 at step k, times dens[k]
    schur = [[p * (d // q) for p, q in row] for row, d in zip(ratios, dens)]
    steps = []  # per nonzero pivot: (k, r_kk, d_k, [(i, r_ik, d_i) for each row i it changed])
    pivots = []  # (r_kk, d_k) per step; Fractions only on a pass
    for k in range(n):
        head, d = schur[k], dens[k]
        pivot = head[0]
        if pivot < 0:
            return _negativity_certificate(ratios, steps, {k: 1})
        if pivot == 0:
            j = next((j for j, v in enumerate(head, k) if v), None)
            if j is not None:
                # the 2x2 block [[0, sigma], [sigma, tau]] is indefinite: with sigma = h / d
                # and tau = t / d_j, lam = -sigma / (|tau| + 1) = -h d_j / (d (|t| + d_j))
                h, t, dj = head[j - k], schur[j][j - k], dens[j]
                return _negativity_certificate(ratios, steps, {k: 1, j: Fraction(-h * dj, d * (abs(t) + dj))})
            # row k vanishes, so by symmetry does column k
            for i in range(k + 1, n):
                del schur[i][0]
            pivots.append((0, 1))
            continue
        pivots.append((pivot, d))
        changed = []
        for i in range(k + 1, n):
            row = schur[i]
            a = row[0]
            if a:
                changed.append((i, a, dens[i]))
                c = gcd(pivot, a)  # taken out first, it keeps the products small
                s, t = pivot // c, a // c
                row = [s * x - t * y for x, y in zip(row, head)]
                del row[0]  # column k, now 0
                di = dens[i] * s
                g = gcd(di, *row)
                dens[i] = di // g
                schur[i] = [x // g for x in row] if g != 1 else row
            else:
                del row[0]
        steps.append((k, pivot, d, changed))
    return Certificate("is_psd", True, {"order": n, "pivots": [Fraction(p, q) for p, q in pivots]})


def _negativity_certificate(ratios, steps, support) -> Certificate:
    """The bad Schur-complement vector ``support`` ({index: rational}) lifted
    to v with v^T M v < 0, in integers, as a failing certificate.

    The lift solves L^T v = u, L[i][k] = (r_ik / d_i) / (r_kk / d_k) for
    the rows step k changed.  The support lies past the last step, so one
    reverse pass sets each v[k] from the v[i] below it.  v = V / den, V an
    int list: with S = sum_i r_ik (l / d_i) V_i, l the lcm of those d_i,
    v[k] = -d_k S / (r_kk l den), so a step scales V and den by r_kk l,
    sets V_k = -d_k S and takes out their gcd.  v^T M v is one integer
    over L den^2, L the lcm of the denominators on v's support.
    """
    den, values = _integers(support.values())
    v = [0] * len(ratios)
    for i, u in zip(support, values):
        v[i] = u
    for k, pivot, d, changed in reversed(steps):
        terms = [(a, di, v[i]) for i, a, di in changed if v[i]]
        common = lcm(*[di for _, di, _ in terms])
        total = sum(a * (common // di) * x for a, di, x in terms)
        if total:
            scale = pivot * common
            v = [x * scale for x in v]
            v[k] = -d * total
            g = gcd(den * scale, *v)
            den = den * scale // g
            v = [x // g for x in v]
    nonzero = [i for i, x in enumerate(v) if x]
    entries = [[ratios[i][j] for j in nonzero] for i in nonzero]
    big = lcm(*[q for row in entries for _, q in row])
    total = sum(v[i] * sum(p * (big // q) * v[j] for (p, q), j in zip(row, nonzero)) for row, i in zip(entries, nonzero))
    if not total < 0:
        raise ArithmeticError("internal error: lifted witness is not negative")
    vector = [Fraction(x, den) for x in v]
    return Certificate("is_psd", False, {"order": len(v), "vector": vector, "value": Fraction(total, big * den * den)})


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot columns)."""
    m = [[_rational(v, "a matrix entry") for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("matrix rows must have the same length")
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


def _integers(values: Sequence) -> tuple[int, list[int]]:
    """(D, ints): the rationals ``values`` as integers over their least
    common denominator D, so values[i] == ints[i] / D.  A value that is not
    rational, such as a float, raises ``ValueError``."""
    try:
        d = lcm(*[v.denominator for v in values])
    except AttributeError:  # a value is not rational: read through _rational, it raises ValueError
        d = lcm(*[_rational(v, "an exact value").denominator for v in values])
    return d, [v.numerator * (d // v.denominator) for v in values]


def _integer_terms(terms) -> tuple[int, int, list[tuple[int, ...]]]:
    """(q, D, rows): each term (a_i, c_i, ...) as the integer row
    (q a_i, D c_i, ...), largest base first, with q the common denominator
    of the bases and D that of every coefficient (:func:`_integers`).  The
    terms must have one length, and the bases must be distinct and lie in
    [0, 1]; otherwise this raises ``ValueError``."""
    terms = list(terms)
    q, bases = _integers([t[0] for t in terms])
    d, coefficients = _integers([c for t in terms for c in t[1:]])
    if len(set(map(len, terms))) > 1:
        raise ValueError("the terms must have one length")
    width = len(coefficients) // len(terms) if terms else 0
    rows = sorted(zip(bases, *[iter(coefficients)] * width), reverse=True)  # one iterator: width per base
    if len(set(bases)) != len(rows) or rows and not 0 <= rows[-1][0] <= rows[0][0] <= q:
        raise ValueError("the bases must be distinct and lie in [0, 1]")
    return q, d, rows


def _outweighs(values) -> bool:
    """Whether f(k), the sum of ``values`` (one k >= 1, largest base first),
    stays >= 0 at every later k: the first nonzero term is positive and at
    least the negative terms' sizes, each of which shrinks against it.  A
    negative lead is one of those terms, so it never passes."""
    negative = sum(filter((0).__gt__, values))  # (0).__gt__(v): v < 0
    return not negative or next(filter(None, values)) >= -negative


def exponential_sum_sign(terms) -> Certificate:
    """Decide f(k) = sum_i c_i a_i^k >= 0 for every k >= 0, exactly.

    ``terms`` holds pairs (a_i, c_i) of distinct rational bases in [0, 1]
    and rational coefficients (ints or Fractions), with 0^0 = 1, so a base
    0 counts at k = 0 only.  The scan runs over the integers q^k D f(k) of
    :func:`_integer_terms` from k = 0 up.  It fails at the first negative
    value and passes at the first k >= 1 where the terms pass
    :func:`_outweighs`, since f then stays >= 0.  A negative lead never
    passes: it outgrows every other term, so f itself goes negative.

    The witness is the least failing k with f(k) < 0 as ``value``, or on a
    pass the ``dominant_base`` (``None`` when f vanishes past k = 0) and
    the ``stop_index``, the least k >= 1 from which it outweighs the rest.
    """
    q, d, rows = _integer_terms(terms)
    ok, k, total = _sign_scan(rows)
    if not ok:
        return Certificate("exponential_sum_sign", False, {"k": k, "value": Fraction(total, d * q**k)})
    lead = next((Fraction(p, q) for p, n in rows if p and n), None)  # None when f vanishes past k = 0
    return Certificate("exponential_sum_sign", True, {"dominant_base": lead, "stop_index": k})


def _sign_scan(rows) -> tuple[bool, int, int | None]:
    """The scan of :func:`exponential_sum_sign` on the integer rows (q a_i, D c_i) of
    :func:`_integer_terms`, in integers: (True, stop index, None) or (False, the
    least failing k, the total q^k D f(k) < 0 there)."""
    total = sum(row[1] for row in rows)
    if total < 0:
        return False, 0, total
    bases = [p for p, n in rows if p and n]  # a base 0 drops out past k = 0
    powers = [n * p for p, n in rows if p and n]  # the terms q^k D c_i a_i^k, lead first
    for k in count(1):
        if _outweighs(powers):  # also when no power is left: f vanishes past k = 0
            return True, k, None
        total = sum(powers)
        if total < 0:
            return False, k, total
        powers = [v * p for v, p in zip(powers, bases)]


def exponential_sum_threshold(terms) -> tuple[Fraction | None, int | None]:
    """The exact X with f_k(x) >= 0 for every k >= 0 iff 0 < x <= X.

    ``terms`` holds triples (a_i, c_i, d_i) of distinct bases in [0, 1] and
    rational coefficients, and f_k(x) = sum_i (c_i + d_i x) a_i^k = A_k + B_k x.
    Returns (X, k) with k the least index where -A_k / B_k = X; (X, None)
    when the first root lies above R, the root of the largest base's
    coefficient, so the roots fall toward it and X = R; or (None, None) when
    every x > 0 passes.  The set has this shape iff every A_k >= 0; when it
    has not, or holds no x > 0, this raises ``ArithmeticError``.

    One scan over the integer rows of :func:`_integer_terms`, as in
    :func:`exponential_sum_sign`, keeps the least root X_k so far with its
    least index, and stops past k = 0 once the terms at x = 0 and at X_k
    each pass :func:`_outweighs`.
    """
    _, _, rows = _integer_terms(terms)  # a base 0 drops out past k = 0
    bases = [p for p, _, _ in rows]
    c0, d0 = next(((c, d) for p, c, d in rows if p and (c or d)), (0, 0))  # the lead's coefficient
    constants, slopes = [c for _, c, _ in rows], [d for _, _, d in rows]
    num, den, index = 1, 0, None  # the least root so far, num / den; 1 / 0 while there is none
    for k in count():
        constant, slope = sum(constants), sum(slopes)
        if constant < 0:
            raise ArithmeticError(f"f_k(0) < 0 at k = {k}, so the range is not (0, X]")
        if slope < 0:
            if constant == 0:
                raise ArithmeticError(f"f_{k}(x) < 0 for every x > 0")
            if den == 0 and d0 < 0 and c0 * -slope + d0 * constant < 0:  # the first root, above R
                if c0 <= 0:
                    raise ArithmeticError("the dominant coefficient is negative for every x > 0")
                num, den, index = c0, -d0, None
            elif constant * den < num * -slope:
                num, den, index = constant, -slope, k
        if k and _outweighs(constants) and _outweighs([c * den + d * num for c, d in zip(constants, slopes)]):
            return (None, None) if den == 0 else (Fraction(num, den), index)
        constants = [c * p for c, p in zip(constants, bases)]
        slopes = [d * p for d, p in zip(slopes, bases)]
