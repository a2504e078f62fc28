"""Exact rational kernels shared by the whole package.

Scalars are ``fractions.Fraction`` throughout: arbitrary-precision
rationals in lowest terms, which is exactly the arithmetic needed to
separate thresholds such as 2/11 from 8/33 without any tolerance budget.
No float appears anywhere in the package.

Besides the matrix kernels, :func:`exponential_sum_sign` decides the sign
of a short exponential sum f(k) = sum_i c_i a_i^k at every k at once, and
:func:`exponential_sum_threshold` finds the exact parameter range on which
such a sum, with coefficients affine in a parameter, stays nonnegative.

Serialization convention: a rational renders as ``"p/q"``, or bare
``"p"`` when the denominator is 1 (``str(Fraction)`` already does this).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

from .certificate import Certificate

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$", re.ASCII)  # \d: 0-9 only


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer string.

    Decimal literals are rejected on purpose: every interface of this
    package is exact, and a caller holding ``0.1`` has already lost.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(s)


def rat_str(value) -> str:
    """Canonical string form of a rational, ``p/q`` or ``p``."""
    return str(Fraction(value))


class SymmetricExactMatrix:
    """Dense symmetric matrix of rationals, validated on construction."""

    __slots__ = ("_rows", "order")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(data)
        for row in data:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if data[i][j] != data[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i}, {j})")
        self._rows = data
        self.order = n

    @classmethod
    def hankel(cls, values: Sequence, order: int) -> "SymmetricExactMatrix":
        """[values[i + j]] for 0 <= i, j < order; needs 2*order - 1 values."""
        vals = [Fraction(v) for v in values]
        if len(vals) < 2 * order - 1:
            raise ValueError("not enough values for the requested Hankel order")
        return cls([[vals[i + j] for j in range(order)] for i in range(order)])

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def quadratic_form(self, vector: Sequence) -> Fraction:
        v = [Fraction(x) for x in vector]
        if len(v) != self.order:
            raise ValueError("vector length must match the matrix order")
        return sum(v[i] * self._rows[i][j] * v[j] for i in range(self.order) for j in range(self.order))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetricExactMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"SymmetricExactMatrix(order={self.order})"


def is_psd(matrix: SymmetricExactMatrix) -> Certificate:
    """Exact positive-semidefiniteness decision with witnesses.

    Rational LDL^T elimination with exact zero tests.  A zero pivot is
    legal only when its entire residual row vanishes; otherwise, or when a
    pivot goes negative, the elimination state lifts to an explicit
    rational vector v with v^T M v < 0, which the certificate carries.
    """
    n = matrix.order
    s = [[matrix.entry(i, j) for j in range(n)] for i in range(n)]
    lower = [[Fraction(0)] * n for _ in range(n)]
    pivots: list[Fraction] = []
    for k in range(n):
        pivot = s[k][k]
        if pivot < 0:
            return _negativity_certificate(matrix, lower, {k: Fraction(1)})
        if pivot == 0:
            j = next((j for j in range(k + 1, n) if s[k][j] != 0), None)
            if j is not None:
                # the 2x2 block [[0, sigma], [sigma, tau]] is indefinite
                sigma, tau = s[k][j], s[j][j]
                lam = -sigma / (abs(tau) + 1)
                return _negativity_certificate(matrix, lower, {k: Fraction(1), j: lam})
            pivots.append(pivot)
            continue
        pivots.append(pivot)
        for i in range(k + 1, n):
            f = s[i][k] / pivot
            if f:
                lower[i][k] = f
                for j in range(k + 1, n):
                    s[i][j] -= f * s[k][j]
    return Certificate("is_psd", True, {"order": n, "pivots": [str(p) for p in pivots]})


def _negativity_certificate(matrix, lower, support) -> Certificate:
    # Lift a bad vector from Schur-complement coordinates: solve L^T v = u.
    n = matrix.order
    v = [Fraction(0)] * n
    for i in reversed(range(n)):
        acc = support.get(i, Fraction(0))
        for j in range(i + 1, n):
            if lower[j][i]:
                acc -= lower[j][i] * v[j]
        v[i] = acc
    value = matrix.quadratic_form(v)
    if not value < 0:
        raise ArithmeticError("internal error: lifted witness is not negative")
    return Certificate(
        "is_psd",
        False,
        {"order": n, "vector": [str(c) for c in v], "value": str(value)},
    )


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
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


def _first_power_at_least(ratio, target) -> int:
    """The least n >= 0 with ratio^n >= target, for a rational ratio > 1.

    In integers, with ratio = p/q: the powers p^(2^j), q^(2^j) square
    until they clear the target, and then the bits of n - 1, the largest
    exponent that falls short, are read off from the top, one product each.
    """
    ratio, target = Fraction(ratio), Fraction(target)
    p, q = ratio.numerator, ratio.denominator
    if p <= q:
        raise ValueError("the ratio must exceed 1")
    if target <= 1:
        return 0
    num, den = target.numerator, target.denominator
    squares = [(p, q)]  # (p^(2^j), q^(2^j))
    while squares[-1][0] * den < squares[-1][1] * num:
        squares.append((squares[-1][0] ** 2, squares[-1][1] ** 2))
    short, a, b = 0, 1, 1  # ratio^short = a / b falls short of the target
    for j in reversed(range(len(squares) - 1)):
        c, d = a * squares[j][0], b * squares[j][1]
        if c * den < d * num:
            short, a, b = short + 2**j, c, d
    return short + 1


def exponential_sum_sign(terms) -> Certificate:
    """Decide f(k) = sum_i c_i a_i^k >= 0 for every k >= 0, exactly.

    ``terms`` holds pairs (a_i, c_i) of distinct rational bases in [0, 1]
    and rational coefficients (ints or Fractions), with 0^0 = 1, so a base
    0 counts at k = 0 only.  Past that, the largest base a with a nonzero
    coefficient c dominates: from the least K with (a / b)^K >= S / |c|, b
    the next base and S the other coefficients' absolute sum, f(k) has the
    sign of c (strictly past K).  So k < K is scanned when c > 0, and
    k <= K + 1 when c < 0, as the integers q^k D f(k) over the common
    denominators q of the bases and D of the coefficients.

    The witness is the least failing k with f(k) < 0 as ``value``, or on a
    pass the ``dominant_base`` (``None`` when f vanishes past k = 0) and
    the ``stop_index`` from which it dominates.
    """
    terms = list(terms)
    q = lcm(*(a.denominator for a, _ in terms))
    d = lcm(*(c.denominator for _, c in terms))
    ints = [(a.numerator * (q // a.denominator), c.numerator * (d // c.denominator)) for a, c in terms]
    if len({p for p, _ in ints}) != len(ints) or not all(0 <= p <= q for p, _ in ints):
        raise ValueError("the bases must be distinct and lie in [0, 1]")
    if sum(n for _, n in ints) < 0:
        value = Fraction(sum(n for _, n in ints), d)
        return Certificate("exponential_sum_sign", False, {"k": 0, "value": value})
    live = sorted(((p, n) for p, n in ints if p and n), reverse=True)
    if not live:
        return Certificate("exponential_sum_sign", True, {"dominant_base": None, "stop_index": 1})
    (top, lead), rest = live[0], live[1:]
    stop = 0
    if rest:
        others = Fraction(sum(abs(n) for _, n in rest), abs(lead))
        stop = _first_power_at_least(Fraction(top, rest[0][0]), others)
    last = stop if lead > 0 else stop + 2  # the scan's end, exclusive
    bases = [p for p, _ in live]
    powers = [n * p for p, n in live]
    for k in range(1, last):
        total = sum(powers)
        if total < 0:
            value = Fraction(total, d * q**k)
            return Certificate("exponential_sum_sign", False, {"k": k, "value": value})
        powers = [v * p for v, p in zip(powers, bases)]
    if lead < 0:
        raise ArithmeticError("a negative dominant term failed to show by its stop index")
    return Certificate("exponential_sum_sign", True, {"dominant_base": Fraction(top, q), "stop_index": max(1, stop)})


def exponential_sum_threshold(terms) -> tuple[Fraction | None, int | None]:
    """The exact X with f_k(x) >= 0 for every k >= 0 iff 0 < x <= X.

    ``terms`` holds triples (a_i, c_i, d_i), and f_k(x) = sum_i (c_i + d_i x)
    a_i^k = A_k + B_k x.  Returns (X, k) with k the least index where
    -A_k / B_k = X; (X, None) when X is the point where the largest base's
    coefficient vanishes, the limit of those roots; or (None, None) when
    every x > 0 passes.  The set has this shape iff every A_k >= 0; when it
    has not, or holds no x > 0, this raises ``ArithmeticError``.

    The search starts at the first root with B_k < 0, or at the limit when
    that is smaller, and the sign test at each candidate either passes, so
    the candidate is X, or names an index with a smaller root.  Only
    finitely many roots lie below a candidate under the limit, so it ends.
    """
    terms = [(Fraction(a), Fraction(c), Fraction(d)) for a, c, d in terms]

    def root(k: int) -> Fraction:
        constant = sum(c * a**k for a, c, _ in terms)
        if constant == 0:
            raise ArithmeticError(f"f_{k}(x) < 0 for every x > 0")
        return constant / -sum(d * a**k for a, _, d in terms)

    at_zero = exponential_sum_sign([(a, c) for a, c, _ in terms])
    if not at_zero.ok:
        raise ArithmeticError(f"f_k(0) < 0 at k = {at_zero.witness['k']}, so the range is not (0, X]")
    sign = exponential_sum_sign([(a, d) for a, _, d in terms])
    if sign.ok:
        return None, None
    index = sign.witness["k"]
    best = root(index)
    _, c, d = max(((a, c, d) for a, c, d in terms if a and (c or d)), default=(0, 0, 0))
    if d < 0 and c / -d < best:
        best, index = c / -d, None
        if best == 0:
            raise ArithmeticError("the dominant coefficient is negative for every x > 0")
    while True:
        sign = exponential_sum_sign([(a, c + d * best) for a, c, d in terms])
        if sign.ok:
            return best, index
        index = sign.witness["k"]
        best = root(index)
