"""Exact rational kernels shared by the whole package.

Scalars are ``fractions.Fraction`` throughout: arbitrary-precision
rationals in lowest terms, which is exactly the arithmetic needed to
separate thresholds such as 2/11 from 8/33 without any tolerance budget.
No float appears anywhere in the package.

Serialization convention: a rational renders as ``"p/q"``, or bare
``"p"`` when the denominator is 1 (``str(Fraction)`` already does this).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .certificate import Certificate

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


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
