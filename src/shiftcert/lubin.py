"""The parametric two-variable shift family with a subnormality gap.

One rational parameter x > 0 drives the family, and one table defines
it: the signed measure :data:`MU`,

    mu = x d(1/4,1/4) + x/4 d(1/2,1/2) + 5x/8 d(0,1)
       + (2/11 - x) d(1/4,0) + (1/22 - x/4) d(1/2,0) + 1/44 d(1,0)
       + (3/4 - 5x/8) d(0,0),

whose moments are the moment table :func:`moment2d`.  Three facts of mu
make the table x-free in pieces, and :func:`_pieces` checks them:

* the slopes cancel at each s, so row 0, mu pushed to s, is the
  constants pushed to s;
* the atoms with t > 0 have constant 0, so column 0 past (0, 0) is x
  times the slopes pushed to t;
* the atoms with s, t > 0 lie on the diagonal s = t, so gamma_(k1,k2)
  for k1, k2 >= 1 is x times one moment of order k1 + k2.

So only the row-0 vertical weights depend on x: beta^2_(k1,0) = x c(k1),
with c(0) = 1.  Every other weight is an x-free ratio of piece moments,
cached as a window Row record of ints by the one index it depends on in
a bounded cache, so a diagram costs nothing to build and pays for x with
two gcds per column of row 0.  A w x h window costs three index runs,
not w h rule calls: row 0 by k1, column 0 by k2 and the interior by
k1 + k2, w + h + O(1) cache lookups, each interior row a list slice.  The
squared weight at (0, 2) is 43/48 (the surd sqrt(44/48) sometimes quoted
for it is inconsistent with these moments).

Moments determine a signed measure on [0, 1] and on [0, 1]^2, so T1,
the direct sum of its rows, is subnormal iff each row's Berger measure,
the s-pushforward of t^k2 mu, is positive: for every x > 0.  T2 is
subnormal iff each column's, the t-pushforward of s^k1 mu, is: its mass
at t = 0 is 1/11 - 3x/8 at column 1, so iff x <= 8/33.  The pair is
jointly subnormal iff mu >= 0: iff x <= 2/11.  Each slice mass is a
short exponential sum in the slice index, so each slice is read into
integers once per process and stored with its own threshold, read off
by :func:`.numerics.exponential_sum_threshold`, and each kind's slices
with the one that binds, in one cache (:func:`_slices`).  A verdict at x
scans each stored read with :func:`.numerics._sign_scan`, which stops on
the same rule, and checks each slice's sign against that slice's
threshold and its outcome against the headline one, all in integers.
The rescaled sum T1 + T2 is the subject of :mod:`.agler`.

The one cache keyed by x, :func:`moment2d`, holds at most 1024 entries.
The piece moments sit in one cache keyed by piece and index,
:func:`_moment`, of 2048 indices per piece, and each weight cache holds
2048, so no cache grows with x, a window or a lattice depth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .certificate import Certificate
from .measures import AtomicMeasure1D, moment1
from .numerics import _index, _integer_terms, _rational, _sign_scan, exponential_sum_threshold
from .shift2d import Row, WeightDiagram, _point

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

T2_THRESHOLD = Fraction(8, 33)
PAIR_THRESHOLD = Fraction(2, 11)


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
def _pieces() -> tuple[AtomicMeasure1D, AtomicMeasure1D, AtomicMeasure1D]:
    """mu read into its three x-free pieces: (row, column, diagonal).

    Row 0 pushes mu to s; its slopes must cancel at each s, so the row is
    the constants.  Column 0 past (0, 0) reads the atoms with t > 0, whose
    constants must be 0, so gamma_(0,k2) = x column_k2.  The interior reads
    the atoms with s, t > 0, which must lie on the diagonal s = t, so
    gamma_(k1,k2) = x diagonal_(k1+k2).  A failed fact or a non-positive
    piece mass raises ``ArithmeticError``.
    """
    row, slopes, column, diagonal = {}, {}, {}, {}
    for (s, t), c, d in MU:
        row[s] = row.get(s, 0) + c
        slopes[s] = slopes.get(s, 0) + d
        if t:
            if c:
                raise ArithmeticError(f"mu's atom at {(s, t)} has the constant {c}, so column 0 is not x times an x-free piece")
            column[t] = column.get(t, 0) + d
            if s:
                if s != t:
                    raise ArithmeticError(f"mu's interior atom at {(s, t)} is off the diagonal")
                diagonal[s] = diagonal.get(s, 0) + d
    for s, d in slopes.items():
        if d:
            raise ArithmeticError(f"mu's slopes at s = {s} sum to {d}, so row 0 depends on x")
    pieces = {"row": row, "column": column, "diagonal": diagonal}
    for name, piece in pieces.items():
        for p, m in piece.items():
            if m <= 0:
                raise ArithmeticError(f"mu's {name} piece has the mass {m} at {p}, which is not positive")
    return tuple(AtomicMeasure1D(piece.items()) for piece in pieces.values())


_ROW, _COLUMN, _DIAGONAL = range(3)  # the order of _pieces()
# entries per index-keyed cache: every index a check2d window reaches (depth k1 + k2 <= 2000)
_INDEX_CACHE = 2048


@lru_cache(maxsize=3 * _INDEX_CACHE)
def _moment(piece: int, k: int) -> Fraction:
    """Moment k of the x-free piece ``piece`` of mu."""
    return moment1(_pieces()[piece], k)


@lru_cache(maxsize=_INDEX_CACHE)
def _row_weights(k1: int) -> tuple[int, int, int, int]:
    # (alpha^2_(k1,0), beta^2_(k1,0) / x); gamma_(k1,1) / x is the column's moment 1 at k1 = 0, the diagonal's past it
    gamma = _moment(_ROW, k1)
    alpha, beta = _moment(_ROW, k1 + 1) / gamma, _moment(_DIAGONAL if k1 else _COLUMN, k1 + 1) / gamma
    return *alpha.as_integer_ratio(), *beta.as_integer_ratio()


@lru_cache(maxsize=_INDEX_CACHE)
def _column_weights(k2: int) -> tuple[int, int, int, int]:
    # (alpha^2_(0,k2), beta^2_(0,k2)) for k2 >= 1; x cancels in both
    core = _moment(_COLUMN, k2)
    alpha, beta = _moment(_DIAGONAL, k2 + 1) / core, _moment(_COLUMN, k2 + 1) / core
    return *alpha.as_integer_ratio(), *beta.as_integer_ratio()


@lru_cache(maxsize=_INDEX_CACHE)
def _interior_weights(n: int) -> tuple[int, int, int, int]:
    # (alpha^2_k, beta^2_k), both diagonal_(n+1) / diagonal_n, for k1, k2 >= 1 with k1 + k2 = n
    wn, wd = (_moment(_DIAGONAL, n + 1) / _moment(_DIAGONAL, n)).as_integer_ratio()
    return wn, wd, wn, wd


def _parameter(x) -> Fraction:
    """x as a Fraction, which must be positive: a rational or its string,
    never a float."""
    x = _rational(x, "x", text=True)
    if x <= 0:
        raise ValueError("x must be positive")
    return x


@lru_cache(maxsize=1024, typed=True)
def moment2d(k1: int, k2: int, x) -> Fraction:
    """The family's moment table at parameter x, the moments of mu.

    Row 0 is the row piece's moments, column 0 past (0, 0) x times the
    column piece's, and the interior x times the diagonal piece's moment
    of order k1 + k2.  The cache is typed, so a float index never meets
    the entry cached for the int it equals.
    """
    x = _parameter(x)
    k1, k2 = _point(k1, k2)
    if k2 == 0:
        return _moment(_ROW, k1)
    return x * _moment(_DIAGONAL if k1 else _COLUMN, k1 + k2)


class _FamilyRule(NamedTuple):
    """The family's weight rule at x seen from the base point (i, j): the
    pair (alpha^2, beta^2) at (k1 + i, k2 + j) as Fractions, the one record
    of the 1x1 window read at that point, so a point read takes the window
    read's index path."""

    x: Fraction
    i: int
    j: int

    def __call__(self, k1: int, k2: int) -> tuple[Fraction, Fraction]:
        [[(an, ad, bn, bd)]] = _FamilyDiagram(self._replace(i=self.i + k1, j=self.j + k2)).rows(1, 1)
        return Fraction(an, ad), Fraction(bn, bd)


class _FamilyDiagram(WeightDiagram):
    """The family's diagram, whose one state is its :class:`_FamilyRule`.

    A window read looks each cached Row record of three runs up once: row
    0 by k1 (its beta^2 is x times the cached one, in integers), column 0
    by k2 and the interior by k1 + k2, so each interior row is a slice of
    the interior run.  A point read calls the rule, which reads the 1x1
    window at the point, so every read of the family goes through ``rows``.
    """

    def rows(self, w: int, h: int) -> list[Row]:
        """The records gamma_(k+e) / gamma_k on k1 < w, k2 < h, in lowest
        terms and read unchecked (positive by :func:`_pieces` and x > 0)."""
        x, i, j = self._rule
        heights = range(max(j, 1), j + h)  # the k2 of the rows past row 0
        first = max(i, 1)  # the first interior k1
        count = max(i + w - first, 0)  # interior points per row
        rows = []
        column = interior = []  # a run the window does not reach
        if j == 0 < h:
            p, q = x.numerator, x.denominator
            row = []
            for an, ad, n, d in map(_row_weights, range(i, i + w)):  # x * n/d in lowest terms by two gcds
                g, k = gcd(p, d), gcd(n, q)
                row.append((an, ad, (p // g) * (n // k), (q // k) * (d // g)))
            rows.append(row)
        if i == 0 < w:
            column = list(map(_column_weights, heights))
        if count and heights:
            interior = list(map(_interior_weights, range(first + heights[0], i + w + heights[-1])))
        rows.extend(column[r : r + 1] + interior[r : r + count] for r in range(len(heights)))
        return rows

    def restricted(self, i: int, j: int) -> WeightDiagram:
        """The diagram seen from base point (i, j): its rule's base moved."""
        i, j = _index(i, "base point"), _index(j, "base point")
        x, base_i, base_j = self._rule
        return _FamilyDiagram(_FamilyRule(x, base_i + i, base_j + j))


def family_diagram(x) -> WeightDiagram:
    """The family's weight diagram at x > 0, gamma_{k+e} / gamma_k, which
    reads a window by index runs (:class:`_FamilyDiagram`)."""
    return _FamilyDiagram(_FamilyRule(_parameter(x), 0, 0))


@lru_cache(maxsize=3)
def _slices(kind: str) -> tuple[tuple, tuple]:
    """The sign questions of one verdict, as (point, threshold, index, read),
    and the one that binds: each slice's terms (base, constant, slope) read
    once, into its threshold and index and into integers, (q, den, rows) by
    ``_integer_terms``.  The binding slice has the least threshold, the
    first on a tie, and is all ``None`` when no x > 0 fails.

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
    slices = tuple((point, *exponential_sum_threshold(t), _integer_terms(t)) for point, t in sorted(grouped.items()))
    binding = min((s for s in slices if s[1] is not None), key=lambda s: s[1], default=(None,) * 4)
    return slices, binding


def _verdict(check: str, kind: str, x: Fraction, threshold) -> Certificate:
    """The sign test of ``kind`` at x, checked against each slice's own
    threshold and against ``threshold``, the kind's.

    At x = p/r a slice's integer rows give constant r + slope p, den r times
    its masses, which :func:`.numerics._sign_scan` scans in integers, and
    each threshold is compared with x in integers.  The witness names the
    first slice point with a negative mass at x, or on a pass the point
    where the threshold binds, with its mass at x; this certificate is the
    only one a verdict builds.
    """
    p, r = x.numerator, x.denominator
    ok = True
    slices, binding = _slices(kind)
    for point, bound, index, (q, den, rows) in slices:
        ok, k, total = _sign_scan([(a, c * r + d * p) for a, c, d in rows])
        if ok != (bound is None or p * bound.denominator <= bound.numerator * r):
            raise ArithmeticError(f"the sign test at x = {x} disagrees with the threshold {bound} of the slice at {point}")
        if not ok:
            index, mass = k, Fraction(total, den * r * q**k)
            break
    else:
        point, _, index, read = binding
        q, den, rows = read or (1, 1, ())  # no slice binds when no x > 0 fails
        mass = None if index is None else Fraction(sum((c * r + d * p) * a**index for a, c, d in rows), den * r * q**index)
    if ok != (threshold is None or p * threshold.denominator <= threshold.numerator * r):
        raise ArithmeticError(f"the sign test at x = {x} disagrees with the threshold {threshold}")
    where = {"atom": point} if kind == "atom" else {"slice": kind, "index": index, "point": point}
    return Certificate(check, ok, {"x": x, "threshold": threshold, **where, "mass": mass})


@lru_cache(maxsize=1)
def threshold_t1() -> Certificate:
    """T1 is subnormal for every x > 0: no row of mu's slices ever goes negative."""
    point, threshold, index, _ = _slices("row")[1]
    witness = {"threshold": threshold, "slice": "row", "index": index, "point": point}
    return Certificate("threshold_t1", threshold is None, witness)


def _headline(kind: str, expected: Fraction) -> Fraction:
    """The threshold of ``kind``, which must be the headline value ``expected``."""
    _, threshold, _, _ = _slices(kind)[1]
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
    x = _parameter(x)
    t1, t2, pair = is_t1_subnormal(x), is_t2_subnormal(x), is_pair_subnormal(x)
    return {
        "x": x,
        "thresholds": {"t1": "every x > 0", "t2": T2_THRESHOLD, "pair": PAIR_THRESHOLD},
        "verdicts": {"t1_subnormal": t1.ok, "t2_subnormal": t2.ok, "pair_subnormal": pair.ok},
        "certificates": {"t1": t1, "t2": t2, "pair": pair},
    }
