"""Two-variable weighted shifts on the quarter-plane lattice.

A commuting pair (T1, T2) of weighted shifts acts on the basis e_k,
k = (k1, k2) in the lattice quadrant, by

    T1 e_k = alpha_k e_{k + (1,0)},     T2 e_k = beta_k e_{k + (0,1)},

and is determined by its *weight diagram* (alpha^2, beta^2).  The pair
commutes iff  beta_{k+(1,0)} alpha_k == alpha_{k+(0,1)} beta_k  for all k,
in which case the moments

    gamma_k = product of squared weights along any monotone lattice path
              from (0,0) to k

are path-independent.  The pair is (jointly) subnormal iff gamma is the
moment sequence of a positive measure on a closed square (its Berger
measure); this module provides the exact finite machinery around that
characterization:

* weight diagrams and their lattice restrictions,
* commutativity (equivalently, path independence below each window
  point), with a witness,
* verification of a candidate planar Berger measure on a window,
* the exact windowed joint hyponormality check: the compressed
  self-commutator splits into 2x2 blocks, each decided over the rationals.

A diagram is its one weight rule, which gives the pair (alpha^2, beta^2)
at a lattice point, and holds no other state.  Every check reads its
weights through one window reader, ``rows``, each row kept as one list
of records, one per lattice point: the alpha numerator and positive
denominator, then the beta ones.  A diagram reads one rule call per
lattice point, row by row, each weight validated positive by
``_positive``; the family's (``lubin.family_diagram``) overrides
``rows`` to read its few distinct weights, positive by construction, by
index runs and gives the same records.  A check takes a diagram or one
such read kept as a :class:`WindowRead` (``WeightDiagram.read``), which
serves every smaller rectangle, so several checks read each point once.
The checks then decide by the signs of integers, cross-multiplying
numerators and denominators with no gcd taken; a fraction is built only
for a failure witness.  The point reads ``alpha_sq`` / ``beta_sq`` read
the pair, validate their half with the same helper and message, and
return it.  The Berger check steps along the canonical path (row 0, then
up a column) as it scans, so it builds no moment table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .certificate import Certificate
from .measures import AtomicMeasure2D
from .numerics import _index, _integers, _rational

Pair = tuple[int, int]  # a rational as (numerator, positive denominator), in lowest terms
# a window row: one (alpha^2 numerator, denominator, beta^2 numerator, denominator) per k1
Row = list[tuple[int, int, int, int]]
Rule = Callable[[int, int], tuple[Fraction, Fraction]]  # (alpha^2, beta^2) by lattice point


def _check_window(window) -> tuple[int, int]:
    w, h = (_index(side, "window sides", 1) for side in window)
    return w, h


def _point(k1, k2) -> tuple[int, int]:
    """A lattice point: two integer indices, each >= 0."""
    return _index(k1, "lattice index"), _index(k2, "lattice index")


def _positive(name: str, k1: int, k2: int, value) -> Pair:
    """A squared weight as a Pair, which must be a positive rational."""
    n, d = _rational(value, f"{name} at {(k1, k2)}").as_integer_ratio()
    if n <= 0:
        raise ValueError(f"{name} at {(k1, k2)} must be positive, got {Fraction(n, d)}")
    return n, d


class WeightDiagram:
    """Squared weights (alpha^2, beta^2) indexed by lattice points: the one
    rule giving the pair and no other state.  A point read gives a Fraction,
    a window read Rows; both validate each weight the same way.  A subclass
    may read a window from its rule's structure, and must give the records
    this per-point read gives."""

    def __init__(self, rule: Rule):
        self._rule = rule

    def alpha_sq(self, k1: int, k2: int) -> Fraction:
        k1, k2 = _point(k1, k2)
        return Fraction(*_positive("alpha^2", k1, k2, self._rule(k1, k2)[0]))

    def beta_sq(self, k1: int, k2: int) -> Fraction:
        k1, k2 = _point(k1, k2)
        return Fraction(*_positive("beta^2", k1, k2, self._rule(k1, k2)[1]))

    def rows(self, w: int, h: int) -> list[Row]:
        """The pairs on k1 < w, k2 < h, one Row per k2 and one rule call and
        record per point, row by row; each weight goes through _positive,
        which names the first bad point."""
        rule, rows = self._rule, []
        for k2 in range(h):
            row = []
            for k1 in range(w):
                alpha, beta = rule(k1, k2)
                row.append((*_positive("alpha^2", k1, k2, alpha), *_positive("beta^2", k1, k2, beta)))
            rows.append(row)
        return rows

    def read(self, w: int, h: int) -> "WindowRead":
        """The pairs on k1 < w, k2 < h, each side at least 1, read once
        through ``rows``."""
        w, h = _check_window((w, h))
        return WindowRead(self.rows(w, h), w, h)

    def restricted(self, i: int, j: int) -> "WeightDiagram":
        """The diagram seen from base point (i, j): its rule translated."""
        i, j = _index(i, "base point"), _index(j, "base point")
        if i == 0 and j == 0:
            return self
        rule = self._rule
        return WeightDiagram(lambda k1, k2: rule(k1 + i, k2 + j))


class WindowRead:
    """The rows of one w x h rectangle of a diagram, read once.  It serves
    ``rows(w', h')`` for any w' <= w, h' <= h by slicing, so a check takes
    either a diagram or a read that covers its rectangle; a larger
    rectangle raises ``ValueError``."""

    __slots__ = ("_rows", "_w", "_h")

    def __init__(self, rows: list[Row], w: int, h: int):
        self._rows, self._w, self._h = rows, w, h

    def rows(self, w: int, h: int) -> list[Row]:
        if w > self._w or h > self._h:
            raise ValueError(f"a {self._w}x{self._h} read does not cover a {w}x{h} rectangle")
        if w == self._w:
            return self._rows[:h]
        return [row[:w] for row in self._rows[:h]]


Weights = WeightDiagram | WindowRead  # what a check reads its rectangle from


def commutativity_check(diagram: Weights, window) -> Certificate:
    """beta_{k+(1,0)}^2 alpha_k^2 == alpha_{k+(0,1)}^2 beta_k^2 on the window.

    Reads the (w+1) x (h+1) pairs once each, and decides by
    cross-multiplied integers; the products are built as fractions only
    for a failure witness.
    """
    w, h = _check_window(window)
    rows = diagram.rows(w + 1, h + 1)
    for k2, (row, above) in enumerate(zip(rows, rows[1:])):
        for k1, ((a0n, a0d, b0n, b0d), (_, _, b1n, b1d), (a2n, a2d, _, _)) in enumerate(zip(row, row[1:], above)):
            if b1n * a0n * a2d * b0d != a2n * b0n * b1d * a0d:
                return Certificate(
                    "commutativity_check",
                    False,
                    {"k": [k1, k2], "lhs": Fraction(b1n * a0n, b1d * a0d), "rhs": Fraction(a2n * b0n, a2d * b0d)},
                )
    return Certificate("commutativity_check", True, {"window": [w, h]})


def _powers(base: int, count: int) -> list[int]:
    """[base^0, ..., base^(count-1)], with 0^0 = 1."""
    powers = [1]
    for _ in range(count - 1):
        powers.append(powers[-1] * base)
    return powers


def check_berger_2d(diagram: Weights, mu: AtomicMeasure2D, window) -> Certificate:
    """Exact equality of diagram moments and measure moments on the window.

    Over common denominators f of the masses and b, d of the coordinates,
    an atom m d(s, t) is (e/f) d(a/b, c/d) with integer e, a, c, and the
    measure moment at (k1, k2) is N / (f b^k1 d^k2), N = sum e a^k1 c^k2;
    each atom's a^k1 (k1 < w) and c^k2 (k2 < h) are built once.  The scan
    is row-major, so each point's predecessor on the canonical path,
    (k1-1, 0) on row 0 and (k1, k2-1) above it, has already matched the
    diagram: the mass must be 1, and every other measure moment its
    predecessor's times the squared weight between them.  The pairs on
    the w x max(h - 1, 1) rectangle, which hold the alphas on row 0 and
    the betas below the top row, are read up front, so a non-positive
    weight there raises even past a mismatch.  Each test
    is one integer cross-multiplication; a Fraction is built only for a
    failure witness, where predecessor times weight is the diagram moment.
    """
    w, h = _check_window(window)
    rows = diagram.rows(w, max(h - 1, 1))
    f, masses = _integers([m for _, m in mu.atoms])
    b, ss = _integers([s for (s, _), _ in mu.atoms])
    d, ts = _integers([t for (_, t), _ in mu.atoms])
    atoms = [(e, _powers(a, w), _powers(c, h)) for e, a, c in zip(masses, ss, ts)]
    numerators: list[int] = []  # N on the row being scanned
    for k2 in range(h):
        row = [(e * c_powers[k2], a_powers) for e, a_powers, c_powers in atoms]
        below, numerators = numerators, []
        for k1 in range(w):
            numerator = sum(ec * a_powers[k1] for ec, a_powers in row)
            if k2:
                (_, _, wn, wd), previous, step = rows[k2 - 1][k1], below[k1], d
            elif k1:
                (wn, wd, _, _), previous, step = rows[0][k1 - 1], numerators[k1 - 1], b
            else:
                (wn, wd), previous, step = (1, 1), f, 1  # the mass N(0, 0) / f
            if numerator * wd != previous * wn * step:
                denominator = f * b**k1 * d**k2
                lhs = Fraction(previous * wn, denominator // step * wd)
                rhs = Fraction(numerator, denominator)
                return Certificate(
                    "check_berger_2d",
                    False,
                    {"k": [k1, k2], "diagram": lhs, "measure": rhs},
                )
            numerators.append(numerator)
    return Certificate("check_berger_2d", True, {"window": (w, h)})


def joint_hyponormality_window(diagram: Weights, window) -> Certificate:
    """Exact PSD test of the compressed self-commutator on a window.

    The compression of [[ [T1*,T1], [T2*,T1] ], [ [T1*,T2], [T2*,T2] ]] to
    the window's basis vectors in both components is block-diagonal:
    [T2*, T1] couples component 2 at k + (0,1) only with component 1 at
    k + (1,0).  Base point k therefore owns the block (Curto's six-point
    test)

        [[a, off], [off, d]],   a = alpha^2_{k+(1,0)} - alpha^2_k,
                                d = beta^2_{k+(0,1)} - beta^2_k,
                                off = sqrt(P) - sqrt(Q),
        P = alpha^2_{k+(0,1)} beta^2_{k+(1,0)},   Q = alpha^2_k beta^2_k,

    shrunk to the one entry a or d whose partner leaves the window; the
    entries at k1 == 0 (component 1) and k2 == 0 (component 2) are squared
    weights, positive by construction.  With r = P + Q - a d the block is
    PSD iff a >= 0, d >= 0 and (r <= 0 or r^2 <= 4 P Q), which needs no
    square root and no commutativity.  Each test is the sign of one
    integer: the quantity times a positive product of the six weights'
    denominators, with no gcd taken.  The witness of a failure is the base
    point k with a, d, P and Q as fractions.  Every weight a block needs
    lies in the window, and each is read once.
    """
    w, h = _check_window(window)
    rows = diagram.rows(w, h)
    for k2, row in enumerate(rows):
        for k1 in range(w):
            a0n, a0d, b0n, b0d = row[k1]
            a = d = p = q = None  # each entry as (numerator, positive denominator)
            if k1 + 1 < w:
                a1n, a1d, b2n, b2d = row[k1 + 1]  # the pair at k + (1, 0)
                a = (a1n * a0d - a0n * a1d, a0d * a1d)
            if k2 + 1 < h:
                a2n, a2d, b1n, b1d = rows[k2 + 1][k1]  # the pair at k + (0, 1)
                d = (b1n * b0d - b0n * b1d, b0d * b1d)
            ok = (a is None or a[0] >= 0) and (d is None or d[0] >= 0)
            if ok and a is not None and d is not None:
                p = (a2n * b2n, a2d * b2d)
                q = (a0n * b0n, a0d * b0d)
                # r and 4 P Q times L and L^2, with L = P_den Q_den a1_den b1_den
                scale = a1d * b1d
                r = scale * (p[0] * q[1] + q[0] * p[1]) - a[0] * d[0] * p[1]
                ok = r <= 0 or r * r <= 4 * p[0] * q[0] * p[1] * q[1] * scale * scale
            if not ok:
                return Certificate(
                    "joint_hyponormality_window",
                    False,
                    {
                        "window": [w, h],
                        "k": [k1, k2],
                        **{name: None if v is None else Fraction(*v) for name, v in zip("adPQ", (a, d, p, q))},
                    },
                )
    return Certificate(
        "joint_hyponormality_window",
        True,
        {"window": [w, h], "blocks_checked": w * h - 1},
    )
