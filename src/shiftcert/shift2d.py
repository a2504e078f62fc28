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

A diagram is its two weight rules and holds no other state.  The checks
read each weight they need once and decide by the signs of integers,
cross-multiplying numerators and (positive) denominators with no gcd
taken; a fraction is built only for a failure witness.  The Berger check
steps along the canonical path (row 0, then up a column) as it scans,
so it builds no moment table.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable

from .certificate import Certificate
from .measures import AtomicMeasure2D


def _check_window(window) -> tuple[int, int]:
    w, h = window
    if w < 1 or h < 1:
        raise ValueError("window sides must be >= 1")
    return int(w), int(h)


def _positive(name: str, key: tuple[int, int], value) -> Fraction:
    # a Fraction's denominator is positive, so its numerator carries the sign
    v = value if type(value) is Fraction else Fraction(value)
    if v.numerator <= 0:
        raise ValueError(f"{name} at {key} must be positive, got {v}")
    return v


Rule = Callable[[int, int], Fraction]  # a squared weight by lattice point


class WeightDiagram:
    """Squared weights (alpha^2, beta^2) indexed by lattice points: the two
    rules, each read validated, and no other state."""

    def __init__(self, alpha_sq_rule: Rule, beta_sq_rule: Rule):
        self._alpha_rule = alpha_sq_rule
        self._beta_rule = beta_sq_rule

    def alpha_sq(self, k1: int, k2: int) -> Fraction:
        return _positive("alpha^2", (k1, k2), self._alpha_rule(k1, k2))

    def beta_sq(self, k1: int, k2: int) -> Fraction:
        return _positive("beta^2", (k1, k2), self._beta_rule(k1, k2))

    def restricted(self, i: int, j: int) -> "WeightDiagram":
        """The diagram seen from base point (i, j): its rules translated."""
        if i < 0 or j < 0:
            raise ValueError("base point must be in the quadrant")
        if i == 0 and j == 0:
            return self
        alpha, beta = self._alpha_rule, self._beta_rule
        return WeightDiagram(
            lambda k1, k2: alpha(k1 + i, k2 + j),
            lambda k1, k2: beta(k1 + i, k2 + j),
        )


def commutativity_check(diagram: WeightDiagram, window) -> Certificate:
    """beta_{k+(1,0)}^2 alpha_k^2 == alpha_{k+(0,1)}^2 beta_k^2 on the window.

    Reads the w x (h+1) alphas and (w+1) x h betas once each, and decides
    by cross-multiplied integers; the products are built as fractions
    only for a failure witness.
    """
    w, h = _check_window(window)
    alpha = [[diagram.alpha_sq(k1, k2) for k1 in range(w)] for k2 in range(h + 1)]
    beta = [[diagram.beta_sq(k1, k2) for k1 in range(w + 1)] for k2 in range(h)]
    for k2 in range(h):
        alpha_row, alpha_up, beta_row = alpha[k2], alpha[k2 + 1], beta[k2]
        for k1 in range(w):
            b1, a0 = beta_row[k1 + 1], alpha_row[k1]
            a2, b0 = alpha_up[k1], beta_row[k1]
            lhs_n, lhs_d = b1.numerator * a0.numerator, b1.denominator * a0.denominator
            rhs_n, rhs_d = a2.numerator * b0.numerator, a2.denominator * b0.denominator
            if lhs_n * rhs_d != rhs_n * lhs_d:
                return Certificate(
                    "commutativity_check",
                    False,
                    {"k": [k1, k2], "lhs": str(b1 * a0), "rhs": str(a2 * b0)},
                )
    return Certificate("commutativity_check", True, {"window": [w, h]})


def _scaled(value: Fraction, denominator: int) -> int:
    """value * denominator, for a multiple of value's denominator."""
    return value.numerator * (denominator // value.denominator)


def _powers(base: int, count: int) -> list[int]:
    """[base^0, ..., base^(count-1)], with 0^0 = 1."""
    powers = [1]
    for _ in range(count - 1):
        powers.append(powers[-1] * base)
    return powers


def check_berger_2d(diagram: WeightDiagram, mu: AtomicMeasure2D, window) -> Certificate:
    """Exact equality of diagram moments and measure moments on the window.

    Over common denominators f of the masses and b, d of the coordinates,
    an atom m d(s, t) is (e/f) d(a/b, c/d) with integer e, a, c, and the
    measure moment at (k1, k2) is N / (f b^k1 d^k2), N = sum e a^k1 c^k2;
    each atom's a^k1 (k1 < w) and c^k2 (k2 < h) are built once.  The scan
    is row-major, so each point's predecessor on the canonical path,
    (k1-1, 0) on row 0 and (k1, k2-1) above it, has already matched the
    diagram: the mass must be 1, and every other measure moment its
    predecessor's times the squared weight between them.  Each test is one
    integer cross-multiplication; a Fraction is built only for a failure
    witness, where predecessor times weight is the diagram moment.
    """
    w, h = _check_window(window)
    f = lcm(*(m.denominator for _, m in mu.atoms))
    b = lcm(*(s.denominator for (s, _), _ in mu.atoms))
    d = lcm(*(t.denominator for (_, t), _ in mu.atoms))
    atoms = [
        (_scaled(m, f), _powers(_scaled(s, b), w), _powers(_scaled(t, d), h)) for (s, t), m in mu.atoms
    ]
    numerators: list[int] = []  # N on the row being scanned
    for k2 in range(h):
        row = [(e * c_powers[k2], a_powers) for e, a_powers, c_powers in atoms]
        below, numerators = numerators, []
        for k1 in range(w):
            numerator = sum(ec * a_powers[k1] for ec, a_powers in row)
            if k2:
                weight, previous, step = diagram.beta_sq(k1, k2 - 1), below[k1], d
            elif k1:
                weight, previous, step = diagram.alpha_sq(k1 - 1, 0), numerators[k1 - 1], b
            else:
                weight, previous, step = Fraction(1), f, 1  # the mass N(0, 0) / f
            if numerator * weight.denominator != previous * weight.numerator * step:
                denominator = f * b**k1 * d**k2
                lhs = Fraction(previous, denominator // step) * weight
                rhs = Fraction(numerator, denominator)
                return Certificate(
                    "check_berger_2d",
                    False,
                    {"k": [k1, k2], "diagram": str(lhs), "measure": str(rhs)},
                )
            numerators.append(numerator)
    return Certificate("check_berger_2d", True, {"window": (w, h)})


def joint_hyponormality_window(diagram: WeightDiagram, window) -> Certificate:
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
    alpha = [[diagram.alpha_sq(k1, k2) for k1 in range(w)] for k2 in range(h)]
    beta = [[diagram.beta_sq(k1, k2) for k1 in range(w)] for k2 in range(h)]
    for k2 in range(h):
        alpha_row, beta_row = alpha[k2], beta[k2]
        for k1 in range(w):
            a0, b0 = alpha_row[k1], beta_row[k1]
            a = d = p = q = None  # each entry as (numerator, positive denominator)
            if k1 + 1 < w:
                a1 = alpha_row[k1 + 1]
                a = (
                    a1.numerator * a0.denominator - a0.numerator * a1.denominator,
                    a0.denominator * a1.denominator,
                )
            if k2 + 1 < h:
                b1 = beta[k2 + 1][k1]
                d = (
                    b1.numerator * b0.denominator - b0.numerator * b1.denominator,
                    b0.denominator * b1.denominator,
                )
            ok = (a is None or a[0] >= 0) and (d is None or d[0] >= 0)
            if ok and a is not None and d is not None:
                a2, b2 = alpha[k2 + 1][k1], beta_row[k1 + 1]
                p = (a2.numerator * b2.numerator, a2.denominator * b2.denominator)
                q = (a0.numerator * b0.numerator, a0.denominator * b0.denominator)
                # r and 4 P Q times L and L^2, with L = P_den Q_den a1_den b1_den
                scale = a1.denominator * b1.denominator
                r = scale * (p[0] * q[1] + q[0] * p[1]) - a[0] * d[0] * p[1]
                ok = r <= 0 or r * r <= 4 * p[0] * q[0] * p[1] * q[1] * scale * scale
            if not ok:
                return Certificate(
                    "joint_hyponormality_window",
                    False,
                    {
                        "window": [w, h],
                        "k": [k1, k2],
                        **{name: None if v is None else str(Fraction(*v)) for name, v in zip("adPQ", (a, d, p, q))},
                    },
                )
    return Certificate(
        "joint_hyponormality_window",
        True,
        {"window": [w, h], "blocks_checked": w * h - 1},
    )
