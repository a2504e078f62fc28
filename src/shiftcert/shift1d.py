"""One-variable weighted shifts: moments, fits, and subnormality tests.

A weighted shift is represented by its moment sequence ``k -> gamma_k``
(rationals), computed lazily, together with a declared bound on the
squared weights.  The squared weights are the moment ratios

    alpha_n^2 = gamma_{n+1} / gamma_n,   so   gamma_n = alpha_0^2 * ... * alpha_{n-1}^2,

and a shift is subnormal exactly when its moment sequence is the moment
sequence of a positive measure on [0, ||shift||^2] (its Berger measure).
For finitely atomic measures everything here is decidable in rational
arithmetic:

* ``subnormal_necessary`` -- both Hankel matrices [gamma_{i+j}] and
  [gamma_{i+j+1}] must be positive semidefinite (necessary at every
  order, sufficient in the limit);
* ``agler_sums_1d`` -- for a contraction, all alternating binomial sums
  sum_l (-1)^l C(n,l) gamma_{k+l} / gamma_k must be nonnegative (decided
  by the signs of one integer forward-difference table);
* ``backward_extension_1d`` -- a subnormal shift with measure xi extends
  one step backward by a weight alpha_0 iff 1/s is xi-integrable and
  alpha_0^2 <= 1 / ||1/s||;
* ``berger_fit`` -- exact recovery of the unique atomic measure behind a
  moment list (minimal linear recurrence by Berlekamp-Massey, Sturm root
  isolation, Vandermonde).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Iterable, Sequence

from .certificate import Certificate
from .errors import (
    InconsistentMomentsError,
    NoRationalAtomsError,
    RankExceededError,
)
from .measures import AtomicMeasure1D, moment_run, reciprocal_norm
from .numerics import _index, _integers, _rational, is_psd, rref


class WeightSequence1D:
    """A weighted shift given by its moments, with a declared norm bound.

    The shift is its moment sequence gamma_0, gamma_1, ..., read from one
    run as far as an index needs and kept.  The squared weights are the
    ratios gamma_{n+1} / gamma_n, each checked to be positive and at most
    the bound.
    """

    def __init__(self, moments: Iterable, norm_bound_sq):
        self._run = iter(moments)
        self.norm_bound_sq = _rational(norm_bound_sq, "norm bound")
        if self.norm_bound_sq <= 0:
            raise ValueError("norm bound must be positive")
        self._moments: list[Fraction] = []

    def squared_weight(self, n: int) -> Fraction:
        n = _index(n, "weight index")
        return self._checked(n, self.moment(n + 1) / self.moment(n))

    def _checked(self, n: int, w: Fraction) -> Fraction:
        """The squared weight w at n, once it is positive and at most the bound."""
        if w <= 0:
            raise ValueError(f"squared weight at {n} must be positive, got {w}")
        if w > self.norm_bound_sq:
            raise ValueError(
                f"squared weight {w} at {n} exceeds the declared bound {self.norm_bound_sq}"
            )
        return w

    def moment(self, n: int) -> Fraction:
        n = _index(n, "moment order")
        if len(self._moments) <= n:
            self._moments += islice(self._run, n + 1 - len(self._moments))
            if len(self._moments) <= n:
                raise ValueError(f"the moment run ends before index {n}")
        return self._moments[n]

    @classmethod
    def from_measure(cls, xi: AtomicMeasure1D) -> "WeightSequence1D":
        """The shift whose Berger measure is the probability measure xi.

        Its moments are xi's, read in order by one :func:`moment_run`, and
        their ratios are at most the bound, xi's largest atom.  That atom
        must lie above 0, or every weight would be 0.
        """
        run = moment_run(xi)
        if (total := next(run)) != 1:
            raise ValueError("Berger measures are probability measures")
        bound = max(p for p, _ in xi.atoms)
        if bound == 0:
            raise ValueError("the Berger measure has no atom above 0, so every weight would be 0")
        return cls(chain([total], run), bound)

    @classmethod
    def from_prefix(cls, squared_prefix: Sequence, norm_bound_sq=None) -> "WeightSequence1D":
        """The shift with the given squared weights, the last one repeated.

        Its moments are the running products of the weights.  Every prefix
        weight, the ratio of two products, is checked here, in index order;
        the tail repeats the last one, so no later weight can fail.
        """
        prefix = [_rational(v, "a squared weight") for v in squared_prefix]
        if not prefix:
            raise ValueError("prefix must be nonempty")
        bound = _rational(norm_bound_sq, "norm bound") if norm_bound_sq is not None else max(prefix)
        w = cls(accumulate(chain(prefix, repeat(prefix[-1])), operator.mul, initial=Fraction(1)), bound)
        for n, v in enumerate(prefix):
            w._checked(n, v)
        return w


def subnormal_necessary(w: WeightSequence1D, order: int) -> Certificate:
    """Exact PSD test of [gamma_{i+j}] and [gamma_{i+j+1}], 0 <= i, j <= order."""
    order = _index(order, "order")
    gammas = [w.moment(i) for i in range(2 * order + 2)]
    plain = is_psd([gammas[i : i + order + 1] for i in range(order + 1)])
    shifted = is_psd([gammas[i + 1 : i + order + 2] for i in range(order + 1)])
    return Certificate(
        "subnormal_necessary",
        plain.ok and shifted.ok,
        {"order": order, "hankel": plain, "shifted_hankel": shifted},
    )


def agler_sums_1d(w: WeightSequence1D, n_max: int, k_max: int) -> Certificate:
    """Nonnegativity of all alternating binomial moment sums on a grid.

    The test applies to contractions; when the declared squared-weight
    bound B exceeds 1 the shift is rescaled first (gamma_k -> gamma_k/B^k),
    which preserves subnormality.  The sum at (n, k) is the n-th forward
    difference (I - E)^n gamma at k divided by gamma_k > 0, so each is
    decided by the sign of one entry of the difference table of the
    gammas over a common denominator, in integers; a fraction is built
    only for the failure witness.  The rescale is in integers too: with
    gamma_i = g_i / D and B = bn / bd, each g_i bd^i bn^(top - i), top =
    n_max + k_max, is gamma_i / B^i times one positive factor, D bn^top.
    """
    n_max, k_max = _index(n_max, "n_max", 1), _index(k_max, "k_max")
    bound = w.norm_bound_sq
    scale = bound if bound > 1 else Fraction(1)
    top = n_max + k_max
    _, base = _integers([w.moment(i) for i in range(top + 1)])
    bn, bd = scale.as_integer_ratio()
    base = [g * bd**i * bn ** (top - i) for i, g in enumerate(base)]
    row = base
    for n in range(1, n_max + 1):
        row = [a - b for a, b in zip(row, row[1:])]
        for k in range(k_max + 1):
            if row[k] < 0:
                return Certificate(
                    "agler_sums_1d",
                    False,
                    {"n": n, "k": k, "value": Fraction(row[k], base[k]), "rescaled_by": scale},
                )
    return Certificate(
        "agler_sums_1d",
        True,
        {"n_max": n_max, "k_max": k_max, "rescaled_by": scale},
    )


def backward_extension_1d(alpha0_sq, xi: AtomicMeasure1D) -> Certificate:
    """One-step backward extension test for a subnormal shift with measure xi.

    Passes iff 1/s is integrable (no atom at 0) and the prepended squared
    weight does not exceed 1 / ||1/s||.  The measure needs an atom.
    """
    a0 = _rational(alpha0_sq, "the prepended squared weight")
    if a0 <= 0:
        raise ValueError("the prepended squared weight must be positive")
    if not xi.atoms:
        raise ValueError("backward extension needs a measure with at least one atom")
    norm = reciprocal_norm(xi)
    if norm is None:
        return Certificate(
            "backward_extension_1d",
            False,
            {"reciprocal_norm": "infinite", "first_weight_sq": a0},
        )
    bound = 1 / norm
    return Certificate(
        "backward_extension_1d",
        a0 <= bound,
        {"reciprocal_norm": norm, "bound": bound, "first_weight_sq": a0, "margin": bound - a0},
    )


def berger_fit(moments: Sequence, max_atoms: int) -> AtomicMeasure1D:
    """Recover the unique finitely atomic measure behind a moment list.

    Exact pipeline: find the minimal-order linear recurrence the moments
    satisfy (one Berlekamp-Massey pass over the rationals), take its
    polynomial's roots, isolated exactly at any coefficient size, as the
    atoms, solve the Vandermonde system for the masses, then re-verify
    every supplied moment.

    Raises :class:`RankExceededError` when no recurrence of order up to
    ``max_atoms`` exists, :class:`NoRationalAtomsError` when the recurrence
    polynomial does not split into distinct rational roots, and
    :class:`InconsistentMomentsError` when the formal fit is not a positive
    measure on [0, inf) reproducing the data.
    """
    max_atoms = _index(max_atoms, "max_atoms", 1)
    ms = [_rational(m, "a moment") for m in moments]
    if not ms or ms[0] != 1:
        raise ValueError("moments[0] must equal 1")
    if len(ms) < 2 * max_atoms + 1:
        raise ValueError("need at least 2*max_atoms + 1 moments")
    coeffs = _minimal_recurrence(ms, max_atoms)
    if coeffs is None:
        raise RankExceededError(f"no linear recurrence of order <= {max_atoms} fits the moments")
    points = _rational_roots(coeffs)
    if any(p < 0 for p in points):
        raise InconsistentMomentsError("recurrence has a root at a negative location")
    size = len(points)
    # _rational_roots gives distinct points, so the Vandermonde system reduces to [I | masses]
    reduced, _ = rref([[p**j for p in points] + [ms[j]] for j in range(size)])
    masses = [row[size] for row in reduced]
    if any(m <= 0 for m in masses):
        raise InconsistentMomentsError("fit requires a nonpositive mass")
    candidate = AtomicMeasure1D(zip(points, masses))
    for j, (target, moment) in enumerate(zip(ms, moment_run(candidate))):
        if moment != target:
            raise InconsistentMomentsError(f"fit fails to reproduce moment {j}")
    return candidate


def _minimal_recurrence(ms: list[Fraction], max_order: int) -> list[Fraction] | None:
    """Monic coefficients c, of least order L, with sum_i c_i * ms[j+i] == 0 for
    every window j; ``None`` when L > max_order.

    One Berlekamp-Massey pass in integers, over the moments' common
    denominator (:func:`_integers`): ``current`` is a multiple of the
    connection polynomial C of the shortest recurrence of the moments read so
    far, and a nonzero discrepancy d at index n is cancelled as last C - d
    z^gap ``previous``, the polynomial and discrepancy before the last change
    of L, with the content removed by one gcd.  The answer is C reversed to
    degree L and made monic, the only one of order L given 2 L moments.  L
    never decreases, so the pass stops once it exceeds ``max_order``.
    """
    _, g = _integers(ms)
    current, previous = [1], [1]
    length, gap, last = 0, 1, 1
    for n in range(len(g)):
        discrepancy = sum(c * g[n - i] for i, c in enumerate(current[: n + 1]))
        if discrepancy == 0:
            gap += 1
            continue
        updated = [last * c for c in current] + [0] * (len(previous) + gap - len(current))
        for i, c in enumerate(previous):
            updated[i + gap] -= discrepancy * c
        if 2 * length <= n:
            length, previous, last, gap = n + 1 - length, current, discrepancy, 1
            if length > max_order:
                return None
        else:
            gap += 1
        content = math.gcd(*updated)
        current = [c // content for c in updated]
    current += [0] * (length + 1 - len(current))
    return [Fraction(c, current[0]) for c in current[length::-1]]


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All roots of a monic polynomial known to split into distinct rational roots.

    Cleared of denominators, P(z) = sum a_i z^i of degree e and leading
    coefficient L has its rational roots at z = u / (2 L) with u an even
    integer root of the monic integer polynomial R(u) = 2^e L^(e-1) P(u / (2 L)).
    No odd integer is a root of R, and every real one lies in (-2 B, 2 B),
    B = |L| + max |a_i| (Cauchy's bound).  Bisection between odd integers,
    counting the distinct roots in each cell by the Sturm chain of R, leaves
    cells (u - 1, u + 1), and R(u) = 0 is tested exactly in each.  A cell
    that holds one root, with R of opposite signs at its ends, is halved by
    the sign of R alone.
    """
    _, ints = _integers(coeffs)  # content 1, as coeffs[-1] == 1
    if ints[:2] == [0, 0]:
        raise InconsistentMomentsError("recurrence polynomial has a repeated root at 0")
    e, lead = len(ints) - 1, ints[-1]
    monic = [a * 2 ** (e - i) * lead ** (e - 1 - i) for i, a in enumerate(ints[:-1])] + [1]
    chain, nxt = [monic], [i * a for i, a in enumerate(monic)][1:]
    while nxt:  # the Sturm chain: R, R', then negated remainders
        chain.append(nxt)
        nxt = [-c for c in _remainder(chain[-2], nxt)]
    edge = 2 * (abs(lead) + max(map(abs, ints[:-1]))) + 1
    roots, cells = [], [(-edge, _sign_changes(chain, -edge), edge, _sign_changes(chain, edge))]
    while cells:
        lo, v_lo, hi, v_hi = cells.pop()
        if v_lo == v_hi:
            continue  # no root between lo and hi
        one_root = hi - lo > 2 and v_lo - v_hi == 1
        if one_root and (_value(monic, lo) < 0) != (negative := _value(monic, hi) < 0):
            while hi - lo > 2:  # R crosses zero once in the cell: its sign alone halves it
                mid = lo + (hi - lo) // 4 * 2
                lo, hi = (lo, mid) if (_value(monic, mid) < 0) == negative else (mid, hi)
        elif hi - lo > 2:
            mid = lo + (hi - lo) // 4 * 2
            v_mid = _sign_changes(chain, mid)
            cells += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
            continue
        if _value(monic, lo + 1) == 0:
            roots.append(Fraction((lo + 1) // 2, lead))
    if len(roots) != e:
        raise NoRationalAtomsError(
            f"recurrence polynomial of degree {e} has only "
            f"{len(roots)} distinct rational roots"
        )
    return sorted(roots)


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of a mod b, with content 1 (coefficients lowest first)."""
    a, lead = list(a), b[-1]
    while len(a) >= len(b):
        top, shift = a.pop(), len(a) - len(b) + 1
        if top:  # |lead| a - sign(lead) top z^shift b has no top term
            a = [abs(lead) * c for c in a]
            for i, c in enumerate(b[:-1]):
                a[shift + i] -= (top if lead > 0 else -top) * c
    while a and not a[-1]:
        a.pop()
    g = math.gcd(*a)
    return [c // g for c in a]


def _value(p: list[int], u: int) -> int:
    """p(u) by Horner's rule."""
    value = 0
    for c in reversed(p):
        value = value * u + c
    return value


def _sign_changes(chain: list[list[int]], u: int) -> int:
    """Sign changes along the chain's values at u, zeros skipped."""
    changes, last = 0, 0
    for p in chain:
        value = _value(p, u)
        if value:
            changes += last != 0 and (value < 0) != (last < 0)
            last = value
    return changes
