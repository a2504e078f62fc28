"""Independent oracles for the family's verdicts, kept out of the package.

The package reads every family verdict off the one signed measure mu
(``lubin.MU``).  The code here reaches the same verdicts the long way,
through the family's one-variable measures and the two-step planar
backward extension, so the tests can compare the two:

* :func:`seeded_x`, a parameter drawn from one regime of the headline
  table with a 3- to 60-bit denominator;
* :class:`NegativeMassError`, raised where a measure would need a
  negative atom;
* the measures xi_a, xi_b(x), xi_c and their level-one restrictions, and
  the Berger measures mu_M and mu_{M int N} of two restrictions of the
  pair;
* :func:`moment1_reference` and :func:`moment2_reference`, an atomic
  measure's moments as ``Fraction`` sums, which ``measures.moment1`` and
  ``measures.moment2`` replaced by one integer sum each;
* :func:`family_moment`, the paper's closed-form moment table, which
  ``lubin.moment2d`` must reproduce from mu;
* atomwise arithmetic of atomic measures (mass at a point, sum,
  scaling, difference, the swap of the plane's coordinates) and domination;
* :func:`backward_extension_2d`, the one-step backward extension of a
  subnormal pair, with the explicit new Berger measure on a pass;
* :func:`pair_threshold_reference` and :func:`pair_subnormal_reference`,
  the pair test composed from those extensions;
* :func:`canonical_moment`, a weight diagram's moment gamma_k as the
  product of its squared weights along the canonical path;
* :func:`per_n_coefficients_reference`, the rescaled sum's per-n record
  in the paper's closed form (A_n, B_n, C_n and the k = 0 form, with
  I_n from the O(n^2) binomial sum :func:`integral_moment_sum`), which
  the slices ``agler`` reads off mu must reproduce;
* :func:`sum_block_hankel`, the block Hankel matrix H(x) of the rescaled
  sum (T1 + T2)/2 on the degree-4 block, and :data:`SUM_KERNEL`, the
  integer vector v with v^T H(x) v = -(25/4096)(x - 2/11);
* :func:`is_psd_reference`, the rational LDL^T that ``numerics.is_psd``
  replaced by an integer elimination, whose certificates it must match
  exactly;
* :func:`certify_sum_reference`, the rescaled sum's certificate by a
  ``Fraction`` scan of every per-n sup up to the tail index, which
  ``agler.certify_sum`` replaced by integer comparisons with its record
  sups, and whose certificates it must match exactly;
* :func:`from_prefix_reference`, a squared-weight prefix's shift with its
  running products in ``Fraction``s and each weight checked as a moment
  ratio, and :func:`minimal_recurrence_reference`, Berlekamp-Massey over
  the rationals: the forms that ``WeightSequence1D.from_prefix`` and
  ``shift1d._minimal_recurrence`` replaced by integer reads, whose moments,
  messages and recurrences they must match exactly;
* :func:`cli_main_reference`, the CLI's ``main`` parsing every call with
  the full parser, top level first, which ``cli.main`` replaced by one
  pass of the command's own parser, and whose exit codes, output and
  errors it must match exactly.
"""

import itertools
import math
import random
from fractions import Fraction

from shiftcert import agler, cli
from shiftcert.certificate import Certificate, to_json
from shiftcert.errors import ShiftCertError
from shiftcert.lubin import PAIR_THRESHOLD, T2_THRESHOLD, family_diagram, moment2d
from shiftcert.measures import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    extremal,
    marginal,
    moment1,
    moment2,
    reciprocal_norm,
    restrict_density,
)
from shiftcert.numerics import _rational
from shiftcert.shift1d import WeightSequence1D, backward_extension_1d
from shiftcert.shift2d import check_berger_2d


def seeded_x(rng: random.Random, regime: int) -> Fraction:
    """A rational in the regime's interval (lo, hi] of the headline table, with a
    3- to 60-bit denominator; the interval's top when none of its fractions has it."""
    x_max = agler.certified_x_max()
    lo, hi = ((Fraction(0), PAIR_THRESHOLD), (PAIR_THRESHOLD, T2_THRESHOLD), (T2_THRESHOLD, x_max), (x_max, Fraction(3, 2)))[regime]
    bits = rng.randint(3, 60)
    q = rng.randrange(1 << (bits - 1), 1 << bits)
    p_lo, p_hi = (lo * q).__floor__() + 1, (hi * q).__floor__()
    return hi if p_lo > p_hi else Fraction(rng.randint(p_lo, p_hi), q)



class NegativeMassError(ShiftCertError):
    """A construction would produce an atom with negative mass."""


XI_B_MASS_CAP = Fraction(8, 15)  # xi_b exists as a positive measure iff x <= 8/15


def xi_a() -> AtomicMeasure1D:
    """3/4 d(0) + 2/11 d(1/4) + 1/22 d(1/2) + 1/44 d(1), the Berger measure of row 0."""
    return AtomicMeasure1D(
        [
            (Fraction(0), Fraction(3, 4)),
            (Fraction(1, 4), Fraction(2, 11)),
            (Fraction(1, 2), Fraction(1, 22)),
            (Fraction(1), Fraction(1, 44)),
        ]
    )


def xi_b(x) -> AtomicMeasure1D:
    """x d(1/4) + x/4 d(1/2) + 5x/8 d(1), padded to mass 1 by an atom at 0."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    if x > XI_B_MASS_CAP:
        raise NegativeMassError(f"xi_b needs mass 1 - 15x/8 >= 0 at 0, so x <= 8/15; got {x}")
    atoms = [(Fraction(1, 4), x), (Fraction(1, 2), x / 4), (Fraction(1), 5 * x / 8)]
    pad = 1 - Fraction(15, 8) * x
    if pad > 0:
        atoms.append((Fraction(0), pad))
    return AtomicMeasure1D(atoms)


def xi_c() -> AtomicMeasure1D:
    return AtomicMeasure1D([(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])


def xi_a_level1() -> AtomicMeasure1D:
    """restrict_density(xi_a, 1) = 1/2 d(1/4) + 1/4 d(1/2) + 1/4 d(1)."""
    return restrict_density(xi_a(), 1)


def xi_b_level1() -> AtomicMeasure1D:
    """restrict_density(xi_b(x), 1); the parameter cancels, so any legal x works."""
    return restrict_density(xi_b(Fraction(1, 5)), 1)


def mu_m_cap_n() -> AtomicMeasure2D:
    """Berger measure of the pair restricted to both deep subspaces:
    1/2 d(1/4,1/4) + 1/2 d(1/2,1/2)."""
    return AtomicMeasure2D(
        [
            ((Fraction(1, 4), Fraction(1, 4)), Fraction(1, 2)),
            ((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2)),
        ]
    )


def mu_m() -> AtomicMeasure2D:
    """Berger measure of the pair restricted past the first row:
    1/4 d(1/4,1/4) + 1/8 d(1/2,1/2) + 5/8 d(0,1)."""
    return AtomicMeasure2D(
        [
            ((Fraction(1, 4), Fraction(1, 4)), Fraction(1, 4)),
            ((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 8)),
            ((Fraction(0), Fraction(1)), Fraction(5, 8)),
        ]
    )


def moment1_reference(mu: AtomicMeasure1D, k: int) -> Fraction:
    """sum_i m_i p_i^k over the atoms (p_i, m_i), in Fractions; 0^0 = 1."""
    return sum((m * p**k for p, m in mu.atoms), Fraction(0))


def moment2_reference(mu: AtomicMeasure2D, k1: int, k2: int) -> Fraction:
    """sum_i m_i s_i^k1 t_i^k2 over the atoms ((s_i, t_i), m_i), in Fractions; 0^0 = 1."""
    return sum((m * s**k1 * t**k2 for (s, t), m in mu.atoms), Fraction(0))


def family_moment(x, k1: int, k2: int) -> Fraction:
    """gamma_k of the family in the paper's closed form: xi_a on row 0, the
    atoms of xi_b(x) away from 0 on column 0, and x/8 times mu_{M int N}
    shifted one step inside."""
    if k2 == 0:
        return moment1(xi_a(), k1)
    if k1 == 0:
        return x * (Fraction(1, 4) ** k2 + Fraction(1, 4) * Fraction(1, 2) ** k2 + Fraction(5, 8))
    return x / 8 * moment2(mu_m_cap_n(), k1 - 1, k2 - 1)


def family_rows(x, i: int, j: int, w: int, h: int) -> list:
    """The family's window rows on k1 < w, k2 < h seen from the base point
    (i, j): each point's record (alpha^2 numerator, denominator, beta^2
    numerator, denominator) read off the closed-form moments as
    gamma_(k+e) / gamma_k, with no weight cache or index run of ``lubin``."""
    gamma = [[family_moment(x, k1, k2) for k1 in range(i, i + w + 1)] for k2 in range(j, j + h + 1)]
    return [
        [(*(row[c + 1] / row[c]).as_integer_ratio(), *(above[c] / row[c]).as_integer_ratio()) for c in range(w)]
        for row, above in zip(gamma, gamma[1:])
    ]


def mass_at(mu, point) -> Fraction:
    """The mass of an atomic measure at a point: a number on the half-line, a pair in the plane."""
    return dict(mu.atoms).get(point, Fraction(0))


def plus(mu, nu):
    """The atomwise sum of two measures of one dimension."""
    merged = dict(mu.atoms)
    for p, m in nu.atoms:
        merged[p] = merged.get(p, Fraction(0)) + m
    return type(mu)(merged.items())


def scaled(mu, factor):
    """The measure factor * mu; the constructor refuses a factor <= 0."""
    return type(mu)((p, Fraction(factor) * m) for p, m in mu.atoms)


def minus(mu: AtomicMeasure1D, nu: AtomicMeasure1D) -> AtomicMeasure1D:
    """The atomwise difference mu - nu; zero atoms are dropped, negatives raise."""
    merged = dict(mu.atoms)
    for p, m in nu.atoms:
        left = merged.pop(p, Fraction(0)) - m
        if left < 0:
            raise NegativeMassError(f"difference is negative at {p}")
        if left:
            merged[p] = left
    return AtomicMeasure1D(merged.items())


def swapped(mu: AtomicMeasure2D) -> AtomicMeasure2D:
    """The push-forward under (s, t) -> (t, s)."""
    return AtomicMeasure2D(((t, s), m) for (s, t), m in mu.atoms)


def dominates(mu: AtomicMeasure1D, nu: AtomicMeasure1D) -> Certificate:
    """Atomwise check of mu <= nu, with the first violating atom as witness."""
    for p, m in mu.atoms:
        available = mass_at(nu, p)
        if m > available:
            return Certificate(
                "dominates",
                False,
                {"point": str(p), "needed": str(m), "available": str(available)},
            )
    return Certificate("dominates", True, {"atoms_checked": len(mu.atoms)})


def domination_scale_bound(mu: AtomicMeasure1D, nu: AtomicMeasure1D):
    """Largest c >= 0 with c*mu <= nu atomwise; None (no bound) when mu is the zero measure."""
    if not mu.atoms:
        return None
    return min(mass_at(nu, p) / m for p, m in mu.atoms)


def backward_extension_2d(first_step_sq, mu_sub: AtomicMeasure2D, xi0: AtomicMeasure1D, direction: str) -> Certificate:
    """One-step backward extension of a subnormal pair.

    ``mu_sub`` is the Berger measure of the pair restricted past the first
    row (direction "vertical", new index along t) or the first column
    (direction "horizontal", along s); ``xi0`` is the Berger measure of
    the slice being extended through; ``first_step_sq`` is the squared
    weight prepended along the extension coordinate.

    The check passes iff three conditions hold along the extension
    coordinate: (i) 1/coordinate is integrable (the witness records
    ``reciprocal_norm``, "infinite" when it is not), (ii) the prepended
    squared weight is at most ``bound`` = 1/||1/coordinate||
    (``weight_ok``), (iii) the rescaled extremal marginal is dominated by
    the slice measure (``domination``).  On success ``new_measure`` is the
    Berger measure of the extended pair,

        c * mu_ext  +  (xi0 - c * (mu_ext marginal)) x delta_0,

    with c = first_step_sq * ||1/coordinate|| and the leftover placed on
    the coordinate axis.  The horizontal case runs the vertical case on
    the swapped measure.
    """
    if direction not in ("vertical", "horizontal"):
        raise ValueError("direction must be 'vertical' or 'horizontal'")
    if direction == "horizontal":
        cert = backward_extension_2d(first_step_sq, swapped(mu_sub), xi0, "vertical")
        measure = cert.witness["new_measure"]
        witness = {
            **cert.witness,
            "direction": "horizontal",
            "new_measure": None if measure is None else swapped(measure),
        }
        return Certificate("backward_extension_2d", cert.ok, witness)

    beta0 = Fraction(first_step_sq)
    if beta0 <= 0:
        raise ValueError("the prepended squared weight must be positive")
    witness = {
        "direction": "vertical",
        "reciprocal_norm": "infinite",
        "bound": None,
        "first_step_sq": beta0,
        "weight_ok": False,
        "domination": None,
        "new_measure": None,
    }
    norm = reciprocal_norm(marginal(mu_sub, "t"))
    if norm is None:
        return Certificate("backward_extension_2d", False, witness)
    bound = 1 / norm
    weight_ok = beta0 <= bound
    scale = beta0 * norm  # total mass moved off the axis
    ext = extremal(mu_sub, "t")
    shadow = scaled(marginal(ext, "x"), scale)
    dom = dominates(shadow, xi0)
    ok = weight_ok and dom.ok
    witness.update(reciprocal_norm=norm, bound=bound, weight_ok=weight_ok, domination=dom)
    if ok:
        lifted = scaled(ext, scale)
        leftover = minus(xi0, shadow)
        axis_part = AtomicMeasure2D(((p, Fraction(0)), m) for p, m in leftover.atoms)
        # no collision: condition (i) rules out mu_sub atoms with t == 0
        witness["new_measure"] = plus(lifted, axis_part) if leftover.atoms else lifted
    return Certificate("backward_extension_2d", ok, witness)


def pair_threshold_reference() -> Fraction:
    """The joint threshold, composed from the two extension steps.

    Step one extends mu_{M int N} horizontally through the column-0 slice
    (the first-step weight 1/8 is x-free) and yields mu_M.  Step two
    extends mu_M vertically through the row-0 slice with first-step weight
    x; its conditions cap x at

        min( 1 / ||1/t||_{mu_M},  atomwise mass ratios of xi_a against
             x * ||1/t|| * (mu_M extremal marginal) )
      = min( 8/15, 6/5, 2/11, 2/11 ) = 2/11.
    """
    step_one = backward_extension_2d(Fraction(1, 8), mu_m_cap_n(), xi_b_level1(), "horizontal")
    if not step_one.ok or step_one.witness["new_measure"] != mu_m():
        raise ArithmeticError("the horizontal extension step failed to rebuild mu_M")
    norm = reciprocal_norm(marginal(mu_m(), "t"))
    per_unit_x = scaled(marginal(extremal(mu_m(), "t"), "x"), norm)
    return min(domination_scale_bound(per_unit_x, xi_a()), 1 / norm)


def pair_subnormal_reference(x) -> bool:
    """The pair test at x by the extension pipeline: the first column
    extends past xi_c, the deep (1, 1) restriction has the Berger measure
    mu_{M int N}, the horizontal step rebuilds mu_M, and the vertical step
    with first weight x extends mu_M through xi_a."""
    x = Fraction(x)
    column = backward_extension_1d(Fraction(11, 8) * x, xi_c())
    deep = check_berger_2d(family_diagram(x).restricted(1, 1), mu_m_cap_n(), (6, 6))
    step_one = backward_extension_2d(Fraction(1, 8), mu_m_cap_n(), xi_b_level1(), "horizontal")
    step_two = backward_extension_2d(x, mu_m(), xi_a(), "vertical")
    return column.ok and deep.ok and step_one.ok and step_two.ok


def canonical_moment(diagram, k1: int, k2: int) -> Fraction:
    """gamma_k along the canonical path from (0, 0): alpha^2 along row 0 to
    (k1, 0), then beta^2 up column k1.  On a commuting diagram every monotone
    path gives this product; the package decides that by commutativity_check."""
    total = Fraction(1)
    for j in range(k1):
        total *= diagram.alpha_sq(j, 0)
    for j in range(k2):
        total *= diagram.beta_sq(k1, j)
    return total


def integral_moment_sum(c: Fraction, n: int) -> Fraction:
    """I_n(c) = sum_l C(n,l) (-c)^l C(2l,l) over a common denominator: the
    O(n^2) binomial sum, the oracle for the recurrence of integral_moment."""
    p, q = c.numerator, c.denominator
    numerator = sum(
        math.comb(n, ell) * math.comb(2 * ell, ell) * (-p) ** ell * q ** (n - ell) for ell in range(n + 1)
    )
    return Fraction(numerator, q**n)


def per_n_coefficients_reference(n: int) -> dict:
    """The rescaled sum's per-n record in closed form, by a Fraction k-scan.

    For k >= 1, P_n(k, 0) gamma_k = A_n(x) (1/4)^k + B_n(x) (1/2)^k + C_n with

        A_n = (2/11 - x)(15/16)^n + x I_n(1/16),
        B_n = (1/22 - x/4)(7/8)^n + (x/4) I_n(1/8),
        C_n = (1/44)(3/4)^n,

    and P_n(0, 0) = 3/4 + A_n + B_n + C_n - (5x/8)(1 - (3/4)^n).  Each
    coefficient is kept as (const, slope) in x.  ``exposed`` holds each
    (k, const_k, slope_k) of P_n(k, 0) gamma_k with slope_k < 0, in
    increasing k, up to the index past which no root can fall below the
    running minimum, and ``sup`` is the least root over them and the k = 0
    form (``None`` when no form has a negative slope).
    """
    i16, i8 = integral_moment_sum(Fraction(1, 16), n), integral_moment_sum(Fraction(1, 8), n)
    p16, p8, p4 = Fraction(15, 16) ** n, Fraction(7, 8) ** n, Fraction(3, 4) ** n
    const_a, slope_a = Fraction(2, 11) * p16, i16 - p16
    const_b, slope_b = Fraction(1, 22) * p8, (i8 - p8) / 4
    c_n = Fraction(1, 44) * p4
    k0_const = Fraction(3, 4) + const_a + const_b + c_n
    k0_slope = slope_a + slope_b - Fraction(5, 8) * (1 - p4)
    exposed = []
    sup = None
    if slope_a < 0 or slope_b < 0:
        for k in itertools.count(1):
            wa, wb = Fraction(1, 4) ** k, Fraction(1, 2) ** k
            slope_k = slope_a * wa + slope_b * wb
            if slope_k < 0:
                const_k = const_a * wa + const_b * wb + c_n
                exposed.append((k, const_k, slope_k))
                root = const_k / -slope_k
                if sup is None or root < sup:
                    sup = root
            if slope_b >= 0 and slope_k >= 0:
                break
            if sup is not None and (abs(slope_a) * wa + abs(slope_b) * wb) * sup < c_n:
                break
    if k0_slope < 0 and (sup is None or k0_const / -k0_slope < sup):
        sup = k0_const / -k0_slope
    return {
        "const_a": const_a,
        "slope_a": slope_a,
        "const_b": const_b,
        "slope_b": slope_b,
        "c_n": c_n,
        "k0_const": k0_const,
        "k0_slope": k0_slope,
        "exposed": tuple(exposed),
        "sup": sup,
    }


SUM_DEGREE, SUM_ORDER = 4, 3
# v in blocks i = 0..3, with a = 0..4 inside each block
SUM_KERNEL = (
    -1, -4, -6, -4, -1,
    4, 40, 72, 40, 4,
    0, -96, -320, -96, 0,
    0, 0, 512, 0, 0,
)


def sum_gram(x, l: int) -> list[list[Fraction]]:
    """G_l[a][b] = <S^l f_(a,4-a), S^l f_(b,4-b)> for S = (T1 + T2)/2 and
    f_k = sqrt(gamma_k) e_k, so that T1, T2 shift the f's and
    <f_k, f_k'> = delta gamma_k:

        G_l[a][b] = 4^-l sum_j C(l, j) C(l, j + b - a) gamma_(a+l-j, 4-a+j).
    """
    d = SUM_DEGREE
    return [
        [
            Fraction(
                sum(
                    math.comb(l, j) * math.comb(l, j + b - a) * moment2d(a + l - j, d - a + j, x)
                    for j in range(max(0, a - b), min(l, l + a - b) + 1)
                ),
                4**l,
            )
            for b in range(d + 1)
        ]
        for a in range(d + 1)
    ]


def sum_block_hankel(x) -> list[list[Fraction]]:
    """H[(i, a)][(j, b)] = G_(i+j)[a][b] for 0 <= i, j <= 3, 0 <= a, b <= 4:
    the moments of a PSD-matrix-valued measure, so PSD, if S is subnormal."""
    grams = [sum_gram(x, l) for l in range(2 * SUM_ORDER + 1)]
    size = SUM_DEGREE + 1
    return [
        [grams[i + j][a][b] for j in range(SUM_ORDER + 1) for b in range(size)]
        for i in range(SUM_ORDER + 1)
        for a in range(size)
    ]


def is_psd_reference(rows) -> Certificate:
    """The PSD decision by rational LDL^T in ``Fraction``s, each Schur
    complement entry updated as s_ij -= (s_ik / s_kk) s_kj.  A zero pivot
    passes only when its residual row vanishes; otherwise, or at a negative
    pivot, the lower factor lifts the bad Schur-complement vector to v with
    v^T M v < 0 by solving L^T v = u."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    n = len(matrix)
    s = [row[:] for row in matrix]
    lower = [[Fraction(0)] * n for _ in range(n)]
    pivots = []
    support = None
    for k in range(n):
        pivot = s[k][k]
        if pivot < 0:
            support = {k: Fraction(1)}
            break
        if pivot == 0:
            j = next((j for j in range(k + 1, n) if s[k][j] != 0), None)
            if j is not None:
                # the 2x2 block [[0, sigma], [sigma, tau]] is indefinite
                sigma, tau = s[k][j], s[j][j]
                support = {k: Fraction(1), j: -sigma / (abs(tau) + 1)}
                break
            pivots.append(pivot)
            continue
        pivots.append(pivot)
        for i in range(k + 1, n):
            f = s[i][k] / pivot
            if f:
                lower[i][k] = f
                for j in range(k + 1, n):
                    s[i][j] -= f * s[k][j]
    if support is None:
        return Certificate("is_psd", True, {"order": n, "pivots": pivots})
    v = [Fraction(0)] * n
    for i in reversed(range(n)):
        v[i] = support.get(i, Fraction(0)) - sum(lower[j][i] * v[j] for j in range(i + 1, n))
    value = sum(v[i] * matrix[i][j] * v[j] for i in range(n) for j in range(n))
    return Certificate("is_psd", False, {"order": n, "vector": v, "value": value})


def certify_sum_reference(x) -> Certificate:
    """The bottom-row Agler certificate of the rescaled sum at x by a scan of
    every n up to the tail index: the first n whose per-n sup x exceeds is
    decided by ``positivity_over_all_k``; past them all, x must not exceed
    the k = 0 cap."""
    x = Fraction(x)
    tail = agler.tail_stopping_index()
    violation = None
    for n in range(1, tail.n_star + 1):
        sup = agler.per_n_exact_sup(n)
        if sup is not None and x > sup:
            violation = agler.positivity_over_all_k(x, n).witness
            break
    if violation is None and x > agler.K0_CAP:
        violation = {"reason": f"x exceeds the k = 0 tail cap {agler.K0_CAP} for the analytic region"}
    witness = {
        "x": x,
        "n_tail": tail.n_star,
        "certified_x_max": agler.certified_x_max(),
        "epsilon": agler.certified_epsilon(),
        "tail_witness": tail.witness,
        "violation": violation,
    }
    return Certificate("certify_sum", violation is None, witness)


def from_prefix_reference(squared_prefix, norm_bound_sq=None) -> WeightSequence1D:
    """The shift with the given squared weights, the last one repeated: its
    moments are the running products in ``Fraction``s, and each prefix weight
    is checked, in index order, as the ratio of two of them."""
    prefix = [_rational(v, "a squared weight") for v in squared_prefix]
    if not prefix:
        raise ValueError("prefix must be nonempty")
    bound = _rational(norm_bound_sq, "norm bound") if norm_bound_sq is not None else max(prefix)
    products = [Fraction(1)]
    for v in prefix:
        products.append(products[-1] * v)
    last, size = prefix[-1], len(prefix)
    w = WeightSequence1D(lambda k: products[k] if k <= size else products[size] * last ** (k - size), bound)
    for n in range(size):
        w.squared_weight(n)
    return w


def minimal_recurrence_reference(ms: list[Fraction], max_order: int) -> list[Fraction] | None:
    """Berlekamp-Massey over the rationals: ``current`` is the connection
    polynomial C (C_0 = 1) of the shortest recurrence of the moments read so
    far, and a nonzero discrepancy d at index n is cancelled by
    (d / last) z^gap ``previous``, the polynomial and discrepancy before the
    last change of L.  The answer is C reversed to degree L, or ``None`` once
    L exceeds ``max_order``."""
    current, previous = [Fraction(1)], [Fraction(1)]
    length, gap, last = 0, 1, Fraction(1)
    for n, moment in enumerate(ms):
        discrepancy = moment + sum(current[i] * ms[n - i] for i in range(1, min(len(current), n + 1)))
        if discrepancy == 0:
            gap += 1
            continue
        factor = discrepancy / last
        updated = current + [Fraction(0)] * (len(previous) + gap - len(current))
        for i, c in enumerate(previous):
            updated[i + gap] -= factor * c
        if 2 * length <= n:
            length, previous, last, gap = n + 1 - length, current, discrepancy, 1
            if length > max_order:
                return None
        else:
            gap += 1
        current = updated
    current += [Fraction(0)] * (length + 1 - len(current))
    return current[length::-1]


def cli_main_reference(argv=None) -> int:
    """``cli.main`` with every call parsed by ``build_parser().parse_args``:
    argparse walks from the top-level parser through each subcommand's."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ShiftCertError as exc:
        return cli._emit(to_json({"error": type(exc).__name__, "message": str(exc)}), args.out, 1)
    except (OSError, ValueError) as exc:
        return cli._fail_usage(str(exc))
