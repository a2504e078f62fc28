"""The parametric two-variable shift family with a subnormality gap.

One rational parameter x > 0 drives the family.  Three atomic probability
measures on [0, 1] generate everything:

    xi_a      = 3/4 d(0) + 2/11 d(1/4) + 1/22 d(1/2) + 1/44 d(1)
    xi_b(x)   = (1 - 15x/8) d(0) + x d(1/4) + x/4 d(1/2) + 5x/8 d(1)
    xi_c      = 1/2 d(1/4) + 1/2 d(1/2)

Row 0 of the weight diagram is the shift of xi_a, column 0 the shift of
xi_b(x), and every deeper slice restricts the shift of xi_c.  The moments
are given in closed form by :func:`moment2d`; the weight rules stay
well-defined for every x > 0 even though xi_b itself only exists as a
positive measure for x <= 8/15.

Only the row-0 vertical weights depend on x: beta^2_(k1,0) = x c(k1),
with c(0) = 1.  Every other weight is an x-free ratio of moment cores:
the xi_a moments on row 0, gamma_k(xi_b) / x on column 0, and
f(s-1) / f(s-2) off the axes, where s = k1 + k2 and
f(p) = 1/2 4^-p + 1/2 2^-p.  The cores and the weights are cached by the
one index each depends on, in bounded caches, so a diagram costs nothing
to build and is not kept: it pays for x with one product per column of
row 0.  :func:`moment2d` is built from the same cores.

Certified thresholds (all decided in exact rational arithmetic):

* T1 is subnormal for every x > 0 (the backward-extension margin along
  every row is the constant 5);
* T2 is subnormal iff x <= 8/33 (the infimum over columns of the
  backward-extension bounds, attained at the first column);
* the pair (T1, T2) is jointly subnormal iff x <= 2/11 (a two-step planar
  backward extension whose final domination constraint has atomwise
  mass ratios {6/5, 2/11, 2/11});
* the rescaled sum T1 + T2 stays subnormal strictly past 2/11, with an
  explicit certified margin; see :mod:`.agler`.

The x-free parts of these verdicts are computed once per process:
:func:`threshold_t1` (a certificate with a read-only witness),
:func:`threshold_t2` (both loops compare integer numerators over 8 * 4^m
read from the atoms of the measures, and build Fractions only for a
failure witness), and two stages of the pair test, the Berger check
of the deep (1, 1) restriction (its weights are ratios of interior
moments, in which x/8 cancels) and the horizontal extension to mu_M.  The
tests at a given x run once per verdict sheet.  The one cache keyed by x,
:func:`moment2d`, holds at most 1024 entries, so no cache grows with x;
the index-keyed caches hold at most 2048 entries each, so none grows
with a window or a lattice depth either.

The measure xi_b is canonical here, so the squared weight at lattice
point (0, 2) is 43/48, as its moments force; the surd sqrt(44/48)
sometimes quoted for that slot is inconsistent with them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .certificate import Certificate
from .errors import NegativeMassError
from .measures import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    domination_scale_bound,
    extremal,
    marginal,
    moment1,
    reciprocal_norm,
    restrict_density,
)
from .shift1d import backward_extension_1d
from .shift2d import WeightDiagram, backward_extension_2d, check_berger_2d

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

T2_THRESHOLD = Fraction(8, 33)
PAIR_THRESHOLD = Fraction(2, 11)
XI_B_MASS_CAP = Fraction(8, 15)  # xi_b exists as a positive measure iff x <= 8/15


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


def xi_b(x) -> AtomicMeasure1D:
    """x d(1/4) + x/4 d(1/2) + 5x/8 d(1), padded to mass 1 by an atom at 0."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    if x > XI_B_MASS_CAP:
        raise NegativeMassError(f"xi_b needs mass 1 - 15x/8 >= 0 at 0, so x <= 8/15; got {x}")
    atoms = [
        (Fraction(1, 4), x),
        (Fraction(1, 2), x / 4),
        (Fraction(1), 5 * x / 8),
    ]
    pad = 1 - Fraction(15, 8) * x
    if pad > 0:
        atoms.append((Fraction(0), pad))
    return AtomicMeasure1D(atoms)


@lru_cache(maxsize=1)
def xi_c() -> AtomicMeasure1D:
    return AtomicMeasure1D([(Fraction(1, 4), _HALF), (Fraction(1, 2), _HALF)])


@lru_cache(maxsize=1)
def xi_a_level1() -> AtomicMeasure1D:
    """restrict_density(xi_a, 1) = 1/2 d(1/4) + 1/4 d(1/2) + 1/4 d(1)."""
    return restrict_density(xi_a(), 1)


@lru_cache(maxsize=1)
def xi_b_level1() -> AtomicMeasure1D:
    """restrict_density(xi_b(x), 1); the parameter cancels, so any legal x works."""
    return restrict_density(xi_b(Fraction(1, 5)), 1)


# entries per index-keyed cache: every index a --path walk (k1 + k2 <= 2000) reaches
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


@lru_cache(maxsize=1)
def mu_m_cap_n() -> AtomicMeasure2D:
    """Berger measure of the pair restricted to both deep subspaces:
    1/2 d(1/4,1/4) + 1/2 d(1/2,1/2)."""
    return AtomicMeasure2D(
        [((Fraction(1, 4), Fraction(1, 4)), _HALF), ((Fraction(1, 2), Fraction(1, 2)), _HALF)]
    )


@lru_cache(maxsize=1)
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


@lru_cache(maxsize=1024)
def moment2d(k1: int, k2: int, x) -> Fraction:
    """Closed-form moment table of the family at parameter x.

    Row 0 carries the xi_a moments, column 0 the xi_b(x) moment rule, and
    the interior is x/8 times moments of mu_{M int N} shifted one step:
    gamma_{(k1,k2)} = (x/8) (1/2 (1/4)^{k1+k2-2} + 1/2 (1/2)^{k1+k2-2}).
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
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
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")

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


# rows (threshold_t1) and columns (threshold_t2) verified exactly before the closed forms
THRESHOLD_WINDOW = 64

# every atom of xi_c, xi_b_level1 and xi_a_level1 has its point in (1/4)Z and its
# mass in (1/8)Z, so the threshold loops read gamma_m as an integer over 8 * 4^m
_GRID_POINT, _GRID_MASS = 4, 8


def _grid_atoms(mu: AtomicMeasure1D) -> tuple[tuple[int, int], ...]:
    """(4 point, 8 mass) of each atom, as integers."""
    atoms = []
    for point, mass in mu.atoms:
        a, b = point * _GRID_POINT, mass * _GRID_MASS
        if a.denominator != 1 or b.denominator != 1:
            raise ArithmeticError(f"atom {mass} d({point}) is off the grid of the threshold loops")
        atoms.append((a.numerator, b.numerator))
    return tuple(atoms)


def _grid_moment(atoms: tuple[tuple[int, int], ...], m: int) -> int:
    """8 * 4^m * gamma_m of the measure with these grid atoms (0^0 = 1)."""
    return sum(b * a**m for a, b in atoms)


@lru_cache(maxsize=1)
def threshold_t1() -> Certificate:
    """T1 is subnormal for every x > 0.

    Row m+1 is the backward extension of the xi_c shift restricted m steps,
    and the prepended squared weight alpha_{(0,m+1)}^2 is x-free.  The
    margin of the extension test is the constant 5:

        8 gamma_m(xi_b restricted) - (2 (1/4)^m + (1/2)^m) == 5,

    verified exactly for every m <= THRESHOLD_WINDOW alongside the extension
    test itself; row 0 is the xi_a shift, subnormal outright.  Both tests
    compare integer numerators over 8 * 4^m read from the atoms of the two
    measures; only a failure builds the Fraction witness.
    """
    c_atoms, b_atoms = _grid_atoms(xi_c()), _grid_atoms(xi_b_level1())
    lift = lcm(*(a for a, _ in c_atoms if a))  # off 0, 1/p = 4/a = 4 (lift // a) / lift
    for m in range(THRESHOLD_WINDOW + 1):
        gamma_c, gamma_b = _grid_moment(c_atoms, m), _grid_moment(b_atoms, m)
        # alpha0^2 = gamma_c / (8 gamma_b), as x cancels in gamma_(1,m+1)/gamma_(0,m+1).  The
        # restriction of xi_c past m has ||1/s|| = reach / (lift gamma_c), infinite if m = 0 and
        # an atom sits at 0, where reach / (lift 8 4^m) sums mass p^(m-1) over the atoms off 0;
        # the extension needs alpha0^2 ||1/s|| <= 1
        reach = sum(_GRID_POINT * b * a**m * (lift // a) for a, b in c_atoms if a)
        integrable = m > 0 or all(a for a, _ in c_atoms)
        extends = integrable and gamma_c * reach <= 8 * gamma_b * gamma_c * lift
        margin = 8 * gamma_b - _GRID_MASS * (2 + 2**m)  # the identity's left side over 8 * 4^m
        if not extends or margin != 5 * _GRID_MASS * _GRID_POINT**m:
            alpha0_sq = moment1(xi_c(), m) / (8 * moment1(xi_b_level1(), m))
            cert = backward_extension_1d(alpha0_sq, restrict_density(xi_c(), m))
            identity = 8 * moment1(xi_b_level1(), m) - (2 * _QUARTER**m + _HALF**m)
            if cert.ok and identity == 5:
                raise ArithmeticError("the integer and the rational row checks disagree")
            return Certificate(
                "threshold_t1",
                False,
                {"m": m, "extension": cert, "margin_identity": str(identity)},
            )
    return Certificate(
        "threshold_t1",
        True,
        {
            "m_max": THRESHOLD_WINDOW,
            "constant_margin": "5",
            "conclusion": "row extensions pass for every parameter value",
        },
    )


@lru_cache(maxsize=1)
def threshold_t2() -> Fraction:
    """Exact T2 threshold 8/33: infimum over columns of the extension bounds.

    Column n+1 extends backward iff x <= 8 gamma_n(xi_a restricted) /
    (11 (2 (1/4)^n + (1/2)^n)).  Verifies on columns n <= THRESHOLD_WINDOW
    that these bounds increase and that the minimum sits at n == 0, then
    certifies the global claim by the polynomial identity
    3 - u - 2u^2 == 2 (1 - u) (u + 3/2) >= 0 for u = (1/2)^n in (0, 1].
    The comparisons cross-multiply integer numerators over 8 * 4^n, with
    gamma_n read from the atoms of the measure.
    """
    a_atoms = _grid_atoms(xi_a_level1())
    # each column bound as (numerator, denominator), both scaled by 8 * 4^n
    bounds = [
        (8 * _grid_moment(a_atoms, n), 11 * _GRID_MASS * (2 + 2**n))
        for n in range(THRESHOLD_WINDOW + 1)
    ]
    for (p, q), (r, s) in zip(bounds, bounds[1:]):
        if not p * s < r * q:
            raise ArithmeticError("column bounds failed to increase on the window")
    minimum = Fraction(*bounds[0])
    if minimum != T2_THRESHOLD:
        raise ArithmeticError(f"expected the first column bound to be 8/33, got {minimum}")
    for n in range(THRESHOLD_WINDOW + 1):
        v = 2**n  # 1/u; both sides times 2 v^2
        lhs = 6 * v * v - 2 * v - 4
        if lhs != 2 * (v - 1) * (2 + 3 * v) or lhs < 0:
            raise ArithmeticError("global minimality identity failed")
    return minimum


@lru_cache(maxsize=1)
def _extension_to_mu_m() -> Certificate:
    """Step one of the pair test: extend mu_{M int N} horizontally through
    the column-0 slice with the x-free first-step weight 1/8."""
    return backward_extension_2d(Fraction(1, 8), mu_m_cap_n(), xi_b_level1(), "horizontal")


@lru_cache(maxsize=1)
def _deep_restriction_check() -> Certificate:
    """Berger check of the (1, 1) restriction against mu_{M int N} on 6x6.

    x cancels: each weight of the restriction is a ratio of two interior
    moments (x/8) f(k1 + k2), so the check is the same at every x > 0.
    """
    return check_berger_2d(family_diagram(_QUARTER).restricted(1, 1), mu_m_cap_n(), (6, 6))


def threshold_pair() -> Fraction:
    """Exact joint threshold 2/11, composed from the two extension steps.

    Step one extends mu_{M int N} horizontally through the column-0 slice
    (passes for every x; the first-step weight 1/8 is x-free) and yields
    mu_M.  Step two extends mu_M vertically through the row-0 slice with
    first-step weight x; its conditions cap x at

        min( 1 / ||1/t||_{mu_M},  atomwise mass ratios of xi_a against
             x * ||1/t|| * (mu_M extremal marginal) )
      = min( 8/15, 6/5, 2/11, 2/11 ) = 2/11.
    """
    step_one = _extension_to_mu_m()
    if not step_one.ok or step_one.witness["new_measure"] != mu_m():
        raise ArithmeticError("the horizontal extension step failed to rebuild mu_M")
    norm = reciprocal_norm(mu_m(), "t")
    per_unit_x = marginal(extremal(mu_m(), "t"), "x").scaled(norm)
    ratio_bound = domination_scale_bound(per_unit_x, xi_a())
    return min(ratio_bound, 1 / norm)


def is_t1_subnormal(x) -> Certificate:
    """T1 is subnormal regardless of the parameter; ``x`` is recorded only."""
    cert = threshold_t1()
    return Certificate("is_t1_subnormal", cert.ok, {**cert.witness, "x": str(Fraction(x))})


def is_t2_subnormal(x) -> Certificate:
    """T2 is subnormal iff x <= 8/33; the binding column is the first one."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    threshold = threshold_t2()
    column0 = backward_extension_1d(Fraction(11, 8) * x, xi_c())
    ok = x <= threshold
    if column0.ok != ok:
        raise ArithmeticError("first-column extension must match the threshold comparison")
    return Certificate(
        "is_t2_subnormal",
        ok,
        {
            "x": str(x),
            "threshold": str(threshold),
            "binding_column": 1,
            "column_extension": column0,
            "xi_b_mass_cap": str(XI_B_MASS_CAP),
        },
    )


def is_pair_subnormal(x) -> Certificate:
    """The pair is jointly subnormal iff x <= 2/11.

    Runs the full pipeline at the given x: component subnormality, the
    Berger check of the deep restriction, the horizontal extension to
    mu_M, and the final vertical extension with first step x.  The middle
    two are x-free and cached.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    t2 = is_t2_subnormal(x)
    deep = _deep_restriction_check()
    step_one = _extension_to_mu_m()
    step_two = backward_extension_2d(x, mu_m(), xi_a(), "vertical")
    ok = t2.ok and deep.ok and step_one.ok and step_two.ok
    if ok != (x <= PAIR_THRESHOLD):
        raise ArithmeticError("pipeline must agree with the threshold")
    return Certificate(
        "is_pair_subnormal",
        ok,
        {
            "x": str(x),
            "threshold": str(PAIR_THRESHOLD),
            "t2": t2,
            "deep_restriction": deep,
            "extension_to_mu_m": step_one,
            "final_extension": step_two,
        },
    )


def family_report(x) -> dict:
    """The family's thresholds, verdicts and certificates at parameter x."""
    x = Fraction(x)
    t1 = is_t1_subnormal(x)
    pair = is_pair_subnormal(x)
    t2 = pair.witness["t2"]  # the pair test runs the T2 test first
    return {
        "x": str(x),
        "thresholds": {
            "t1": "every x > 0",
            "t2": str(T2_THRESHOLD),
            "pair": str(PAIR_THRESHOLD),
        },
        "verdicts": {
            "t1_subnormal": t1.ok,
            "t2_subnormal": t2.ok,
            "pair_subnormal": pair.ok,
        },
        "certificates": {"t1": t1, "t2": t2, "pair": pair},
    }
