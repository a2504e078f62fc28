"""Independent oracles for the family's verdicts, kept out of the package.

The package reads every family verdict off the one signed measure mu
(``lubin.MU``).  The code here reaches the same verdicts the long way,
through the family's one-variable measures and the two-step planar
backward extension, so the tests can compare the two:

* :class:`NegativeMassError`, raised where a measure would need a
  negative atom;
* the measures xi_b(x), xi_c and their level-one restrictions, and the
  Berger measures mu_M and mu_{M int N} of two restrictions of the pair;
* atomwise arithmetic of atomic measures (mass at a point, sum,
  difference, the swap of the plane's coordinates) and domination;
* :func:`backward_extension_2d`, the one-step backward extension of a
  subnormal pair, with the explicit new Berger measure on a pass;
* :func:`pair_threshold_reference` and :func:`pair_subnormal_reference`,
  the pair test composed from those extensions;
* :func:`canonical_moment`, a weight diagram's moment gamma_k as the
  product of its squared weights along the canonical path.
"""

from fractions import Fraction

from shiftcert.certificate import Certificate
from shiftcert.errors import ShiftCertError
from shiftcert.lubin import family_diagram, xi_a
from shiftcert.measures import (
    INFINITE,
    AtomicMeasure1D,
    AtomicMeasure2D,
    extremal,
    is_infinite,
    marginal,
    reciprocal_norm,
    restrict_density,
)
from shiftcert.shift1d import backward_extension_1d
from shiftcert.shift2d import check_berger_2d


class NegativeMassError(ShiftCertError):
    """A construction would produce an atom with negative mass."""


XI_B_MASS_CAP = Fraction(8, 15)  # xi_b exists as a positive measure iff x <= 8/15


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


def mass_at(mu, point) -> Fraction:
    """The mass of an atomic measure at a point: a number on the half-line, a pair in the plane."""
    return dict(mu.atoms).get(point, Fraction(0))


def plus(mu, nu):
    """The atomwise sum of two measures of one dimension."""
    merged = dict(mu.atoms)
    for p, m in nu.atoms:
        merged[p] = merged.get(p, Fraction(0)) + m
    return type(mu)(merged.items())


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
    """Largest c >= 0 with c*mu <= nu atomwise; INFINITE when mu is the zero measure."""
    if not mu.atoms:
        return INFINITE
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
    norm = reciprocal_norm(mu_sub, "t")
    if is_infinite(norm):
        return Certificate("backward_extension_2d", False, witness)
    bound = 1 / norm
    weight_ok = beta0 <= bound
    scale = beta0 * norm  # total mass moved off the axis
    ext = extremal(mu_sub, "t")
    shadow = marginal(ext, "x").scaled(scale)
    dom = dominates(shadow, xi0)
    ok = weight_ok and dom.ok
    witness.update(reciprocal_norm=norm, bound=bound, weight_ok=weight_ok, domination=dom)
    if ok:
        lifted = ext.scaled(scale)
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
    norm = reciprocal_norm(mu_m(), "t")
    per_unit_x = marginal(extremal(mu_m(), "t"), "x").scaled(norm)
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
