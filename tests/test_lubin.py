import contextlib
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    XI_B_MASS_CAP,
    NegativeMassError,
    canonical_moment,
    mass_at,
    mu_m,
    mu_m_cap_n,
    pair_subnormal_reference,
    pair_threshold_reference,
    xi_a_level1,
    xi_b,
    xi_b_level1,
    xi_c,
)
from shiftcert import lubin
from shiftcert.lubin import (
    MU,
    PAIR_THRESHOLD,
    T2_THRESHOLD,
    family_diagram,
    family_report,
    is_pair_subnormal,
    is_t1_subnormal,
    is_t2_subnormal,
    moment2d,
    threshold_pair,
    threshold_t1,
    threshold_t2,
    xi_a,
)
from shiftcert.measures import AtomicMeasure1D, AtomicMeasure2D, moment1, restrict_density
from shiftcert.certificate import Certificate, to_json
from shiftcert.numerics import rref
from shiftcert.shift1d import WeightSequence1D, backward_extension_1d
from shiftcert.shift2d import check_berger_2d, commutativity_check

xs = st.fractions(min_value=F(1, 64), max_value=F(8, 15), max_denominator=64)

# rows and columns the Fraction oracles read before their closing identities
WINDOW = 64
SUM_CERTIFIED = F(482964062, 585323453)
# the headline regimes: everything passes; the pair fails; T2 fails; the sum certificate fails
REGIMES = (
    (F(0), PAIR_THRESHOLD),
    (PAIR_THRESHOLD, T2_THRESHOLD),
    (T2_THRESHOLD, SUM_CERTIFIED),
    (SUM_CERTIFIED, F(3, 2)),
)


@st.composite
def regime_xs(draw):
    """A rational in one regime's interval (lo, hi], with a denominator of up to 60 bits."""
    lo, hi = REGIMES[draw(st.integers(0, 3))]
    q = draw(st.integers(1, 2**60))
    p_lo, p_hi = (lo * q).__floor__() + 1, (hi * q).__floor__()
    if p_lo > p_hi:
        return hi
    return F(draw(st.integers(p_lo, p_hi)), q)


def t2_column_bound(n: int) -> F:
    """Largest x for which column n+1 extends backward:
    8 gamma_n(xi_a restricted) / (11 (2 (1/4)^n + (1/2)^n))."""
    numerator = 8 * moment1(xi_a_level1(), n)
    denominator = 11 * (2 * F(1, 4) ** n + F(1, 2) ** n)
    return numerator / denominator


def threshold_t1_reference() -> Certificate:
    """T1 by backward extensions: row m+1 extends the xi_c shift restricted m
    steps, and the margin 8 gamma_m(xi_b restricted) - (2 (1/4)^m + (1/2)^m)
    stays the constant 5; both are checked on the window."""
    for m in range(WINDOW + 1):
        numerator = moment1(xi_c(), m)
        denominator = 8 * moment1(xi_b_level1(), m)
        cert = backward_extension_1d(numerator / denominator, restrict_density(xi_c(), m))
        identity = 8 * moment1(xi_b_level1(), m) - (2 * F(1, 4) ** m + F(1, 2) ** m)
        if not cert.ok or identity != 5:
            return Certificate(
                "threshold_t1", False, {"m": m, "extension": cert, "margin_identity": str(identity)}
            )
    return Certificate(
        "threshold_t1",
        True,
        {
            "m_max": WINDOW,
            "constant_margin": "5",
            "conclusion": "row extensions pass for every parameter value",
        },
    )


def threshold_t2_reference() -> F:
    """T2 by backward extensions: the column bounds increase on the window,
    the first is the least, and 3 - u - 2u^2 == 2 (1 - u) (u + 3/2) >= 0 for
    u = (1/2)^n carries that past it."""
    bounds = [t2_column_bound(n) for n in range(WINDOW + 1)]
    for earlier, later in zip(bounds, bounds[1:]):
        if not earlier < later:
            raise ArithmeticError("column bounds failed to increase on the window")
    minimum = bounds[0]
    if minimum != T2_THRESHOLD:
        raise ArithmeticError(f"expected the first column bound to be 8/33, got {minimum}")
    for n in range(WINDOW + 1):
        u = F(1, 2) ** n
        lhs = 3 - u - 2 * u**2
        if lhs != 2 * (1 - u) * (u + F(3, 2)) or lhs < 0:
            raise ArithmeticError("global minimality identity failed")
    return minimum


_MU_CACHES = ("_mu_identity", "_slices", "_threshold", "threshold_t1")


def clear_mu_caches():
    for name in _MU_CACHES:
        getattr(lubin, name).cache_clear()


@contextlib.contextmanager
def mu_replaced(table, check_identity=True):
    """Replace lubin's mu table, with the caches that read it cleared on entry
    and exit; without ``check_identity`` nothing compares it with moment2d."""
    patches = {"MU": table}
    if not check_identity:
        patches["_mu_identity"] = lambda: None
    clear_mu_caches()
    try:
        with mock.patch.multiple(lubin, **patches):
            yield
    finally:
        clear_mu_caches()


def replaced_atom(point, constant, slope):
    """MU with the atom at ``point`` given a new constant and slope."""
    return tuple((p, constant, slope) if p == point else (p, c, d) for p, c, d in MU)


def replay(witness) -> F:
    """The witness's mass, recomputed from moment2d alone: one Vandermonde rref
    on the slice's support points against the slice's moments."""
    x = witness["x"]
    if "atom" in witness:
        points = [p for p, _, _ in MU]
        # seven lattice points whose monomials separate mu's seven atoms
        lattice = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 1)]
        rows = [[s**k1 * t**k2 for s, t in points] + [moment2d(k1, k2, x)] for k1, k2 in lattice]
        target = witness["atom"]
    else:
        axis = 0 if witness["slice"] == "row" else 1
        points = sorted({p[axis] for p, _, _ in MU})
        index = witness["index"]
        # row k2 has the moments moment2d(j, k2), column k1 the moments moment2d(k1, j)
        at = (lambda j: (j, index)) if axis == 0 else (lambda j: (index, j))
        rows = [[p**j for p in points] + [moment2d(*at(j), x)] for j in range(len(points))]
        target = witness["point"]
    reduced, pivots = rref(rows)
    assert pivots == list(range(len(points)))
    return reduced[points.index(target)][len(points)]


class TestMeasures:
    def test_xi_a_golden(self):
        assert xi_a() == AtomicMeasure1D(
            [(F(0), F(3, 4)), (F(1, 4), F(2, 11)), (F(1, 2), F(1, 22)), (F(1), F(1, 44))]
        )
        assert xi_a().is_probability()

    def test_xi_c_golden(self):
        assert xi_c() == AtomicMeasure1D([(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2))])

    def test_xi_b_at_one_fifth(self):
        mu = xi_b(F(1, 5))
        assert mass_at(mu, F(0)) == F(5, 8)
        assert mass_at(mu, F(1, 4)) == F(1, 5)
        assert mass_at(mu, F(1, 2)) == F(1, 20)
        assert mass_at(mu, F(1)) == F(1, 8)
        assert mu.is_probability()

    def test_xi_b_exists_up_to_the_mass_cap(self):
        top = xi_b(XI_B_MASS_CAP)
        assert mass_at(top, F(0)) == 0
        assert top.is_probability()
        with pytest.raises(NegativeMassError):
            xi_b(XI_B_MASS_CAP + F(1, 10**6))
        with pytest.raises(ValueError):
            xi_b(F(0))

    def test_level_one_restrictions(self):
        assert xi_a_level1() == AtomicMeasure1D([(F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(1), F(1, 4))])
        assert xi_b_level1() == AtomicMeasure1D([(F(1, 4), F(1, 4)), (F(1, 2), F(1, 8)), (F(1), F(5, 8))])

    def test_xi_b_level_one_is_parameter_free(self):
        for x in (F(1, 7), F(1, 3), F(8, 15)):
            assert restrict_density(xi_b(x), 1) == xi_b_level1()

    def test_mu_measures_golden(self):
        assert mu_m_cap_n().is_probability()
        assert mu_m().is_probability()
        assert mass_at(mu_m(), (F(0), F(1))) == F(5, 8)


# Literal closed forms of the squared weights: a along row 0, b up column
# 0 and c along row 0 of the deep (1, 1) restriction.  The a and b forms
# are stated for n >= 1, where the atom at 0 no longer enters.


def a_closed(n: int) -> F:
    return F(4**n + 2**n + 2, 4**n + 2 ** (n + 1) + 8)


def b_closed(n: int) -> F:
    return F(5 * 4**n + 2**n + 2, 5 * 4**n + 2 ** (n + 1) + 8)


def b_closed_shifted(n: int) -> F:
    # the form sometimes quoted for index n; it reproduces index n + 1
    return F(10 * 4**n + 2**n + 1, 10 * 4**n + 2 ** (n + 1) + 4)


def c_closed(n: int) -> F:
    return F(2 ** (n + 1) + 1, 2 ** (n + 2) + 4)


class TestWeights:
    def diagram(self, x=F(1, 5)):
        return family_diagram(x)

    def test_a_golden(self):
        assert [self.diagram().alpha_sq(n, 0) for n in range(3)] == [F(1, 11), F(1, 2), F(11, 16)]

    def test_c_golden(self):
        deep = self.diagram().restricted(1, 1)
        assert [deep.alpha_sq(n, 0) for n in range(3)] == [F(3, 8), F(5, 12), F(9, 20)]

    def test_b_starts_at_x(self):
        for x in (F(1, 7), F(2, 11), F(1, 2)):
            assert self.diagram(x).beta_sq(0, 0) == x

    def test_b_is_parameter_free_past_the_start(self):
        for n in range(1, 6):
            assert self.diagram(F(1, 7)).beta_sq(0, n) == self.diagram(F(1, 2)).beta_sq(0, n)

    def test_b_level_two_is_43_over_48(self):
        # derived from the xi_b moments; see the module docstring for the
        # inconsistent surd sometimes quoted for this slot (44/48)
        assert self.diagram().beta_sq(0, 2) == F(43, 48)
        assert self.diagram().beta_sq(0, 2) != F(44, 48)

    def test_closed_forms_match_measure_ratios(self):
        d = self.diagram()
        deep = d.restricted(1, 1)
        for n in range(1, 16):
            assert a_closed(n) == d.alpha_sq(n, 0)
            assert b_closed(n) == d.beta_sq(0, n)
        for n in range(0, 15):
            assert b_closed_shifted(n) == d.beta_sq(0, n + 1)
            assert c_closed(n) == deep.alpha_sq(n, 0)

    def test_closed_form_domains(self):
        # at n = 0 the atom at 0 enters gamma_0, so the a and b forms miss
        d = self.diagram()
        assert a_closed(0) == F(4, 11) != d.alpha_sq(0, 0)
        assert b_closed(0) == F(8, 15) != d.beta_sq(0, 0)

    def test_weights_increase_to_their_limits(self):
        d = self.diagram()
        deep = d.restricted(1, 1)
        assert d.alpha_sq(40, 0) < 1
        assert deep.alpha_sq(40, 0) < F(1, 2)
        for n in range(12):
            assert d.alpha_sq(n, 0) < d.alpha_sq(n + 1, 0)
            assert deep.alpha_sq(n, 0) < deep.alpha_sq(n + 1, 0)


class TestMomentTable:
    def test_row_zero_is_xi_a(self):
        for x in (F(1, 5), F(2, 11)):
            for k in range(9):
                assert moment2d(k, 0, x) == moment1(xi_a(), k)

    def test_column_zero_by_hand(self):
        x = F(1, 5)
        assert moment2d(0, 1, x) == x
        assert moment2d(0, 2, x) == 3 * x / 4
        assert moment2d(0, 3, x) == 43 * x / 64

    def test_interior_by_hand(self):
        x = F(1, 7)
        assert moment2d(1, 1, x) == x / 8
        assert moment2d(2, 3, x) == (x / 8) * (F(1, 2) * F(1, 4) ** 3 + F(1, 2) * F(1, 2) ** 3)

    def test_interior_depends_only_on_total_degree(self):
        x = F(1, 5)
        assert moment2d(2, 3, x) == moment2d(3, 2, x) == moment2d(4, 1, x)

    def test_validation(self):
        with pytest.raises(ValueError):
            moment2d(-1, 0, F(1, 5))


class TestFamilyDiagram:
    def test_figure_golden_weights(self):
        for x in (F(1, 5), F(2, 11), F(1, 7)):
            d = family_diagram(x)
            assert d.alpha_sq(0, 0) == F(1, 11)
            assert d.alpha_sq(1, 0) == F(1, 2)
            assert d.alpha_sq(2, 0) == F(11, 16)
            assert d.alpha_sq(0, 1) == F(1, 8)
            assert d.alpha_sq(0, 2) == F(1, 16)
            assert d.beta_sq(0, 0) == x
            assert d.beta_sq(1, 0) == F(11, 8) * x
            assert d.beta_sq(2, 0) == F(33, 32) * x
            assert d.beta_sq(0, 1) == F(3, 4)
            assert d.beta_sq(0, 2) == F(43, 48)

    def test_diagram_commutes_at_several_parameters(self):
        for x in (F(2, 11), F(1, 2), F(6, 5)):
            assert commutativity_check(family_diagram(x), (10, 10)).ok

    def test_component_shifts(self):
        # row 0 is the xi_a shift; column 0 starts at x and reaches 43/48
        d = family_diagram(F(1, 5))
        row = WeightSequence1D.from_measure(xi_a())
        assert [d.alpha_sq(n, 0) for n in range(8)] == [row.squared_weight(n) for n in range(8)]
        assert d.beta_sq(0, 0) == F(1, 5)
        assert d.beta_sq(0, 2) == F(43, 48)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            family_diagram(F(-1, 5))

    @given(x=xs, k1=st.integers(min_value=0, max_value=5), k2=st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_diagram_reproduces_the_table(self, x, k1, k2):
        assert canonical_moment(family_diagram(x), k1, k2) == moment2d(k1, k2, x)


class TestThresholds:
    def test_t2_value_and_binding_column(self):
        assert threshold_t2() == F(8, 33)
        assert t2_column_bound(0) == F(8, 33)
        witness = is_t2_subnormal(F(1, 5)).witness
        assert (witness["slice"], witness["index"], witness["point"]) == ("column", 1, 0)

    def test_t2_column_bounds_increase(self):
        for n in range(10):
            assert t2_column_bound(n) < t2_column_bound(n + 1)

    def test_pair_value(self):
        assert threshold_pair() == F(2, 11)

    def test_t1_unconditional(self):
        cert = threshold_t1()
        assert cert.ok
        assert cert.witness["threshold"] is None

    def test_module_constants_agree(self):
        assert T2_THRESHOLD == F(8, 33)
        assert PAIR_THRESHOLD == F(2, 11)
        assert XI_B_MASS_CAP == F(8, 15)

    def test_integer_loops_match_the_fraction_loops(self):
        # the integer sign kernel on mu against the Fraction extension loops
        assert threshold_t1().ok is threshold_t1_reference().ok is True
        assert threshold_t2() == threshold_t2_reference() == T2_THRESHOLD
        assert threshold_pair() == pair_threshold_reference() == PAIR_THRESHOLD

    def test_t1_failure_reads_the_measure(self):
        # row 0's mass at s = 1/4 becomes 1/4 + 2/11 - 2x, in a table not compared with moment2d
        with mu_replaced(replaced_atom((F(1, 4), F(1, 4)), F(1, 4), F(-1)), check_identity=False):
            cert = threshold_t1()
            assert not cert.ok
            assert cert.witness["threshold"] == F(19, 88)
            assert (cert.witness["index"], cert.witness["point"]) == (0, F(1, 4))
            assert is_t1_subnormal(F(19, 88)).ok
            failure = is_t1_subnormal(F(1, 3)).witness
            assert (failure["index"], failure["point"], failure["mass"]) == (0, F(1, 4), F(-31, 132))
        assert threshold_t1().ok

    def test_t1_failure_at_an_atom_at_zero(self):
        # the row slice at s = 0 holds (0, 1) and (0, 0); past row 0 only (0, 1) is left, whose
        # mass 5/8 - 5x/8 is every row's, so the threshold is where the top base's coefficient vanishes
        with mu_replaced(replaced_atom((F(0), F(1)), F(5, 8), F(-5, 8)), check_identity=False):
            cert = threshold_t1()
            assert not cert.ok
            assert (cert.witness["threshold"], cert.witness["index"], cert.witness["point"]) == (1, None, 0)
            assert is_t1_subnormal(F(1)).witness["mass"] is None
            failure = is_t1_subnormal(F(21, 20)).witness
            assert (failure["index"], failure["point"], failure["mass"]) == (1, 0, F(-1, 32))

    def test_off_grid_measure_is_refused(self):
        # an atom at a base that no piece of moment2d has
        with mu_replaced(MU + (((F(1, 3), F(0)), F(0), F(0)),)):
            with pytest.raises(ArithmeticError, match="bases"):
                threshold_t1()


class TestMuTable:
    def test_mu_reproduces_the_moment_table(self):
        for x in (F(1, 7), F(2, 11), F(8, 33), F(3, 2)):
            for k1 in range(12):
                for k2 in range(12):
                    assert sum((c + d * x) * s**k1 * t**k2 for (s, t), c, d in MU) == moment2d(k1, k2, x)

    def test_the_axis_slices_are_xi_a_and_xi_b(self):
        # row 0 of T1 pushes mu forward to s, column 0 of T2 pushes it forward to t
        for x in (F(1, 7), F(2, 11), F(8, 15)):
            row, column = {}, {}
            for (s, t), c, d in MU:
                row[s] = row.get(s, 0) + c + d * x
                column[t] = column.get(t, 0) + c + d * x
            assert AtomicMeasure1D(row.items()) == xi_a()
            assert AtomicMeasure1D((p, m) for p, m in column.items() if m) == xi_b(x)

    def test_the_identity_check_runs_once_per_process(self):
        clear_mu_caches()
        with mock.patch.object(lubin, "moment2d", wraps=lubin.moment2d) as moments:
            for x in (F(1, 5), F(1, 2), F(2)):
                family_report(x)
        # x = 1 and x = 2 at the 4 + 3 + 2 indices of row 0, column 0 and the interior
        assert moments.call_count == 2 * (4 + 3 + 2)

    @pytest.mark.parametrize("part", ["constant", "slope"])
    @pytest.mark.parametrize("index", range(len(MU)))
    def test_a_tampered_mass_is_refused(self, index, part):
        point, c, d = MU[index]
        if part == "constant":
            tampered = replaced_atom(point, c + F(1, 1000), d)
        else:
            tampered = replaced_atom(point, c, d + F(1, 1000))
        with mu_replaced(tampered):
            with pytest.raises(ArithmeticError, match="reproduce moment2d"):
                lubin._mu_identity()
            with pytest.raises(ArithmeticError):
                is_pair_subnormal(F(1, 5))
        assert is_pair_subnormal(F(1, 6)).ok

    def test_the_pair_measure_is_mu_while_it_is_positive(self):
        for x in (F(1, 9), F(2, 11)):
            atoms = [(p, c + d * x) for p, c, d in MU if c + d * x]
            assert check_berger_2d(family_diagram(x), AtomicMeasure2D(atoms), (10, 10)).ok


class TestOracles:
    @staticmethod
    def assert_matches(x):
        assert is_t1_subnormal(x).ok == threshold_t1_reference().ok
        column = backward_extension_1d(F(11, 8) * x, xi_c()).ok
        assert is_t2_subnormal(x).ok == (x <= threshold_t2_reference()) == column
        assert is_pair_subnormal(x).ok == pair_subnormal_reference(x)

    def test_the_verdicts_match_the_extension_oracles_at_the_thresholds(self):
        for edge in (PAIR_THRESHOLD, T2_THRESHOLD, F(8, 15), F(6, 5), SUM_CERTIFIED):
            for x in (edge - F(1, 10**6), edge, edge + F(1, 10**6)):
                self.assert_matches(x)

    @given(regime_xs())
    @settings(max_examples=120, deadline=None)
    def test_the_verdicts_match_the_extension_oracles(self, x):
        self.assert_matches(x)

    @given(regime_xs())
    @settings(max_examples=60, deadline=None)
    def test_every_witness_replays_from_the_moment_table(self, x):
        for cert in (is_t1_subnormal(x), is_t2_subnormal(x), is_pair_subnormal(x)):
            if cert.witness["mass"] is not None:
                assert replay(cert.witness) == cert.witness["mass"]
                assert (cert.witness["mass"] >= 0) == cert.ok

    def test_fail_witnesses_replay(self):
        for x in (F(1, 5), F(1, 2), F(3, 2), F(876543210987654321, 1 << 59)):
            for cert in (is_t2_subnormal(x), is_pair_subnormal(x)):
                if not cert.ok:
                    assert replay(cert.witness) == cert.witness["mass"] < 0


class TestVerdicts:
    def test_t2_flips_at_its_threshold(self):
        assert is_t2_subnormal(F(8, 33)).ok
        assert not is_t2_subnormal(F(8, 33) + F(1, 10**6)).ok

    def test_pair_flips_at_its_threshold(self):
        assert is_pair_subnormal(F(2, 11)).ok
        assert not is_pair_subnormal(F(2, 11) + F(1, 10**6)).ok

    def test_t1_passes_everywhere(self):
        for x in (F(1, 100), F(2, 11), F(10)):
            assert is_t1_subnormal(x).ok

    def test_gap_between_thresholds(self):
        # jointly subnormal fails strictly before T2 does
        x = F(1, 5)
        assert PAIR_THRESHOLD < x < T2_THRESHOLD
        assert is_t2_subnormal(x).ok
        assert not is_pair_subnormal(x).ok

    def test_pair_certificate_structure(self):
        cert = is_pair_subnormal(F(2, 11))
        assert set(cert.witness) == {"x", "threshold", "atom", "mass"}
        assert cert.witness["atom"] == (F(1, 4), F(0))
        assert cert.witness["mass"] == 0 and cert.witness["threshold"] == F(2, 11)

    @pytest.mark.parametrize(
        "x",
        [F(1, 10), F(2, 11), F(8, 33), F(1, 2), F(1), F(3, 2), F(876543210987654321, 1 << 59)],
        ids=str,
    )
    def test_cached_deep_check_equals_the_check_at_x(self, x):
        # the deep (1, 1) restriction has s t mu, normalized, as its Berger measure;
        # only interior atoms survive and x cancels, so the cached measure is it at every x
        interior = [(p, (c + d * x) * p[0] * p[1]) for p, c, d in MU if p[0] and p[1]]
        total = sum(m for _, m in interior)
        assert AtomicMeasure2D((p, m / total) for p, m in interior) == mu_m_cap_n()
        at_x = check_berger_2d(family_diagram(x).restricted(1, 1), mu_m_cap_n(), (6, 6))
        assert at_x.ok and at_x.witness == {"window": (6, 6)}

    def test_cross_check_disagreement_raises(self, monkeypatch):
        # the threshold comparison and the extension test must agree; a
        # disagreement is an internal error, raised even under python -O
        monkeypatch.setattr(lubin, "threshold_t2", lambda: F(1, 2))
        with pytest.raises(ArithmeticError):
            is_t2_subnormal(F(1, 3))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            is_t2_subnormal(F(0))
        with pytest.raises(ValueError):
            is_pair_subnormal(F(-1, 5))

    @pytest.mark.parametrize("x", [F(0), F(-3), F(-1, 5)], ids=str)
    def test_every_verdict_refuses_a_nonpositive_x(self, x):
        for verdict in (is_t1_subnormal, is_t2_subnormal, is_pair_subnormal, family_report):
            with pytest.raises(ValueError, match="x must be positive"):
                verdict(x)


class TestFamilyReport:
    def test_report_at_the_witness_parameter(self):
        report = family_report(F(1, 5))
        assert report["verdicts"] == {
            "t1_subnormal": True,
            "t2_subnormal": True,
            "pair_subnormal": False,
        }
        assert report["thresholds"]["t2"] == "8/33"
        assert report["thresholds"]["pair"] == "2/11"

    def test_report_serializes(self):
        text = to_json(family_report(F(2, 11)))
        assert "certificates" in text

    @pytest.mark.parametrize("x", [F(1, 10), F(2, 11), F(1, 5), F(8, 33), F(1, 2)])
    def test_t2_runs_once_per_sheet(self, x):
        with mock.patch.object(lubin, "is_t2_subnormal", wraps=lubin.is_t2_subnormal) as t2:
            report = family_report(x)
        assert t2.call_count == 1
        assert report["certificates"]["t2"] == lubin.is_t2_subnormal(x)
        assert report["verdicts"]["t2_subnormal"] == (x <= lubin.T2_THRESHOLD)
