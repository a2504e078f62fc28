import contextlib
import json
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert import lubin
from shiftcert.errors import NegativeMassError
from shiftcert.lubin import (
    PAIR_THRESHOLD,
    T2_THRESHOLD,
    XI_B_MASS_CAP,
    family_diagram,
    family_report,
    is_pair_subnormal,
    is_t1_subnormal,
    is_t2_subnormal,
    moment2d,
    mu_m,
    mu_m_cap_n,
    threshold_pair,
    threshold_t1,
    threshold_t2,
    xi_a,
    xi_a_level1,
    xi_b,
    xi_b_level1,
    xi_c,
)
from shiftcert.measures import AtomicMeasure1D, moment1, restrict_density
from shiftcert.certificate import Certificate, to_json
from shiftcert.shift1d import WeightSequence1D, backward_extension_1d
from shiftcert.shift2d import check_berger_2d, commutativity_check

xs = st.fractions(min_value=F(1, 64), max_value=F(8, 15), max_denominator=64)
# measures on the grid the threshold loops read: points in (1/4)Z, masses in (1/8)Z
grid_measures = st.dictionaries(st.integers(0, 8), st.integers(1, 16), min_size=1, max_size=4).map(
    lambda atoms: AtomicMeasure1D((F(a, 4), F(b, 8)) for a, b in atoms.items())
)


def t2_column_bound(n: int) -> F:
    """Largest x for which column n+1 extends backward:
    8 gamma_n(xi_a restricted) / (11 (2 (1/4)^n + (1/2)^n))."""
    numerator = 8 * moment1(lubin.xi_a_level1(), n)
    denominator = 11 * (2 * F(1, 4) ** n + F(1, 2) ** n)
    return numerator / denominator


def threshold_t1_reference() -> Certificate:
    """The row loop of threshold_t1 in Fractions: the oracle for its integer loop."""
    for m in range(lubin.THRESHOLD_WINDOW + 1):
        numerator = moment1(lubin.xi_c(), m)
        denominator = 8 * moment1(lubin.xi_b_level1(), m)
        cert = backward_extension_1d(numerator / denominator, restrict_density(lubin.xi_c(), m))
        identity = 8 * moment1(lubin.xi_b_level1(), m) - (2 * F(1, 4) ** m + F(1, 2) ** m)
        if not cert.ok or identity != 5:
            return Certificate(
                "threshold_t1", False, {"m": m, "extension": cert, "margin_identity": str(identity)}
            )
    return Certificate(
        "threshold_t1",
        True,
        {
            "m_max": lubin.THRESHOLD_WINDOW,
            "constant_margin": "5",
            "conclusion": "row extensions pass for every parameter value",
        },
    )


def threshold_t2_reference() -> F:
    """The column loop of threshold_t2 in Fractions: the oracle for its integer loop."""
    bounds = [t2_column_bound(n) for n in range(lubin.THRESHOLD_WINDOW + 1)]
    for earlier, later in zip(bounds, bounds[1:]):
        if not earlier < later:
            raise ArithmeticError("column bounds failed to increase on the window")
    minimum = bounds[0]
    if minimum != T2_THRESHOLD:
        raise ArithmeticError(f"expected the first column bound to be 8/33, got {minimum}")
    for n in range(lubin.THRESHOLD_WINDOW + 1):
        u = F(1, 2) ** n
        lhs = 3 - u - 2 * u**2
        if lhs != 2 * (1 - u) * (u + F(3, 2)) or lhs < 0:
            raise ArithmeticError("global minimality identity failed")
    return minimum


@contextlib.contextmanager
def measures_replaced(**measures):
    """Replace lubin's x-free measures, with the threshold caches cleared on entry and exit."""
    replacements = {name: (lambda mu=mu: mu) for name, mu in measures.items()}
    with mock.patch.multiple(lubin, **replacements):
        lubin.threshold_t1.cache_clear()
        lubin.threshold_t2.cache_clear()
        try:
            yield
        finally:
            lubin.threshold_t1.cache_clear()
            lubin.threshold_t2.cache_clear()


def outcome(check):
    """The JSON form of what ``check()`` returns, or the type and text of what it raises."""
    try:
        value = check()
    except (ArithmeticError, ValueError) as error:
        return type(error).__name__, str(error)
    return json.loads(to_json(value)) if isinstance(value, Certificate) else str(value)


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
        assert mu.mass_at(F(0)) == F(5, 8)
        assert mu.mass_at(F(1, 4)) == F(1, 5)
        assert mu.mass_at(F(1, 2)) == F(1, 20)
        assert mu.mass_at(F(1)) == F(1, 8)
        assert mu.is_probability()

    def test_xi_b_exists_up_to_the_mass_cap(self):
        top = xi_b(XI_B_MASS_CAP)
        assert top.mass_at(F(0)) == 0
        assert top.is_probability()
        with pytest.raises(NegativeMassError):
            xi_b(XI_B_MASS_CAP + F(1, 10**6))
        with pytest.raises(ValueError):
            xi_b(F(0))

    def test_level_one_restrictions(self):
        assert xi_a_level1() == restrict_density(xi_a(), 1)
        assert xi_b_level1() == restrict_density(xi_b(F(1, 5)), 1)

    def test_xi_b_level_one_is_parameter_free(self):
        for x in (F(1, 7), F(1, 3), F(8, 15)):
            assert restrict_density(xi_b(x), 1) == xi_b_level1()

    def test_mu_measures_golden(self):
        assert mu_m_cap_n().is_probability()
        assert mu_m().is_probability()
        assert mu_m().mass_at(F(0), F(1)) == F(5, 8)


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
        assert family_diagram(x).moment(k1, k2) == moment2d(k1, k2, x)


class TestThresholds:
    def test_t2_value_and_binding_column(self):
        assert threshold_t2() == F(8, 33)
        assert t2_column_bound(0) == F(8, 33)

    def test_t2_column_bounds_increase(self):
        for n in range(10):
            assert t2_column_bound(n) < t2_column_bound(n + 1)

    def test_pair_value(self):
        assert threshold_pair() == F(2, 11)

    def test_t1_unconditional(self):
        cert = threshold_t1()
        assert cert.ok
        assert F(cert.witness["constant_margin"]) == 5

    def test_module_constants_agree(self):
        assert T2_THRESHOLD == F(8, 33)
        assert PAIR_THRESHOLD == F(2, 11)
        assert XI_B_MASS_CAP == F(8, 15)

    def test_integer_loops_match_the_fraction_loops(self):
        assert threshold_t1() == threshold_t1_reference()
        assert threshold_t2() == threshold_t2_reference() == T2_THRESHOLD

    def test_t1_failure_reads_the_measure(self):
        # total mass 3/4 breaks the margin identity at m = 0: 8 * 3/4 - 3 != 5
        broken = AtomicMeasure1D([(F(1, 4), F(1, 2)), (F(1, 2), F(1, 4))])
        with measures_replaced(xi_b_level1=broken):
            cert = threshold_t1()
            assert not cert.ok
            assert set(cert.witness) == {"m", "extension", "margin_identity"}
            assert cert.witness["m"] == 0
            assert cert.witness["margin_identity"] == "3"
            assert cert == threshold_t1_reference()
        assert threshold_t1().ok

    def test_t1_failure_at_an_atom_at_zero(self):
        with measures_replaced(xi_c=AtomicMeasure1D([(F(0), F(1, 2)), (F(1, 2), F(1, 2))])):
            cert = threshold_t1()
            assert not cert.ok and cert.witness["m"] == 0
            assert cert.witness["extension"].witness["reciprocal_norm"] == "infinite"
            assert cert == threshold_t1_reference()

    @given(grid_measures, grid_measures)
    @settings(max_examples=150, deadline=None)
    def test_integer_t1_matches_the_fraction_loop_on_grid_measures(self, c_measure, b_measure):
        for measures in ({"xi_c": c_measure}, {"xi_c": c_measure, "xi_b_level1": b_measure}):
            with measures_replaced(**measures):
                assert outcome(threshold_t1) == outcome(threshold_t1_reference)

    @given(grid_measures)
    @settings(max_examples=100, deadline=None)
    def test_integer_t2_matches_the_fraction_loop_on_grid_measures(self, a_measure):
        with measures_replaced(xi_a_level1=a_measure):
            assert outcome(threshold_t2) == outcome(threshold_t2_reference)

    def test_t2_refuses_equal_column_bounds(self):
        # gamma_n = (2 (1/4)^n + (1/2)^n) / 8 makes every column bound 1/11
        flat = AtomicMeasure1D([(F(1, 4), F(1, 4)), (F(1, 2), F(1, 8))])
        with measures_replaced(xi_a_level1=flat):
            with pytest.raises(ArithmeticError, match="failed to increase"):
                threshold_t2()
            assert outcome(threshold_t2) == outcome(threshold_t2_reference)

    def test_off_grid_measure_is_refused(self):
        with measures_replaced(xi_c=AtomicMeasure1D([(F(1, 3), F(1))])):
            with pytest.raises(ArithmeticError):
                threshold_t1()


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
        assert cert.witness["deep_restriction"].ok
        assert cert.witness["extension_to_mu_m"].ok
        assert cert.witness["final_extension"].ok
        assert cert.witness["extension_to_mu_m"].witness["new_measure"] == mu_m()

    @pytest.mark.parametrize(
        "x",
        [F(1, 10), F(2, 11), F(8, 33), F(1, 2), F(1), F(3, 2), F(876543210987654321, 1 << 59)],
        ids=str,
    )
    def test_cached_deep_check_equals_the_check_at_x(self, x):
        # the interior weights are x-free, so the once-per-process check
        # must be exactly what the pipeline would compute at x
        at_x = check_berger_2d(family_diagram(x).restricted(1, 1), mu_m_cap_n(), (6, 6))
        assert is_pair_subnormal(x).witness["deep_restriction"] == at_x
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
