import copy
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import backward_extension_2d, canonical_moment, swapped, xi_a_level1, xi_b_level1
from shiftcert.certificate import Certificate, to_json
from shiftcert.lubin import family_diagram, moment2d, xi_a
from shiftcert.measures import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    moment1,
    moment2,
)
from shiftcert.shift1d import WeightSequence1D
from shiftcert.shift2d import (
    WeightDiagram,
    check_berger_2d,
    commutativity_check,
    joint_hyponormality_window,
)

MU_CAP = AtomicMeasure2D(
    [((F(1, 4), F(1, 4)), F(1, 2)), ((F(1, 2), F(1, 2)), F(1, 2))]
)
MU_M = AtomicMeasure2D(
    [
        ((F(1, 4), F(1, 4)), F(1, 4)),
        ((F(1, 2), F(1, 2)), F(1, 8)),
        ((F(0), F(1)), F(5, 8)),
    ]
)
XI_C = AtomicMeasure1D([(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2))])


class MomentTable2D:
    """Lazy table of planar moments gamma_{(k1, k2)} with gamma_{(0,0)} == 1.

    With :func:`weights_from_moments2d` this is the oracle for the
    family's closed-form diagram: every weight a ratio of two moments.
    """

    def __init__(self, rule):
        self._rule = rule
        self._cache = {}
        if self.value(0, 0) != 1:
            raise ValueError("gamma_(0,0) must equal 1")

    def value(self, k1: int, k2: int) -> F:
        if k1 < 0 or k2 < 0:
            raise ValueError("lattice indices must be >= 0")
        key = (k1, k2)
        if key not in self._cache:
            v = F(self._rule(k1, k2))
            if v <= 0:
                raise ValueError(f"gamma_{key} must be positive, got {v}")
            self._cache[key] = v
        return self._cache[key]


def weights_from_moments2d(table: MomentTable2D) -> WeightDiagram:
    """Diagram with alpha_k^2 = gamma_{k+(1,0)} / gamma_k, beta_k^2 = gamma_{k+(0,1)} / gamma_k."""
    return WeightDiagram(
        lambda k1, k2: table.value(k1 + 1, k2) / table.value(k1, k2),
        lambda k1, k2: table.value(k1, k2 + 1) / table.value(k1, k2),
    )


def family_moment(x, k1: int, k2: int) -> F:
    """gamma_k of the family read off its measures: xi_a on row 0, the
    atoms of xi_b(x) away from 0 on column 0, and x/8 times mu_{M int N}
    shifted one step inside."""
    if k2 == 0:
        return moment1(xi_a(), k1)
    if k1 == 0:
        return x * (F(1, 4) ** k2 + F(1, 4) * F(1, 2) ** k2 + F(5, 8))
    return x / 8 * moment2(MU_CAP, k1 - 1, k2 - 1)


def moment_ratio_diagram(x) -> WeightDiagram:
    return weights_from_moments2d(MomentTable2D(lambda k1, k2: family_moment(x, k1, k2)))


def reference_commutativity_check(diagram: WeightDiagram, window) -> Certificate:
    """The check in Fraction arithmetic; the oracle for the integer kernel."""
    w, h = window
    for k2 in range(h):
        for k1 in range(w):
            lhs = diagram.beta_sq(k1 + 1, k2) * diagram.alpha_sq(k1, k2)
            rhs = diagram.alpha_sq(k1, k2 + 1) * diagram.beta_sq(k1, k2)
            if lhs != rhs:
                return Certificate(
                    "commutativity_check",
                    False,
                    {"k": [k1, k2], "lhs": str(lhs), "rhs": str(rhs)},
                )
    return Certificate("commutativity_check", True, {"window": [w, h]})


def reference_check_berger_2d(diagram: WeightDiagram, mu: AtomicMeasure2D, window) -> Certificate:
    """The Berger check by moment2 at every window point; the oracle for the integer kernel."""
    w, h = window
    for k2 in range(h):
        for k1 in range(w):
            lhs, rhs = canonical_moment(diagram, k1, k2), moment2(mu, k1, k2)
            if lhs != rhs:
                return Certificate(
                    "check_berger_2d", False, {"k": [k1, k2], "diagram": str(lhs), "measure": str(rhs)}
                )
    return Certificate("check_berger_2d", True, {"window": (w, h)})


def reference_joint_hyponormality_window(diagram: WeightDiagram, window) -> Certificate:
    """Curto's 2x2 block test in Fraction arithmetic; the oracle for the
    integer kernel."""
    w, h = window
    alpha, beta = diagram.alpha_sq, diagram.beta_sq
    for k2 in range(h):
        for k1 in range(w):
            a = alpha(k1 + 1, k2) - alpha(k1, k2) if k1 + 1 < w else None
            d = beta(k1, k2 + 1) - beta(k1, k2) if k2 + 1 < h else None
            p = q = None
            ok = (a is None or a >= 0) and (d is None or d >= 0)
            if ok and a is not None and d is not None:
                p = alpha(k1, k2 + 1) * beta(k1 + 1, k2)
                q = alpha(k1, k2) * beta(k1, k2)
                r = p + q - a * d
                ok = r <= 0 or r * r <= 4 * p * q
            if not ok:
                return Certificate(
                    "joint_hyponormality_window",
                    False,
                    {
                        "window": [w, h],
                        "k": [k1, k2],
                        **{name: None if v is None else str(v) for name, v in zip("adPQ", (a, d, p, q))},
                    },
                )
    return Certificate(
        "joint_hyponormality_window",
        True,
        {"window": [w, h], "blocks_checked": w * h - 1},
    )


def family(x=F(1, 5)) -> WeightDiagram:
    return family_diagram(x)


def skew_diagram() -> WeightDiagram:
    # beta depends on k1 while alpha is constant: the steps cannot commute
    return WeightDiagram(
        lambda k1, k2: F(1, 2),
        lambda k1, k2: F(1, k1 + 2),
    )


class TestMomentTable:
    def test_requires_unit_mass(self):
        with pytest.raises(ValueError):
            MomentTable2D(lambda k1, k2: F(2))

    def test_requires_positive_values(self):
        table = MomentTable2D(lambda k1, k2: F(1) - k1)
        with pytest.raises(ValueError):
            table.value(1, 0)


class TestWeightDiagram:
    def test_family_weights_from_moments(self):
        x = F(1, 5)
        diagram = weights_from_moments2d(MomentTable2D(lambda k1, k2: moment2d(k1, k2, x)))
        assert diagram.alpha_sq(0, 0) == F(1, 11)
        assert diagram.beta_sq(1, 0) == F(11, 8) * x

    def test_moment_along_canonical_path(self):
        d = family()
        assert canonical_moment(d, 0, 0) == 1
        assert canonical_moment(d, 2, 0) == d.alpha_sq(0, 0) * d.alpha_sq(1, 0)
        assert canonical_moment(d, 1, 1) == d.alpha_sq(0, 0) * d.beta_sq(1, 0)

    def test_deep_moment_needs_no_recursion(self):
        # past the interpreter's recursion limit, along row 0 and up a column
        d = family()
        assert canonical_moment(d, 3, 2) == moment2d(3, 2, F(1, 5))
        assert canonical_moment(d, 1500, 0) == moment1(xi_a(), 1500)
        assert canonical_moment(d, 3, 1500) == moment2d(3, 1500, F(1, 5))

    def test_restriction_translates_indices(self):
        d = family()
        r = d.restricted(1, 1)
        assert r.alpha_sq(0, 0) == d.alpha_sq(1, 1)
        assert r.beta_sq(2, 3) == d.beta_sq(3, 4)

    def test_restriction_validation(self):
        with pytest.raises(ValueError):
            family().restricted(-1, 0)


def seeded_parameters(count: int, seed: int) -> list[F]:
    """Positive rationals with 3- to 200-bit numerators and denominators."""
    rng = random.Random(seed)
    xs = []
    for _ in range(count):
        bits = rng.randint(3, 200)
        xs.append(F(rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(bits) | 1 << (bits - 1)))
    return xs


class TestClosedFormDiagram:
    @pytest.mark.parametrize(
        "x",
        [pytest.param(x, id=str(x)) for x in (F(2, 11), F(8, 33), F(1, 5), F(3, 2))]
        + [pytest.param(x, id=f"seeded{i}") for i, x in enumerate(seeded_parameters(20, 711))],
    )
    def test_equals_the_moment_ratio_diagram(self, x):
        closed, oracle = family(x), moment_ratio_diagram(x)
        for base in ((0, 0), (1, 1), (0, 1)):
            c, o = closed.restricted(*base), oracle.restricted(*base)
            for k2 in range(41):
                for k1 in range(41):
                    assert c.alpha_sq(k1, k2) == o.alpha_sq(k1, k2), (base, k1, k2)
                    assert c.beta_sq(k1, k2) == o.beta_sq(k1, k2), (base, k1, k2)
        for k1 in range(41):
            for k2 in range(41):
                assert moment2d(k1, k2, x) == family_moment(x, k1, k2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            family().alpha_sq(-1, 2)
        with pytest.raises(ValueError):
            family().beta_sq(3, -1)


class TestCommutativity:
    def test_family_commutes(self):
        assert commutativity_check(family(), (8, 8)).ok

    def test_tensor_commutes(self):
        w = WeightSequence1D.from_measure(XI_C)
        tensor = WeightDiagram(lambda k1, k2: w.squared_weight(k1), lambda k1, k2: w.squared_weight(k2))
        assert commutativity_check(tensor, (6, 6)).ok

    def test_skew_fails_with_witness(self):
        cert = commutativity_check(skew_diagram(), (4, 4))
        assert not cert.ok
        assert cert.witness["k"] == [0, 0]
        assert F(cert.witness["lhs"]) == F(1, 6)
        assert F(cert.witness["rhs"]) == F(1, 4)
        # every squared weight 1 but beta^2 = 1/2 at (0, 0) and 2 at (0, 1): the path
        # URRRRRRU to (6, 2) has product 1/2 and the canonical path 1
        betas = {(0, 0): F(1, 2), (0, 1): F(2)}
        unit = WeightDiagram(lambda k1, k2: F(1), lambda k1, k2: betas.get((k1, k2), F(1)))
        assert canonical_moment(unit, 6, 2) == 1
        cert = commutativity_check(unit, (6, 2))
        assert not cert.ok
        assert dict(cert.witness) == {"k": [0, 0], "lhs": "1", "rhs": "1/2"}

    def test_window_validation(self):
        with pytest.raises(ValueError):
            commutativity_check(family(), (0, 3))


class TestBerger2D:
    def test_deep_restriction_matches_mu_cap(self):
        assert check_berger_2d(family().restricted(1, 1), MU_CAP, (8, 8)).ok

    def test_column_restriction_matches_mu_m(self):
        assert check_berger_2d(family().restricted(0, 1), MU_M, (8, 8)).ok

    def test_tensor_matches_product_measure(self):
        w = WeightSequence1D.from_measure(XI_C)
        product = AtomicMeasure2D(
            [
                ((p, q), mp * mq)
                for p, mp in XI_C.atoms
                for q, mq in XI_C.atoms
            ]
        )
        tensor = WeightDiagram(lambda k1, k2: w.squared_weight(k1), lambda k1, k2: w.squared_weight(k2))
        assert check_berger_2d(tensor, product, (6, 6)).ok

    def test_wrong_measure_names_first_bad_moment(self):
        cert = check_berger_2d(family().restricted(1, 1), MU_M, (4, 4))
        assert not cert.ok
        assert cert.witness["k"] == [1, 0]
        assert F(cert.witness["diagram"]) == F(3, 8)
        assert F(cert.witness["measure"]) == F(1, 8)


coordinates = st.builds(F, st.integers(0, 6), st.integers(1, 7))
positive_coordinates = st.builds(F, st.integers(1, 6), st.integers(1, 7))


@st.composite
def berger_cases(draw):
    """The moment diagram of a probability measure with atoms off the axes,
    a measure to check it against (the same one, one atom moved along s, or
    a random one that may sit on the axes) and a window."""
    points = draw(st.lists(st.tuples(positive_coordinates, positive_coordinates), min_size=1, max_size=3, unique=True))
    masses = [draw(st.integers(1, 9)) for _ in points]
    mu = AtomicMeasure2D((p, F(m, sum(masses))) for p, m in zip(points, masses))
    kind = draw(st.sampled_from(["same", "moved", "random"]))
    other = mu
    if kind == "moved":
        (s, t), mass = mu.atoms[0]
        moved = (s + F(1, draw(st.integers(2, 12))), t)
        if moved not in points:
            other = AtomicMeasure2D([(moved, mass), *mu.atoms[1:]])
    elif kind == "random":
        other_points = draw(st.lists(st.tuples(coordinates, coordinates), min_size=0, max_size=3, unique=True))
        other = AtomicMeasure2D((p, draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)))) for p in other_points)
    diagram = weights_from_moments2d(MomentTable2D(lambda k1, k2: moment2(mu, k1, k2)))
    return diagram, other, (draw(st.integers(1, 6)), draw(st.integers(1, 6)))


def perturbed(diagram: WeightDiagram, which: str, point, factor) -> WeightDiagram:
    """``diagram`` with the one squared weight ``which`` at ``point`` times ``factor``."""
    def rule(name, read):
        return lambda k1, k2: read(k1, k2) * (factor if (name, (k1, k2)) == (which, point) else 1)

    return WeightDiagram(rule("alpha", diagram.alpha_sq), rule("beta", diagram.beta_sq))


def cap_moment_diagram() -> WeightDiagram:
    return weights_from_moments2d(MomentTable2D(lambda k1, k2: moment2(MU_CAP, k1, k2)))


class TestBerger2DKernel:
    @given(case=berger_cases())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_moment2_reference(self, case):
        diagram, mu, window = case
        got, want = check_berger_2d(diagram, mu, window), reference_check_berger_2d(diagram, mu, window)
        assert (got.ok, dict(got.witness)) == (want.ok, dict(want.witness))

    def test_first_failure_far_from_the_origin(self):
        # the moment table of MU_CAP with gamma_(7,3) doubled: the diagram moment differs
        # there alone, so the row-major scan must reach it
        rule = lambda k1, k2: moment2(MU_CAP, k1, k2) * (2 if (k1, k2) == (7, 3) else 1)
        diagram = weights_from_moments2d(MomentTable2D(rule))
        cert = check_berger_2d(diagram, MU_CAP, (10, 10))
        assert not cert.ok and cert.witness["k"] == [7, 3]
        assert F(cert.witness["diagram"]) == 2 * F(cert.witness["measure"]) == 2 * moment2(MU_CAP, 7, 3)
        want = reference_check_berger_2d(diagram, MU_CAP, (10, 10))
        assert dict(cert.witness) == dict(want.witness)

    def test_family_windows_agree_with_the_reference(self):
        for base, mu in (((1, 1), MU_CAP), ((0, 1), MU_M), ((1, 1), MU_M)):
            diagram = family().restricted(*base)
            got, want = check_berger_2d(diagram, mu, (24, 24)), reference_check_berger_2d(diagram, mu, (24, 24))
            assert (got.ok, dict(got.witness)) == (want.ok, dict(want.witness))

    # on a diagram that does not commute, the check must agree with the moments along
    # the canonical path (row 0, then up column k1) and no other path
    @given(
        which=st.sampled_from(["alpha", "beta"]),
        k1=st.integers(0, 5),
        k2=st.integers(1, 5),
        factor=st.sampled_from([F(2), F(1, 3), F(7, 5)]),
        window=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_weight_off_row_0_perturbed(self, which, k1, k2, factor, window):
        diagram = perturbed(cap_moment_diagram(), which, (k1, k2), factor)
        assert not commutativity_check(diagram, (6, 6)).ok
        got, want = check_berger_2d(diagram, MU_CAP, window), reference_check_berger_2d(diagram, MU_CAP, window)
        assert (got.ok, dict(got.witness)) == (want.ok, dict(want.witness))

    def test_an_alpha_off_row_0_is_off_the_canonical_path(self):
        # no canonical path steps right above row 0, so the check passes although
        # the diagram does not commute below (3, 3), where other paths meet the weight
        diagram = perturbed(cap_moment_diagram(), "alpha", (1, 2), F(2))
        assert check_berger_2d(diagram, MU_CAP, (6, 6)).ok
        assert not commutativity_check(diagram, (3, 3)).ok

    def test_a_beta_above_row_0_fails_up_its_column(self):
        diagram = perturbed(cap_moment_diagram(), "beta", (2, 1), F(2))
        cert = check_berger_2d(diagram, MU_CAP, (6, 6))
        assert not cert.ok and cert.witness["k"] == [2, 2]
        assert F(cert.witness["diagram"]) == 2 * moment2(MU_CAP, 2, 2) == 2 * F(cert.witness["measure"])
        assert dict(cert.witness) == dict(reference_check_berger_2d(diagram, MU_CAP, (6, 6)).witness)

    @pytest.mark.parametrize(
        "atoms, k, diagram_moment, measure_moment",
        [
            # mass 1/2: the first test, at the origin
            ([((F(1, 4), F(1, 4)), F(1, 4)), ((F(1, 2), F(1, 2)), F(1, 4))], [0, 0], "1", "1/2"),
            # t-moments of MU_CAP, one s-coordinate moved: row 0
            ([((F(1, 4), F(1, 4)), F(1, 2)), ((F(1, 3), F(1, 2)), F(1, 2))], [1, 0], "3/8", "7/24"),
            # s-moments of MU_CAP, one t-coordinate moved: above row 0
            ([((F(1, 4), F(1, 4)), F(1, 2)), ((F(1, 2), F(1, 3)), F(1, 2))], [0, 1], "3/8", "7/24"),
        ],
        ids=["origin", "row-0", "above-row-0"],
    )
    def test_first_failure_and_its_witness(self, atoms, k, diagram_moment, measure_moment):
        diagram, mu = cap_moment_diagram(), AtomicMeasure2D(atoms)
        cert = check_berger_2d(diagram, mu, (5, 5))
        assert not cert.ok
        assert dict(cert.witness) == {"k": k, "diagram": diagram_moment, "measure": measure_moment}
        assert cert == reference_check_berger_2d(diagram, mu, (5, 5))


def state(diagram: WeightDiagram) -> dict:
    """A copy of every attribute of ``diagram``, containers copied."""
    return {name: copy.copy(value) for name, value in vars(diagram).items()}


class TestStatelessDiagram:
    def test_checks_leave_no_state_behind(self):
        whole = family_diagram(F(1, 7))
        deep = whole.restricted(1, 1)
        before = state(whole), state(deep)
        for diagram in (whole, deep):
            commutativity_check(diagram, (64, 64))
            joint_hyponormality_window(diagram, (64, 64))
            check_berger_2d(diagram, MU_CAP, (64, 64))
        assert (state(whole), state(deep)) == before
        # a diagram is its two rules and nothing else
        assert set(vars(whole)) == set(vars(deep)) == {"_alpha_rule", "_beta_rule"}

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [F(0), F(-1)])
    def test_a_nonpositive_weight_is_rejected_when_read(self, which, value):
        # the moment diagram of the unit point mass at (1, 1), one weight at the origin replaced
        bad = perturbed(WeightDiagram(lambda k1, k2: F(1), lambda k1, k2: F(1)), which, (0, 0), value)
        unit = AtomicMeasure2D([((F(1), F(1)), F(1))])
        for check in (
            lambda: commutativity_check(bad, (2, 2)),
            lambda: joint_hyponormality_window(bad, (2, 2)),
            lambda: check_berger_2d(bad, unit, (2, 2)),
        ):
            with pytest.raises(ValueError, match="must be positive"):
                check()


class TestBackwardExtension2D:
    def test_horizontal_step_reconstructs_mu_m(self):
        report = backward_extension_2d(F(1, 8), MU_CAP, xi_b_level1(), "horizontal")
        assert report.ok
        assert report.witness["reciprocal_norm"] == 3
        assert report.witness["bound"] == F(1, 3)
        assert report.witness["new_measure"] == MU_M

    def test_vertical_step_at_the_pair_threshold(self):
        x = F(2, 11)
        report = backward_extension_2d(F(11, 8) * x, MU_CAP, xi_a_level1(), "vertical")
        assert report.ok
        assert report.witness["new_measure"] == AtomicMeasure2D(
            [
                ((F(1, 4), F(1, 4)), F(1, 2)),
                ((F(1, 2), F(1, 2)), F(1, 4)),
                ((F(1), F(0)), F(1, 4)),
            ]
        )

    def test_vertical_step_fails_past_the_threshold(self):
        x = F(2, 11) + F(1, 10**6)
        report = backward_extension_2d(F(11, 8) * x, MU_CAP, xi_a_level1(), "vertical")
        assert not report.ok
        assert report.witness["weight_ok"]  # 11x/8 is still below 1/3
        assert not report.witness["domination"].ok
        assert report.witness["new_measure"] is None

    def test_weight_condition_alone_can_fail(self):
        report = backward_extension_2d(F(1, 2), MU_CAP, xi_a_level1(), "vertical")
        assert not report.witness["weight_ok"]
        assert not report.ok

    def test_atom_on_the_axis_blocks_extension(self):
        report = backward_extension_2d(F(1, 100), swapped(MU_M), xi_a_level1(), "vertical")
        assert not report.ok
        assert report.witness["reciprocal_norm"] == "infinite"

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            backward_extension_2d(F(1, 8), MU_CAP, xi_b_level1(), "diagonal")
        with pytest.raises(ValueError):
            backward_extension_2d(F(0), MU_CAP, xi_b_level1(), "vertical")

    def test_report_serializes(self):
        report = backward_extension_2d(F(1, 8), MU_CAP, xi_b_level1(), "horizontal")
        payload = to_json(report)
        assert "new_measure" in payload

    def test_extension_moments_extend_the_restriction(self):
        # the reconstructed measure must reproduce the sub-measure moments
        # one step up: gamma_{k+(1,0)}(mu_new) == first_step * gamma_k(mu_sub)
        report = backward_extension_2d(F(1, 8), MU_CAP, xi_b_level1(), "horizontal")
        from shiftcert.measures import moment2

        for k1 in range(4):
            for k2 in range(4):
                assert moment2(report.witness["new_measure"], k1 + 1, k2) == F(1, 8) * moment2(
                    MU_CAP, k1, k2
                )


def dense_compression(diagram: WeightDiagram, window):
    """Float matrix of the compressed self-commutator, built entry by entry.

    The oracle for the exact block test: no block structure is assumed.
    Component 1 occupies indices [0, n) and component 2 indices [n, 2n).
    """
    w, h = window
    index = {(k1, k2): i for i, (k1, k2) in enumerate((k1, k2) for k2 in range(h) for k1 in range(w))}
    n = len(index)

    def alpha(k1, k2):
        return diagram.alpha_sq(k1, k2) if k1 >= 0 and k2 >= 0 else F(0)

    def beta(k1, k2):
        return diagram.beta_sq(k1, k2) if k1 >= 0 and k2 >= 0 else F(0)

    matrix = np.zeros((2 * n, 2 * n))
    for (k1, k2), i in index.items():
        matrix[i, i] = float(alpha(k1, k2) - alpha(k1 - 1, k2))
        matrix[n + i, n + i] = float(beta(k1, k2) - beta(k1, k2 - 1))
        # [T2*, T1] sends component 2 at k to component 1 at k + (1,-1)
        j = index.get((k1 + 1, k2 - 1))
        if j is not None:
            value = math.sqrt(alpha(k1, k2) * beta(k1 + 1, k2 - 1)) - math.sqrt(
                alpha(k1, k2 - 1) * beta(k1, k2 - 1)
            )
            matrix[j, n + i] = matrix[n + i, j] = value
    return matrix


def monotone_random_diagram(rng: random.Random) -> WeightDiagram:
    """Squared weights nondecreasing along their own direction (so every
    diagonal entry is >= 0 and the off-diagonal terms decide), otherwise
    random: the pair does not commute."""
    def step():
        return F(rng.randint(0, 6), rng.randint(1, 12))

    base_a = {k2: F(rng.randint(1, 8), rng.randint(1, 8)) for k2 in range(8)}
    base_b = {k1: F(rng.randint(1, 8), rng.randint(1, 8)) for k1 in range(8)}
    inc_a = {(k1, k2): step() for k1 in range(8) for k2 in range(8)}
    inc_b = {(k1, k2): step() for k1 in range(8) for k2 in range(8)}
    return WeightDiagram(
        lambda k1, k2: base_a[k2] + sum(inc_a[i, k2] for i in range(k1)),
        lambda k1, k2: base_b[k1] + sum(inc_b[k1, j] for j in range(k2)),
    )


class TestJointHyponormality:
    def test_family_window_passes_below_threshold(self):
        for x in (F(1, 10), F(2, 11)):
            for side in (8, 16, 32):
                cert = joint_hyponormality_window(family(x), (side, side))
                assert cert.ok, (x, side)
                assert cert.witness == {"window": [side, side], "blocks_checked": side * side - 1}

    def test_one_fifth_passes_4x4_and_fails_8x8_at_6_0(self):
        assert joint_hyponormality_window(family(F(1, 5)), (4, 4)).ok
        cert = joint_hyponormality_window(family(F(1, 5)), (8, 8))
        assert not cert.ok
        assert cert.witness["k"] == [6, 0]
        a, d, p, q = (F(cert.witness[name]) for name in ("a", "d", "P", "Q"))
        assert a >= 0 and d >= 0
        assert (p + q - a * d) ** 2 > 4 * p * q

    def test_t2_threshold_fails_at_1_0(self):
        cert = joint_hyponormality_window(family(F(8, 33)), (8, 8))
        assert not cert.ok
        assert cert.witness["k"] == [1, 0]

    def test_family_fails_at_one_half(self):
        cert = joint_hyponormality_window(family(F(1, 2)), (3, 3))
        assert not cert.ok
        assert cert.witness["k"] == [1, 0]
        assert F(cert.witness["d"]) < 0
        assert cert.witness["P"] is None and cert.witness["Q"] is None

    def test_interior_blocks_are_exactly_singular(self):
        # off^2 == a d at every k with k1, k2 >= 1, so a float verdict on
        # the family is decided by rounding
        d = family(F(2, 11))
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                a = d.alpha_sq(k1 + 1, k2) - d.alpha_sq(k1, k2)
                b = d.beta_sq(k1, k2 + 1) - d.beta_sq(k1, k2)
                p = d.alpha_sq(k1, k2 + 1) * d.beta_sq(k1 + 1, k2)
                q = d.alpha_sq(k1, k2) * d.beta_sq(k1, k2)
                assert (p + q - a * b) ** 2 == 4 * p * q

    def test_agrees_with_dense_eigenvalues(self):
        rng = random.Random(20260)
        cases = [family(x) for x in (F(1, 20), F(1, 6), F(3, 16), F(1, 5), F(1, 4), F(1, 3), F(1))]
        cases += [monotone_random_diagram(rng) for _ in range(60)]
        verdicts = set()
        for index, diagram in enumerate(cases):
            for w in range(1, 7):
                for h in range(1, 7):
                    exact = joint_hyponormality_window(diagram, (w, h)).ok
                    smallest = np.linalg.eigvalsh(dense_compression(diagram, (w, h)))[0]
                    # the draws stay off the knife edge, so float rounding cannot decide
                    assert smallest >= -1e-9 or smallest < -1e-6
                    assert exact == (smallest >= -1e-9), (index, w, h, smallest)
                    verdicts.add(exact)
        assert verdicts == {True, False}

    def test_window_validation(self):
        with pytest.raises(ValueError):
            joint_hyponormality_window(family(), (3, 0))


def table_diagram(alpha: dict, beta: dict, fill=F(100)) -> WeightDiagram:
    """Squared weights from two tables; points outside them get ``fill``."""
    return WeightDiagram(
        lambda k1, k2: alpha.get((k1, k2), fill),
        lambda k1, k2: beta.get((k1, k2), fill),
    )


def single_block(a0, a1, a2, b0, b1, b2) -> WeightDiagram:
    """A 2x2 window whose block at (0, 0) has the six given weights; the
    other three blocks pass, since their one entry meets the fill 100."""
    return table_diagram(
        {(0, 0): a0, (1, 0): a1, (0, 1): a2}, {(0, 0): b0, (0, 1): b1, (1, 0): b2}
    )


weights = st.builds(F, st.integers(1, 32), st.integers(1, 8))
steps = st.builds(F, st.integers(0, 16), st.integers(1, 8))


@st.composite
def random_diagrams(draw):
    """A small window over random squared weights, of three shapes: free
    (signs of a and d random), monotone along each direction (the r test
    decides), or a tensor product (commuting) with one weight perturbed.
    One block may then be made exactly singular: r^2 == 4 P Q with square
    P and Q and a d == (sqrt P - sqrt Q)^2, or r == 0, or a == 0 with
    P == Q."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    points = [(k1, k2) for k1 in range(w + 1) for k2 in range(h + 1)]
    shape = draw(st.sampled_from(["free", "monotone", "tensor"]))
    if shape == "free":
        alpha = {k: draw(weights) for k in points}
        beta = {k: draw(weights) for k in points}
    elif shape == "monotone":
        alpha, beta = {}, {}
        for k1, k2 in sorted(points):
            alpha[k1, k2] = alpha[k1 - 1, k2] + draw(steps) if k1 else draw(weights)
            beta[k1, k2] = beta[k1, k2 - 1] + draw(steps) if k2 else draw(weights)
    else:
        row = [draw(weights) for _ in range(w + 1)]
        column = [draw(weights) for _ in range(h + 1)]
        alpha = {(k1, k2): row[k1] for k1, k2 in points}
        beta = {(k1, k2): column[k2] for k1, k2 in points}
        if draw(st.booleans()):
            table = draw(st.sampled_from([alpha, beta]))
            table[draw(st.sampled_from(points))] = draw(weights)
    kind = draw(st.sampled_from([None, "boundary", "r_zero", "a_zero"]))
    if kind is not None and w >= 2 and h >= 2:
        k1, k2 = draw(st.integers(0, w - 2)), draw(st.integers(0, h - 2))
        e1, e2 = (k1 + 1, k2), (k1, k2 + 1)
        g, u, v, g2, p, q, t = (draw(weights) for _ in range(7))
        alpha[k1, k2], beta[k1, k2] = g * u * u, v * v / g  # Q = (u v)^2
        alpha[e2], beta[e1] = g2 * p * p, q * q / g2  # P = (p q)^2
        big_p, big_q = (p * q) ** 2, (u * v) ** 2
        if kind == "boundary":
            a, d = t, (p * q - u * v) ** 2 / t
        elif kind == "r_zero":
            a, d = t, (big_p + big_q) / t
        else:
            beta[e1] = big_q / alpha[e2]  # P == Q
            a, d = F(0), t
        alpha[e1], beta[e2] = alpha[k1, k2] + a, beta[k1, k2] + d
    return table_diagram(alpha, beta), (w, h)


class TestIntegerKernels:
    @given(case=random_diagrams())
    @settings(max_examples=200, deadline=None)
    def test_agree_with_the_fraction_reference(self, case):
        diagram, window = case
        for check, reference in (
            (commutativity_check, reference_commutativity_check),
            (joint_hyponormality_window, reference_joint_hyponormality_window),
        ):
            got, want = check(diagram, window), reference(diagram, window)
            assert (got.ok, dict(got.witness)) == (want.ok, dict(want.witness))

    def test_family_interior_at_the_pair_threshold(self):
        # every block of the (1, 1) restriction is exactly singular at 2/11
        deep = family(F(2, 11)).restricted(1, 1)
        for side in (2, 5, 12):
            cert = joint_hyponormality_window(deep, (side, side))
            assert cert.ok
            assert cert == reference_joint_hyponormality_window(deep, (side, side))
        for x in (F(1, 5), F(8, 33), F(1, 2)):
            for window in ((3, 3), (8, 8), (12, 5)):
                d = family(x)
                assert joint_hyponormality_window(d, window) == reference_joint_hyponormality_window(d, window)
                assert commutativity_check(d, window) == reference_commutativity_check(d, window)

    def test_singular_block_is_psd_and_a_nudge_is_not(self):
        # P = 4, Q = 1, a = d = 1 = (sqrt P - sqrt Q)^2: r = 4 and r^2 == 4 P Q
        one = F(1)
        assert joint_hyponormality_window(single_block(one, F(2), F(4), one, F(2), one), (2, 2)).ok
        nudged = single_block(one, F(2), F(4), one, F(2) - F(1, 10**30), one)
        cert = joint_hyponormality_window(nudged, (2, 2))
        assert not cert.ok and cert.witness["k"] == [0, 0]
        assert cert == reference_joint_hyponormality_window(nudged, (2, 2))

    def test_zero_diagonal_entry_needs_a_zero_off_diagonal(self):
        one = F(1)
        # a == 0 and P == Q: the block is [[0, 0], [0, d]]
        assert joint_hyponormality_window(single_block(one, one, F(2), one, F(3), F(1, 2)), (2, 2)).ok
        # a == 0 and P != Q: the off-diagonal entry is not 0
        cert = joint_hyponormality_window(single_block(one, one, F(2), one, F(3), one), (2, 2))
        assert not cert.ok
        assert cert.witness["a"] == "0" and cert.witness["P"] == "2" and cert.witness["Q"] == "1"

    def test_negative_diagonal_entry_witness(self):
        one = F(1)
        cert = joint_hyponormality_window(single_block(F(2), one, one, one, F(3), one), (2, 2))
        assert not cert.ok
        assert dict(cert.witness) == {
            "window": [2, 2], "k": [0, 0], "a": "-1", "d": "2", "P": None, "Q": None,
        }


class TestTensorProperty:
    @given(
        row_atoms=st.lists(
            st.tuples(
                st.fractions(min_value=F(1, 8), max_value=F(2), max_denominator=8),
                st.fractions(min_value=F(1, 8), max_value=F(1), max_denominator=8),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda a: a[0],
        ),
        k1=st.integers(min_value=0, max_value=4),
        k2=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_tensor_moments_factor(self, row_atoms, k1, k2):
        total = sum(m for _, m in row_atoms)
        xi = AtomicMeasure1D([(p, m / total) for p, m in row_atoms])
        w = WeightSequence1D.from_measure(xi)
        d = WeightDiagram(lambda k1, k2: w.squared_weight(k1), lambda k1, k2: w.squared_weight(k2))
        assert canonical_moment(d, k1, k2) == moment1(xi, k1) * moment1(xi, k2)
        assert commutativity_check(d, (3, 3)).ok
