import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NegativeMassError,
    dominates,
    domination_scale_bound,
    mass_at,
    minus,
    moment1_reference,
    moment2_reference,
    plus,
    scaled,
)
from shiftcert.errors import (
    InfiniteReciprocalNormError,
    ZeroMomentError,
)
from shiftcert.measures import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    extremal,
    marginal,
    measure_from_dict,
    moment1,
    moment2,
    reciprocal_norm,
    restrict_density,
)

XI_A = AtomicMeasure1D(
    [(F(0), F(3, 4)), (F(1, 4), F(2, 11)), (F(1, 2), F(1, 22)), (F(1), F(1, 44))]
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


def dirac(point):
    """The unit point mass at ``point``."""
    return AtomicMeasure1D([(point, F(1))])


points = st.fractions(min_value=F(0), max_value=F(4), max_denominator=16)
masses = st.fractions(min_value=F(1, 32), max_value=F(3), max_denominator=32)


def random_measure_2d():
    atom = st.tuples(st.tuples(points, points), masses)
    return st.lists(atom, min_size=1, max_size=5, unique_by=lambda a: a[0]).map(
        AtomicMeasure2D
    )


class TestConstruction:
    def test_sorts_and_freezes_atoms(self):
        mu = AtomicMeasure1D([(F(1), F(1, 2)), (F(0), F(1, 2))])
        assert [p for p, _ in mu.atoms] == [F(0), F(1)]

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            AtomicMeasure1D([(F(1), F(-1, 2))])
        with pytest.raises(ValueError):
            AtomicMeasure1D([(F(1), F(0))])

    def test_rejects_negative_support(self):
        with pytest.raises(ValueError):
            AtomicMeasure1D([(F(-1, 4), F(1))])

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            AtomicMeasure1D([(F(1, 2), F(1, 4)), (F(1, 2), F(1, 4))])

    @pytest.mark.parametrize("point", [5, (F(1),), (F(1), F(2), F(3)), None], ids=["int", "single", "triple", "none"])
    def test_a_planar_point_must_be_a_pair(self, point):
        with pytest.raises(ValueError, match="a planar atom point must be a pair of rationals"):
            AtomicMeasure2D([(point, F(1))])

    def test_dirac_is_probability(self):
        d = dirac(F(1, 4))
        assert d.is_probability()
        assert d.atoms == ((F(1, 4), F(1)),)

    def test_equality_and_hash(self):
        again = AtomicMeasure1D(
            [(F(1), F(1, 44)), (F(1, 2), F(1, 22)), (F(1, 4), F(2, 11)), (F(0), F(3, 4))]
        )
        assert again == XI_A
        assert hash(again) == hash(XI_A)


class TestArithmetic:
    # sums and differences of measures are the extension oracle's, in tests/oracles.py
    def test_plus_merges_common_atoms(self):
        s = plus(XI_A, dirac(F(1, 4)))
        assert mass_at(s, F(1, 4)) == F(2, 11) + 1
        assert s.total_mass() == 2

    def test_minus_drops_exact_zeros(self):
        d = minus(XI_A, AtomicMeasure1D([(F(1), F(1, 44))]))
        assert mass_at(d, F(1)) == 0
        assert F(1) not in [p for p, _ in d.atoms]

    def test_minus_rejects_oversubtraction(self):
        with pytest.raises(NegativeMassError):
            minus(XI_A, AtomicMeasure1D([(F(1), F(1))]))


class TestMoments:
    def test_xi_a_moments_by_hand(self):
        assert moment1(XI_A, 0) == 1
        assert moment1(XI_A, 1) == F(1, 11)
        assert moment1(XI_A, 2) == F(1, 22)
        assert moment1(XI_A, 3) == F(1, 32)

    def test_zero_power_counts_total_mass(self):
        assert moment1(dirac(F(0)), 0) == 1

    def test_moment2_by_hand(self):
        assert moment2(MU_CAP, 1, 1) == F(1, 2) * F(1, 16) + F(1, 2) * F(1, 4)
        assert moment2(MU_M, 0, 1) == F(1, 4) * F(1, 4) + F(1, 8) * F(1, 2) + F(5, 8)

    def test_moment1_order_must_be_an_integer(self):
        # a float order would raise the atoms to a float power and return a float
        with pytest.raises(ValueError, match="moment order must be an integer"):
            moment1(XI_A, 0.5)
        # so is the restriction's, which is the order of the moment it divides by
        with pytest.raises(ValueError, match="restriction index must be an integer, got '1'"):
            restrict_density(XI_A, "1")
        with pytest.raises(ValueError, match="restriction index must be an integer, got 1.0"):
            restrict_density(XI_A, 1.0)

    def test_moment2_orders_must_be_integers(self):
        with pytest.raises(ValueError, match="moment order must be an integer"):
            moment2(MU_CAP, 1.5, 0)
        with pytest.raises(ValueError, match="moment order must be an integer"):
            moment2(MU_CAP, 0, F(1))


def seeded_rational(rng, zero=False):
    """A nonnegative rational with a 3- to 60-bit denominator; 0 when ``zero``."""
    q = rng.randrange(1 << (rng.randint(3, 60) - 1), 1 << 60)
    return F(0) if zero else F(rng.randint(1, 2 * q), q)


def seeded_measures(dim, seed=33, count=150):
    """Measures of 0-6 atoms at rationals with 3- to 60-bit denominators, a third
    of them with an atom at 0 (on an axis in the plane) when they have any."""
    rng = random.Random(seed)
    for _ in range(count):
        size, on_zero = rng.randint(0, 6), rng.random() < 1 / 3
        points = {
            seeded_rational(rng, on_zero and i == 0) if dim == 1
            else (seeded_rational(rng, on_zero and i == 0), seeded_rational(rng))
            for i in range(size)
        }
        atoms = [(p, seeded_rational(rng)) for p in points]
        yield AtomicMeasure1D(atoms) if dim == 1 else AtomicMeasure2D(atoms)


class TestMomentsAgainstTheReference:
    """The integer moment sums give the Fraction sums exactly."""

    ORDERS = (0, 1, 2, 7, 31, 200)

    def test_moment1_on_seeded_measures(self):
        sizes = set()
        for mu in seeded_measures(1):
            sizes.add(len(mu.atoms))
            for k in self.ORDERS:
                got = moment1(mu, k)
                assert type(got) is F and got == moment1_reference(mu, k)
        assert sizes == set(range(7))

    def test_moment2_on_seeded_measures(self):
        for mu in seeded_measures(2):
            for k1, k2 in [(0, 0), (0, 5), (3, 0), (7, 31), (200, 1), (2, 200)]:
                got = moment2(mu, k1, k2)
                assert type(got) is F and got == moment2_reference(mu, k1, k2)

    def test_the_empty_measure_and_an_atom_at_zero(self):
        assert moment1(AtomicMeasure1D([]), 0) == moment1(AtomicMeasure1D([]), 5) == 0
        assert moment2(AtomicMeasure2D([]), 2, 3) == 0
        at_zero = AtomicMeasure1D([(F(0), F(2, 3)), (F(1, 2), F(1, 3))])
        assert [moment1(at_zero, k) for k in range(3)] == [1, F(1, 6), F(1, 12)]
        assert moment2(MU_M, 0, 0) == 1 and moment2(MU_M, 1, 0) == F(1, 8) and moment2(MU_M, 0, 3) == F(165, 256)

    def test_moment1_builds_one_fraction(self, fractions_built):
        mu = AtomicMeasure1D([(F(1, 7), F(1, 10)), (F(2, 5), F(1, 5)), (F(3, 4), F(3, 10)), (F(1), F(2, 5))])
        for k in (0, 1, 9, 200):
            value, built = fractions_built(lambda: moment1(mu, k))
            assert value == moment1_reference(mu, k) and built == 1


class TestMarginals:
    def test_marginal_merges_masses(self):
        mu = AtomicMeasure2D(
            [((F(1, 2), F(1, 4)), F(1, 3)), ((F(1, 2), F(3, 4)), F(2, 3))]
        )
        assert marginal(mu, "x") == dirac(F(1, 2))

    def test_mu_m_marginals(self):
        assert marginal(MU_M, "x") == AtomicMeasure1D(
            [(F(0), F(5, 8)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 8))]
        )
        assert marginal(MU_M, "y") == AtomicMeasure1D(
            [(F(1, 4), F(1, 4)), (F(1, 2), F(1, 8)), (F(1), F(5, 8))]
        )

    def test_axis_aliases_agree(self):
        assert marginal(MU_M, 0) == marginal(MU_M, "s") == marginal(MU_M, "x")
        assert marginal(MU_M, 1) == marginal(MU_M, "t") == marginal(MU_M, "y")
        with pytest.raises(ValueError, match="axis must be one of 'x'/'s'/0 or 'y'/'t'/1, got 2"):
            marginal(MU_M, 2)


def planar_reciprocal_norm(mu, idx):
    """||1/coordinate|| summed over the planar atoms directly; None when an atom lies on the axis."""
    if any(point[idx] == 0 for point, _ in mu.atoms):
        return None
    return sum((m / point[idx] for point, m in mu.atoms), F(0))


class TestReciprocalNorm:
    def test_known_values(self):
        assert reciprocal_norm(marginal(MU_CAP, "s")) == 3
        assert reciprocal_norm(marginal(MU_M, "t")) == F(15, 8)

    def test_atom_on_axis_gives_infinity(self):
        assert reciprocal_norm(marginal(MU_M, "s")) is None
        assert reciprocal_norm(XI_A) is None
        assert reciprocal_norm(marginal(MU_CAP, "t")) is not None

    def test_marginal_identity_lemma(self):
        # reciprocal norm in t summed over the plane or over the t-marginal
        assert planar_reciprocal_norm(MU_M, 1) == reciprocal_norm(marginal(MU_M, "t")) == F(15, 8)

    @given(mu=random_measure_2d())
    @settings(max_examples=100)
    def test_marginal_identity_random(self, mu):
        assert reciprocal_norm(marginal(mu, "t")) == planar_reciprocal_norm(mu, 1)


class TestExtremal:
    def test_mu_m_extremal_in_t(self):
        ext = extremal(MU_M, axis="t")
        assert ext == AtomicMeasure2D(
            [
                ((F(1, 4), F(1, 4)), F(8, 15)),
                ((F(1, 2), F(1, 2)), F(2, 15)),
                ((F(0), F(1)), F(1, 3)),
            ]
        )
        assert ext.is_probability()

    def test_extremal_requires_finite_norm(self):
        with pytest.raises(InfiniteReciprocalNormError):
            extremal(MU_M, axis="s")

    @given(mu=random_measure_2d())
    @settings(max_examples=60)
    def test_extremal_is_probability_when_defined(self, mu):
        if reciprocal_norm(marginal(mu, "t")) is None:
            return
        assert extremal(mu, axis="t").is_probability()


class TestDomination:
    def test_positive_case_with_slack(self):
        small = AtomicMeasure1D([(F(1, 4), F(1, 8))])
        cert = dominates(small, marginal(MU_M, "x"))
        assert cert.ok

    def test_failure_names_the_bad_point(self):
        big = AtomicMeasure1D([(F(1, 4), F(1, 2))])
        cert = dominates(big, marginal(MU_M, "x"))
        assert not cert.ok
        assert F(cert.witness["point"]) == F(1, 4)
        assert F(cert.witness["available"]) == F(1, 4)

    def test_scale_bound_by_hand(self):
        mu = AtomicMeasure1D([(F(1, 4), F(1)), (F(1, 2), F(2))])
        nu = AtomicMeasure1D([(F(1, 4), F(1, 2)), (F(1, 2), F(3)), (F(1), F(7))])
        assert domination_scale_bound(mu, nu) == F(1, 2)

    def test_scale_bound_zero_when_unmatched(self):
        mu = AtomicMeasure1D([(F(3, 4), F(1))])
        assert domination_scale_bound(mu, XI_A) == 0

    @given(
        mu=random_measure_2d().map(lambda m: marginal(m, "x")),
        scale=st.fractions(min_value=F(1, 8), max_value=F(2), max_denominator=8),
    )
    @settings(max_examples=60)
    def test_scale_bound_is_tight(self, mu, scale):
        bound = domination_scale_bound(mu, scaled(mu, scale))
        assert bound == scale


class TestRestrictDensity:
    def test_level_one_of_xi_a(self):
        level1 = restrict_density(XI_A, 1)
        assert level1 == AtomicMeasure1D(
            [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(1), F(1, 4))]
        )
        assert level1.is_probability()

    def test_level_zero_normalizes(self):
        # XI_A has an atom at 0, which level 0 keeps (0^0 = 1)
        doubled = scaled(XI_A, F(2))
        assert restrict_density(doubled, 0) == XI_A
        assert restrict_density(scaled(dirac(F(0)), F(3)), 0) == dirac(F(0))

    def test_zero_moment_rejected(self):
        with pytest.raises(ZeroMomentError):
            restrict_density(dirac(F(0)), 1)
        with pytest.raises(ZeroMomentError, match="order 0 vanishes"):
            restrict_density(AtomicMeasure1D([]), 0)

    @given(
        mu=st.lists(
            st.tuples(points, masses), min_size=1, max_size=4, unique_by=lambda a: a[0]
        ).map(AtomicMeasure1D),
        i=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60)
    def test_restriction_is_probability(self, mu, i):
        if moment1(mu, i) == 0:
            return
        assert restrict_density(mu, i).is_probability()


class TestSerialization:
    def test_round_trip_1d(self):
        assert measure_from_dict(XI_A.as_dict()) == XI_A

    def test_round_trip_2d(self):
        assert measure_from_dict(MU_M.as_dict()) == MU_M

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(MU_CAP.as_dict()))
        assert measure_from_dict(json.loads(path.read_text())) == MU_CAP

    def test_dict_shape_is_json_ready(self):
        text = json.dumps(MU_M.as_dict(), sort_keys=True)
        data = json.loads(text)
        assert data["dim"] == 2
        assert len(data["atoms"]) == 3

    def test_rejects_unknown_dim(self):
        # True == 1 and 1.0 == 1 in Python, so equality with 1 or 2 is not enough
        for dim in (3, True, 1.0, 2.0, "1"):
            with pytest.raises(ValueError, match="'dim' in"):
                measure_from_dict({"dim": dim, "atoms": [{"point": "1/2", "mass": "1"}]})

    @pytest.mark.parametrize(
        "atom", [{"point": "1/2"}, {"mass": "1"}, {"point": ["1/2", "1/2"]}], ids=["no-mass", "no-point", "planar-no-mass"]
    )
    def test_missing_atom_field_is_named(self, atom):
        dim = 2 if isinstance(atom.get("point"), list) else 1
        with pytest.raises(ValueError, match="'point' and a 'mass'"):
            measure_from_dict({"dim": dim, "atoms": [atom]})

