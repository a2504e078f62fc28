"""``certificate.to_json`` against ``json.dumps`` of a plain copy of its input, and the
record's meaning: immutable, ``bool`` is ``ok``, unhashable, and every result copies and pickles."""

import copy
import json
import pickle
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert.agler import certify_sum, positivity_over_all_k
from shiftcert.certificate import Certificate, to_json
from shiftcert.lubin import family_diagram, family_report, threshold_t1
from shiftcert.measures import AtomicMeasure1D, AtomicMeasure2D
from shiftcert.numerics import exponential_sum_sign, is_psd
from shiftcert.shift1d import WeightSequence1D, agler_sums_1d, backward_extension_1d, subnormal_necessary
from shiftcert.shift2d import commutativity_check, joint_hyponormality_window


def plain_reference(value):
    """The JSON-ready copy of ``value`` that ``json.dumps`` rendered before ``to_json``.

    A certificate becomes ``{"check", "verdict", "witness"}``, a measure its
    ``as_dict()``, a ``Fraction`` its string, a mapping a dict with ``str``
    keys and a tuple a list; anything else is left as it is.
    """
    if isinstance(value, Certificate):
        return {"check": value.check, "verdict": value.verdict, "witness": plain_reference(value.witness)}
    if hasattr(value, "as_dict"):  # a measure
        return value.as_dict()
    if isinstance(value, F):
        return str(value)
    if isinstance(value, Mapping):
        return {str(k): plain_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_reference(v) for v in value]
    return value


Pair = namedtuple("Pair", "left right")

fractions = st.fractions(max_denominator=10**30)
points = st.builds(F, st.integers(0, 99), st.integers(1, 99))
masses = st.builds(F, st.integers(1, 99), st.integers(1, 99))
measures_1d = st.lists(st.tuples(points, masses), max_size=3, unique_by=lambda a: a[0]).map(AtomicMeasure1D)
measures_2d = st.lists(
    st.tuples(st.tuples(points, points), masses), max_size=3, unique_by=lambda a: a[0]
).map(AtomicMeasure2D)
# quotes, backslashes, control and non-ASCII characters, and the empty string
texts = st.text(alphabet=st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀 ab0') | st.characters(), max_size=12)
scalars = (
    texts
    | fractions
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.booleans()
    | st.none()
    | measures_1d
    | measures_2d
)
keys = texts | st.integers(-5, 5) | st.fractions(max_denominator=9)


def _containers(children):
    mappings = st.dictionaries(keys, children, max_size=5)
    return (
        mappings
        | mappings.map(MappingProxyType)
        | st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.builds(Pair, children, children)
        | st.builds(Certificate, texts, st.booleans(), mappings)
    )


values = st.recursive(scalars, _containers, max_leaves=25)


@given(values)
@settings(max_examples=150, deadline=None)
def test_matches_json_dumps_of_the_plain_copy(value):
    assert to_json(value) == json.dumps(plain_reference(value), indent=2, sort_keys=True)


def test_certificate_layout():
    cert = Certificate("demo", False, {"n": 3, "value": F(-1, 2), "window": (2, 1), "empty": {}})
    assert to_json([cert, []]) == "\n".join(
        [
            "[",
            "  {",
            '    "check": "demo",',
            '    "verdict": "fail",',
            '    "witness": {',
            '      "empty": {},',
            '      "n": 3,',
            '      "value": "-1/2",',
            '      "window": [',
            "        2,",
            "        1",
            "      ]",
            "    }",
            "  },",
            "  []",
            "]",
        ]
    )


@pytest.mark.parametrize("value", [object(), {"x": {1.5}}, [b"bytes"]], ids=["object", "set", "bytes"])
def test_other_types_are_refused(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        to_json(value)


TWO_ATOMS = AtomicMeasure1D([(F(1, 4), F(1, 2)), (F(1), F(1, 2))])
SUBNORMAL = WeightSequence1D.from_measure(TWO_ATOMS)
NOT_SUBNORMAL = WeightSequence1D.from_prefix([F(1), F(1, 2)])
FAMILY_READ = family_diagram(F(1, 4)).read(5, 5)

# one result of each public check, with a pass and a fail where both exist
RESULTS = {
    "certify_sum-pass": lambda: certify_sum(F(1, 5)),
    # x = 2 fails first at n = 2, and x = 5 at n = 1 and k = 0; no x reaches the cap today
    "certify_sum-n2-fail": lambda: certify_sum(2),
    "certify_sum-n1-fail": lambda: certify_sum(5),
    "family_report": lambda: family_report(F(1, 2)),
    "threshold_t1-pass": threshold_t1,
    "subnormal_necessary-pass": lambda: subnormal_necessary(SUBNORMAL, 3),
    "subnormal_necessary-fail": lambda: subnormal_necessary(NOT_SUBNORMAL, 3),
    "agler_sums_1d-pass": lambda: agler_sums_1d(SUBNORMAL, 4, 4),
    "agler_sums_1d-fail": lambda: agler_sums_1d(NOT_SUBNORMAL, 4, 4),
    "backward_extension_1d-pass": lambda: backward_extension_1d(F(1, 8), TWO_ATOMS),
    "backward_extension_1d-fail": lambda: backward_extension_1d(F(8), TWO_ATOMS),
    "is_psd-pass": lambda: is_psd([[2, 1], [1, 2]]),
    "is_psd-fail": lambda: is_psd([[1, 2], [2, 1]]),
    "exponential_sum_sign-pass": lambda: exponential_sum_sign([(F(1), 1)]),
    "exponential_sum_sign-fail": lambda: exponential_sum_sign([(F(1, 2), 1), (F(1), F(-1, 2))]),
    "positivity_over_all_k-pass": lambda: positivity_over_all_k(F(1, 5), 3),
    "positivity_over_all_k-fail": lambda: positivity_over_all_k(2, 2),
    "commutativity_check-pass": lambda: commutativity_check(FAMILY_READ, (4, 4)),
    "joint_hyponormality_window-pass": lambda: joint_hyponormality_window(FAMILY_READ, (2, 2)),
    "joint_hyponormality_window-fail": lambda: joint_hyponormality_window(FAMILY_READ, (4, 4)),
}


def rebuilt(build):
    """A round trip through ``build``, a certificate constructor, applied to a
    certificate, or to each of a report's ``certificates``."""

    def trip(value):
        if isinstance(value, Certificate):
            return build(value)
        return {**value, "certificates": {name: build(c) for name, c in value["certificates"].items()}}

    return trip


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    # namedtuple's own constructors, each handed a plain, writable witness
    "_replace": rebuilt(lambda c: c._replace(witness=dict(c.witness))),
    "_make": rebuilt(lambda c: type(c)._make((c.check, c.ok, dict(c.witness)))),
}


def certificates_in(value):
    """Every certificate in ``value``, its witnesses and its containers, depth first."""
    if isinstance(value, Certificate):
        yield value
        value = value.witness
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from certificates_in(item)


@pytest.mark.parametrize("operation", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
@pytest.mark.parametrize("case", RESULTS)
def test_every_result_survives_a_round_trip(case, operation):
    original = RESULTS[case]()
    if case.endswith(("-pass", "-fail")):
        assert bool(original) is case.endswith("-pass")
    twin = operation(original)
    assert twin == original and to_json(twin) == to_json(original)
    certificates = list(certificates_in(twin))
    assert len(certificates) == len(list(certificates_in(original))) > 0
    for cert in certificates:
        assert type(cert) is Certificate and type(cert.witness) is MappingProxyType


def test_a_certificate_is_immutable():
    cert = Certificate("demo", True, {"n": 1})
    for field in ("check", "ok", "witness"):
        with pytest.raises(AttributeError):
            setattr(cert, field, None)
        with pytest.raises(AttributeError):
            delattr(cert, field)
    with pytest.raises(AttributeError):
        cert.extra = 1
    with pytest.raises(TypeError):
        cert.witness["n"] = 2
    with pytest.raises(TypeError):
        cert._replace(witness={"n": 2}).witness["n"] = 3
    witness = {"n": 1}
    cert = Certificate("demo", True, witness)
    witness["n"] = 2
    assert cert.witness == {"n": 1}


def test_bool_is_the_verdict_and_hash_is_refused():
    failed, passed = Certificate("demo", False, {}), Certificate("demo", True, {})
    assert bool(failed) is False and bool(passed) is True
    assert (failed.verdict, passed.verdict) == ("fail", "pass")
    for cert in (failed, passed):
        with pytest.raises(TypeError):
            hash(cert)


def test_certificates_differ_whenever_a_field_differs():
    base = Certificate("demo", True, {"n": 1})
    assert base == Certificate("demo", True, {"n": 1})
    for other in (
        Certificate("other", True, {"n": 1}),
        Certificate("demo", False, {"n": 1}),
        Certificate("demo", True, {"n": 2}),
        Certificate("demo", True, {"n": 1, "k": 0}),
        Certificate("demo", True, {}),
    ):
        assert base != other and not base == other
