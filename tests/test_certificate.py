"""``certificate.to_json`` against ``json.dumps`` of a plain copy of its input."""

import json
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert.certificate import Certificate, to_json
from shiftcert.measures import AtomicMeasure1D, AtomicMeasure2D


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
