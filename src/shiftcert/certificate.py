"""Pass/fail verdicts with exact witnesses.

Every decision procedure in the package returns a :class:`Certificate`
rather than a bare boolean: a failing check names the first violation it
found, and a passing check records what was actually verified.  A
certificate is immutable and its witness is a read-only mapping, so a
certificate can be cached and shared.  :func:`to_json` renders every JSON
payload the CLI prints, with rationals as "p/q" strings, so it is lossless.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType
from typing import Any


class Certificate:
    """A named check, whether it passed, and the exact witness of either."""

    __slots__ = ("check", "ok", "witness")

    def __init__(self, check: str, ok: bool, witness: Mapping[str, Any]):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", MappingProxyType(dict(witness)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"a certificate is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a certificate is immutable; cannot delete {name!r}")

    def __bool__(self) -> bool:
        return self.ok

    def __eq__(self, other) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return (self.check, self.ok, self.witness) == (other.check, other.ok, other.witness)

    def __repr__(self) -> str:
        return f"Certificate({self.check!r}, {self.ok!r}, {dict(self.witness)!r})"

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"


def to_json(value: Any) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, built in one pass.

    A certificate renders as ``{"check", "verdict", "witness"}``, a measure
    as its ``as_dict()``, a mapping with ``str(key)`` keys and a tuple as a
    list; the other values are ``str``, ``int``, ``bool`` and ``None``.

    Serialization convention: witnesses hold exact values, and this is where
    a rational becomes text.  A ``Fraction`` renders as the string ``"p/q"``,
    or bare ``"p"`` when the denominator is 1 (``str(Fraction)`` already
    does this), so the rendering is lossless.
    """
    out: list[str] = []
    _write(value, out, "\n")
    return "".join(out)


def _write(value: Any, out: list[str], newline: str) -> None:
    """Append ``value``'s JSON text to ``out``; ``newline`` starts a line at its depth."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is Fraction:
        out.append(f'"{value}"')
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is Certificate:
        _write({"check": value.check, "verdict": value.verdict, "witness": value.witness}, out, newline)
    elif kind is dict or kind is MappingProxyType or isinstance(value, Mapping):
        inner = newline + "  "
        out.append("{")
        for key, item in sorted({str(k): v for k, v in value.items()}.items()):
            out += (inner, _quote(key), ": ")
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "}" if value else "{}"  # the last comma, or the lone bracket
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "]" if value else "[]"
    elif hasattr(value, "as_dict"):  # a measure
        _write(value.as_dict(), out, newline)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
