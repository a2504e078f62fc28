"""Pass/fail verdicts with exact witnesses.

Every decision procedure in the package returns a :class:`Certificate`
rather than a bare boolean: a failing check names the first violation it
found, and a passing check records what was actually verified.  A
certificate is a named tuple ``(check, ok, witness)`` whose ``bool`` is
``ok`` and whose witness is a read-only mapping, so it can be cached,
shared, copied and pickled.  :func:`to_json` renders every JSON
payload the CLI prints, with rationals as "p/q" strings, so it is lossless.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType
from typing import Any


class Certificate(namedtuple("Certificate", "check ok witness")):
    """A named check, whether it passed, and the exact witness of either."""

    __slots__ = ()

    def __new__(cls, check: str, ok: bool, witness: Mapping[str, Any]):
        return cls._make((check, ok, witness))

    @classmethod
    def _make(cls, fields):
        """The one constructor, which ``__new__`` and ``_replace`` call: the witness becomes a read-only copy."""
        check, ok, witness = fields
        return tuple.__new__(cls, (check, ok, MappingProxyType(dict(witness))))

    def __getnewargs__(self):
        return self.check, self.ok, dict(self.witness)  # a proxy does not pickle

    def __bool__(self) -> bool:  # a non-empty tuple is always true
        return self.ok

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
