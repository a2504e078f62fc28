"""Pass/fail verdicts with exact witnesses.

Every decision procedure in the package returns a :class:`Certificate`
rather than a bare boolean: a failing check names the first violation it
found, and a passing check records what was actually verified.  A
certificate is immutable and its witness is a read-only mapping, so a
certificate can be cached and shared.  Rational values render as "p/q"
strings in the JSON form, so it is lossless.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping


class Certificate:
    """A named check, whether it passed, and the exact witness of either."""

    __slots__ = ("check", "ok", "witness")

    def __init__(self, check: str, ok: bool, witness: Mapping[str, Any] = MappingProxyType({})):
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

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "witness": _plain(self.witness),
        }


def _plain(value: Any) -> Any:
    if hasattr(value, "as_dict"):  # a certificate or a measure
        return value.as_dict()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value
