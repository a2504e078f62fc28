"""Pass/fail verdicts with exact witnesses.

Every decision procedure in the package returns a :class:`Certificate`
rather than a bare boolean: a failing check names the first violation it
found, and a passing check records what was actually verified.  The
witness is a read-only mapping, so a certificate can be shared.  Rational
values inside a certificate are stored as "p/q" strings so the JSON form
is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping


@dataclass(frozen=True)
class Certificate:
    check: str
    ok: bool
    witness: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # read-only, so a certificate can be cached and shared
        object.__setattr__(self, "witness", MappingProxyType(dict(self.witness)))

    def __bool__(self) -> bool:
        return self.ok

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
    if isinstance(value, Certificate):
        return value.as_dict()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "as_dict"):
        return value.as_dict()
    return value
