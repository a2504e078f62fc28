"""Finitely atomic measures on [0, inf) and on the closed quarter-plane.

Atom lists are kept canonical -- sorted by location, distinct locations,
strictly positive rational masses -- so equality of measures is structural
equality.  Non-integrability of 1/coordinate is a *value* (:data:`INFINITE`),
not an error: several subnormality tests read it as a definite negative
answer.

The calculus implemented here:

* moments ``moment1`` / ``moment2`` (with the convention 0^0 = 1),
* marginals of planar measures (pushforward onto an axis, masses merged),
* the reciprocal norm  || 1/t ||_{L1(mu)}  along either coordinate,
* the extremal reweighting  d(mu_ext) = (1 / (t * ||1/t||)) d(mu),
* the restriction density  d(xi_i) = (s^i / gamma_i) d(xi), which is the
  Berger measure of a restricted shift.

JSON schema (used by the CLI)::

    {"dim": 1, "atoms": [{"point": "1/4", "mass": "2/11"}, ...]}
    {"dim": 2, "atoms": [{"point": ["1/4", "1/2"], "mass": "1/8"}, ...]}
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InfiniteReciprocalNormError, ZeroMomentError
from .numerics import parse_rational, rat_str


class _Infinite:
    """Sentinel for a divergent reciprocal norm."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinite"


INFINITE = _Infinite()


def is_infinite(value) -> bool:
    return value is INFINITE


def _axis_index(axis) -> int:
    if axis in (0, "x", "s"):
        return 0
    if axis in (1, "y", "t"):
        return 1
    raise ValueError(f"axis must be one of 'x'/'s'/0 or 'y'/'t'/1, got {axis!r}")


class _AtomicMeasure:
    """The core both measure types share: a measure is its canonical atoms.

    A subclass says how a point is read (``_location``), which points lie
    in the support (``_inside``, named by ``_SUPPORT``) and how a point is
    written (``_point_json``, ``_point_repr``).
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable):
        seen = {}
        for point, mass in atoms:
            key, m = self._location(point), Fraction(mass)
            if not self._inside(key):
                raise ValueError(f"atom location must be {self._SUPPORT}, got {self._point_repr(key)}")
            if m <= 0:
                raise ValueError(f"atom mass must be positive, got {m} at {self._point_repr(key)}")
            if key in seen:
                raise ValueError(f"duplicate atom location {self._point_repr(key)}")
            seen[key] = m
        self.atoms = tuple(sorted(seen.items()))

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_probability(self) -> bool:
        return self.total_mass() == 1

    def scaled(self, factor):
        c = Fraction(factor)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return type(self)((p, c * m) for p, m in self.atoms)

    def as_dict(self) -> dict:
        """The JSON form; :func:`measure_from_dict` reads it back."""
        atoms = [{"point": self._point_json(p), "mass": rat_str(m)} for p, m in self.atoms]
        return {"dim": self.dim, "atoms": atoms}

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        inner = " + ".join(f"{m} d({self._point_repr(p)})" for p, m in self.atoms) or "0"
        return f"{type(self).__name__}({inner})"


class AtomicMeasure1D(_AtomicMeasure):
    """Finitely atomic positive measure on [0, inf)."""

    __slots__ = ()
    dim = 1
    _SUPPORT = ">= 0"
    _location = staticmethod(Fraction)
    _point_json = staticmethod(rat_str)
    _point_repr = staticmethod(str)

    @staticmethod
    def _inside(p: Fraction) -> bool:
        return p >= 0


class AtomicMeasure2D(_AtomicMeasure):
    """Finitely atomic positive measure on the closed quarter-plane."""

    __slots__ = ()
    dim = 2
    _SUPPORT = "in the quarter-plane"

    @staticmethod
    def _location(point) -> tuple[Fraction, Fraction]:
        s, t = point
        return Fraction(s), Fraction(t)

    @staticmethod
    def _inside(key: tuple[Fraction, Fraction]) -> bool:
        return key[0] >= 0 and key[1] >= 0

    @staticmethod
    def _point_json(key: tuple[Fraction, Fraction]) -> list[str]:
        return [rat_str(key[0]), rat_str(key[1])]

    @staticmethod
    def _point_repr(key: tuple[Fraction, Fraction]) -> str:
        return f"{key[0]},{key[1]}"


def moment1(mu: AtomicMeasure1D, k: int) -> Fraction:
    """k-th power moment; 0^0 = 1 so that moment1(mu, 0) is the total mass."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return sum((m * p**k for p, m in mu.atoms), Fraction(0))


def moment2(mu: AtomicMeasure2D, k1: int, k2: int) -> Fraction:
    if k1 < 0 or k2 < 0:
        raise ValueError("moment orders must be >= 0")
    return sum((m * s**k1 * t**k2 for (s, t), m in mu.atoms), Fraction(0))


def marginal(mu: AtomicMeasure2D, axis) -> AtomicMeasure1D:
    """Pushforward onto one coordinate; masses at coinciding images merge."""
    idx = _axis_index(axis)
    merged: dict[Fraction, Fraction] = {}
    for point, m in mu.atoms:
        p = point[idx]
        merged[p] = merged.get(p, Fraction(0)) + m
    return AtomicMeasure1D(merged.items())


def reciprocal_norm(mu, axis=None):
    """|| 1/coordinate ||_{L1(mu)}, or :data:`INFINITE` if an atom sits on the axis."""
    if isinstance(mu, AtomicMeasure1D):
        if axis is not None and _axis_index(axis) != 0:
            raise ValueError("a measure on the half-line has only the first coordinate")
        pairs = mu.atoms
    elif isinstance(mu, AtomicMeasure2D):
        if axis is None:
            raise ValueError("axis is required for a planar measure")
        idx = _axis_index(axis)
        pairs = tuple((point[idx], m) for point, m in mu.atoms)
    else:
        raise TypeError(f"unsupported measure type {type(mu).__name__}")
    total = Fraction(0)
    for coordinate, m in pairs:
        if coordinate == 0:
            return INFINITE
        total += m / coordinate
    return total


def extremal(mu: AtomicMeasure2D, axis) -> AtomicMeasure2D:
    """Reweight by 1/(coordinate * ||1/coordinate||); a probability measure."""
    norm = reciprocal_norm(mu, axis)
    if is_infinite(norm):
        raise InfiniteReciprocalNormError(
            "extremal measure undefined: an atom lies on the coordinate axis"
        )
    idx = _axis_index(axis)
    return AtomicMeasure2D(
        (point, m / (point[idx] * norm)) for point, m in mu.atoms
    )


def restrict_density(xi: AtomicMeasure1D, i: int) -> AtomicMeasure1D:
    """The measure with density s^i / gamma_i against xi.

    This is the Berger measure of the shift restricted to the invariant
    subspace spanned by basis vectors of index >= i.  Atoms at 0 vanish
    for i >= 1; a measure concentrated at 0 has gamma_i == 0 and no
    restriction, which raises :class:`ZeroMomentError`.
    """
    if i < 0:
        raise ValueError("restriction index must be >= 0")
    if i == 0:
        gamma = moment1(xi, 0)
        if gamma == 0:
            raise ZeroMomentError("cannot normalize the zero measure")
        return xi.scaled(1 / gamma) if gamma != 1 else xi
    gamma = moment1(xi, i)
    if gamma == 0:
        raise ZeroMomentError(f"moment of order {i} vanishes; no restriction density")
    return AtomicMeasure1D((p, m * p**i / gamma) for p, m in xi.atoms if p != 0)


def measure_from_dict(data: dict):
    """Inverse of the measures' ``as_dict``; validates masses and duplicates."""
    if not isinstance(data, dict):
        raise ValueError("a measure must be a JSON object")
    dim = data.get("dim")
    raw = data.get("atoms")
    if type(dim) is not int or dim not in (1, 2) or not isinstance(raw, list):  # True == 1, 1.0 == 1
        raise ValueError("measure object needs 'dim' in {1, 2} and an 'atoms' list")
    if not all(isinstance(entry, dict) and {"point", "mass"} <= entry.keys() for entry in raw):
        raise ValueError("each atom must be a JSON object with a 'point' and a 'mass'")
    if dim == 1:
        return AtomicMeasure1D(
            (parse_rational(entry["point"]), parse_rational(entry["mass"])) for entry in raw
        )
    atoms = []
    for entry in raw:
        point = entry["point"]
        if not isinstance(point, (list, tuple)) or len(point) != 2:
            raise ValueError("a planar atom point must be a pair of rationals")
        atoms.append(
            ((parse_rational(point[0]), parse_rational(point[1])), parse_rational(entry["mass"]))
        )
    return AtomicMeasure2D(atoms)

