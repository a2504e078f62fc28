"""Finitely atomic measures on [0, inf) and on the closed quarter-plane.

Atom lists are kept canonical -- sorted by location, distinct locations,
strictly positive rational masses -- so equality of measures is structural
equality.  Domination is decided atomwise, which for finitely atomic
measures coincides with the set-wise definition.  Non-integrability of
1/coordinate is a *value* (:data:`INFINITE`), not an error: several
subnormality tests read it as a definite negative answer.

The calculus implemented here:

* moments ``moment1`` / ``moment2`` (with the convention 0^0 = 1),
* marginals of planar measures (pushforward onto an axis, masses merged),
* the reciprocal norm  || 1/t ||_{L1(mu)}  along either coordinate,
* the extremal reweighting  d(mu_ext) = (1 / (t * ||1/t||)) d(mu),
* atomwise domination and the largest scale c with c*mu <= nu,
* the restriction density  d(xi_i) = (s^i / gamma_i) d(xi), which is the
  Berger measure of a restricted shift.

JSON schema (used by the CLI)::

    {"dim": 1, "atoms": [{"point": "1/4", "mass": "2/11"}, ...]}
    {"dim": 2, "atoms": [{"point": ["1/4", "1/2"], "mass": "1/8"}, ...]}
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .certificate import Certificate
from .errors import InfiniteReciprocalNormError, NegativeMassError, ZeroMomentError
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


class AtomicMeasure1D:
    """Finitely atomic positive measure on [0, inf)."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable):
        seen: dict[Fraction, Fraction] = {}
        for point, mass in atoms:
            p, m = Fraction(point), Fraction(mass)
            if p < 0:
                raise ValueError(f"atom location must be >= 0, got {p}")
            if m <= 0:
                raise ValueError(f"atom mass must be positive, got {m} at {p}")
            if p in seen:
                raise ValueError(f"duplicate atom location {p}")
            seen[p] = m
        self.atoms: tuple[tuple[Fraction, Fraction], ...] = tuple(sorted(seen.items()))

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_probability(self) -> bool:
        return self.total_mass() == 1

    def mass_at(self, point) -> Fraction:
        p = Fraction(point)
        for q, m in self.atoms:
            if q == p:
                return m
        return Fraction(0)

    def scaled(self, factor) -> "AtomicMeasure1D":
        c = Fraction(factor)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure1D((p, c * m) for p, m in self.atoms)

    def plus(self, other: "AtomicMeasure1D") -> "AtomicMeasure1D":
        merged: dict[Fraction, Fraction] = dict(self.atoms)
        for p, m in other.atoms:
            merged[p] = merged.get(p, Fraction(0)) + m
        return AtomicMeasure1D(merged.items())

    def minus(self, other: "AtomicMeasure1D") -> "AtomicMeasure1D":
        """Atomwise difference; zero atoms are dropped, negatives raise."""
        merged: dict[Fraction, Fraction] = dict(self.atoms)
        for p, m in other.atoms:
            left = merged.get(p, Fraction(0)) - m
            if left < 0:
                raise NegativeMassError(f"difference is negative at {p}")
            if left == 0:
                merged.pop(p, None)
            else:
                merged[p] = left
        return AtomicMeasure1D(merged.items())

    def as_dict(self) -> dict:
        """The JSON form; :func:`measure_from_dict` reads it back."""
        return {"dim": 1, "atoms": [{"point": rat_str(p), "mass": rat_str(m)} for p, m in self.atoms]}

    def __eq__(self, other) -> bool:
        return isinstance(other, AtomicMeasure1D) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        inner = " + ".join(f"{m} d({p})" for p, m in self.atoms) or "0"
        return f"AtomicMeasure1D({inner})"


class AtomicMeasure2D:
    """Finitely atomic positive measure on the closed quarter-plane."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable):
        seen: dict[tuple[Fraction, Fraction], Fraction] = {}
        for point, mass in atoms:
            s, t = point
            key = (Fraction(s), Fraction(t))
            m = Fraction(mass)
            if key[0] < 0 or key[1] < 0:
                raise ValueError(f"atom location must be in the quarter-plane, got {key}")
            if m <= 0:
                raise ValueError(f"atom mass must be positive, got {m} at {key}")
            if key in seen:
                raise ValueError(f"duplicate atom location {key}")
            seen[key] = m
        self.atoms: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...] = tuple(sorted(seen.items()))

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_probability(self) -> bool:
        return self.total_mass() == 1

    def mass_at(self, s, t) -> Fraction:
        key = (Fraction(s), Fraction(t))
        for q, m in self.atoms:
            if q == key:
                return m
        return Fraction(0)

    def scaled(self, factor) -> "AtomicMeasure2D":
        c = Fraction(factor)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure2D((p, c * m) for p, m in self.atoms)

    def plus(self, other: "AtomicMeasure2D") -> "AtomicMeasure2D":
        merged: dict[tuple[Fraction, Fraction], Fraction] = dict(self.atoms)
        for p, m in other.atoms:
            merged[p] = merged.get(p, Fraction(0)) + m
        return AtomicMeasure2D(merged.items())

    def swapped(self) -> "AtomicMeasure2D":
        """Push forward under (s, t) -> (t, s)."""
        return AtomicMeasure2D(((t, s), m) for (s, t), m in self.atoms)

    def as_dict(self) -> dict:
        """The JSON form; :func:`measure_from_dict` reads it back."""
        return {
            "dim": 2,
            "atoms": [{"point": [rat_str(s), rat_str(t)], "mass": rat_str(m)} for (s, t), m in self.atoms],
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, AtomicMeasure2D) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        inner = " + ".join(f"{m} d({p[0]},{p[1]})" for p, m in self.atoms) or "0"
        return f"AtomicMeasure2D({inner})"


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


def dominates(mu: AtomicMeasure1D, nu: AtomicMeasure1D) -> Certificate:
    """Atomwise check of mu <= nu, with the first violating atom as witness."""
    for p, m in mu.atoms:
        available = nu.mass_at(p)
        if m > available:
            return Certificate(
                "dominates",
                False,
                {"point": str(p), "needed": str(m), "available": str(available)},
            )
    return Certificate("dominates", True, {"atoms_checked": len(mu.atoms)})


def domination_scale_bound(mu: AtomicMeasure1D, nu: AtomicMeasure1D):
    """Largest c >= 0 with c*mu <= nu atomwise; INFINITE when mu is the zero measure."""
    if not mu.atoms:
        return INFINITE
    return min(nu.mass_at(p) / m for p, m in mu.atoms)


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
    if dim not in (1, 2) or not isinstance(raw, list):
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

