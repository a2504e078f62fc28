"""Finitely atomic measures on [0, inf) and on the closed quarter-plane.

Atom lists are kept canonical -- sorted by location, distinct locations,
strictly positive rational masses -- so equality of measures is structural
equality.

The calculus implemented here:

* moments in integers, with 0^0 = 1: ``moment_run`` reads a half-line
  measure's atoms once and then its moments in order, ``moment1`` is its
  first value, and ``moment2`` is one integer sum over one denominator,
* marginals of planar measures (pushforward onto an axis, masses merged),
* the reciprocal norm  || 1/s ||_{L1(xi)}  of a half-line measure, ``None``
  when an atom at 0 makes it diverge (a planar measure's norm is its
  marginal's),
* the extremal reweighting  d(mu_ext) = (1 / (t * ||1/t||)) d(mu),
* the restriction density  d(xi_i) = (s^i / gamma_i) d(xi), which is the
  Berger measure of a restricted shift.

JSON schema (used by the CLI)::

    {"dim": 1, "atoms": [{"point": "1/4", "mass": "2/11"}, ...]}
    {"dim": 2, "atoms": [{"point": ["1/4", "1/2"], "mass": "1/8"}, ...]}
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import InfiniteReciprocalNormError, ZeroMomentError
from .numerics import _index, _integers, _rational, parse_rational


def _axis_index(axis) -> int:
    if axis in (0, "x", "s"):
        return 0
    if axis in (1, "y", "t"):
        return 1
    raise ValueError(f"axis must be one of 'x'/'s'/0 or 'y'/'t'/1, got {axis!r}")


class _AtomicMeasure:
    """The core both measure types share: a measure is its canonical atoms.

    A subclass says how a point is read and checked to lie in the support
    (``_location``) and how a point is written (``_point_json``,
    ``_point_repr``).
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable):
        seen = {}
        for point, mass in atoms:
            key, m = self._location(point), _rational(mass, "atom mass")
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

    def as_dict(self) -> dict:
        """The JSON form; :func:`measure_from_dict` reads it back."""
        atoms = [{"point": self._point_json(p), "mass": str(m)} for p, m in self.atoms]
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
    _point_json = staticmethod(str)
    _point_repr = staticmethod(str)

    @staticmethod
    def _location(point) -> Fraction:
        p = _rational(point, "atom location")
        if p < 0:
            raise ValueError(f"atom location must be >= 0, got {p}")
        return p


class AtomicMeasure2D(_AtomicMeasure):
    """Finitely atomic positive measure on the closed quarter-plane."""

    __slots__ = ()
    dim = 2

    @staticmethod
    def _location(point) -> tuple[Fraction, Fraction]:
        try:
            s, t = point
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ValueError("a planar atom point must be a pair of rationals") from None
        s, t = _rational(s, "atom location"), _rational(t, "atom location")
        if s < 0 or t < 0:
            raise ValueError(f"atom location must be in the quarter-plane, got {s},{t}")
        return s, t

    @staticmethod
    def _point_json(key: tuple[Fraction, Fraction]) -> list[str]:
        return [str(key[0]), str(key[1])]

    @staticmethod
    def _point_repr(key: tuple[Fraction, Fraction]) -> str:
        return f"{key[0]},{key[1]}"


def moment1(mu: AtomicMeasure1D, k: int) -> Fraction:
    """k-th power moment; 0^0 = 1 so that moment1(mu, 0) is the total mass.
    It is the first value of :func:`moment_run`, and builds one Fraction."""
    return next(moment_run(mu, k))


def moment_run(mu: AtomicMeasure1D, start: int = 0) -> Iterator[Fraction]:
    """The moments of order start, start + 1, ... of mu, without end.  With the
    points P_i / Q and the masses M_i / D over their common denominators
    (:func:`_integers`, read once), moment k is sum_i M_i P_i^k / (D Q^k):
    each costs one integer product per atom and builds one Fraction."""
    start = _index(start, "moment order")
    den, terms = _integers([m for _, m in mu.atoms])
    q, points = _integers([p for p, _ in mu.atoms])
    terms, den = [t * p**start for t, p in zip(terms, points)], den * q**start
    while True:
        yield Fraction(sum(terms), den)
        terms, den = [t * p for t, p in zip(terms, points)], den * q


def moment2(mu: AtomicMeasure2D, k1: int, k2: int) -> Fraction:
    """The (k1, k2) moment, sum of m s^k1 t^k2 over the atoms, read in integers as
    :func:`moment_run` reads one: one integer sum, one Fraction."""
    k1, k2 = _index(k1, "moment order"), _index(k2, "moment order")
    den, terms = _integers([m for _, m in mu.atoms])
    for axis, k in ((0, k1), (1, k2)):
        q, ints = _integers([p[axis] for p, _ in mu.atoms])
        terms, den = [t * x**k for t, x in zip(terms, ints)], den * q**k
    return Fraction(sum(terms), den)


def marginal(mu: AtomicMeasure2D, axis) -> AtomicMeasure1D:
    """Pushforward onto one coordinate; masses at coinciding images merge."""
    idx = _axis_index(axis)
    merged: dict[Fraction, Fraction] = {}
    for point, m in mu.atoms:
        p = point[idx]
        merged[p] = merged.get(p, Fraction(0)) + m
    return AtomicMeasure1D(merged.items())


def reciprocal_norm(xi: AtomicMeasure1D) -> Fraction | None:
    """|| 1/s ||_{L1(xi)}, or ``None`` when an atom sits at 0 and it diverges.

    A planar measure's norm along a coordinate is the norm of its marginal.
    """
    if xi.atoms and xi.atoms[0][0] == 0:  # atoms are sorted, so an atom at 0 is first
        return None
    return sum((m / p for p, m in xi.atoms), Fraction(0))


def extremal(mu: AtomicMeasure2D, axis) -> AtomicMeasure2D:
    """Reweight by 1/(coordinate * ||1/coordinate||); a probability measure."""
    idx = _axis_index(axis)
    norm = reciprocal_norm(marginal(mu, idx))
    if norm is None:
        raise InfiniteReciprocalNormError(
            "extremal measure undefined: an atom lies on the coordinate axis"
        )
    return AtomicMeasure2D(
        (point, m / (point[idx] * norm)) for point, m in mu.atoms
    )


def restrict_density(xi: AtomicMeasure1D, i: int) -> AtomicMeasure1D:
    """The measure with density s^i / gamma_i against xi.

    This is the Berger measure of the shift restricted to the invariant
    subspace spanned by basis vectors of index >= i; level 0 normalizes
    xi.  With 0^0 = 1, an atom at 0 is kept at level 0 and vanishes at
    every later level.  A measure with gamma_i == 0 (the zero measure, or
    at i >= 1 one concentrated at 0) has no restriction, which raises
    :class:`ZeroMomentError`.
    """
    i = _index(i, "restriction index")
    gamma = moment1(xi, i)
    if gamma == 0:
        raise ZeroMomentError(f"moment of order {i} vanishes; no restriction density")
    return AtomicMeasure1D((p, m * p**i / gamma) for p, m in xi.atoms if p or not i)


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

    def pair(point):  # AtomicMeasure2D refuses a list of another length, and a non-list as None
        return [parse_rational(v) for v in point] if isinstance(point, (list, tuple)) else None

    return AtomicMeasure2D((pair(entry["point"]), parse_rational(entry["mass"])) for entry in raw)

