"""Exception types shared across the package."""


class ShiftCertError(Exception):
    """Base class for mathematical failures raised by this package."""


class ZeroMomentError(ShiftCertError):
    """A moment that must be positive vanished (the zero measure, or one concentrated at 0)."""


class InfiniteReciprocalNormError(ShiftCertError):
    """1/coordinate is not integrable: an atom sits on the coordinate axis."""


class NoRationalAtomsError(ShiftCertError):
    """The recurrence polynomial of a moment sequence does not split into
    distinct rational roots."""


class RankExceededError(ShiftCertError):
    """No linear recurrence of the allowed order fits the moment sequence."""


class InconsistentMomentsError(ShiftCertError):
    """A recurrence exists formally but does not come from a positive
    atomic measure (negative mass, negative atom location, or a moment
    mismatch on re-verification)."""

