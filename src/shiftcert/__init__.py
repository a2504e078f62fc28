"""Exact subnormality certificates for weighted shifts.

The package works over the rationals end to end: weight sequences and
planar weight diagrams, finitely atomic representing measures and their
marginal/extremal/restriction calculus, the one-variable backward-extension
test, Hankel and Agler positivity checks, an exact sign test for short
exponential sums, and a certified parameter range for the subnormality
of a rescaled shift sum.

Everything decision-bearing returns a :class:`~shiftcert.certificate.Certificate`
carrying an exact witness, so a failure can be replayed by hand.
"""

from .certificate import Certificate
from .errors import (
    InconsistentMomentsError,
    InfiniteReciprocalNormError,
    NoRationalAtomsError,
    RankExceededError,
    ShiftCertError,
    ZeroMomentError,
)
from .measures import (
    INFINITE,
    AtomicMeasure1D,
    AtomicMeasure2D,
    extremal,
    is_infinite,
    marginal,
    measure_from_dict,
    moment1,
    moment2,
    reciprocal_norm,
    restrict_density,
)
from .numerics import (
    SymmetricExactMatrix,
    is_psd,
    parse_rational,
    rat_str,
)
from .shift1d import (
    WeightSequence1D,
    agler_sums_1d,
    backward_extension_1d,
    berger_fit,
    subnormal_necessary,
)
from .shift2d import (
    WeightDiagram,
    check_berger_2d,
    commutativity_check,
    joint_hyponormality_window,
)
from .lubin import (
    PAIR_THRESHOLD,
    T2_THRESHOLD,
    family_diagram,
    family_report,
    is_pair_subnormal,
    is_t1_subnormal,
    is_t2_subnormal,
    threshold_pair,
    threshold_t1,
    threshold_t2,
)
from .agler import (
    certified_epsilon,
    certified_x_max,
    certify_sum,
    integral_moment,
    p_n_bruteforce,
    p_n_closed,
    positivity_over_all_k,
    tail_stopping_index,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure1D",
    "AtomicMeasure2D",
    "Certificate",
    "INFINITE",
    "InconsistentMomentsError",
    "InfiniteReciprocalNormError",
    "NoRationalAtomsError",
    "PAIR_THRESHOLD",
    "RankExceededError",
    "ShiftCertError",
    "SymmetricExactMatrix",
    "T2_THRESHOLD",
    "WeightDiagram",
    "WeightSequence1D",
    "ZeroMomentError",
    "agler_sums_1d",
    "backward_extension_1d",
    "berger_fit",
    "certified_epsilon",
    "certified_x_max",
    "certify_sum",
    "check_berger_2d",
    "commutativity_check",
    "extremal",
    "family_diagram",
    "family_report",
    "integral_moment",
    "is_infinite",
    "is_pair_subnormal",
    "is_psd",
    "is_t1_subnormal",
    "is_t2_subnormal",
    "joint_hyponormality_window",
    "marginal",
    "measure_from_dict",
    "moment1",
    "moment2",
    "p_n_bruteforce",
    "p_n_closed",
    "parse_rational",
    "positivity_over_all_k",
    "rat_str",
    "reciprocal_norm",
    "restrict_density",
    "subnormal_necessary",
    "tail_stopping_index",
    "threshold_pair",
    "threshold_t1",
    "threshold_t2",
]
