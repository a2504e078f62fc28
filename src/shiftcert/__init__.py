"""Exact subnormality certificates for weighted shifts.

The package works over the rationals end to end: weight sequences and
planar weight diagrams, finitely atomic representing measures and their
marginal/extremal/restriction calculus, the one-variable backward-extension
test, Hankel and Agler positivity checks, an exact sign test for short
exponential sums, and a certified parameter range for the bottom-row
Agler test of a rescaled shift sum, a necessary test of its subnormality.

Everything decision-bearing returns a :class:`~shiftcert.certificate.Certificate`
carrying an exact witness, so a failure can be replayed by hand.
"""

import types

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
    AtomicMeasure1D,
    AtomicMeasure2D,
    extremal,
    marginal,
    measure_from_dict,
    moment1,
    moment2,
    moment_run,
    reciprocal_norm,
    restrict_density,
)
from .numerics import (
    is_psd,
    parse_rational,
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

# the re-exports: every public name the imports above bind, not a submodule
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, types.ModuleType))
