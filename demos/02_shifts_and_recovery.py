"""Weighted shifts: necessary tests, Agler sums, and measure recovery.

A weighted shift is its moment sequence: from_measure takes a measure's
moments, from_prefix the running products of given squared weights (the
last one repeated), and the squared weights are the moment ratios.  It is
subnormal exactly when its moments are the power moments of a measure.  The Hankel tests and the alternating Agler sums
detect failures with exact witnesses; berger_fit inverts the good cases.
"""

from fractions import Fraction as F

from shiftcert import (
    AtomicMeasure1D,
    WeightSequence1D,
    agler_sums_1d,
    berger_fit,
    moment1,
    subnormal_necessary,
)
from shiftcert.certificate import to_json
from shiftcert.errors import InconsistentMomentsError, NoRationalAtomsError

xi = AtomicMeasure1D(
    [(F(0), F(3, 4)), (F(1, 4), F(2, 11)), (F(1, 2), F(1, 22)), (F(1), F(1, 44))]
)
good = WeightSequence1D.from_measure(xi)
print("squared weights:", [str(good.squared_weight(n)) for n in range(4)])
print("Hankel test:", subnormal_necessary(good, 4).verdict)
print("Agler sums:", agler_sums_1d(good, 8, 4).verdict)

# squared weights 2, 1/2, 1/2, ... look innocent but the formal fit is
# the signed measure 4 d(1/4) - 3 d(0); both tests see it
bad = WeightSequence1D.from_prefix([F(2), F(1, 2)], norm_bound_sq=F(2))
hankel = subnormal_necessary(bad, 2)
print("\nbad sequence Hankel test:", hankel.verdict)
print("  plain part:", hankel.witness["hankel"].verdict)
print("  shifted part:", hankel.witness["shifted_hankel"].verdict)
agler = agler_sums_1d(bad, 4, 2)
print("bad sequence Agler sums:", agler.verdict, "at", to_json(agler.witness))

# recovery: 2r + 1 exact moments pin down an r-atom measure
moments = [moment1(xi, n) for n in range(9)]
print("\nrecovered:", berger_fit(moments, 4))

# failure modes are typed
try:
    berger_fit([F(1), F(1), F(2), F(3), F(5)], 2)
except NoRationalAtomsError as exc:
    print("Fibonacci moments:", exc)
try:
    berger_fit([2 - F(1, 2) ** j for j in range(5)], 2)
except InconsistentMomentsError as exc:
    print("signed formal fit:", exc)
