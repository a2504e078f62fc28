"""The three exact thresholds, read off one signed measure.

The family's moments are those of one signed atomic measure mu, whose
masses are affine in x.  T1's rows, T2's columns and the pair are
subnormal exactly when the matching slices of mu are positive measures,
and each slice mass is a short exponential sum in the slice index.  One
exact sign test for such sums gives the thresholds and their binding
slices as exact rationals.
"""

from fractions import Fraction as F

from shiftcert import (
    is_pair_subnormal,
    is_t1_subnormal,
    is_t2_subnormal,
    threshold_pair,
    threshold_t1,
    threshold_t2,
)
from shiftcert.lubin import MU
from shiftcert.numerics import exponential_sum_sign

print("mu = sum of (constant + slope x) d(s, t):")
for (s, t), constant, slope in MU:
    print(f"  ({s}, {t}): {constant} + ({slope}) x")

# column 1's mass at t = 0 is 1/11 - 3x/8: its sign over every column at once
for x in (F(8, 33), F(8, 33) + F(1, 10**6)):
    terms = [(s, c + d * x) for (s, t), c, d in MU if t == 0]
    sign = exponential_sum_sign(terms)
    print(f"\ncolumn masses at t = 0, x = {x}: {sign.verdict}", {k: str(v) for k, v in sign.witness.items()})

assert threshold_t1().witness["threshold"] is None
print("\nT1 threshold: none, every x > 0 passes")
print("T2 threshold:", threshold_t2())
print("pair threshold:", threshold_pair())

# the verdicts name the binding slice and its mass at x
for x in (F(1, 5), F(1, 2)):
    t2 = is_t2_subnormal(x)
    where = {key: str(t2.witness[key]) for key in ("slice", "index", "point", "mass")}
    print(f"\nT2 at {x}: {t2.verdict} {where}")
for x in (F(2, 11), F(1, 5)):
    pair = is_pair_subnormal(x)
    atom = tuple(str(c) for c in pair.witness["atom"])
    print(f"pair at {x}: {pair.verdict}, atom {atom} has mass {pair.witness['mass']}")
print("T1 at 10:", is_t1_subnormal(F(10)).verdict)
