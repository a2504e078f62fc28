"""Backward extensions and the two exact thresholds.

Extending a shift backward by one step is legal exactly when a
reciprocal-moment bound holds (and, in two variables, a domination
condition on measures).  Chaining these tests through the family's
restrictions produces the thresholds 8/33 and 2/11 as exact rationals.
"""

from fractions import Fraction as F

from shiftcert import (
    backward_extension_1d,
    backward_extension_2d,
    is_pair_subnormal,
    is_t2_subnormal,
    threshold_pair,
    threshold_t2,
)
from shiftcert.lubin import mu_m, mu_m_cap_n, xi_a, xi_b_level1, xi_c

# one variable: the first column extends past xi_c iff 11x/8 <= 1/3
for x in (F(8, 33), F(8, 33) + F(1, 10**6)):
    cert = backward_extension_1d(F(11, 8) * x, xi_c())
    print(f"column extension at x = {x}: {cert.verdict}")
print("threshold_t2() =", threshold_t2())

# two variables: the horizontal step rebuilds mu_M from the deep measure
step = backward_extension_2d(F(1, 8), mu_m_cap_n(), xi_b_level1(), "horizontal")
print("\nhorizontal step passed:", step.ok)
print("reconstructed:", step.witness["new_measure"])

# the final vertical step prepends beta^2_(0,0) = x below mu_M; the
# domination against xi_a is what pins the pair threshold at 2/11
for x in (F(2, 11), F(2, 11) + F(1, 10**6)):
    step = backward_extension_2d(x, mu_m(), xi_a(), "vertical")
    print(f"vertical step at x = {x}: {step.ok}")
print("threshold_pair() =", threshold_pair())

# the composed verdicts
print("\nT2 at 1/5:", is_t2_subnormal(F(1, 5)).verdict)
print("pair at 1/5:", is_pair_subnormal(F(1, 5)).verdict)
print("pair at 2/11:", is_pair_subnormal(F(2, 11)).verdict)
