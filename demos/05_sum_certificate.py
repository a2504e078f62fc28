"""Certifying the rescaled sum's bottom-row test past the joint threshold.

The sum (T1 + T2)/2 passes the bottom-row Agler test on a strictly larger
parameter range than the pair is jointly subnormal on: every alternating
Agler sum P_n(k, 0) is nonnegative for x <= certified_x_max(), which
exceeds 2/11 by an exact rational margin.
The certificate is finite work (n up to an analytic stopping index) plus
two exact tail inequalities.
"""

from fractions import Fraction as F

from shiftcert import (
    certified_epsilon,
    certified_x_max,
    certify_sum,
    integral_moment,
    p_n_bruteforce,
    p_n_closed,
    tail_stopping_index,
)
from shiftcert.agler import per_n_exact_sup
from shiftcert.certificate import to_json

# two independent routes to the same rational: a closed form through the
# arcsine-type integral moments, and brute force over the moment table
x, k, n = F(1, 5), 3, 4
print("closed form:  ", p_n_closed(x, k, n))
print("brute force:  ", p_n_bruteforce(x, k, n))
assert p_n_closed(x, k, n) == p_n_bruteforce(x, k, n)

print("\nI_1(1/16) =", integral_moment(F(1, 16), 1))
print("I_1(1/8)  =", integral_moment(F(1, 8), 1))

tail = tail_stopping_index()
print("\ntail indices:", tail.n_sixteenth, "and", tail.n_eighth)
print("per-n sup at n = 1:", per_n_exact_sup(1))
print("certified_x_max =", certified_x_max(), f"(~{float(certified_x_max()):.4f})")
print("certified_epsilon =", certified_epsilon(), f"(~{float(certified_epsilon()):.4f})")

# the headline: at x = 1/5 the pair is not jointly subnormal (1/5 > 2/11)
# but the rescaled sum passes the bottom-row Agler test, with a complete certificate
cert = certify_sum(F(1, 5))
print("\ncertify_sum(1/5):", cert.verdict, "with every n checked up to", cert.witness["n_tail"])

# and just past the certified bound the first violated sum is reported
bad = certify_sum(certified_x_max() + F(1, 10**6))
print("\njust past the bound:", bad.verdict)
print("violation:", to_json(bad.witness["violation"]))
