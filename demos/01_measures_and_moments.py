"""Atomic measures and their moment calculus.

Everything is a finite sum over atoms, so every quantity below is an
exact rational: moments, marginals, reciprocal norms, and the extremal
reweighting 1/(t ||1/t||) of a planar measure.
"""

from fractions import Fraction as F

from shiftcert import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    extremal,
    marginal,
    moment1,
    moment2,
    reciprocal_norm,
    restrict_density,
)

xi = AtomicMeasure1D(
    [(F(0), F(3, 4)), (F(1, 4), F(2, 11)), (F(1, 2), F(1, 22)), (F(1), F(1, 44))]
)
print("xi =", xi)
print("first moments:", [str(moment1(xi, n)) for n in range(5)])

# the density s / gamma_1 restricts xi to the shifted shift; the atom at 0
# disappears and the rest is reweighted into a probability measure
level1 = restrict_density(xi, 1)
print("level-1 restriction:", level1)
assert level1.is_probability()

mu = AtomicMeasure2D(
    [
        ((F(1, 4), F(1, 4)), F(1, 4)),
        ((F(1, 2), F(1, 2)), F(1, 8)),
        ((F(0), F(1)), F(5, 8)),
    ]
)
print("\nmu =", mu)
print("gamma_(1,1) =", moment2(mu, 1, 1))
print("x-marginal:", marginal(mu, "x"))
print("y-marginal:", marginal(mu, "y"))

# ||1/t|| is the norm of the y-marginal: the sum over the planar atoms,
# grouped by their t coordinate, must agree with it exactly
norm = reciprocal_norm(marginal(mu, "y"))
print("\n||1/t|| =", norm)
assert norm == sum(m / t for (_, t), m in mu.atoms)

# reweighting by 1/(t ||1/t||) gives the extremal probability measure
ext = extremal(mu, axis="t")
print("extremal in t:", ext)
assert ext.is_probability()
