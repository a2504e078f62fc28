"""The parametric planar diagram and its exact consistency checks.

The family's moment table determines a two-variable weight diagram,
``family_diagram(x)``: every weight is a ratio of two moments.
Commutativity, path independence, and the Berger checks of its
restrictions are all decided exactly, with replayable witnesses.
"""

from fractions import Fraction as F

from shiftcert import (
    AtomicMeasure2D,
    check_berger_2d,
    commutativity_check,
    family_diagram,
    joint_hyponormality_window,
    path_independence_check,
)
from shiftcert.lubin import MU

x = F(1, 5)
d = family_diagram(x)


def restriction(i, j):
    """The Berger measure of the (i, j) restriction: s^i t^j mu, normalized."""
    atoms = [(p, (c + d * x) * p[0] ** i * p[1] ** j) for p, c, d in MU]
    total = sum(m for _, m in atoms)
    return AtomicMeasure2D((p, m / total) for p, m in atoms if m)


print(f"family at x = {x}")
print("alpha^2 along row 0:", [str(d.alpha_sq(k, 0)) for k in range(3)])
print("beta^2 along row 0: ", [str(d.beta_sq(k, 0)) for k in range(3)])
print("beta^2 up column 0: ", [str(d.beta_sq(0, k)) for k in range(3)])

print("\ncommutativity on 10x10:", commutativity_check(d, (10, 10)).verdict)
print("path independence at (6, 5):", path_independence_check(d, (6, 5)).verdict)

# the family's signed measure mu restricts to positive measures: the deep
# restriction (both indices >= 1) keeps two atoms; one level up, three
deep = d.restricted(1, 1)
print("\ndeep restriction vs", restriction(1, 1))
print(" ", check_berger_2d(deep, restriction(1, 1), (8, 8)).verdict)
column = d.restricted(0, 1)
print("column restriction vs", restriction(0, 1))
print(" ", check_berger_2d(column, restriction(0, 1), (8, 8)).verdict)

# exact joint hyponormality on a window: one 2x2 block per lattice point,
# decided over the rationals; a failure names its lattice point
for parameter in (F(2, 11), F(1, 5), F(1, 2)):
    window = joint_hyponormality_window(family_diagram(parameter), (8, 8))
    line = f"\njoint hyponormality on 8x8 at x = {parameter}: {window.verdict}"
    if not window.ok:
        line += f" at k = {tuple(window.witness['k'])}"
    print(line)
