"""
Fixed couplings and periodic couplings
======================================

The product coupling is fixed by every system, but it is rarely alone:
for a cyclic rotation on k cells the lens-fixed couplings form an affine
space of dimension k - 1, spanned by circulant directions.  Around exact
systems with extra symmetry, graph couplings of commuting permutations
are periodic points of the lens.
"""

from itertools import permutations

from lenslab import (
    detect_period,
    fixed_point_space,
    graph_coupling,
    markov_commutation_residual,
    odometer_commuter,
    odometer_system,
    rotation_system,
    self_joining_residual,
    system_power,
)
from lenslab import exact

# -- the fixed space of a rotation ------------------------------------------
for k in (3, 4, 5):
    space = fixed_point_space(rotation_system(k, 1))
    print(f"rotation on {k} cells: affine dimension {space.dimension}")
d = exact.entries(fixed_point_space(rotation_system(3, 1)).basis[0])
print("one direction at k=3 (rows):", [list(row) for row in d])
print("it is circulant:", all(d[i, j] == d[(i + 1) % 3, (j + 1) % 3]
                              for i in range(3) for j in range(3)))

# -- periodic points from commuting permutations -----------------------------
# The binary odometer adds one with carry.  A permutation of the values of
# the two lowest digits commutes with the fourth odometer power, so its
# graph coupling returns to itself after at most four lens steps.
sys = odometer_system(3)
power4 = system_power(sys, 4)
print("\nodometer commuters on the low two digits (level 3):")
for pi in permutations(range(4)):
    s = odometer_commuter(pi, 3)
    lam = graph_coupling(s)
    residual = markov_commutation_residual(power4, lam)
    period = detect_period(sys, lam, maxp=4).period
    print(f"  pi={pi}  commutes with Q^4: {residual == 0}  lens period {period}")

# -- the product coupling is always fixed ------------------------------------
from lenslab import bernoulli_system, product_coupling

for name, sys in (("rotation", rotation_system(6, 1)),
                  ("odometer", odometer_system(2)),
                  ("full shift", bernoulli_system(2, 2))):
    res = self_joining_residual(sys, product_coupling(sys.k))
    print(f"product residual under the {name}: {res}")
