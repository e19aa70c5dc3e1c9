"""
Every rational coupling is an interval exchange
===============================================

A coupling whose entries share denominator L can be realized concretely:
cut each of the k cells into L equal subintervals and translate the
pieces.  The induced coupling of the interval exchange equals the target
matrix exactly.  Couplings with other entries are approximated by
denominator-L targets whose distance decays like k^2 / L.
"""

from fractions import Fraction

import numpy as np

from lenslab import (
    RationalTarget,
    density_gap,
    iet_system,
    random_coupling,
    random_rational_target,
    realize_coupling_as_iet,
)

# -- realize a small target exactly -----------------------------------------
target = RationalTarget(L=4, m=np.array([[1, 1], [1, 1]]))
spec = realize_coupling_as_iet(target)
print("target m =", target.m.tolist(), "over denominator", target.L)
print("interval exchange on", spec.n_intervals, "equal subintervals")
print("permutation:", list(spec.permutation))

# Count, independently, where the subintervals of each cell go.
counts = np.zeros((2, 2), dtype=int)
for u, image in enumerate(spec.permutation):
    counts[image // 4, u // 4] += 1
print("subinterval counts / (k*L):",
      [[Fraction(int(c), 8) for c in row] for row in counts])
print("matches the target coupling:",
      np.array_equal(counts, 2 * np.asarray(target.m)))

# The realized exchange is itself a system in the zoo.
print("as a system:", iet_system(spec).k, "cells, exact:",
      iet_system(spec).exact)

# -- a random target, drawn and realized ------------------------------------
rng = np.random.default_rng(21)
t = random_rational_target(4, 12, rng)
s = realize_coupling_as_iet(t)
print("\nrandom 4-cell target realized on", s.n_intervals, "subintervals")

# -- approximating an arbitrary coupling -------------------------------------
c = random_coupling(3, rng)
print("\nnearest denominator-L targets to a random coupling (bound k^2/L):")
for L in (3, 30, 300, 3000):
    _, dist = density_gap(c, L)
    print(f"  L={L:5d}  distance = {dist}  bound = {Fraction(9, L)}")
