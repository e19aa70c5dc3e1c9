"""
One-sided orbits and Cesaro averages
====================================

Two ways a coupling orbit relates to the product coupling.  The one-sided
step Q^T C pushes only the image side: under a mixing system every
coupling lands exactly on the product after finitely many steps, while
under a rotation graph couplings keep circulating.  And whatever the
system, the Cesaro average of a lens orbit is an approximate fixed point:
its self-joining residual telescopes down to at most 2/N.
"""

from fractions import Fraction

import numpy as np

from lenslab import (
    bernoulli_system,
    cesaro_average,
    coupling_distance,
    graph_coupling,
    orbit,
    product_coupling,
    random_coupling,
    rotation_system,
    self_joining_residual,
)

# -- the product is a one-sided attractor for the full shift ----------------
shift = bernoulli_system(2, 3)
rng = np.random.default_rng(7)
c0 = random_coupling(8, rng)
one_sided = orbit(shift, c0, 6, mode="one-sided")
prod = product_coupling(8)
print("one-sided distances to the product under the full shift:")
for n, state in enumerate(one_sided):
    print(f"  n={n}  distance = {coupling_distance(state, prod)}")

# -- under a rotation, graph couplings just circulate ------------------------
rot = rotation_system(8, 1)
sigma = rng.permutation(8)
walk = orbit(rot, graph_coupling(sigma), 8, mode="one-sided")
distances = [coupling_distance(s, prod) for s in walk]
hits = sum(d == 0 for d in distances)
print(f"\nrotation one-sided orbit: {hits} of {len(distances)} states on the product")
print("(each state is the graph coupling of the rotated permutation)")

# -- Cesaro averages are nearly fixed ----------------------------------------
print("\nself-joining residual of the N-step average (bound 2/N):")
for sys_name, sys in (("rotation", rot), ("full shift", shift)):
    c0 = random_coupling(8, rng)
    for n, avg in cesaro_average(orbit(sys, c0, 100), (10, 100)):
        res = self_joining_residual(sys, avg)
        print(f"  {sys_name:10s} N={n:3d}  residual = {res}  "
              f"(bound {Fraction(2, n)})  ok: {res <= Fraction(2, n)}")
