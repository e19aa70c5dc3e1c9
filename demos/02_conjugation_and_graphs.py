"""
Graph couplings transform by conjugation
========================================

For an exact system given by a cell permutation tau, the lens step sends
the graph coupling of sigma to the graph coupling of tau o sigma o
tau^{-1}.  At resolution k the graph couplings are a finite copy of the
symmetric group sitting inside the coupling polytope, and the lens acts on
them exactly as conjugation.
"""

from itertools import permutations

import numpy as np

from lenslab import graph_coupling, lens_step, system_from_permutation
from lenslab import exact

# -- a single conjugation, spelled out ------------------------------------
tau = np.array([1, 2, 0])      # the 3-cycle 0 -> 1 -> 2 -> 0
sigma = np.array([0, 2, 1])    # the transposition swapping cells 1 and 2
sys = system_from_permutation(tau)

image = lens_step(sys, graph_coupling(sigma))
conj = exact.compose_permutations(
    exact.compose_permutations(tau, sigma), exact.invert_permutation(tau))
print("tau o sigma o tau^-1 =", [int(x) for x in conj])
print("lens image is its graph coupling:",
      np.array_equal(image.C, graph_coupling(conj).C))

# -- the whole group at k = 4 ----------------------------------------------
# Exhaustively: conjugation and the lens agree on all 24 x 24 pairs.
agree = 0
for t in permutations(range(4)):
    t = np.array(t)
    sys4 = system_from_permutation(t)
    t_inv = exact.invert_permutation(t)
    for s in permutations(range(4)):
        s = np.array(s)
        expected = exact.compose_permutations(
            exact.compose_permutations(t, s), t_inv)
        got = lens_step(sys4, graph_coupling(s))
        agree += np.array_equal(got.C, graph_coupling(expected).C)
print(f"agreement on k=4: {agree} of {24 * 24} pairs")

# -- conjugacy classes become lens orbits ----------------------------------
# Iterating the lens under a fixed tau walks sigma through its conjugacy
# orbit under the cyclic group generated by tau.
current = graph_coupling(sigma)
orbit_perms = []
for _ in range(3):
    current = lens_step(sys, current)
    scaled = exact.scale(current.matrix, 3)
    orbit_perms.append([int(x) for x in exact.permutation_of_matrix(scaled)])
print("orbit of the transposition under the 3-cycle:", orbit_perms)
