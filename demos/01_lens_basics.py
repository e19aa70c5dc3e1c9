"""
Couplings, systems, and one lens step
=====================================

A system at finite resolution is a doubly stochastic matrix Q acting on k
equal-mass cells; a coupling of the system with itself is a k-by-k matrix
with every row and column summing to 1/k.  The lens step moves a coupling
C to Q^T C Q, staying inside the coupling polytope.  Everything below runs
in exact rational arithmetic.
"""

import numpy as np

from lenslab import (
    bernoulli_system,
    graph_coupling,
    lens_step,
    product_coupling,
    random_coupling,
    rotation_system,
    validate_coupling,
)

# -- systems --------------------------------------------------------------
# A cyclic rotation is an exact system: each cell maps onto one cell.
rot = rotation_system(6, 1)
print("rotation on 6 cells, exact:", rot.exact)

# The full shift at cylinder resolution 3 is genuinely stochastic: each
# cell spreads onto two cells with weight 1/2.
shift = bernoulli_system(2, 3)
print("full shift on", shift.k, "cells, exact:", shift.exact)
print("one row of its matrix:", list(shift.Q[0]))

# -- couplings ------------------------------------------------------------
# Three landmarks of the polytope: the independent (product) coupling, a
# graph coupling sitting on a permutation, and a random point.
prod = product_coupling(6)
diag = graph_coupling(np.array([1, 2, 3, 4, 5, 0]))
rng = np.random.default_rng(1)
mixed = random_coupling(6, rng)
for name, c in (("product", prod), ("graph", diag), ("random", mixed)):
    problems = validate_coupling(c)
    print(f"{name:8s} coupling valid: {not problems}")

# -- the lens step --------------------------------------------------------
# One step under the rotation: graph couplings stay graph couplings, and
# marginals are preserved exactly (empty problem list).
image = lens_step(rot, diag)
print("image of the graph coupling is still valid:", not validate_coupling(image))
print("image entries on the first row:", list(image.C[0]))

# The product coupling is fixed by every system (sized to the shift's
# eight cells here).
prod8 = product_coupling(8)
print("product is fixed under the shift:",
      np.array_equal(lens_step(shift, prod8).C, prod8.C))

# The step is affine: mixing couplings before or after stepping agrees.
from fractions import Fraction

t = Fraction(2, 7)
lhs = lens_step(rot, type(diag)(t * diag.C + (1 - t) * prod.C))
rhs = t * lens_step(rot, diag).C + (1 - t) * lens_step(rot, prod).C
print("lens step is affine:", np.array_equal(lhs.C, rhs))
