"""
Transitivity witnesses and entropy-factor sequences
===================================================

At resolution d^(2L) a single graph coupling can be carried by the
L-step lens from the neighborhood of one base permutation exactly onto
the neighborhood of another: a finite witness of how couplings move
between far-apart landmarks.  Separately, tracking the mass a coupling
assigns to a half-alphabet square under repeated lens steps yields a
sequence of values in [0, 1/2] whose opening block can be prescribed at
will by choosing the right graph coupling.
"""

from fractions import Fraction

from lenslab import (
    bernoulli_system,
    entropy_factor_F,
    product_coupling,
    realize_entropy_block,
    transitivity_witness,
    validate_coupling,
)

# -- a witness between two block permutations --------------------------------
# Base resolution: 2-blocks over a binary alphabet (4 cells).  sigma and
# pi are permutations of those 4 cells; the witness lives on 16 cells.
sigma = [1, 0, 3, 2]
pi = [2, 3, 0, 1]
w = transitivity_witness(2, 2, sigma, pi)
print(f"witness lives on {w.fine_k} cells, carried by a {w.n}-step lens")
print("restriction starts in the sigma-neighborhood:", w.check_source)
print("restriction lands in the pi-neighborhood:   ", w.check_image)
print("witness coupling is valid:", not validate_coupling(w.xi))

# The restricted couplings are exactly the two graph couplings.
print("source restriction row 0:",
      [str(x) for x in w.restricted_source.C[0]])
print("image restriction row 0: ",
      [str(x) for x in w.restricted_image.C[0]])

# -- entropy-factor sequences -------------------------------------------------
# F(n) = mass the n-step lens image assigns to A x A, where A is the
# cylinder {x_0 = 0}: cells 0 .. k/2 - 1, as words are indexed big-endian.
shift = bernoulli_system(2, 3)
prod = product_coupling(8)
print("\nproduct coupling: F(n) =",
      [str(v) for v in entropy_factor_F(shift, prod, 6)],
      "(constant 1/4: independence)")

# Any opening block of 0s and 1/2s is attainable by a graph coupling.
block = [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
xi = realize_entropy_block(block)
values = entropy_factor_F(bernoulli_system(2, len(block)), xi, len(block))
print("prescribed block ", [str(b) for b in block])
print("realized sequence", [str(v) for v in values])
