"""
Rigidity against mixing, measured by one probe
==============================================

Put a block-diagonal probe coupling on a partition of the cells into
blocks of pairwise distinct sizes and score how much mass the n-step lens
image leaves on the block squares.  A rotation brings the score back to
exactly 1 when the cell dynamics returns; the full shift forgets the
blocks and the score settles at the closed form sum of squared block
masses.
"""

from fractions import Fraction

from lenslab import (
    bernoulli_system,
    consecutive_blocks,
    rigidity_probe,
    rotation_system,
)
from lenslab import exact

blocks = consecutive_blocks([1, 3, 4])   # cells {0}, {1,2,3}, {4..7}
print("blocks:", blocks)

# -- a rotation is rigid ----------------------------------------------------
rot = rotation_system(8, 1)
print("\nrotation on 8 cells:")
for n in (0, 1, 4, 7, 8, 16):
    score = rigidity_probe(rot, blocks, n)
    marker = "  <- exact return" if score == 1 and n > 0 else ""
    print(f"  n={n:2d}  score = {score}{marker}")

# -- the full shift mixes ---------------------------------------------------
# After the cylinder length L = 3 the probe sees an independent coupling,
# and the score equals sum(a_i^2) with a_i the block masses: 13/32.
shift = bernoulli_system(2, 3)
plateau = sum(Fraction(len(b), 8) ** 2 for b in blocks)
print("\nfull shift at cylinder length 3 (plateau", plateau, "):")
for n in range(6):
    print(f"  n={n}  score = {rigidity_probe(shift, blocks, n)}")

# -- the mixing profile behind the plateau ----------------------------------
# The probe flattens because Q^n itself flattens: by n = L every power
# entry equals 1/k exactly, so couplings lose all memory in L steps.
q = shift.matrix
power = exact.identity(8, shift.backend)
for n in range(4):
    residual = exact.max_abs(power, Fraction(1, 8))
    print(f"  max |Q^{n}[i,j] - 1/8| = {residual}")
    power = exact.mat_mul(power, q)
