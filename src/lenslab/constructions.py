"""Constructive witnesses: couplings and systems built to hit exact targets.

Everything here realizes some coupling-space phenomenon with zero error:
interval exchanges inducing a prescribed rational coupling, probe couplings
whose lens scores certify rigidity, fine graph couplings witnessing
transitivity between permutation neighborhoods, graph couplings realizing a
prescribed 0/half block of the entropy-factor sequence, and cell
permutations commuting with shifts and odometers.

The readings that sum a lens image over blocks pull the block indicator
matrix P (k x m) back through the system instead of building the k x k
image: the restriction of lens^n C along P is (Q^n P)^T C (Q^n P), and
Q^n P takes n gathers on Q's row lines (lens.pull_back), up to the first
step that gives Q^n P back unchanged.  The entropy factor, the
transitivity witness and the rigidity sweep on a stochastic system read
their sums this way, one reading per run of equal terms; rigidity_probe
keeps the dense image as the definition.  On an exact system Q^n B is B
relabelled by tau^n, so the rigidity sweep counts the pairs (label of i,
label of tau^n(i)) for a chunk of n values at once, off tau's cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact
from .couplings import (
    CouplingMatrix,
    NeighborhoodSpec,
    graph_coupling,
    in_neighborhood,
)
from .errors import (
    BadBlocks,
    DimensionMismatch,
    InfeasibleTarget,
    ResolutionGuard,
    SizeGuard,
)
from .lens import lens_iterate, markov_commutation_residual, pull_back
from .partitions import FiniteSystem
from .zoo import SIZE_LIMIT, IETSpec, bernoulli_system

__all__ = [
    "RationalTarget",
    "WitnessResult",
    "BlockTarget",
    "CommuterResult",
    "consecutive_blocks",
    "realize_coupling_as_iet",
    "density_gap",
    "rigidity_probe",
    "rigidity_sweep",
    "transitivity_witness",
    "entropy_factor_F",
    "realize_entropy_block",
    "bernoulli_cyclic_commuter",
    "odometer_commuter",
    "random_rational_target",
]


@dataclass(frozen=True, eq=False)
class RationalTarget:
    """Integer transportation matrix: the coupling m / L with denominator L.

    m is square, k = len(m) on a side, with nonnegative integer entries and
    every row and column summing to L / k, so m / L lies in the coupling
    polytope.
    """

    L: int
    m: np.ndarray

    def __post_init__(self):
        m = exact.freeze(np.asarray(self.m))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise InfeasibleTarget("m must be square and nonempty")
        if self.L % self.k != 0:
            raise InfeasibleTarget("k must divide L")
        if not np.issubdtype(m.dtype, np.integer):
            raise InfeasibleTarget("m must hold integers")
        if m.min() < 0:
            raise InfeasibleTarget("m must be nonnegative")
        quota = self.L // self.k
        if not np.all(m.sum(axis=1) == quota) or not np.all(m.sum(axis=0) == quota):
            raise InfeasibleTarget("rows and columns must sum to L/k")

    @property
    def k(self) -> int:
        return len(self.m)

    def coupling(self, backend: str = exact.RATIONAL) -> CouplingMatrix:
        return CouplingMatrix(exact.from_scaled(np.asarray(self.m), self.L, backend))


def random_rational_target(k: int, L: int, rng: np.random.Generator) -> RationalTarget:
    """Sum of L/k random permutation matrices: marginals L/k by construction."""
    if L % k != 0:
        raise InfeasibleTarget("k must divide L")
    m = exact.numerators((k, k))
    # Row r of sigma is the r-th draw: rng.permutation(k), in one call.
    sigma = rng.permuted(np.tile(np.arange(k), (L // k, 1)), axis=1)
    m += np.bincount((sigma * k + np.arange(k)).ravel(), minlength=k * k).reshape(k, k)
    return RationalTarget(L=L, m=m)


def realize_coupling_as_iet(target: RationalTarget) -> IETSpec:
    """Interval exchange on k*L equal subintervals inducing target exactly.

    Each cell i splits into L consecutive subintervals.  Sweeping source
    cells in order, the next k*m[dest, src] subintervals of the source go
    to the first unfilled subintervals of the destination, so the induced
    coarse coupling counts k*m[dest, src] / (k*L) = m/L per cell pair.
    The target's marginals, L/k per row and column, make the fill exact.
    """
    k, L = target.k, target.L
    total = k * L
    if total > SIZE_LIMIT:
        raise SizeGuard(f"k*L = {total} subintervals > {SIZE_LIMIT}")
    # Run (src, dest) holds counts[src, dest] subintervals, runs in row-major
    # order; it starts in dest after the runs of the earlier sources.
    counts = k * np.asarray(target.m, dtype=int).T
    dest_start = np.arange(k) * L + np.cumsum(counts, axis=0) - counts
    lengths = counts.ravel()
    run_start = np.cumsum(lengths) - lengths
    perm = np.repeat(dest_start.ravel() - run_start, lengths) + np.arange(total)
    return IETSpec(permutation=perm)


def density_gap(c: CouplingMatrix, L: int) -> tuple[RationalTarget, Fraction]:
    """Nearest denominator-L target under entrywise L1, with its distance.

    Floors L*C, then distributes the missing units preferring large
    fractional parts, one unit per cell while quotas allow; the distance
    decays at rate <= k^2 / L.
    """
    k = c.k
    if L % k != 0:
        raise InfeasibleTarget("k must divide L")
    # C = num / den exactly (float entries as the binary fractions they are),
    # so L * C has floor num * L // den and fractional part (num * L % den) / den.
    s = c.matrix if c.backend == exact.RATIONAL else exact.stored(exact.frac_array(c.matrix))
    scaled = s.num.astype(object) * L
    base = (scaled // s.den).astype(int)
    rest = (scaled % s.den).tolist()
    quota = L // k
    row_need = [quota - int(base[i].sum()) for i in range(k)]
    col_need = [quota - int(base[:, j].sum()) for j in range(k)]
    order = sorted(((i, j) for i in range(k) for j in range(k)),
                   key=lambda ij: (-rest[ij[0]][ij[1]], ij))
    for i, j in order:
        if row_need[i] > 0 and col_need[j] > 0 and rest[i][j] > 0:
            base[i, j] += 1
            row_need[i] -= 1
            col_need[j] -= 1
    while sum(row_need) > 0:
        i = next(i for i in range(k) if row_need[i] > 0)
        j = next(j for j in range(k) if col_need[j] > 0)
        base[i, j] += 1
        row_need[i] -= 1
        col_need[j] -= 1
    target = RationalTarget(L=L, m=base)
    # |base / L - num / den| over the denominator L * den.
    distance = Fraction(int(np.abs(base.astype(object) * s.den - scaled).sum()), L * s.den)
    return target, distance


def consecutive_blocks(sizes) -> list[list[int]]:
    """Split cells 0..sum(sizes)-1 into consecutive runs."""
    blocks, start = [], 0
    for sz in sizes:
        blocks.append(list(range(start, start + sz)))
        start += sz
    return blocks


def _validate_blocks(blocks, k: int) -> list[int]:
    sizes = [len(b) for b in blocks]
    if len(set(sizes)) != len(sizes):
        raise BadBlocks("block sizes must be pairwise distinct")
    cells = sorted(cell for b in blocks for cell in b)
    if cells != list(range(k)):
        raise BadBlocks("blocks must partition the cells exactly once")
    return sizes


def _block_labels(blocks, k: int) -> tuple[list[int], np.ndarray]:
    """The sizes of validated blocks, and the block label of each cell."""
    blocks = [list(map(int, b)) for b in blocks]
    sizes = _validate_blocks(blocks, k)
    label = np.empty(k, dtype=int)
    for i, b in enumerate(blocks):
        label[b] = i
    return sizes, label


def _block_probe(sys: FiniteSystem, blocks) -> tuple[np.ndarray, CouplingMatrix]:
    """Block label of each cell, and the probe coupling: mass a_i =
    |block_i| / k spread uniformly on each block square."""
    k = sys.k
    sizes, label = _block_labels(blocks, k)
    # Mass 1 / (k |b|) per cell of each block square, over one denominator.
    den = k * math.lcm(*sizes)
    xi = exact.numerators((k, k), den)
    for i, size in enumerate(sizes):
        cells = np.flatnonzero(label == i)
        xi[np.ix_(cells, cells)] = den // (k * size)
    return label, CouplingMatrix(exact.from_scaled(xi, den, sys.backend))


def rigidity_probe(sys: FiniteSystem, blocks, n: int):
    """Lens score of the block-diagonal probe coupling after n steps.

    The probe puts mass a_i = |block_i| / k uniformly on each block square;
    the score is the mass the n-step lens image leaves on the union of
    block squares.  Score 1 at n = 0; score 1 again exactly at returns of
    the cell dynamics, which is what distinct block masses detect.
    """
    label, probe = _block_probe(sys, blocks)
    return exact.block_diagonal_sum(lens_iterate(sys, probe, n).matrix, label)


# Cells an exact rigidity sweep indexes at once: a chunk of c values of n
# over the counted cells (and the c m^2 counts) holds at most this many,
# about 8 MB per int64 array.
SWEEP_CHUNK = 2**20


def _label_pair_counts(tau: np.ndarray, label: np.ndarray, sizes, n_max: int):
    """G_n[b, b'] = #{i in b : label[tau^n(i)] = b'} for n = 0 .. n_max, as
    (c, m, m) count stacks, c values of n a chunk, one at least.

    tau^n(i) is read off tau's cycles (exact.permutation_cycles), one index
    a chunk, and the (n, b, b') codes are counted by one bincount, for the
    cells outside the largest block only: tau^n is a bijection, so column
    b' of G_n sums to |b'|, which gives that block's row."""
    m, big = len(sizes), int(np.argmax(sizes))
    order, first, pos, length = exact.permutation_cycles(tau)
    cells = np.flatnonzero(label != big)
    image_label, own = label[order], label[cells] * m
    first, pos, length = first[cells], pos[cells], length[cells]
    per = max(1, SWEEP_CHUNK // (len(cells) + m * m))
    for start in range(0, n_max + 1, per):
        c = min(per, n_max + 1 - start)
        code = pos + np.arange(start, start + c)[:, None]
        code %= length
        code += first
        code = image_label[code]
        code += own
        code += np.arange(0, c * m * m, m * m)[:, None]
        counts = np.bincount(code.ravel(), minlength=c * m * m).reshape(c, m, m)
        counts[:, big] = np.asarray(sizes) - counts.sum(axis=1)
        yield counts


def rigidity_sweep(sys: FiniteSystem, blocks, n_max: int) -> list:
    """rigidity_probe(sys, blocks, n) for n = 0 .. n_max, read off G_n =
    B^T Q^n B for B the block indicator matrix: the score is the sum over
    block pairs of G_n[b, b']^2 / (k |b|), the probe's mass 1 / (k |b|) per
    cell of block square b carried into each block square b'
    (exact.weighted_squares, one value per n).

    On an exact system, G_n[b, b'] counts the cells i of b with tau^n(i)
    in b' for the forward cell map tau, taken a chunk of n values at a time
    from tau's cycles (_label_pair_counts); no lens step is taken.  A
    stochastic system pulls B back through Q (lens.pull_back), one score
    per run of equal terms."""
    sizes, label = _block_labels(blocks, sys.k)
    weights = [sys.k * size for size in sizes]
    m = len(sizes)
    scores = []
    if sys.exact:
        for counts in _label_pair_counts(sys.perm, label, sizes, n_max):
            scores += exact.weighted_squares(exact.from_scaled(counts, 1, sys.backend), weights)
        return scores
    indicator = exact.numerators((sys.k, m))
    indicator[np.arange(sys.k), label] = 1
    b = exact.from_scaled(indicator, 1, sys.backend)
    bt = b.T
    for w, count in pull_back(sys, b, n_max):
        scores += [exact.weighted_squares(exact.mat_mul(bt, w), weights)] * count
    return scores


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """Fine graph coupling xi = graph(fine_perm), over fine_k cells,
    steering one permutation neighborhood into another in n lens steps."""

    n: int
    fine_perm: np.ndarray
    restricted_source: CouplingMatrix
    restricted_image: CouplingMatrix
    check_source: bool
    check_image: bool

    @property
    def fine_k(self) -> int:
        return len(self.fine_perm)

    @cached_property
    def xi(self) -> CouplingMatrix:
        """The dense fine coupling, built when it is read."""
        return graph_coupling(self.fine_perm)


def transitivity_witness(d: int, L: int, sigma, pi, epsilon=Fraction(1, 10**6)) -> WitnessResult:
    """Graph coupling at resolution d^{2L} moved by the L-step lens from
    the sigma-neighborhood exactly onto the pi-neighborhood.

    Cells at the fine resolution are pairs (i, s) of base cells read as
    prefix i and suffix s.  The witness transports (i, s) onto
    (sigma(i), pi(s)); the L-step lens shifts the suffix block into view,
    so the restriction moves from graph(sigma) to graph(pi), both exactly.

    With tau the fine permutation, xi[tau(j), j] = 1 / fine_k, and P the
    prefix indicator matrix, the restricted image P^T (lens^L xi) P is
    W[tau]^T W / fine_k for W = Q^L P; the restricted source counts the
    fine cells j per pair (prefix(tau(j)), prefix(j)).  Neither builds xi.
    """
    if exact.power_exceeds_limit(d, 2 * L):
        raise ResolutionGuard(f"needs d^(2L) = {d}^{2 * L} cells > {SIZE_LIMIT}")
    k = d**L
    fine_k = k * k
    # Checked on the given ints: a huge entry never reaches numpy.
    if sorted(sigma) != list(range(k)) or sorted(pi) != list(range(k)):
        raise DimensionMismatch("sigma and pi must permute the d^L base cells")
    sigma = np.asarray(sigma, dtype=int)
    pi = np.asarray(pi, dtype=int)
    tau = exact.freeze((sigma[:, None] * k + pi[None, :]).ravel())

    prefix = np.arange(fine_k) // k  # fine cell (i, s) -> base cell i
    pairs = np.bincount(prefix[tau] * k + prefix, minlength=fine_k)
    restricted_source = CouplingMatrix(exact.from_scaled(pairs.reshape(k, k), fine_k))
    p = exact.numerators((fine_k, k))
    p[np.arange(fine_k), prefix] = 1
    for w, _ in pull_back(bernoulli_system(d, 2 * L), exact.from_scaled(p, 1), L):
        pass  # the last run holds Q^L P
    restricted_image = CouplingMatrix(
        exact.mat_div(exact.mat_mul(exact.relabel(w, tau).T, w), fine_k))

    check_source = in_neighborhood(
        restricted_source, NeighborhoodSpec(kind="permutation-diagonal",
                                            epsilon=epsilon, eta=sigma))
    check_image = in_neighborhood(
        restricted_image, NeighborhoodSpec(kind="permutation-diagonal",
                                           epsilon=epsilon, eta=pi))
    return WitnessResult(n=L, fine_perm=tau,
                         restricted_source=restricted_source,
                         restricted_image=restricted_image,
                         check_source=check_source, check_image=check_image)


def entropy_factor_F(sys: FiniteSystem, lam: CouplingMatrix, n_values: int) -> list:
    """First n_values of n -> (lens^n lam)(A x A), A = cells 0 .. k/2 - 1.

    On the binary shift bernoulli_system(2, L), whose words are indexed
    big-endian, A is the cylinder {x_0 = 0}.  Computed through the
    indicator vector: (lens^n C)(A x A) equals w_n^T C w_n with
    w_n = Q^n 1_A, the indicator vector pulled back through Q
    (lens.pull_back), so each step gathers one vector from Q's row lines
    instead of conjugating; w^T C w is one gather on C's lines when they
    are sparse.
    """
    if sys.k % 2:
        raise DimensionMismatch("A = cells 0 .. k/2 - 1 needs an even cell count")
    backend, c = exact.RATIONAL, lam.lines if lam.sparse else lam.matrix
    if sys.backend == exact.FLOAT or lam.backend == exact.FLOAT:
        backend, c = exact.FLOAT, exact.as_float(lam.matrix)
    indicator = exact.numerators(sys.k)
    indicator[:sys.k // 2] = 1
    values = []
    for w, count in pull_back(sys, exact.from_scaled(indicator, 1, backend), n_values - 1):
        values += [exact.quadratic_form(w, c)] * count
    return values


@dataclass(frozen=True)
class BlockTarget:
    """Prescribed opening block of the entropy-factor sequence."""

    bits: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("block must be nonempty")
        for b in self.bits:
            if b != 0 and b != Fraction(1, 2):
                raise ValueError("block values must be 0 or 1/2")


def realize_entropy_block(block) -> CouplingMatrix:
    """Graph coupling over 2^n cylinder cells whose factor sequence opens
    with the given block of 0s and 1/2s.

    The cell map flips coordinate t when block[t] = 0 and keeps it when
    block[t] = 1/2; flipped coordinates can never agree (value 0), kept
    ones agree half the time (value 1/2).
    """
    if not isinstance(block, BlockTarget):
        block = BlockTarget(bits=tuple(Fraction(b) for b in block))
    n = len(block.bits)
    k = 2**n
    if k > SIZE_LIMIT:
        raise ResolutionGuard(f"needs 2^n = {k} cells > {SIZE_LIMIT}")
    # Coordinate t is bit n-1-t of the big-endian cell index.
    mask = sum(1 << (n - 1 - t) for t, b in enumerate(block.bits) if b == 0)
    return graph_coupling(np.arange(k) ^ mask)


@dataclass(frozen=True, eq=False)
class CommuterResult:
    """Cell permutation commuting with the system, with the commutation
    residual of its graph coupling."""

    perm: np.ndarray
    commutation_residual: Fraction | float
    cycles_blocks: bool


def bernoulli_cyclic_commuter(d: int, ell: int, L: int) -> CommuterResult:
    """Symbol map adding 1 mod d to the first factor of a product alphabet.

    Over alphabet Z_d x Z_ell the per-symbol map (a, b) -> (a+1 mod d, b)
    induces a cell permutation S of the (d*ell)^L cylinder cells that
    commutes with the shift matrix exactly and cyclically permutes the
    blocks {first symbol has a-component i}.
    """
    D = d * ell
    if exact.power_exceeds_limit(D, L):
        raise SizeGuard(f"(d*ell)^L = {D}^{L} cells > {SIZE_LIMIT}")
    k = D**L
    shift = bernoulli_system(D, L)
    # Big-endian digit weights of a cell index; symbols are a * ell + b.
    place = D ** np.arange(L - 1, -1, -1)
    words = np.arange(k)[:, None] // place % D
    perm = ((words // ell + 1) % d * ell + words % ell) @ place
    residual = markov_commutation_residual(shift, graph_coupling(perm))
    cycles = bool(np.all(perm // place[0] // ell == (words[:, 0] // ell + 1) % d))
    return CommuterResult(perm=perm, commutation_residual=residual,
                          cycles_blocks=cycles)


def odometer_commuter(pi, m: int) -> np.ndarray:
    """Permutation of 2^m odometer cells applying pi to the first n digits.

    pi permutes {0 .. 2^n - 1}, the values of the low n digits; higher
    digits pass through.  Adding 2^n never touches the low digits, so the
    result commutes with the 2^n-th power of the odometer, verified here
    by composing both ways.
    """
    if exact.power_exceeds_limit(2, m):
        raise SizeGuard(f"2^{m} cells > {SIZE_LIMIT}")
    k = 2**m
    low = len(pi)
    if low & (low - 1) or low == 0:
        raise BadBlocks("pi must act on a power-of-two digit block")
    # Checked on the given ints: a huge entry never reaches numpy.
    if sorted(pi) != list(range(low)):
        raise BadBlocks("pi must be a permutation")
    if low > k:
        raise BadBlocks("digit block exceeds the odometer level")
    pi = np.asarray(pi, dtype=int)
    v = np.arange(k)
    s = pi[v % low] + v - v % low
    step = (np.arange(k) + low) % k
    if not np.array_equal(s[step], step[s]):
        raise ArithmeticError("commutation with the power failed")
    return s
