"""Couplings of two copies of k equal-mass cells.

A coupling is a k x k nonnegative matrix C with every row and column sum
equal to 1/k, the entry C[i, j] standing for rho(A_i x A_j).  k * C is
doubly stochastic, so the coupling space is a scaled Birkhoff polytope.

Graph couplings carry the mass of a cell permutation: graph_coupling(sigma)
puts 1/k at (sigma(j), j), i.e. cell j is transported onto cell sigma(j).

A coupling is its lines plus a lift: the row lines (exact.Support, as a
system is held) of a matrix H, and a uniform lift factor per axis, C[j,
j'] = H[j // f_r, j' // f_c] / (f_r f_c).  Lift (1, 1) is C itself.  A
graph coupling has one nonzero a line and random_coupling at most six, and
both are built as lines, never as a k x k array.  A lens step on a
Bernoulli shift sums H over a symbol and makes its lift d times coarser
(lens.lens_step), so its images shrink towards the product coupling, held
as one entry at lift (k, k).  A dense H is the line set of full width, its
stored form itself (exact.dense_lines); the k x k form is built when matrix
is asked for, and not kept.  The distance to the product, validation and
the graph test read the held lines at their lift on both backends
(exact.scalar_gap, exact.marginal_defects, exact.permutation_of_lines),
and so do the distances on rationals (exact.l1_lines); a float distance
reads the two matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact
from .errors import BackendMismatch, DimensionMismatch, NotRepairable

__all__ = [
    "CouplingMatrix",
    "NeighborhoodSpec",
    "product_coupling",
    "graph_coupling",
    "lift_coupling",
    "restrict_coupling",
    "coupling_distance",
    "product_distance",
    "graph_permutation",
    "in_neighborhood",
    "repair_to_polytope",
    "validate_coupling",
    "random_coupling",
]

REPAIR_TOL = 1e-8
REPAIR_TARGET = 1e-13


@dataclass(frozen=True, eq=False, init=False)
class CouplingMatrix:
    """Transportation-polytope point: rows and columns each sum to 1/k.

    lines are the row lines (exact.Support) of the matrix H that C is held
    at, and lift = (f_r, f_c) its uniform lift factors: C[j, j'] = H[j //
    f_r, j' // f_c] / (f_r f_c), so H has k / f_r lines of width = k / f_c
    columns.  A lifted H may be an unreduced sum (exact.fold_lines); C's
    own lines and matrix are in lowest terms.  Lift (1, 1) holds C itself:
    the lines given, or the dense lines of the stored form of a given
    square matrix (exact.dense_lines), whose val is matrix, the stored
    k x k form, itself.  Other lines build matrix when asked and do not
    keep it.  C is the per-entry view of matrix, built at most once and
    only when asked for.
    """

    lines: exact.Support
    lift: tuple[int, int]

    def __init__(self, C, lift: tuple[int, int] = (1, 1)):
        if isinstance(C, exact.Support):
            lines = C
        else:
            m = exact.stored(C)
            if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatch(f"a coupling matrix is square, not {m.shape}")
            lines = exact.dense_lines(m)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "lift", lift)

    @property
    def k(self) -> int:
        return len(self.lines.idx) * self.lift[0]

    @property
    def width(self) -> int:
        """The number of columns of the held matrix H."""
        return self.k // self.lift[1]

    @property
    def backend(self) -> str:
        return exact.backend_of(self.lines.val)

    @property
    def sparse(self) -> bool:
        """Whether the rational line kernels (exact.l1_lines,
        exact.average_runs) read the lines: rational lines narrower than H.
        Dense lines are the matrix H."""
        return self.lines.idx.shape[1] < self.width and self.backend == exact.RATIONAL

    def lines_at(self, lift: tuple[int, int] = (1, 1)) -> exact.Support:
        """The row lines of C held at a finer lift, one dividing this one's
        on each axis (exact.lift_lines): at (1, 1), C's own row lines, in
        lowest terms; at a lift between, unreduced, for sums and
        distances."""
        if lift == self.lift:
            return self.lines
        lines = exact.lift_lines(self.lines, self.lift[0] // lift[0],
                                 self.lift[1] // lift[1], self.width)
        return exact.lowest(lines) if lift == (1, 1) else lines

    @property
    def matrix(self):
        return exact.lines_matrix(self.lines_at())

    @cached_property
    def C(self) -> np.ndarray:
        return exact.entries(self.matrix)


def _require_same(a: CouplingMatrix, b: CouplingMatrix):
    if a.k != b.k:
        raise DimensionMismatch("couplings live over different partitions")
    if a.backend != b.backend:
        raise BackendMismatch("cannot mix rational and float couplings")


def _cell_count(k: int) -> int:
    if k < 1:
        raise ValueError("k must be positive")
    return k


def _permutation(sigma, what: str) -> np.ndarray:
    """sigma as an int array, refused unless its entries are integers that
    permute 0 .. k-1 for its length k >= 1."""
    sigma = np.asarray(sigma)
    if sigma.ndim != 1:
        raise ValueError(f"{what} must list one cell for each cell")
    _cell_count(len(sigma))
    cells = sigma.astype(int)
    if not np.array_equal(cells, sigma):
        raise ValueError(f"{what} must have integer entries")
    if not exact.is_permutation(cells):
        raise ValueError(f"{what} must be a permutation of 0..k-1")
    return cells


def product_coupling(k: int, backend: str = exact.RATIONAL) -> CouplingMatrix:
    """Independent coupling: every entry 1/k^2."""
    k = _cell_count(k)
    return CouplingMatrix(exact.constant((k, k), Fraction(1, k * k), backend))


def graph_coupling(sigma, backend: str = exact.RATIONAL) -> CouplingMatrix:
    """Coupling concentrated on the graph of a forward cell permutation:
    line i holds 1/k at sigma^-1(i)."""
    sigma = _permutation(sigma, "sigma")
    k = len(sigma)
    mass = exact.constant((k, 1), Fraction(1, k), backend)
    if k == 1:  # the one line holds every position: the dense form
        return CouplingMatrix(mass)
    return CouplingMatrix(exact.Support(exact.freeze(exact.invert_permutation(sigma)[:, None]),
                                        mass))


def _fibre_size(parent: np.ndarray, fine_k: int, coarse_k: int) -> int:
    """r when parent sends exactly r fine cells onto each of coarse_k
    cells, fine_k = r * coarse_k; DimensionMismatch otherwise."""
    if len(parent) != fine_k:
        raise DimensionMismatch("parent map must cover every fine cell")
    counts = np.bincount(parent, minlength=coarse_k)
    r = fine_k // coarse_k
    if fine_k % coarse_k or len(counts) != coarse_k or not np.all(counts == r):
        raise DimensionMismatch("each coarse cell needs exactly r fine children")
    return r


def lift_coupling(coarse: CouplingMatrix, parent) -> CouplingMatrix:
    """Relatively independent extension along parent (fine cell -> coarse
    cell): spread each entry uniformly over the r x r block of children."""
    parent = np.asarray(parent, dtype=int)
    r = _fibre_size(parent, len(parent), coarse.k)
    spread = exact.relabel(coarse.matrix, (parent[:, None], parent))
    return CouplingMatrix(exact.scale(spread, Fraction(1, r ** 2)))


def restrict_coupling(fine: CouplingMatrix, parent) -> CouplingMatrix:
    """Push a fine coupling down along parent (fine cell -> coarse cell,
    coarse cells 0 .. max(parent)) by block sums."""
    parent = np.asarray(parent, dtype=int)
    coarse_k = int(parent.max(initial=0)) + 1
    _fibre_size(parent, fine.k, coarse_k)
    return CouplingMatrix(exact.block_sums(fine.matrix, parent, coarse_k))


def coupling_distance(a: CouplingMatrix, b: CouplingMatrix):
    """Entrywise L1 distance; exact Fraction on the rational backend.
    Rational couplings are read at their common lift, the finer one on each
    axis: lines narrower than H by exact.l1_lines, which reads the coarser
    operand through its ratio without spreading it, and otherwise the two
    held matrices.  A float sum reads the k x k matrices."""
    _require_same(a, b)
    if a.backend == exact.FLOAT:
        return exact.l1_norm(a.matrix, b.matrix)
    if a.lift[0] * a.lift[1] < b.lift[0] * b.lift[1]:
        a, b = b, a  # a the coarser
    lift = (math.gcd(a.lift[0], b.lift[0]), math.gcd(a.lift[1], b.lift[1]))
    fine, width = b.lines_at(lift), a.k // lift[1]
    if a.sparse and b.sparse:
        return exact.l1_lines(a.lines, fine, width,
                              (a.lift[0] // lift[0], a.lift[1] // lift[1]))
    return exact.l1_norm(exact.lines_matrix(a.lines_at(lift), width),
                         exact.lines_matrix(fine, width))


def product_distance(c: CouplingMatrix, norm: str = "l1"):
    """Entrywise distance to the product coupling, each entry 1/k^2: the L1
    norm of C - 1/k^2, or with norm "max" its largest |entry|.  Read off
    the held matrix H, each of whose entries stands for f_r f_c cells, each
    of them 1/(f_r f_c) of H - f_r f_c/k^2 (exact.scalar_gap)."""
    if norm not in ("l1", "max"):
        raise ValueError("norm must be 'l1' or 'max'")
    k, share = c.k, c.lift[0] * c.lift[1]
    if norm == "l1":
        return exact.scalar_gap(c.lines, Fraction(share, k * k), c.width)
    return exact.scalar_gap(c.lines, Fraction(share, k * k), c.width, True, share)


def graph_permutation(c: CouplingMatrix):
    """sigma with c == graph_coupling(sigma), or None when c is no graph
    coupling: k C must be a permutation matrix (exact.permutation_of_lines).
    A lifted coupling repeats a line or a column, so it is none."""
    if c.lift != (1, 1):
        return None
    lines = exact.Support(c.lines.idx, exact.scale(c.lines.val, c.k))
    tau = exact.permutation_of_lines(lines)
    return None if tau is None else exact.invert_permutation(tau)


@dataclass(frozen=True, eq=False)
class NeighborhoodSpec:
    """Basic open set around a coupling.

    kind "entrywise": all |C[i,j] - target[i,j]| < epsilon.
    kind "permutation-diagonal": |C[eta(j), j] - 1/k| < epsilon for all j,
    i.e. the coupling transports each cell j onto eta(j) up to epsilon.
    """

    kind: str
    epsilon: Fraction | float
    target: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("entrywise", "permutation-diagonal"):
            raise ValueError("unknown neighborhood kind")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.kind == "entrywise" and self.target is None:
            raise ValueError("entrywise neighborhood needs a target")
        if self.kind == "permutation-diagonal":
            if self.eta is None:
                raise ValueError("permutation-diagonal neighborhood needs eta")
            _permutation(self.eta, "eta")


def in_neighborhood(c: CouplingMatrix, spec: NeighborhoodSpec) -> bool:
    if spec.kind == "entrywise":
        target = exact.stored(spec.target)
        if target.shape != (c.k, c.k):
            raise DimensionMismatch("neighborhood target has the wrong shape")
        return bool(exact.max_abs(c.matrix, target) < spec.epsilon)
    eta = np.asarray(spec.eta, dtype=int)
    if len(eta) != c.k:
        raise DimensionMismatch("eta has the wrong length")
    mass = exact.scalar(Fraction(1, c.k), c.backend)
    diagonal = exact.select(c.matrix, (eta, np.arange(c.k)))
    return bool(exact.max_abs(diagonal, mass) < spec.epsilon)


def repair_to_polytope(m) -> CouplingMatrix:
    """Project a slightly drifted float matrix back onto the polytope.

    Alternating row/column rescaling (Sinkhorn) after clamping negatives;
    iterates until the largest marginal deviation is below REPAIR_TARGET,
    so a nonnegative input that meets it already is returned as it is.
    Raises NotRepairable when the input is farther than REPAIR_TOL from
    feasible, or a row or column carries no mass to rescale.
    """
    m = exact.stored(m)
    if exact.backend_of(m) == exact.RATIONAL:
        # Exact arithmetic never drifts: accept valid input, refuse the rest.
        cm = CouplingMatrix(m)
        bad = validate_coupling(cm)
        if bad:
            raise NotRepairable(f"exact matrix violates {bad[0]}")
        return cm
    m = np.asarray(m, dtype=float)
    k = m.shape[0]
    target = 1.0 / k
    if m.min() < -REPAIR_TOL:
        raise NotRepairable(f"entry {m.min():.3e} below -tol")
    if np.abs(m.sum(axis=1) - target).max() > REPAIR_TOL:
        raise NotRepairable("row sums drift beyond tol")
    if np.abs(m.sum(axis=0) - target).max() > REPAIR_TOL:
        raise NotRepairable("column sums drift beyond tol")
    w = m if m.min() >= 0.0 else np.clip(m, 0.0, None)
    for _ in range(10_000):
        rows = w.sum(axis=1)
        if max(np.abs(rows - target).max(), np.abs(w.sum(axis=0) - target).max()) < REPAIR_TARGET:
            return CouplingMatrix(w)
        if rows.min() <= 0.0:
            raise NotRepairable("zero row cannot be rescaled")
        w = w * (target / rows)[:, None]
        cols = w.sum(axis=0)
        if cols.min() <= 0.0:
            raise NotRepairable("zero column cannot be rescaled")
        w = w * (target / cols)[None, :]
    raise NotRepairable("rescaling did not converge")


def validate_coupling(c: CouplingMatrix) -> list[str]:
    """Row sums, column sums and negative entries (exact.marginal_defects),
    read off the held lines of H at its lift."""
    return exact.marginal_defects(c.lines, Fraction(1, c.k), exact.FLOAT_TOL, c.lift, c.width)


def random_coupling(k: int, rng: np.random.Generator,
                    backend: str = exact.RATIONAL) -> CouplingMatrix:
    """Random point: convex combination of six permutation couplings with
    small rational weights, held as lines of at most six nonzeros.  Exact
    polytope membership by construction.

    The draws are six weights in 1..19, then six permutations sigma_t of
    0..k-1 in one call (the stream of six rng.permutation(k) calls);
    coupling t puts weights[t] at (sigma_t(j), j).  Each entry is written
    once, as the key 8 j + t in line sigma_t(j), and one sort along the
    lines orders every line's positions (key >> 3) with their weights
    (weights[key & 7]) for exact.merge_lines, which sums the repeats."""
    key = exact.numerators((_cell_count(k), 6))
    weights = rng.integers(1, 20, size=6)
    slot = np.arange(6)[:, None]
    key[rng.permuted(np.tile(np.arange(k), (6, 1)), axis=1), slot] = np.arange(0, 8 * k, 8) + slot
    key.sort(axis=1)
    num = weights[key & 7]
    key >>= 3  # the positions
    return CouplingMatrix(exact.merge_lines(key, num, int(weights.sum()) * k, backend))
