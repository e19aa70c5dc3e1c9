"""Couplings of two copies of k equal-mass cells.

A coupling is a k x k nonnegative matrix C with every row and column sum
equal to 1/k, the entry C[i, j] standing for rho(A_i x A_j).  k * C is
doubly stochastic, so the coupling space is a scaled Birkhoff polytope.

Graph couplings carry the mass of a cell permutation: graph_coupling(sigma)
puts 1/k at (sigma(j), j), i.e. cell j is transported onto cell sigma(j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    matrix is the stored form of the given C (exact.stored); C is its
    per-entry view, built at most once and only when asked for.  k is the
    side of the stored matrix, read once here.
    """

    k: int
    matrix: object

    def __init__(self, C):
        matrix = exact.stored(C)
        object.__setattr__(self, "k", matrix.shape[0])
        object.__setattr__(self, "matrix", matrix)

    @property
    def backend(self) -> str:
        return exact.backend_of(self.matrix)

    @property
    def C(self) -> np.ndarray:
        return exact.entries(self.matrix)


def _require_same(a: CouplingMatrix, b: CouplingMatrix):
    if a.k != b.k:
        raise DimensionMismatch("couplings live over different partitions")
    if a.backend != b.backend:
        raise BackendMismatch("cannot mix rational and float couplings")


def product_coupling(k: int, backend: str = exact.RATIONAL) -> CouplingMatrix:
    """Independent coupling: every entry 1/k^2."""
    return CouplingMatrix(exact.constant((k, k), Fraction(1, k * k), backend))


def graph_coupling(sigma, backend: str = exact.RATIONAL) -> CouplingMatrix:
    """Coupling concentrated on the graph of a forward cell permutation."""
    sigma = np.asarray(sigma, dtype=int)
    k = len(sigma)
    if sorted(sigma.tolist()) != list(range(k)):
        raise ValueError("sigma must be a permutation of 0..k-1")
    num = exact.numerators((k, k))
    num[sigma, np.arange(k)] = 1
    return CouplingMatrix(exact.from_scaled(num, k, backend))


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
    """Entrywise L1 distance; exact Fraction on the rational backend."""
    _require_same(a, b)
    return exact.l1_norm(a.matrix, b.matrix)


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
        if self.kind == "permutation-diagonal" and self.eta is None:
            raise ValueError("permutation-diagonal neighborhood needs eta")


def in_neighborhood(c: CouplingMatrix, spec: NeighborhoodSpec) -> bool:
    if spec.kind == "entrywise":
        target = exact.stored(spec.target)
        if target.shape != c.matrix.shape:
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
    iterates until the largest marginal deviation is below REPAIR_TARGET.
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
    w = np.clip(m, 0.0, None)
    for _ in range(10_000):
        rows = w.sum(axis=1)
        if rows.min() <= 0.0:
            raise NotRepairable("zero row cannot be rescaled")
        w = w * (target / rows)[:, None]
        cols = w.sum(axis=0)
        if cols.min() <= 0.0:
            raise NotRepairable("zero column cannot be rescaled")
        w = w * (target / cols)[None, :]
        dev = max(np.abs(w.sum(axis=1) - target).max(),
                  np.abs(w.sum(axis=0) - target).max())
        if dev < REPAIR_TARGET:
            return CouplingMatrix(w)
    raise NotRepairable("rescaling did not converge")


def validate_coupling(c: CouplingMatrix) -> list[str]:
    m = c.matrix
    k = c.k
    if m.shape != (k, k):
        return [f"shape{m.shape}"]
    return exact.marginal_defects(m, Fraction(1, k), exact.FLOAT_TOL)


def random_coupling(k: int, rng: np.random.Generator,
                    backend: str = exact.RATIONAL) -> CouplingMatrix:
    """Random point: convex combination of six permutation couplings with
    small rational weights.  Exact polytope membership by construction."""
    # Accumulate integer numerators over the common denominator total * k.
    numerators = exact.numerators((k, k))
    weights = [int(w) for w in rng.integers(1, 20, size=6)]
    total = sum(weights)
    cols = np.arange(k)
    for w in weights:
        sigma = rng.permutation(k)
        numerators[sigma, cols] += w
    return CouplingMatrix(exact.from_scaled(numerators, total * k, backend))

