"""Equal-mass partitions, refinements, and finite systems.

A finite system is a doubly stochastic matrix Q over a partition into k
cells of mass 1/k each: Q[a, i] = k * mu(A_a intersect T^{-1} A_i).  The
system is exact when Q is a permutation matrix; then Q[a, tau(a)] = 1 for
the forward cell map tau, and cell dynamics are lossless relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import exact
from .errors import (
    DimensionMismatch,
    NegativePowerOfStochastic,
)

__all__ = [
    "Partition",
    "RefinementMap",
    "FiniteSystem",
    "make_uniform_partition",
    "refine",
    "refinement_from_parent",
    "system_from_permutation",
    "system_from_matrix",
    "system_power",
]


@dataclass(frozen=True)
class Partition:
    """Ordered partition of a probability space into k cells of mass 1/k."""

    k: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("partition needs at least one cell")
        if len(self.labels) != self.k:
            raise ValueError("label count must equal k")

    @property
    def cell_mass(self) -> Fraction:
        return Fraction(1, self.k)


def make_uniform_partition(k: int, labels=None) -> Partition:
    if labels is None:
        labels = tuple(str(i) for i in range(k))
    return Partition(k=k, labels=tuple(labels))


@dataclass(frozen=True, eq=False)
class RefinementMap:
    """Surjection from fine cells onto coarse cells, r children per cell."""

    coarse: Partition
    fine: Partition
    parent: np.ndarray

    def __post_init__(self):
        exact.freeze(np.asarray(self.parent))

    @property
    def r(self) -> int:
        return self.fine.k // self.coarse.k


def refinement_from_parent(coarse: Partition, fine: Partition, parent) -> RefinementMap:
    parent = np.asarray(parent, dtype=int)
    if fine.k % coarse.k != 0:
        raise DimensionMismatch("fine cell count must be a multiple of coarse")
    r = fine.k // coarse.k
    if len(parent) != fine.k:
        raise DimensionMismatch("parent map must cover every fine cell")
    counts = np.bincount(parent, minlength=coarse.k)
    if len(counts) != coarse.k or not np.all(counts == r):
        raise DimensionMismatch("each coarse cell needs exactly r fine children")
    return RefinementMap(coarse=coarse, fine=fine, parent=parent)


def refine(p: Partition, r: int) -> tuple[Partition, RefinementMap]:
    """Split each cell into r consecutive children (parent u -> u // r)."""
    if r < 1:
        raise ValueError("refinement factor must be positive")
    labels = tuple(f"{p.labels[u // r]}.{u % r}" for u in range(p.k * r))
    fine = Partition(k=p.k * r, labels=labels)
    parent = np.arange(p.k * r) // r
    return fine, refinement_from_parent(p, fine, parent)


@dataclass(frozen=True, eq=False, init=False)
class FiniteSystem:
    """Doubly stochastic cell dynamics over an equal-mass partition.

    A system holds Q by the nonzeros of its rows and of its columns
    (exact.Support), given or read off a caller's Q (exact.stored).  An
    exact system holds its forward cell map perm too, and its lines are
    perm, so products with Q relabel.  The dense Q is built when asked for.
    """

    partition: Partition
    perm: np.ndarray | None
    backend: str
    rows: exact.Support = field(repr=False)
    columns: exact.Support = field(repr=False)

    def __init__(self, partition: Partition, Q=None, perm=None,
                 backend: str = exact.RATIONAL, support=None):
        if (Q is None) + (perm is None) + (support is None) != 2:
            raise ValueError("a system takes one of Q, perm or (rows, columns) support")
        if perm is not None:
            perm = exact.freeze(np.asarray(perm))
            one = exact.constant((len(perm), 1), 1, backend)
            support = (exact.Support(perm[:, None], one),
                       exact.Support(exact.freeze(exact.invert_permutation(perm)[:, None]), one))
        elif Q is not None:
            Q = exact.stored(Q)
            support = exact.support(Q), exact.support(Q.T)
        for name, value in zip(("partition", "perm", "backend", "rows", "columns"),
                               (partition, perm, exact.backend_of(support[0].val), *support)):
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def exact(self) -> bool:
        """True when the system is a cell permutation (perm is set)."""
        return self.perm is not None

    @property
    def matrix(self):
        """Q in stored form, as Q I from the row support; not kept."""
        return exact.gather(exact.identity(self.k, self.backend), self.rows)

    @cached_property
    def Q(self) -> np.ndarray:
        return exact.entries(self.matrix)


def system_from_permutation(perm, labels=None, backend: str = exact.RATIONAL) -> FiniteSystem:
    """Exact system whose forward cell map is the given permutation."""
    perm = np.asarray(perm, dtype=int)
    k = len(perm)
    if sorted(perm.tolist()) != list(range(k)):
        raise ValueError("forward cell map must be a permutation of 0..k-1")
    return FiniteSystem(partition=make_uniform_partition(k, labels), perm=perm,
                        backend=backend)


def system_from_matrix(q, partition: Partition | None = None) -> FiniteSystem:
    """System of a doubly stochastic matrix; exact when q is a permutation."""
    q = exact.stored(q)
    if len(q.shape) != 2 or q.shape[0] != q.shape[1]:
        raise DimensionMismatch("system matrix must be square")
    k = q.shape[0]
    if partition is None:
        partition = make_uniform_partition(k)
    if partition.k != k:
        raise DimensionMismatch("partition size must match the matrix")
    sys = FiniteSystem(partition=partition, Q=q)
    if sys.rows.relabels and sys.columns.relabels:  # a permutation matrix
        return FiniteSystem(partition=partition, perm=sys.rows.idx[:, 0], backend=sys.backend)
    return sys


def system_power(sys: FiniteSystem, n: int) -> FiniteSystem:
    """System of T^n; negative n allowed only for exact systems."""
    if n < 0 and not sys.exact:
        raise NegativePowerOfStochastic(
            "negative powers need an exact system: the stochastic matrix "
            "has no inverse inside the polytope"
        )
    if sys.exact:
        p = np.arange(sys.k)  # binary powering: O(k log |n|)
        step = sys.perm if n >= 0 else exact.invert_permutation(sys.perm)
        n = abs(n)
        while n:
            if n & 1:
                p = step[p]
            n >>= 1
            if n:
                step = step[step]
        return system_from_permutation(p, labels=sys.partition.labels,
                                       backend=sys.backend)
    return system_from_matrix(exact.mat_power(sys.matrix, n), partition=sys.partition)

