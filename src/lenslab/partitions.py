"""Finite systems: doubly stochastic cell dynamics on k equal-mass cells.

A finite system is a doubly stochastic matrix Q on k cells of mass 1/k
each: Q[a, i] = k * mu(A_a intersect T^{-1} A_i).  The system is exact
when Q is a permutation matrix; then Q[a, tau(a)] = 1 for the forward cell
map tau, and cell dynamics are lossless relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact
from .errors import DimensionMismatch, NegativePowerOfStochastic

__all__ = [
    "FiniteSystem",
    "system_from_permutation",
    "system_from_matrix",
    "system_power",
]


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """Doubly stochastic cell dynamics, held as Q's lines.

    rows and columns hold the nonzeros of Q's rows and of its columns
    (exact.Support); everything else is read off them.  When both relabel,
    Q is a permutation matrix: the system is exact, perm is its forward
    cell map, and products with Q relabel.  The dense Q is built each time
    it is asked for, and not kept.
    """

    rows: exact.Support = field(repr=False)
    columns: exact.Support = field(repr=False)

    @property
    def k(self) -> int:
        return len(self.rows.idx)

    @property
    def backend(self) -> str:
        return exact.backend_of(self.rows.val)

    @cached_property
    def perm(self) -> np.ndarray | None:
        """The forward cell map of a permutation Q, else None."""
        if self.rows.relabels and self.columns.relabels:
            return self.rows.idx[:, 0]
        return None

    @property
    def exact(self) -> bool:
        """True when the system is a cell permutation (perm is set)."""
        return self.perm is not None

    @cached_property
    def cylinder(self) -> int | None:
        """d when the system is the full shift on d >= 2 symbols at some
        cylinder length L, k = d^L, as its row lines show: row w holds 1/d
        at (w mod d^(L-1)) d + c for each symbol c (zoo.bernoulli_system).
        None otherwise."""
        k, d = self.rows.idx.shape
        size = k
        while d > 1 and size % d == 0:
            size //= d
        if d < 2 or size != 1:
            return None
        # Rows w and w + k/d hold the same positions, and rows 0 .. k/d - 1
        # hold 0 .. k - 1 in turn.
        if not (self.rows.idx.reshape(d, k) == np.arange(k)).all():
            return None
        return d if exact.is_constant(self.rows.val, Fraction(1, d)) else None

    @property
    def matrix(self):
        """Q in stored form, as Q I from the row support; not kept."""
        return exact.gather(exact.identity(self.k, self.backend), self.rows)

    @property
    def Q(self) -> np.ndarray:
        """Q's entries, Fractions on rationals, built from matrix on each
        read; not kept."""
        return exact.entries(self.matrix)


def system_from_permutation(perm, backend: str = exact.RATIONAL) -> FiniteSystem:
    """Exact system whose forward cell map is the given permutation."""
    perm = np.array(perm, dtype=int)  # a copy: the caller's array stays theirs
    k = len(perm)
    if perm.ndim != 1 or k and not exact.is_permutation(perm):
        raise ValueError("forward cell map must be a permutation of 0..k-1")
    one = exact.constant((k, 1), 1, backend)
    return FiniteSystem(exact.Support(exact.freeze(perm[:, None]), one),
                        exact.Support(exact.freeze(exact.invert_permutation(perm)[:, None]), one))


def system_from_matrix(q) -> FiniteSystem:
    """System of a doubly stochastic matrix; exact when q is a permutation."""
    q = exact.stored(q)
    if len(q.shape) != 2 or q.shape[0] != q.shape[1]:
        raise DimensionMismatch("system matrix must be square")
    return FiniteSystem(exact.support(q), exact.support(q.T))


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
        return system_from_permutation(p, backend=sys.backend)
    return system_from_matrix(exact.mat_power(sys.matrix, n))
