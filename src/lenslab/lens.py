"""Lens dynamics: the conjugation action of a system on its couplings.

One lens step sends C to Q^T C Q, gathered from Q's column lines on both
axes (exact.gather).  For an exact system with forward cell map tau this
relabels, C[i, j] -> C[tau^{-1}(i), tau^{-1}(j)], so graph couplings
transform by conjugation: graph(s) -> graph(tau o s o tau^{-1}); the step
relabels C's lines (exact.relabel_lines), k s work for s nonzeros a line.
For stochastic Q it is the step-coupling evaluation of rho(T^{-1}A_i x
T^{-1}A_j), k^2 s work for s nonzeros per column of Q, gives a dense
coupling, and is forward-only.

The one-sided map sends C to Q^T C; on graph couplings it composes:
graph(s) -> graph(tau o s).

A fine -> coarse indicator matrix P (k x m) pulls back the other way: the
restriction P^T (lens^n C) P of the n-step image is (Q^n P)^T C (Q^n P), so
a reading of a few block sums walks Q^n P (pull_back), k s m work a step,
and never builds the k x k image.

Orbits, pull-backs and powers are walks (walk): runs (state, count) that
end at the first step whose result is its input.  Every step is
deterministic, so the steps left would repeat that state; on a Bernoulli
shift bern:d,L, where Q^L = J/k, a walk settles by step L + 1.  A reader
takes one reading per run.

An exact system's lens is itself a relabeling, so lens^n C is C relabelled
by the n-th power of the cell map: cesaro_average reads a rational orbit's
sums off powers of it, by doubling, in O(log N) relabels a horizon
instead of N steps.  Float orbits keep the walk, as each step is repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice, repeat

import numpy as np

from . import exact
from .couplings import CouplingMatrix, coupling_distance, repair_to_polytope
from .errors import BackendMismatch, DimensionMismatch, NotExact, SizeGuard
from .partitions import FiniteSystem, system_power

__all__ = [
    "LensOrbit",
    "PeriodReport",
    "FixedPointSpace",
    "lens_step",
    "lens_step_inverse",
    "one_sided_step",
    "lens_iterate",
    "orbit",
    "cesaro_average",
    "self_joining_residual",
    "markov_commutation_residual",
    "fixed_point_space",
    "detect_period",
]

# Work fixed_point_space may do, in basis cells (one entry of one direction,
# 0.9-1.2 us each through a fixed-points report on a 2-core machine,
# rot:k=64..128): at most this many class pairs to label (0.25 us each) and
# basis cells to build.  2**21 basis cells took about 2 s and 240 MB with
# their report written (rot:k=128,s=1).
FIXED_SPACE_BUDGET = 2**21


def _check(sys: FiniteSystem, c: CouplingMatrix):
    if sys.k != c.k:
        raise DimensionMismatch("system and coupling sizes differ")
    if sys.backend != c.backend:
        raise BackendMismatch("system and coupling use different backends")


def _gathered(sys: FiniteSystem, c: CouplingMatrix, lines, inverse=None) -> CouplingMatrix:
    """C gathered on lines of the system along axis 0, and along axis 1
    too when the inverse lines are given: on an exact system a relabel of
    C's lines, k s work; otherwise the dense matrix gathered, which gives
    dense lines."""
    _check(sys, c)
    if sys.exact:
        return CouplingMatrix(exact.relabel_lines(
            c.lines, lines.idx[:, 0], None if inverse is None else inverse.idx[:, 0]))
    return CouplingMatrix(exact.gather(c.matrix, lines, (0,) if inverse is None else (0, 1)))


def lens_step(sys: FiniteSystem, c: CouplingMatrix) -> CouplingMatrix:
    """One application of the lens: C -> Q^T C Q."""
    return _gathered(sys, c, sys.columns, sys.rows)


def lens_step_inverse(sys: FiniteSystem, c: CouplingMatrix) -> CouplingMatrix:
    """Inverse lens step Q C Q^T; defined only for exact systems."""
    if not sys.exact:
        _check(sys, c)
        raise NotExact("the stochastic lens is forward-only")
    return _gathered(sys, c, sys.rows, sys.columns)


def one_sided_step(sys: FiniteSystem, c: CouplingMatrix) -> CouplingMatrix:
    """One-sided map C -> Q^T C: first coordinate moves, second stays."""
    return _gathered(sys, c, sys.columns)


def lens_iterate(sys: FiniteSystem, c: CouplingMatrix, n: int) -> CouplingMatrix:
    """n lens steps; an exact system takes one, by its n-th power."""
    if n < 0:
        raise ValueError("lens_iterate expects n >= 0")
    if sys.exact and n:
        sys, n = system_power(sys, n), 1
    for _ in range(n):
        c = lens_step(sys, c)
    return c


def _stored(state):
    """The stored form of a walk's state: a coupling's lines, or the state."""
    return state.lines if isinstance(state, CouplingMatrix) else state


def walk(step, start, n_steps: int, relabels: bool):
    """The n_steps + 1 states start, step(start), ... as runs (state,
    count), each step taken when the run after it is asked for.

    The walk ends at the first step whose result is its input, the same
    stored form (exact.same): that state is yielded once, with the count of
    the steps left, which a deterministic step would each repeat.  relabels
    says that each step relabels, as an exact system's does: a relabeling
    is a bijection, so a walk it moves at its first step never settles, and
    it is compared after that step only.  (A float orbit's repair rounds
    after the relabel, but a comparison left out changes no state, only
    the number of steps taken.)"""
    if n_steps < 0:
        return
    yield start, 1
    state, compare = start, True
    for left in range(n_steps, 0, -1):
        new = step(state)
        if compare:
            if exact.same(_stored(new), _stored(state)):
                yield new, left
                return
            compare = not relabels
        state = new
        yield state, 1


def pull_back(sys: FiniteSystem, p, n_steps: int):
    """The walk P, Q P, ..., Q^n_steps P of a stored form P with k rows, as
    runs (walk), each step one gather on Q's row lines (k s m work for m
    columns).  For P the indicator matrix of a map from cells to blocks,
    (Q^n P)^T C (Q^n P) is lens^n C summed over block pairs."""
    if p.shape[0] != sys.k:
        raise DimensionMismatch("system and pulled-back matrix sizes differ")
    return walk(partial(exact.gather, lines=sys.rows), p, n_steps, sys.exact)


@dataclass(frozen=True, eq=False)
class LensOrbit:
    """orbit(system, c, n_steps, mode) as a walk: iterating yields states
    0..n_steps, states[n+1] = step(system, states[n]), each step taken when
    it is asked for and only the current state kept; runs() yields them as
    the runs of walk.  A float step is followed by drift repair, whose L1
    size the walk appends to repair_residuals (emptied as each walk starts);
    a settled run repeats its step's residual for each step it stands
    for."""

    sys: FiniteSystem
    start: CouplingMatrix
    n_steps: int
    mode: str
    repair_residuals: list[float] = field(default_factory=list)

    def runs(self):
        step = partial(lens_step if self.mode == "lens" else one_sided_step, self.sys)
        self.repair_residuals.clear()
        if self.start.backend == exact.FLOAT:
            return self._repaired_runs(step)
        return walk(step, self.start, self.n_steps, self.sys.exact)

    def _repaired_runs(self, step):
        residuals = self.repair_residuals

        def repaired(c: CouplingMatrix) -> CouplingMatrix:
            current = step(c)
            fixed = repair_to_polytope(current.matrix)
            residuals.append(exact.l1_norm(fixed.matrix, current.matrix))
            return fixed

        for state, count in walk(repaired, self.start, self.n_steps, self.sys.exact):
            if count > 1:  # each step a settled run stands for repeats its repair
                residuals.extend(residuals[-1:] * (count - 1))
            yield state, count

    def __iter__(self):
        for state, count in self.runs():
            yield from repeat(state, count)


def orbit(sys: FiniteSystem, c: CouplingMatrix, n_steps: int,
          mode: str = "lens") -> LensOrbit:
    if mode not in ("lens", "one-sided"):
        raise ValueError("mode must be 'lens' or 'one-sided'")
    return LensOrbit(sys, c, n_steps, mode)


def _power_sum(orb: LensOrbit, c, n: int):
    """states[1] + ... + states[n] of an exact system's rational orbit from
    the matrix c of its start, by doubling on the bits of n: S_2m = S_m +
    lens^m S_m and S_m+1 = S_m + lens^(m+1) C, where lens^m relabels by
    q = p^m, the m-th power of the column map p (on axis 0 only in
    one-sided mode).  At most 2 bit_length(n) relabels and adds."""
    p = orb.sys.columns.idx[:, 0]

    def power(a, q):
        return exact.relabel(a, (q[:, None], q) if orb.mode == "lens" else q)

    q = p
    total = power(c, q)
    for bit in bin(n)[3:]:
        total = exact.mat_add(total, power(total, q))
        q = q[q]
        if bit == "1":
            q = p[q]
            total = exact.mat_add(total, power(c, q))
    return total


def cesaro_average(orb: LensOrbit, horizons):
    """(N, average (1/N) sum of states[1..N]) for each horizon N, ascending.

    On an exact system with a rational start, lens^n C is C relabelled by
    the n-th power of the cell map, and each sum is read off powers of it
    (_power_sum): O(log N) relabels and adds a horizon.  mat_div reduces,
    so the average is the Scaled a running sum gives.  Otherwise one walk of
    orb's runs keeps a running sum: a run of a settled state is added once
    with its count as weight when rational, and count times in state order
    when float (exact.mat_add), so a float sum's bits are those of its
    repaired steps added in turn."""
    horizons = sorted(set(horizons))
    if not horizons or horizons[0] < 1 or horizons[-1] > orb.n_steps:
        raise ValueError("cesaro_average needs 1 <= N <= n_steps")
    if orb.sys.exact and orb.start.backend == exact.RATIONAL:
        _check(orb.sys, orb.start)
        c = orb.start.matrix
        for h in horizons:
            yield h, CouplingMatrix(exact.mat_div(_power_sum(orb, c, h), h))
        return
    runs = islice(orb.runs(), 1, None)
    total, summed, left = None, 0, 0  # states 1..summed are in total
    for h in horizons:
        while summed < h:
            if not left:
                state, left = next(runs)
            take = min(left, h - summed)
            m = state.matrix
            total = (exact.mat_add(m, m, take - 1) if total is None
                     else exact.mat_add(total, m, take))
            summed, left = summed + take, left - take
        yield h, CouplingMatrix(exact.mat_div(total, h))


def self_joining_residual(sys: FiniteSystem, c: CouplingMatrix):
    """L1 distance between C and its lens image; zero iff C is fixed."""
    return coupling_distance(lens_step(sys, c), c)


def markov_commutation_residual(sys: FiniteSystem, c: CouplingMatrix):
    """L1 norm of M Q - Q M for the Markov matrix M = k C^T of the coupling.

    Commutation with Q is the operator form of being a self-joining.  The
    transposes Q^T C and C Q^T of C^T Q and Q C^T are gathered, and the
    norm scaled by k.  For exact systems both relabel C's lines, and the
    residual is k self_joining_residual; for stochastic systems it is the
    sharper test, since the step-coupling lens spreads graph mass that the
    operator identity preserves.
    """
    _check(sys, c)
    if sys.exact:
        qtc = exact.relabel_lines(c.lines, sys.columns.idx[:, 0])
        ctq = exact.relabel_lines(c.lines, to=sys.columns.idx[:, 0])
        return coupling_distance(CouplingMatrix(qtc), CouplingMatrix(ctq)) * c.k
    m = c.matrix
    return exact.l1_norm(exact.gather(m, sys.columns), exact.gather(m, sys.rows, (1,))) * c.k


@dataclass(frozen=True, eq=False)
class FixedPointSpace:
    """Affine hull of {C in the polytope : lens(C) = C}.

    basis: direction matrices (zero marginals, lens-invariant), each in
        stored form (exact.stored): a Scaled, or a float64 array.  The
        product coupling is a strictly positive point of the hull.
    dimension: dimension of the affine hull, the number of directions.
    """

    basis: tuple[exact.Scaled | np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _pair_orbit_labels(perm: np.ndarray, k: int) -> np.ndarray:
    """Orbit of each flat (i, j) under (i, j) -> (perm[i], perm[j]).

    Orbits are numbered in order of their smallest flat index
    (exact.cycle_min).
    """
    step = (perm[:, None] * k + perm[None, :]).ravel()
    return np.unique(exact.cycle_min(step), return_inverse=True)[1]


def _cyclic_classes(sys: FiniteSystem) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic class of each cell, and step with Q^T 1_c = 1_{step[c]}.

    Q's support graph is a disjoint union of strongly connected components,
    as Q is doubly stochastic.  Lines that relabel make each cell a class.
    Otherwise a breadth-first search on Q's row lines from each component's
    first cell gives levels; its period is the gcd of level[u] + 1 -
    level[v] over its edges u -> v, and a cell's class is its level mod the
    period.
    """
    k, idx = sys.k, sys.rows.idx  # a repeated position is a repeated edge
    if sys.rows.relabels:
        return np.arange(k), idx[:, 0]
    src, dst = np.repeat(np.arange(k), idx.shape[1]), idx.ravel()
    level, comp, n_comp = np.full(k, -1), np.zeros(k, dtype=int), 0
    for start in range(k):
        if level[start] >= 0:
            continue
        frontier, depth = np.array([start]), 0
        while frontier.size:
            level[frontier], comp[frontier] = depth, n_comp
            reached = np.bincount(idx[frontier].ravel(), minlength=k) > 0
            frontier = np.flatnonzero(reached & (level < 0))
            depth += 1
        n_comp += 1
    period = np.zeros(n_comp, dtype=int)
    np.gcd.at(period, comp[src], level[src] + 1 - level[dst])
    end = np.cumsum(period)  # a component's classes are end - period .. end - 1
    step = np.arange(1, end[-1] + 1)
    step[end - 1] = end - period
    return end[comp] - period[comp] + level % period[comp], step


def _guard_cost(what: str, cost: int):
    if cost > FIXED_SPACE_BUDGET:
        raise SizeGuard(f"fixed_point_space {what}: {cost} > {FIXED_SPACE_BUDGET}")


def fixed_point_space(sys: FiniteSystem) -> FixedPointSpace:
    """Lens-fixed directions, solved on the cyclic classes of Q.

    By Perron-Frobenius the unimodular eigenvectors of Q^T are spanned by
    the class indicators, which Q^T permutes, so a fixed X of the
    contraction X -> Q^T X Q is constant on blocks of class pairs, equal on
    (c, d) and (step[c], step[d]).  Only the marginals remain: one row sum
    and one column sum per class.  Float bases are rounded exact ones.

    Those sums are the weighted incidence matrix of a bipartite graph.  Its
    vertices are the cycles of step (components) on the row side and on the
    column side, and each orbit of class pairs is an edge: an orbit between
    A and B, of g = gcd(|A|, |B|) such orbits (|.| counting classes), puts
    n_B / g in A's row sums and n_A / g in B's column sums (n counting
    cells).  So the reduced row echelon form pivots on the greedy spanning
    forest in orbit order, a double star: the first orbit between A0 (the
    component of class 0) and each B, and the first between each other A
    and B0.  The basis vector of a free orbit, 1 there and 0 at every other
    free orbit, lies on its fundamental cycle A, B, A0, B0, of at most four
    orbits, where x_e n_A n_B / g_e alternates in sign: the spanning-tree
    basis of the transportation problem (Dantzig 1951).
    """
    k, backend = sys.k, sys.backend
    cls, step = _cyclic_classes(sys)
    m = len(step)
    _guard_cost("class pairs", m * m)
    label = _pair_orbit_labels(step, m)
    n_orbits = int(label.max()) + 1
    # A component by its smallest class, so class 0 stands for A0 and B0.
    root = exact.cycle_min(step)
    roots = np.flatnonzero(root == np.arange(m))
    n_free = n_orbits - (2 * len(roots) - 1)
    _guard_cost("basis cells", n_free * k * k)
    if not n_free:
        return FixedPointSpace(basis=())
    classes, cells = np.bincount(root, minlength=m), np.bincount(root[cls], minlength=m)
    # The row and column components of each orbit, the same for each of its pairs.
    row, col = np.empty(n_orbits, dtype=int), np.empty(n_orbits, dtype=int)
    row[label], col[label] = np.repeat(root, m), np.tile(root, m)
    # The tree: orbit label[b] joins A0 to B, label[a m] joins A to B0.
    tree = np.zeros(n_orbits, dtype=bool)
    tree[label[roots]] = tree[label[roots * m]] = True
    free = np.flatnonzero(~tree)
    a, b = row[free], col[free]
    n0, gab = cells[0], np.gcd(classes[a], classes[b])
    cycle = np.stack([free, label[a * m], np.zeros_like(free), label[b]], axis=1)
    # Orbit e of the cycle, between A and B, takes +-g_e / (n_A n_B), times
    # n_a n_b n0^2 to make integers below 2^36.  Where a or b is 0, two tree
    # orbits are one and their terms cancel.
    weight = np.stack([gab * n0 * n0,
                       -np.gcd(classes[a], classes[0]) * n0 * cells[b],
                       classes[0] * cells[a] * cells[b],
                       -np.gcd(classes[0], classes[b]) * cells[a] * n0], axis=1)
    vec, at = np.zeros((n_free, n_orbits), dtype=np.int64), (np.arange(n_free)[:, None], cycle)
    np.add.at(vec, at, weight)
    summed = vec[at]  # a repeated orbit reads its one sum
    vec[at] = summed // np.gcd.reduce(summed, axis=1)[:, None]
    den = vec[np.arange(n_free), free].tolist()  # positive: x = 1 at the free orbit
    spread = np.take(vec, label[cls[:, None] * m + cls[None, :]], axis=1)  # C order
    return FixedPointSpace(basis=tuple(
        exact.stored(exact.from_scaled(num, d, backend)) for num, d in zip(spread, den)))


@dataclass(frozen=True)
class PeriodReport:
    """Least p with ||lens^p(C) - C|| <= tol, plus the residual table."""

    period: int | None
    residual_by_p: dict[int, Fraction | float] = field(compare=False)


def detect_period(sys: FiniteSystem, c: CouplingMatrix, maxp: int) -> PeriodReport:
    """Residuals of lens^p C against C for p = 1 .. maxp, one per run of the
    lens walk from C."""
    tol = exact.tolerance(c.backend, exact.SOLVER_TOL)
    values = []
    for state, count in islice(walk(partial(lens_step, sys), c, maxp, sys.exact), 1, None):
        values += [coupling_distance(state, c)] * count
    residuals: dict[int, Fraction | float] = dict(enumerate(values, 1))
    period = next((p for p, r in residuals.items() if r <= tol), None)
    return PeriodReport(period=period, residual_by_p=residuals)

