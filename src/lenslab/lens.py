"""Lens dynamics: the conjugation action of a system on its couplings.

One lens step sends C to Q^T C Q.  For an exact system with forward cell
map tau this relabels, C[i, j] -> C[tau^{-1}(i), tau^{-1}(j)], so graph
couplings transform by conjugation: graph(s) -> graph(tau o s o
tau^{-1}); the step relabels C's lines (exact.relabel_lines), k s work for
s nonzeros a line.  For stochastic Q it is the step-coupling evaluation of
rho(T^{-1}A_i x T^{-1}A_j), and is forward-only.  On the full shift
bern:d,L, whose rows show it (FiniteSystem.cylinder), Q^T averages the d
words that differ in their first symbol, so the step is the lens functor on
the cylinder factor maps: the held matrix of C has that symbol summed out
of each axis and a lift d times coarser (exact.fold_lines), lens^n C [j,
j'] = M_n[j // d^n, j' // d^n] / d^2n, in work that follows its lines, and
the walk shrinks to the product coupling, held as one entry, at step L.
Any other stochastic step gathers the dense matrix from Q's column lines
on both axes (exact.gather), k^2 s work for s nonzeros per column of Q,
and gives a dense coupling; a float orbit repairs only those steps
(LensOrbit).  Both backends take the same steps.

The one-sided map sends C to Q^T C, the rows only; on graph couplings it
composes: graph(s) -> graph(tau o s).  The one-sided orbit of the
diagonal coupling I/k is (Q^n)^T / k, so its largest distance to the
product is the mixing residual max |Q^n[i, j] - 1/k| / k.

A fine -> coarse indicator matrix P (k x m) pulls back the other way: the
restriction P^T (lens^n C) P of the n-step image is (Q^n P)^T C (Q^n P), so
a reading of a few block sums walks Q^n P (pull_back), and never builds the
k x k image.  The walk holds a row block R, Q^n P [w] = R[w mod len(R)]: on
bern:d,L R is P averaged over runs of d^n consecutive rows, d^(L-n) rows,
a step len(R) m work; elsewhere R is Q^n P, a step k s m work.

Orbits, pull-backs and powers are walks (walk): runs (state, count) that
end at the first step whose result is its input.  Every step is
deterministic, so the steps left would repeat that state; on a Bernoulli
shift bern:d,L, where Q^L = J/k, a walk settles by step L + 1.  A reader
takes one reading per run.

An exact system's lens is itself a relabeling, so lens^n C is C relabelled
by the n-th power of the cell map: cesaro_average reads an orbit's sums
off powers of it, by doubling, in O(log N) relabels a horizon instead of
N steps.  Any other rational sum is held at the finest lift of its terms.
"""

from __future__ import annotations

import math
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


def _gathers(sys: FiniteSystem) -> bool:
    """Whether a step on sys gathers the dense matrix, as it does on a
    system that neither relabels (exact) nor folds (cylinder)."""
    return not (sys.exact or sys.cylinder)


def _gathered(sys: FiniteSystem, c: CouplingMatrix, lines, inverse=None) -> CouplingMatrix:
    """C gathered on lines of the system along axis 0, and along axis 1
    too when the inverse lines are given: on an exact system a relabel of
    C's lines, k s work; on a cylinder shift a fold of the held matrix
    (_folded); otherwise the dense matrix gathered, which gives dense
    lines."""
    _check(sys, c)
    if _gathers(sys):
        return CouplingMatrix(exact.gather(c.matrix, lines, (0,) if inverse is None else (0, 1)))
    if sys.exact:
        return CouplingMatrix(exact.relabel_lines(
            c.lines_at(), lines.idx[:, 0], None if inverse is None else inverse.idx[:, 0]))
    return _folded(c, sys.cylinder, inverse is not None)


def _folded(c: CouplingMatrix, d: int, both: bool) -> CouplingMatrix:
    """Q^T C, and Q^T C Q when both, on the full shift bern:d,L: Q^T
    averages the d words that differ in their first symbol, so the held
    matrix H has that symbol summed out of each moved axis (exact.fold_lines)
    and its lift on the axis grows d times, lens^n C [j, j'] = M_n[j // d^n,
    j' // d^n] / d^2n for M_n the sum of C over the first n symbols.  Work
    follows H's lines.  An axis held at lift k is constant, and Q^T keeps
    it: with no axis left to fold, C is its own image."""
    rows, cols = c.lift[0] < c.k, both and c.lift[1] < c.k
    if not (rows or cols):
        return c
    return CouplingMatrix(exact.fold_lines(c.lines, d, rows, cols, c.width),
                          (c.lift[0] * d ** rows, c.lift[1] * d ** cols))


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


def _same(a, b) -> bool:
    """Whether two states of a walk are one stored form (exact.same): for
    couplings, the same lift and lines."""
    if isinstance(a, CouplingMatrix):
        return a.lift == b.lift and exact.same(a.lines, b.lines)
    return exact.same(a, b)


def walk(step, start, n_steps: int, relabels: bool):
    """The n_steps + 1 states start, step(start), ... as runs (state,
    count), each step taken when the run after it is asked for.

    The walk ends at the first step whose result is its input, the same
    stored form (exact.same): that state is yielded once, with the count of
    the steps left, which a deterministic step would each repeat.  relabels
    says that each step relabels, as an exact system's does: a relabeling
    is a bijection, so a walk it moves at its first step never settles, and
    it is compared after that step only."""
    if n_steps < 0:
        return
    yield start, 1
    state, compare = start, True
    for left in range(n_steps, 0, -1):
        new = step(state)
        if compare:
            if _same(new, state):
                yield new, left
                return
            compare = not relabels
        state = new
        yield state, 1


def pull_back(sys: FiniteSystem, p, n_steps: int):
    """The walk P, Q P, ..., Q^n_steps P of a stored form P with k rows, as
    runs (walk) of row blocks R read by period: Q^n P [w] = R[w mod len(R)].
    For P the indicator matrix of a map from cells to blocks, (Q^n P)^T C
    (Q^n P) is lens^n C summed over block pairs.

    On the full shift bern:d,L, Q's row w holds 1/d at (w mod d^(L-1)) d +
    c, so Q^n P [w] = R_n[w mod d^(L-n)] for R_n the mean of P over each run
    of d^n consecutive rows: a step averages R's runs of d rows (_pulled),
    len(R) m work for m columns, and from step L on R is one row, P's column
    means, which step L + 1 returns.  Elsewhere len(R) = k, and a step is
    one gather on Q's row lines (k s m work), a relabel on an exact
    system."""
    if p.shape[0] != sys.k:
        raise DimensionMismatch("system and pulled-back matrix sizes differ")
    return walk(partial(_pulled, sys), p, n_steps, sys.exact)


def _pulled(sys: FiniteSystem, r):
    """Q applied to the row block R of Q^n P, read by period, as the row
    block of Q^(n+1) P.  On a cylinder shift Q's rows v < len(R) / d hold
    1/d at v d + c, all within R: they average R's runs of d rows
    (exact.run_means), in the dense gather's order on floats.  A one-row R
    is constant, and Q keeps it."""
    d = sys.cylinder
    if not d:
        return exact.gather(r, sys.rows)
    return exact.run_means(r, d) if r.shape[0] > 1 else r


@dataclass(frozen=True, eq=False)
class LensOrbit:
    """orbit(system, c, n_steps, mode) as a walk: iterating yields states
    0..n_steps, states[n+1] = step(system, states[n]), each step taken when
    it is asked for and only the current state kept; runs() yields them as
    the runs of walk.  A float step that gathers the dense matrix (on a
    system that neither relabels nor folds) adds rounding that nothing
    bounds, so it is followed by drift repair, whose L1 size the walk
    appends to repair_residuals (emptied as each walk starts); a settled
    run repeats its step's residual for each step it stands for.  A
    relabel rounds nothing, and a fold rounds each entry of a walk that
    reaches the product within L steps, so those float steps are not
    repaired and log nothing."""

    sys: FiniteSystem
    start: CouplingMatrix
    n_steps: int
    mode: str
    repair_residuals: list[float] = field(default_factory=list)

    def runs(self):
        step = partial(lens_step if self.mode == "lens" else one_sided_step, self.sys)
        residuals = self.repair_residuals
        residuals.clear()
        if self.start.backend == exact.FLOAT and _gathers(self.sys):
            step = partial(_repaired, step, residuals)
        for state, count in walk(step, self.start, self.n_steps, self.sys.exact):
            # Each step a settled run stands for repeats its repair, if any.
            residuals.extend(residuals[-1:] * (count - 1))
            yield state, count

    def __iter__(self):
        for state, count in self.runs():
            yield from repeat(state, count)


def _repaired(step, residuals: list, c: CouplingMatrix) -> CouplingMatrix:
    """step(c) repaired onto the polytope, the repair's L1 size appended."""
    current = step(c).matrix
    fixed = repair_to_polytope(current)
    residuals.append(exact.l1_norm(fixed.matrix, current))
    return fixed


def orbit(sys: FiniteSystem, c: CouplingMatrix, n_steps: int,
          mode: str = "lens") -> LensOrbit:
    if mode not in ("lens", "one-sided"):
        raise ValueError("mode must be 'lens' or 'one-sided'")
    return LensOrbit(sys, c, n_steps, mode)


def _power_sum(orb: LensOrbit, c, n: int):
    """states[1] + ... + states[n] of an exact system's orbit from
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

    On an exact system lens^n C is C relabelled by the n-th power of the
    cell map, and each sum is read off powers of it (_power_sum): O(log N)
    relabels and adds a horizon.  mat_div reduces, so a rational average
    is the Scaled a running sum gives; a float one adds the same terms in
    the doubling's order.  Otherwise one walk of orb's runs keeps a running
    sum: a run of a settled state is added once with its count as weight
    when rational, and count times in state order when float
    (exact.mat_add)."""
    horizons = sorted(set(horizons))
    if not horizons or horizons[0] < 1 or horizons[-1] > orb.n_steps:
        raise ValueError("cesaro_average needs 1 <= N <= n_steps")
    if orb.sys.exact:
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
            total = _accumulated(total, state, take)
            summed, left = summed + take, left - take
        lines = total.lines
        yield h, CouplingMatrix(exact.Support(lines.idx, exact.mat_div(lines.val, h)),
                                total.lift)


def _accumulated(total: CouplingMatrix | None, state: CouplingMatrix, take: int):
    """total + take state, held as a CouplingMatrix (total None: zero).
    Floats add the matrix take times in turn (exact.mat_add).  A rational
    sum is held at the finest lift of its terms, each term lifted to it and
    added on lines (exact.add_lines)."""
    if state.backend == exact.FLOAT:
        m = state.matrix
        return CouplingMatrix(exact.freeze(exact.mat_add(m, m, take - 1) if total is None
                                           else exact.mat_add(total.matrix, m, take)))
    lift = state.lift if total is None else (math.gcd(total.lift[0], state.lift[0]),
                                             math.gcd(total.lift[1], state.lift[1]))
    held = None if total is None else total.lines_at(lift)
    return CouplingMatrix(exact.add_lines(held, state.lines_at(lift), state.k // lift[1], take),
                          lift)


def self_joining_residual(sys: FiniteSystem, c: CouplingMatrix):
    """L1 distance between C and its lens image; zero iff C is fixed."""
    return coupling_distance(lens_step(sys, c), c)


def markov_commutation_residual(sys: FiniteSystem, c: CouplingMatrix):
    """L1 norm of M Q - Q M for the Markov matrix M = k C^T of the coupling.

    Commutation with Q is the operator form of being a self-joining.  The
    transposes Q^T C and C Q^T of C^T Q and Q C^T are compared, and the
    norm scaled by k.  For exact systems both relabel C's lines, and the
    residual is k self_joining_residual; for stochastic systems it is the
    sharper test, since the step-coupling lens spreads graph mass that the
    operator identity preserves.

    On a cylinder shift bern:d,L, Q^T C is C's rows summed over their first
    symbol (the one-sided step's fold, held at a d times coarser row lift),
    row j reading H[j // d] / d, and C Q^T = (Q C^T)^T averages C's columns
    over their last symbol, column j reading the average at j mod k/d
    (exact.average_runs).  A rational C held on narrow lines compares the
    two on lines (exact.l1_lines), in work that follows C's lines times d,
    and no k x k array is built.  Dense C (a lifted C spreads its lines to
    dense ones when H is dense), floats and other stochastic systems
    gather both products densely from Q's lines, k^2 s work: on dense lines
    the merge costs a log factor more than the gathers.
    """
    _check(sys, c)
    if sys.exact:
        lines = c.lines_at()
        qtc = exact.relabel_lines(lines, sys.columns.idx[:, 0])
        ctq = exact.relabel_lines(lines, to=sys.columns.idx[:, 0])
        return coupling_distance(CouplingMatrix(qtc), CouplingMatrix(ctq)) * c.k
    if sys.cylinder and c.sparse:
        qtc = one_sided_step(sys, c)
        ctq = exact.average_runs(c.lines_at(), sys.cylinder, c.k)
        return exact.l1_lines(qtc.lines, ctq, c.k, qtc.lift) * c.k
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

