"""Transportation-polytope couplings: constructors, maps, repair."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslab import (
    CouplingMatrix,
    DimensionMismatch,
    NeighborhoodSpec,
    NotRepairable,
    coupling_distance,
    detect_period,
    graph_coupling,
    graph_permutation,
    in_neighborhood,
    lens_step_inverse,
    lift_coupling,
    markov_commutation_residual,
    one_sided_step,
    parse_system_spec,
    product_coupling,
    product_distance,
    random_coupling,
    repair_to_polytope,
    restrict_coupling,
    system_from_matrix,
    validate_coupling,
)
from lenslab import exact
from lenslab.lens import cesaro_average, lens_step, orbit
from test_lens import zoo_specs


def test_product_and_graph_are_couplings():
    assert not validate_coupling(product_coupling(5))
    assert not validate_coupling(graph_coupling(np.array([2, 0, 1])))
    assert not validate_coupling(product_coupling(5, backend=exact.FLOAT))


def test_graph_coupling_orientation():
    # mass 1/k at (sigma(j), j): first index is the destination cell
    c = graph_coupling(np.array([1, 2, 0]))
    assert c.C[1, 0] == Fraction(1, 3)
    assert c.C[2, 1] == Fraction(1, 3)
    assert c.C[0, 2] == Fraction(1, 3)
    assert c.C[0, 0] == 0


def test_lift_then_restrict_is_identity():
    parent = np.arange(6) // 2
    rng = np.random.default_rng(2)
    c = random_coupling(3, rng)
    lifted = lift_coupling(c, parent)
    assert not validate_coupling(lifted)
    back = restrict_coupling(lifted, parent)
    assert coupling_distance(back, c) == 0


def test_restrict_preserves_polytope():
    parent = np.arange(6) // 3
    rng = np.random.default_rng(4)
    fine = random_coupling(6, rng)
    coarse_c = restrict_coupling(fine, parent)
    assert not validate_coupling(coarse_c)


@pytest.mark.parametrize("fine_k, coarse_k, parent", [
    (4, 2, [0, 0, 0, 1]),
    (4, 2, [0, 0, 2, 2]),
    (4, 2, [0, 0, 1]),
    (5, 2, [0, 0, 1, 1, 1]),
], ids=["uneven", "childless-coarse-cell", "uncovered-fine-cell", "not-a-multiple"])
def test_parent_maps_with_uneven_fibres_are_rejected(fine_k, coarse_k, parent):
    with pytest.raises(DimensionMismatch):
        lift_coupling(product_coupling(coarse_k), parent)
    with pytest.raises(DimensionMismatch):
        restrict_coupling(product_coupling(fine_k), parent)


def test_neighborhood_permutation_diagonal():
    sigma = np.array([2, 0, 1])
    spec = NeighborhoodSpec(kind="permutation-diagonal",
                            epsilon=Fraction(1, 100), eta=sigma)
    assert in_neighborhood(graph_coupling(sigma), spec)
    assert not in_neighborhood(product_coupling(3), spec)
    # small perturbation toward product stays inside a wide neighborhood
    wide = NeighborhoodSpec(kind="permutation-diagonal",
                            epsilon=Fraction(1, 2), eta=sigma)
    mix = np.asarray(graph_coupling(sigma).C) * Fraction(9, 10) \
        + np.asarray(product_coupling(3).C) * Fraction(1, 10)
    assert in_neighborhood(CouplingMatrix(mix), wide)


def test_entrywise_neighborhood():
    spec = NeighborhoodSpec(kind="entrywise", epsilon=Fraction(1, 1000),
                            target=product_coupling(4).C)
    assert in_neighborhood(product_coupling(4), spec)
    assert not in_neighborhood(graph_coupling(np.arange(4)), spec)


def test_repair_rational_passthrough():
    c = product_coupling(3)
    assert repair_to_polytope(c.matrix).matrix is c.matrix
    bad = exact.frac_array([[Fraction(1, 2), Fraction(1, 2)], [0, 0]])
    with pytest.raises(NotRepairable):
        repair_to_polytope(bad)


def test_repair_float_passthrough():
    """A float matrix whose marginals meet REPAIR_TARGET already, with no
    negative entry, is returned as it is: no Sinkhorn round moves its bits."""
    c = random_coupling(4, np.random.default_rng(11), backend=exact.FLOAT)
    m = c.matrix
    assert repair_to_polytope(m).matrix is m


def test_repair_float_drift():
    rng = np.random.default_rng(11)
    c = random_coupling(4, rng, backend=exact.FLOAT)
    drift = np.asarray(c.C) + rng.normal(scale=1e-10, size=(4, 4))
    fixed = repair_to_polytope(drift)
    sums_dev = max(abs(fixed.C.sum(axis=0) - 0.25).max(),
                   abs(fixed.C.sum(axis=1) - 0.25).max())
    assert sums_dev < 1e-13
    assert fixed.C.min() >= 0


def test_repair_float_rejects_gross_violation():
    bad = np.zeros((3, 3))
    bad[0, 0] = 1.0
    with pytest.raises(NotRepairable):
        repair_to_polytope(bad)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_coupling_always_valid(seed):
    rng = np.random.default_rng(seed)
    c = random_coupling(5, rng)
    assert not validate_coupling(c)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=10**6))
def test_distance_is_a_metric_sample(k, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_coupling(k, rng) for _ in range(3))
    dab = coupling_distance(a, b)
    assert dab >= 0
    assert dab == coupling_distance(b, a)
    assert dab <= coupling_distance(a, c) + coupling_distance(c, b)
    assert coupling_distance(a, a) == 0


#
# Vectorised kernels against per-entry Fraction oracles.
#

def oracle_diagnostics(m, target):
    k = m.shape[0]
    out = [f"row_sum({i})" for i in range(k) if sum(m[i, :]) != target]
    out += [f"col_sum({j})" for j in range(k) if sum(m[:, j]) != target]
    out += [f"negative_entry({i},{j})" for i in range(k) for j in range(k)
            if m[i, j] < 0]
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=3))
def test_validate_coupling_and_system_match_oracle(k, seed, dents):
    rng = np.random.default_rng(seed)
    c = random_coupling(k, rng)
    m = np.array(c.C)
    for _ in range(dents):  # move mass around, sometimes below zero
        i, j, i2, j2 = (int(x) for x in rng.integers(0, k, 4))
        shift = Fraction(int(rng.integers(1, 4)), 2 * k * k)
        m[i, j] -= shift
        m[i2, j2] += shift
    assert validate_coupling(CouplingMatrix(m)) == oracle_diagnostics(m, Fraction(1, k))
    q = m * k
    defects = exact.marginal_defects(system_from_matrix(q).matrix, 1, exact.FLOAT_TOL)
    assert defects == oracle_diagnostics(q, 1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10**6))
def test_distance_neighborhood_and_random_coupling_match_oracle(k, seed):
    rng = np.random.default_rng(seed)
    a, b = random_coupling(k, rng), random_coupling(k, rng)
    diffs = [x - y for x, y in zip(a.C.ravel(), b.C.ravel())]
    assert coupling_distance(a, b) == sum(abs(d) for d in diffs)
    worst = max(abs(d) for d in diffs)
    wide = NeighborhoodSpec(kind="entrywise", epsilon=worst + Fraction(1, 10**9),
                            target=b.C)
    assert in_neighborhood(a, wide)
    if worst > 0:
        tight = NeighborhoodSpec(kind="entrywise", epsilon=worst, target=b.C)
        assert not in_neighborhood(a, tight)
    # Same draws as random_coupling, Fractions built one entry at a time.
    rng = np.random.default_rng(seed)
    weights = [int(w) for w in rng.integers(1, 20, size=6)]
    numerators = np.zeros((k, k), dtype=np.int64)
    for w in weights:
        numerators[rng.permutation(k), np.arange(k)] += w
    c = random_coupling(k, np.random.default_rng(seed))
    for (i, j), n in np.ndenumerate(numerators):
        assert c.C[i, j] == Fraction(int(n), sum(weights) * k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(zoo_specs(), st.sampled_from([exact.RATIONAL, exact.FLOAT]),
       st.integers(min_value=0, max_value=10**6),
       st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
def test_cesaro_average_matches_oracle(spec, backend, seed, horizons):
    sys = parse_system_spec(spec, backend)
    c = random_coupling(sys.k, np.random.default_rng(seed), backend=backend)
    states, state = [], c  # the oracle steps on its own; no zoo step is repaired
    for _ in range(max(horizons)):
        state = lens_step(sys, state)
        states.append(state.C)
    averages = dict(cesaro_average(orbit(sys, c, max(horizons)), horizons))
    assert sorted(averages) == sorted(set(horizons))
    for n, avg in averages.items():
        total = states[0]  # summed in state order, then divided by N
        for s in states[1:n]:
            total = total + s
        expected = total / n
        if backend == exact.FLOAT and sys.exact:  # summed by doubling (_power_sum)
            assert np.abs(avg.C - expected).max() <= exact.FLOAT_TOL
        elif backend == exact.FLOAT:
            assert avg.C.tobytes() == expected.tobytes()
        else:
            assert np.array_equal(avg.C, expected)
        assert not validate_coupling(avg)


def _restrict_oracle(fine, parent, kc):
    """Block sums taken one coarse cell pair at a time."""
    out = exact.entries(exact.constant((kc, kc), 0, fine.backend)).copy()
    for a in range(kc):
        for b in range(kc):
            out[a, b] = fine.C[np.ix_(np.flatnonzero(parent == a),
                                      np.flatnonzero(parent == b))].sum()
    return out


@pytest.mark.parametrize("kc, r, seed", [(1, 3, 0), (2, 3, 1), (3, 4, 2), (4, 4, 3)])
def test_restrict_coupling_matches_block_sum_oracle(kc, r, seed):
    rng = np.random.default_rng(seed)
    parent = rng.permutation(np.arange(kc * r) // r)  # children need not be consecutive
    for fine in (random_coupling(kc * r, rng), graph_coupling(rng.permutation(kc * r))):
        coarse = restrict_coupling(fine, parent)
        assert np.array_equal(coarse.C, _restrict_oracle(fine, parent, kc))
        assert not validate_coupling(coarse)
    fine = random_coupling(kc * r, rng, backend=exact.FLOAT)
    assert np.allclose(restrict_coupling(fine, parent).C, _restrict_oracle(fine, parent, kc),
                       rtol=0, atol=exact.FLOAT_TOL)


@pytest.mark.parametrize("backend", [exact.RATIONAL, exact.FLOAT])
def test_permutation_diagonal_neighborhood_is_strict_on_both_backends(backend):
    sigma = np.array([2, 0, 1, 3])
    c = graph_coupling(sigma, backend)
    shifted = np.array(c.C)
    shifted[2, 0] -= exact.scalar(Fraction(1, 8), backend)  # diagonal entry 1/8 below 1/4
    shifted[2, 1] += exact.scalar(Fraction(1, 8), backend)
    c2 = CouplingMatrix(shifted)
    for eps, inside in ((Fraction(1, 8), False), (Fraction(1, 8) + Fraction(1, 10**9), True)):
        spec = NeighborhoodSpec(kind="permutation-diagonal", epsilon=eps, eta=sigma)
        assert in_neighborhood(c2, spec) is inside
        assert in_neighborhood(c, spec) is True


@pytest.mark.parametrize("build, message", [
    (lambda: graph_coupling([1.5, 0]), "sigma must have integer entries"),
    (lambda: product_coupling(0), "k must be positive"),
    (lambda: graph_coupling([]), "k must be positive"),
    (lambda: graph_coupling([0, -1]), "sigma must be a permutation"),
    (lambda: graph_coupling([0, 2]), "sigma must be a permutation"),
    (lambda: graph_coupling([1, 1]), "sigma must be a permutation"),
    (lambda: random_coupling(-1, np.random.default_rng(0)), "k must be positive"),
    (lambda: in_neighborhood(graph_coupling([1, 0]), NeighborhoodSpec(
        kind="permutation-diagonal", epsilon=Fraction(1, 10), eta=[0, 5])),
     "eta must be a permutation"),
    (lambda: in_neighborhood(graph_coupling([1, 0]), NeighborhoodSpec(
        kind="permutation-diagonal", epsilon=Fraction(1, 10), eta=[0, 0])),
     "eta must be a permutation"),
], ids=["fractional-map", "product-k0", "empty-graph", "sigma-negative", "sigma-off-the-cells",
        "sigma-repeating-a-cell", "random-negative-k",
        "eta-off-the-cells", "eta-repeating-a-cell"])
def test_coupling_constructors_refuse_what_is_no_coupling(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_graph_permutation_inverts_graph_coupling():
    sigma = np.array([3, 0, 4, 1, 2])
    for backend in (exact.RATIONAL, exact.FLOAT):
        assert list(graph_permutation(graph_coupling(sigma, backend))) == list(sigma)
        assert graph_permutation(product_coupling(5, backend)) is None
        assert graph_permutation(random_coupling(5, np.random.default_rng(1), backend)) is None


def test_graph_and_random_couplings_are_lines_not_arrays():
    """A graph coupling holds one value a line and a random one at most
    six; a dense matrix is the line set of width k, its stored form."""
    rng = np.random.default_rng(7)
    assert graph_coupling(rng.permutation(4096)).lines.idx.shape == (4096, 1)
    assert random_coupling(4096, rng).lines.idx.shape[1] <= 6
    product = product_coupling(3)
    assert exact.is_dense(product.lines) and product.matrix is product.lines.val


#
# Couplings as lines: every line kernel against the dense oracle, today's
# code on the matrix.
#

def _canonical(c):
    """Lines of width k are the dense lines; narrower ones ascend, with the
    repeats of a shorter line last and zero."""
    idx, val = c.lines.idx, c.lines.val
    if idx.shape[1] == c.k:
        return exact.is_dense(c.lines)
    num = val.num if isinstance(val, exact.Scaled) else val
    step = np.diff(idx, axis=1)
    repeat = step == 0
    return bool((idx >= 0).all() and (step >= 0).all() and (num[:, 1:][repeat] == 0).all()
                and (np.diff(repeat.astype(int), axis=1) >= 0).all())


def _dented(c, rng):
    """c's lines with mass moved between two positions of one line, which
    breaks two column sums and may leave a negative entry, or, on a line
    with one position, with that value raised, which breaks its row too.
    The lift stays: a held line stands for lift[0] rows."""
    idx, val = c.lines.idx, c.lines.val
    rational = isinstance(val, exact.Scaled)
    num = np.array(val.num if rational else val)
    i = int(rng.integers(len(idx)))
    own = np.flatnonzero(np.r_[True, idx[i, 1:] != idx[i, :-1]])
    t, u = rng.choice(own, 2) if len(own) > 1 else (own[0], None)
    shift = int(rng.integers(1, 4)) if rational else rng.integers(1, 4) / (2 * c.k * c.k)
    num[i, t] -= shift
    if u is not None:
        num[i, u] += shift
    val = exact.from_scaled(num, val.den) if rational else exact.freeze(num)
    return CouplingMatrix(exact.Support(idx, val), c.lift)


def _period_oracle(sys, c, maxp):
    """detect_period by dense lens steps, one residual per step."""
    m, state, residuals = c.matrix, c.matrix, {}
    for p in range(1, maxp + 1):
        state = exact.gather(state, sys.columns, (0, 1))
        residuals[p] = exact.l1_norm(state, m)
    tol = exact.tolerance(c.backend, exact.SOLVER_TOL)
    return next((p for p, r in residuals.items() if r <= tol), None), residuals


@settings(max_examples=50, deadline=None, derandomize=True)
@given(zoo_specs(), st.integers(0, 2**32 - 1))
def test_line_kernels_match_the_dense_oracle(spec, seed):
    """Graph, random, product and Cesaro couplings, and their images: the
    lens steps relabel lines into canonical lines of the oracle's matrix;
    distances, the distance to the product, validation (also of lines with
    broken marginals and negative entries), same, w^T C w, the commutation
    residual and detect_period agree with the oracle on the matrix, exactly
    on rationals and bit for bit on floats (the distance to the product,
    which floats add on the lines, within FLOAT_TOL; w^T C w, which floats
    read off the matrix, on rationals only)."""
    for backend in (exact.RATIONAL, exact.FLOAT):
        sys = parse_system_spec(spec, backend)
        k, rng = sys.k, np.random.default_rng(seed)
        start = random_coupling(k, rng, backend=backend)
        couplings = [graph_coupling(rng.permutation(k), backend), start,
                     product_coupling(k, backend),
                     dict(cesaro_average(orbit(sys, start, 3), [3]))[3]]
        images = []
        for c in couplings:
            assert _canonical(c)
            m = c.matrix
            steps = [(lens_step(sys, c), exact.gather(m, sys.columns, (0, 1))),
                     (one_sided_step(sys, c), exact.gather(m, sys.columns))]
            if sys.exact:
                steps.append((lens_step_inverse(sys, c), exact.gather(m, sys.rows, (0, 1))))
                assert exact.same(lens_step_inverse(sys, steps[0][0]).lines, c.lines)
            for got, want in steps:
                assert _canonical(got) and exact.same(got.matrix, want)
                if got.lines.idx.shape == c.lines.idx.shape:
                    assert exact.same(got.lines, c.lines) == exact.same(want, m)
                images.append(got)
            mass = exact.scalar(Fraction(1, k * k), backend)
            l1 = product_distance(c) - exact.l1_norm(m, mass)  # floats add the lines
            assert l1 == 0 if backend == exact.RATIONAL else abs(l1) <= exact.FLOAT_TOL
            if backend == exact.RATIONAL:
                w = exact.from_scaled(rng.integers(0, 3, k), 1)
                assert exact.quadratic_form(w, c.lines_at()) == exact.quadratic_form(w, m)
            oracle = exact.l1_norm(exact.gather(m, sys.columns),
                                   exact.gather(m, sys.rows, (1,))) * k
            assert markov_commutation_residual(sys, c) == oracle
            report = detect_period(sys, c, 5)
            assert (report.period, report.residual_by_p) == _period_oracle(sys, c, 5)
        for c in couplings + images + [_dented(c, rng) for c in couplings]:
            assert validate_coupling(c) == exact.marginal_defects(
                c.matrix, Fraction(1, k), exact.FLOAT_TOL)
        for a in couplings + images:
            for b in couplings:
                assert coupling_distance(a, b) == exact.l1_norm(a.matrix, b.matrix)
