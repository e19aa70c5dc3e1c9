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
    graph_coupling,
    in_neighborhood,
    lift_coupling,
    parse_system_spec,
    product_coupling,
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
    states, state = [], c  # the oracle steps on its own
    for _ in range(max(horizons)):
        state = lens_step(sys, state)
        if backend == exact.FLOAT:
            state = repair_to_polytope(state.matrix)
        states.append(state.C)
    averages = dict(cesaro_average(orbit(sys, c, max(horizons)), horizons))
    assert sorted(averages) == sorted(set(horizons))
    for n, avg in averages.items():
        total = states[0]  # summed in state order, then divided by N
        for s in states[1:n]:
            total = total + s
        expected = total / n
        if backend == exact.FLOAT:
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
