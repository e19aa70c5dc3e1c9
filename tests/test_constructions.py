"""Constructive machinery: rational targets, IET realization, probes,
witnesses, entropy blocks, and commuting permutations."""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslab import (
    BadBlocks,
    BlockTarget,
    CouplingMatrix,
    DimensionMismatch,
    IETSpec,
    InfeasibleTarget,
    RationalTarget,
    ResolutionGuard,
    SizeGuard,
    bernoulli_cyclic_commuter,
    bernoulli_system,
    consecutive_blocks,
    density_gap,
    detect_period,
    entropy_factor_F,
    graph_coupling,
    iet_system,
    lens_iterate,
    markov_commutation_residual,
    odometer_commuter,
    odometer_system,
    parse_system_spec,
    product_coupling,
    random_coupling,
    random_rational_target,
    realize_coupling_as_iet,
    realize_entropy_block,
    restrict_coupling,
    rigidity_probe,
    rigidity_sweep,
    rotation_system,
    system_from_permutation,
    transitivity_witness,
    validate_coupling,
)
from lenslab import constructions, exact
from lenslab.lens import pull_back


#
# Rational targets.
#

def test_rational_target_accepts_valid_matrix():
    m = np.array([[2, 1], [1, 2]])
    t = RationalTarget(L=6, m=m)
    c = t.coupling()
    assert c.C[0, 0] == Fraction(1, 3)
    assert c.C[0, 1] == Fraction(1, 6)
    assert not validate_coupling(c)
    cf = t.coupling(backend=exact.FLOAT)
    assert cf.C.dtype == float
    assert cf.C[0, 0] == pytest.approx(1 / 3)


def test_rational_target_rejects_bad_inputs():
    good = np.array([[2, 1], [1, 2]])
    with pytest.raises(InfeasibleTarget):
        RationalTarget(L=5, m=good)          # k does not divide L
    with pytest.raises(InfeasibleTarget):
        RationalTarget(L=6, m=np.zeros((2, 3), dtype=int))
    with pytest.raises(InfeasibleTarget):
        RationalTarget(L=6, m=np.zeros((0, 0), dtype=int))
    with pytest.raises(InfeasibleTarget):
        RationalTarget(L=6, m=np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(InfeasibleTarget):
        RationalTarget(L=6, m=np.array([[4, -1], [-1, 4]]))
    with pytest.raises(InfeasibleTarget):
        RationalTarget(L=6, m=np.array([[3, 1], [1, 2]]))  # bad sums


def test_random_rational_targets_are_always_valid():
    rng = np.random.default_rng(11)
    for k in (2, 3, 4, 5):
        for mult in (1, 2, 5):
            t = random_rational_target(k, k * mult, rng)
            assert not validate_coupling(t.coupling())
    with pytest.raises(InfeasibleTarget):
        random_rational_target(3, 10, rng)


@pytest.mark.parametrize("k, L", [(1, 1), (1, 7), (3, 9), (5, 40), (8, 256), (64, 64)])
def test_random_rational_target_draws_as_one_permutation_at_a_time(k, L):
    """The L/k permutations drawn in one call are the ones drawn one at a
    time, and leave the generator where those draws leave it."""
    for seed in range(5):
        rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        m = np.zeros((k, k), dtype=int)
        for _ in range(L // k):
            m[loop.permutation(k), np.arange(k)] += 1
        assert np.array_equal(random_rational_target(k, L, rng).m, m)
        assert rng.integers(2**62) == loop.integers(2**62)


#
# Interval-exchange realization.
#

def induced_counts(spec, k, L):
    """Independent oracle: count subintervals of each source cell landing
    in each destination cell."""
    counts = np.zeros((k, k), dtype=int)
    for u, image in enumerate(spec.permutation):
        counts[image // L, u // L] += 1
    return counts


def test_iet_realizes_frozen_target_exactly():
    t = RationalTarget(L=4, m=np.array([[1, 1], [1, 1]]))
    spec = realize_coupling_as_iet(t)
    assert spec.n_intervals == 8
    assert induced_counts(spec, 2, 4).tolist() == (2 * t.m).tolist()
    # the realized permutation really is an exact system
    sys = iet_system(spec)
    assert sys.exact


def test_iet_realizes_random_targets_exactly():
    rng = np.random.default_rng(23)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        L = k * int(rng.integers(1, 7))
        t = random_rational_target(k, L, rng)
        spec = realize_coupling_as_iet(t)
        counts = induced_counts(spec, k, L)
        assert np.array_equal(counts, k * np.asarray(t.m))
        induced = np.empty((k, k), dtype=object)
        for i in range(k):
            for j in range(k):
                induced[i, j] = Fraction(int(counts[i, j]), k * L)
        assert np.array_equal(induced, t.coupling().C)


def test_iet_realization_respects_size_guard():
    quota = 4096
    t = RationalTarget(L=2 * quota, m=np.diag([quota, quota]).astype(int))
    with pytest.raises(SizeGuard):
        realize_coupling_as_iet(t)


#
# Density of rational couplings.
#

def test_density_gap_recovers_denominator_L_couplings():
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = random_rational_target(3, 12, rng)
        target, dist = density_gap(t.coupling(), 12)
        assert dist == 0
        assert np.array_equal(target.m, t.m)


def test_density_gap_is_bounded_by_k_squared_over_L():
    rng = np.random.default_rng(37)
    for k in (2, 3, 4):
        c = random_coupling(k, rng)
        for L in (k, 10 * k, 100 * k):
            target, dist = density_gap(c, L)
            assert not validate_coupling(target.coupling())
            assert dist <= Fraction(k * k, L)


def test_density_gap_shrinks_with_L():
    rng = np.random.default_rng(41)
    c = random_coupling(3, rng)
    dists = [density_gap(c, L)[1] for L in (3, 30, 300, 3000)]
    assert dists[-1] <= dists[0]
    assert dists[-1] <= Fraction(9, 3000)


def test_density_gap_rejects_incompatible_denominator():
    rng = np.random.default_rng(43)
    with pytest.raises(InfeasibleTarget):
        density_gap(random_coupling(3, rng), 10)


#
# Rigidity probes.
#

def test_consecutive_blocks_layout():
    assert consecutive_blocks([1, 3, 4]) == [[0], [1, 2, 3], [4, 5, 6, 7]]


def test_rigidity_probe_rejects_bad_blocks():
    sys = rotation_system(6, 1)
    with pytest.raises(BadBlocks):
        rigidity_probe(sys, [[0, 1, 2], [3, 4, 5]], 1)   # equal sizes
    with pytest.raises(BadBlocks):
        rigidity_probe(sys, [[0], [1, 2]], 1)            # not a partition


def test_rigidity_probe_rotation_returns_exactly_at_period():
    sys = rotation_system(8, 1)
    blocks = consecutive_blocks([1, 3, 4])
    assert rigidity_probe(sys, blocks, 0) == 1
    assert rigidity_probe(sys, blocks, 1) == Fraction(31, 48)
    assert rigidity_probe(sys, blocks, 8) == 1
    assert rigidity_probe(sys, blocks, 4) < 1


def brute_force_block_score(sys_float, blocks, n):
    """Independent float oracle: dense conjugation, then block-square mass."""
    k = sys_float.k
    xi = np.zeros((k, k))
    for b in blocks:
        xi[np.ix_(b, b)] = 1.0 / (k * len(b))
    q = np.asarray(sys_float.Q, dtype=float)
    for _ in range(n):
        xi = q.T @ xi @ q
    return sum(xi[np.ix_(b, b)].sum() for b in blocks)


def _oracle_rigidity_probe(sys, blocks, n):
    """The score built from scratch for one n: the probe, its n-step image
    by lens_iterate, then each block square's mass on its own."""
    k = sys.k
    den = k * math.lcm(*(len(b) for b in blocks))
    xi = exact.numerators((k, k), den)
    for b in blocks:
        xi[np.ix_(b, b)] = den // (k * len(b))
    probe = CouplingMatrix(exact.from_scaled(xi, den, sys.backend))
    image = lens_iterate(sys, probe, n).matrix
    return sum((exact.l1_norm(exact.select(image, np.ix_(b, b))) for b in blocks),
               exact.scalar(0, sys.backend))


def _sweep_system(family, size, seed, backend):
    rng = np.random.default_rng(seed)
    if family == "rot":
        return rotation_system(size + 2, int(rng.integers(size + 2)), backend)
    if family == "odo":
        return odometer_system(size % 5 + 1, backend)
    if family == "iet":
        return iet_system(IETSpec(permutation=tuple(rng.permutation(size + 2).tolist())),
                          backend)
    d = 2 + size % 3
    return bernoulli_system(d, 1 + (size // 3) % {2: 6, 3: 3, 4: 3}[d], backend)


def _distinct_sizes(k, rng):
    """Distinct block sizes summing to k: 1, 2, ... while they fit, then
    the rest added to the last block, in a shuffled order."""
    sizes, s = [], 1
    while sum(sizes) + s <= k and rng.random() < 0.7:
        sizes.append(s)
        s += 1
    if sum(sizes) < k:
        if sizes:
            sizes[-1] += k - sum(sizes)
        else:
            sizes = [k]
    rng.shuffle(sizes)
    return sizes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["rot", "odo", "iet", "bern"]), st.integers(0, 30),
       st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["rational", "float"]),
       st.integers(0, 9))
def test_rigidity_sweep_matches_the_per_step_oracle(family, size, seed, scattered,
                                                   backend, n_max):
    sys = _sweep_system(family, size, seed, backend)
    rng = np.random.default_rng(seed + 1)
    sizes = _distinct_sizes(sys.k, rng)
    cells = rng.permutation(sys.k) if scattered else np.arange(sys.k)
    bounds = np.cumsum(sizes)[:-1]
    blocks = [part.tolist() for part in np.split(cells, bounds)]
    expected = [_oracle_rigidity_probe(sys, blocks, n) for n in range(n_max + 1)]
    swept = rigidity_sweep(sys, blocks, n_max)
    probed = [rigidity_probe(sys, blocks, n) for n in range(n_max + 1)]
    if backend == exact.RATIONAL:
        # Fractions in lowest terms: equal exactly when their numerators
        # and denominators are.
        assert swept == probed == expected
        assert all(type(x) is Fraction for x in swept)
    else:
        for got in (swept, probed):
            assert len(got) == len(expected)
            assert all(abs(g - e) <= exact.FLOAT_TOL for g, e in zip(got, expected))
            assert all(type(x) is float for x in got)


@pytest.mark.parametrize("spec, sizes, n_max", [
    ("bern:d=2,L=3", [1, 3, 4], 12), ("bern:d=3,L=2", [2, 1, 6], 8), ("rot:k=7,s=3", [4, 1, 2], 12),
])
@pytest.mark.parametrize("backend", [exact.RATIONAL, exact.FLOAT])
def test_rigidity_sweep_past_the_settling_step_matches_the_per_step_readings(
        spec, sizes, n_max, backend):
    """On bern:d,L the pull-back walk ends at step L + 1, where Q^L B = J B / k
    comes back, and the sweep repeats that score up to n = 4L: on rationals
    each equals rigidity_probe; on floats each is, to the last bit, the
    reading of a stepwise gather loop, one gather and one score per n."""
    sys = parse_system_spec(spec, backend)
    blocks = consecutive_blocks(sizes)
    swept = rigidity_sweep(sys, blocks, n_max)
    assert len(swept) == n_max + 1
    if backend == exact.RATIONAL:
        assert swept == [rigidity_probe(sys, blocks, n) for n in range(n_max + 1)]
        return
    assert [x.hex() for x in swept] == [x.hex() for x in _stepwise_scores(sys, blocks, n_max)]


def _stepwise_scores(sys, blocks, n_max):
    """The per-n formula over a stepwise gather loop: one gather of the
    block indicator B on Q's row lines and one score of B^T Q^n B per n."""
    indicator = np.zeros((sys.k, len(blocks)), dtype=np.int64)
    for i, cells in enumerate(blocks):
        indicator[cells, i] = 1
    w = exact.from_scaled(indicator, 1, sys.backend)
    bt, scores = w.T, []
    for _ in range(n_max + 1):
        scores.append(exact.weighted_squares(exact.mat_mul(bt, w), [sys.k * len(b) for b in blocks]))
        w = exact.gather(w, sys.rows)
    return scores


@pytest.mark.parametrize("chunk", [1, 7, 40, constructions.SWEEP_CHUNK])
@pytest.mark.parametrize("spec, sizes, n_max", [
    ("rot:k=7,s=3", [4, 1, 2], 30), ("rot:k=12,s=5", [5, 3, 4], 40), ("odo:m=3", [3, 5], 20),
    ("iet:perm=4,0,3,1,2,5", [1, 2, 3], 25), ("rot:k=5,s=0", [2, 3], 4), ("rot:k=3,s=1", [3], 5),
])
@pytest.mark.parametrize("scattered", [False, True])
@pytest.mark.parametrize("backend", [exact.RATIONAL, exact.FLOAT])
def test_exact_rigidity_sweep_in_chunks_matches_the_per_step_readings(
        spec, sizes, n_max, scattered, backend, chunk, monkeypatch):
    """An exact sweep counts label pairs off the cycles of tau, a chunk of n
    values at a time, past ord(tau) and on scattered blocks: on rationals
    each score equals the dense oracle, on floats, to the last bit, the
    stepwise gather loop's reading, whatever the chunk size."""
    monkeypatch.setattr(constructions, "SWEEP_CHUNK", chunk)
    sys = parse_system_spec(spec, backend)
    cells = np.random.default_rng(sys.k).permutation(sys.k) if scattered else np.arange(sys.k)
    blocks = [part.tolist() for part in np.split(cells, np.cumsum(sizes)[:-1])]
    swept = rigidity_sweep(sys, blocks, n_max)
    assert len(swept) == n_max + 1
    if backend == exact.RATIONAL:
        assert swept == [_oracle_rigidity_probe(sys, blocks, n) for n in range(n_max + 1)]
        assert all(type(x) is Fraction for x in swept)
    else:
        assert [x.hex() for x in swept] == [x.hex() for x in _stepwise_scores(sys, blocks, n_max)]


@pytest.mark.parametrize("backend", [exact.RATIONAL, exact.FLOAT])
def test_exact_rigidity_sweep_takes_no_lens_step(backend, monkeypatch):
    """On an exact system the sweep neither gathers nor multiplies matrices."""
    calls = []
    for name in ("gather", "mat_mul"):
        monkeypatch.setattr(exact, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    sys = rotation_system(45, 7, backend)
    rigidity_sweep(sys, consecutive_blocks(range(1, 10)), 100)
    assert calls == []


def test_rigidity_probe_float_matches_oracle_bit_for_bit_on_consecutive_blocks():
    # Consecutive blocks add in the oracle's order, and rigidity_probe takes
    # the same lens_iterate image, so the floats agree to the last bit.
    for spec in ("bern:d=2,L=4", "bern:d=2,L=5", "rot:k=12,s=5"):
        sys = parse_system_spec(spec, exact.FLOAT)
        blocks = consecutive_blocks(_distinct_sizes(sys.k, np.random.default_rng(3)))
        for n in range(6):
            assert rigidity_probe(sys, blocks, n) == _oracle_rigidity_probe(sys, blocks, n)


def test_rigidity_probe_full_shift_frozen_plateau():
    sys = bernoulli_system(2, 3)
    blocks = consecutive_blocks([1, 3, 4])
    scores = [rigidity_probe(sys, blocks, n) for n in range(6)]
    assert scores[0] == 1
    assert scores[1] == Fraction(91, 192)
    assert scores[2] == Fraction(91, 192)
    # once the memory of the initial block is gone the score settles at
    # sum of squared block masses: (1/8)^2 + (3/8)^2 + (4/8)^2 = 13/32
    assert scores[3] == scores[4] == scores[5] == Fraction(13, 32)
    float_sys = bernoulli_system(2, 3, backend=exact.FLOAT)
    for n in range(6):
        oracle = brute_force_block_score(float_sys, blocks, n)
        assert float(scores[n]) == pytest.approx(oracle, abs=1e-12)


#
# Transitivity witnesses.
#

def test_witness_exhaustive_at_depth_one():
    for sigma in permutations(range(2)):
        for pi in permutations(range(2)):
            res = transitivity_witness(2, 1, sigma, pi)
            assert res.n == 1 and res.fine_k == 4
            assert res.check_source and res.check_image
            assert np.array_equal(res.restricted_source.C,
                                  graph_coupling(np.array(sigma)).C)
            assert np.array_equal(res.restricted_image.C,
                                  graph_coupling(np.array(pi)).C)


def test_witness_seeded_pairs_at_depth_two():
    rng = np.random.default_rng(53)
    for _ in range(5):
        sigma = rng.permutation(4)
        pi = rng.permutation(4)
        res = transitivity_witness(2, 2, sigma, pi)
        assert res.fine_k == 16
        assert res.check_source and res.check_image
        assert np.array_equal(res.restricted_source.C, graph_coupling(sigma).C)
        assert np.array_equal(res.restricted_image.C, graph_coupling(pi).C)


def _non_involution(k, rng):
    """A random permutation of k >= 3 cells that is not its own inverse."""
    while True:
        perm = rng.permutation(k)
        if not np.array_equal(perm[perm], np.arange(k)):
            return perm


def _witness_oracle(d, L, sigma, pi):
    """The dense fine graph coupling and its L-step lens image, each
    restricted along the prefix map by block sums."""
    k = d**L
    xi = graph_coupling((np.asarray(sigma)[:, None] * k + np.asarray(pi)[None, :]).ravel())
    prefix = np.arange(k * k) // k
    image = lens_iterate(bernoulli_system(d, 2 * L), xi, L)
    return restrict_coupling(xi, prefix).matrix, restrict_coupling(image, prefix).matrix


def _same_scaled(a, b):
    return a.den == b.den and a.num.dtype == b.num.dtype and np.array_equal(a.num, b.num)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)]),
       st.integers(0, 2**32 - 1))
def test_witness_restrictions_match_the_dense_lens_image(d_L, seed):
    d, L = d_L
    rng = np.random.default_rng(seed)
    sigma, pi = _non_involution(d**L, rng), _non_involution(d**L, rng)
    w = transitivity_witness(d, L, sigma, pi)
    source, image = _witness_oracle(d, L, sigma, pi)
    assert _same_scaled(w.restricted_source.matrix, source)
    assert _same_scaled(w.restricted_image.matrix, image)
    assert w.check_source and w.check_image
    assert w.fine_k == d ** (2 * L) == w.xi.k


def test_witness_image_is_not_the_transposed_product():
    # W^T W[tau] is the transpose of the restricted image, graph(pi^-1):
    # it agrees only when pi is an involution, as the shipped config's
    # sigma = 1,0,3,2 and pi = 2,3,0,1 are.
    d, L, k = 2, 2, 4
    prefix = np.arange(k * k) // k
    p = exact.numerators((k * k, k))
    p[np.arange(k * k), prefix] = 1
    *_, (w, _) = pull_back(bernoulli_system(d, 2 * L), exact.from_scaled(p, 1), L)
    for sigma, pi, involutions in (([1, 0, 3, 2], [2, 3, 0, 1], True),
                                   ([1, 2, 3, 0], [2, 0, 3, 1], False)):
        tau = transitivity_witness(d, L, sigma, pi).fine_perm
        _, image = _witness_oracle(d, L, sigma, pi)
        transposed = exact.mat_div(exact.mat_mul(w.T, exact.relabel(w, tau)), k * k)
        correct = exact.mat_div(exact.mat_mul(exact.relabel(w, tau).T, w), k * k)
        assert _same_scaled(correct, image)
        assert _same_scaled(transposed, image) is involutions


def test_witness_guards_resolution_and_shape():
    with pytest.raises(ResolutionGuard):
        transitivity_witness(2, 7, np.arange(128), np.arange(128))
    with pytest.raises(DimensionMismatch):
        transitivity_witness(2, 1, [0, 1, 2], [0, 1])


#
# Entropy factor sequences.
#

def brute_force_factor(sys, lam, n_values):
    """Independent oracle: full lens iteration, then mass on A x A, A the
    binary words w < k whose first (most significant) symbol is 0."""
    L = sys.k.bit_length() - 1
    idx = np.array([w for w in range(sys.k) if format(w, f"0{L}b")[0] == "0"])
    values = []
    for n in range(n_values):
        image = lens_iterate(sys, lam, n)
        values.append(image.C[np.ix_(idx, idx)].sum())
    return values


def test_entropy_factor_matches_full_iteration():
    sys = bernoulli_system(2, 2)
    rng = np.random.default_rng(59)
    for lam in (product_coupling(4), graph_coupling(np.arange(4)),
                random_coupling(4, rng)):
        assert entropy_factor_F(sys, lam, 5) == brute_force_factor(sys, lam, 5)


def test_entropy_factor_product_is_constant_quarter():
    sys = bernoulli_system(2, 3)
    values = entropy_factor_F(sys, product_coupling(8), 6)
    assert values == [Fraction(1, 4)] * 6


def test_entropy_factor_mixed_backend_promotes_to_float():
    sys = bernoulli_system(2, 2)
    lam = product_coupling(4, backend=exact.FLOAT)
    values = entropy_factor_F(sys, lam, 3)
    assert all(isinstance(v, float) for v in values)
    assert values == pytest.approx([0.25, 0.25, 0.25])


def test_block_target_validation():
    with pytest.raises(ValueError):
        BlockTarget(bits=())
    with pytest.raises(ValueError):
        BlockTarget(bits=(Fraction(1, 3),))
    BlockTarget(bits=(Fraction(0), Fraction(1, 2)))


def test_realized_blocks_exhaustive_up_to_three():
    for n in (1, 2, 3):
        for bits in product((Fraction(0), Fraction(1, 2)), repeat=n):
            lam = realize_entropy_block(bits)
            sys = bernoulli_system(2, n)
            assert entropy_factor_F(sys, lam, n) == list(bits)


def test_realize_entropy_block_guards_resolution():
    with pytest.raises(ResolutionGuard):
        realize_entropy_block([Fraction(1, 2)] * 13)


#
# Commuting permutations.
#

def test_bernoulli_cyclic_commuter_commutes_exactly():
    for d, ell, L in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 1)):
        res = bernoulli_cyclic_commuter(d, ell, L)
        k = (d * ell) ** L
        assert sorted(res.perm.tolist()) == list(range(k))
        assert res.commutation_residual == 0
        assert res.cycles_blocks


def test_bernoulli_cyclic_commuter_respects_size_guard():
    with pytest.raises(SizeGuard):
        bernoulli_cyclic_commuter(2, 2, 7)


def test_odometer_commuter_respects_size_guard():
    # 2^13 cells exceed the limit; the guard must fire before any allocation.
    with pytest.raises(SizeGuard):
        odometer_commuter((1, 0), 13)


def test_odometer_commuter_flips_low_digit():
    s = odometer_commuter([1, 0], 3)
    assert s.tolist() == [1, 0, 3, 2, 5, 4, 7, 6]


def test_odometer_commuter_commutes_with_power():
    for pi in permutations(range(4)):
        s = odometer_commuter(pi, 3)
        assert sorted(s.tolist()) == list(range(8))
        power = system_from_permutation((np.arange(8) + 4) % 8)
        residual = markov_commutation_residual(power, graph_coupling(s))
        assert residual == 0


def test_odometer_commuter_lens_period_divides_block():
    sys = odometer_system(3)
    for pi in ([1, 0], [1, 0, 3, 2], [3, 2, 1, 0]):
        s = odometer_commuter(pi, 3)
        report = detect_period(sys, graph_coupling(s), maxp=len(pi))
        assert report.period is not None
        assert len(pi) % report.period == 0


def test_odometer_commuter_rejects_bad_digit_blocks():
    with pytest.raises(BadBlocks):
        odometer_commuter([0, 2, 1], 3)       # length 3 is not a power of two
    with pytest.raises(BadBlocks):
        odometer_commuter([0, 0], 3)          # not a permutation
    with pytest.raises(BadBlocks):
        odometer_commuter(list(range(16)), 3)  # block exceeds the level


#
# Index-arithmetic builders against per-cell loop oracles.
#

def _iet_loop_oracle(target):
    """Cursor sweep over sources, then destinations, one subinterval a step."""
    k, L = target.k, target.L
    perm = np.full(k * L, -1, dtype=int)
    cursor = [0] * k
    for src in range(k):
        pos = src * L
        for dest in range(k):
            for _ in range(k * int(target.m[dest, src])):
                assert cursor[dest] < L
                perm[pos] = dest * L + cursor[dest]
                cursor[dest] += 1
                pos += 1
        assert pos == (src + 1) * L
    return tuple(int(x) for x in perm)


@pytest.mark.parametrize("k, L", [(1, 1), (1, 7), (2, 2), (3, 9), (4, 12), (5, 40),
                                  (8, 256), (16, 64), (32, 128), (64, 64)])
def test_realize_coupling_as_iet_matches_loop_oracle(k, L):
    rng = np.random.default_rng(k * 1000 + L)
    for _ in range(3):
        target = random_rational_target(k, L, rng)
        spec = realize_coupling_as_iet(target)
        assert spec.n_intervals == k * L
        assert spec.permutation == _iet_loop_oracle(target)
        assert all(type(x) is int for x in spec.permutation[:5])


def _entropy_block_oracle(bits):
    """Flip coordinate t of every big-endian word when bits[t] == 0."""
    n = len(bits)
    perm = []
    for v in range(2**n):
        word = [(v >> (n - 1 - t)) & 1 for t in range(n)]
        image = [w ^ 1 if bits[t] == 0 else w for t, w in enumerate(word)]
        perm.append(int("".join(map(str, image)), 2))
    return perm


def test_realize_entropy_block_matches_loop_oracle():
    half = Fraction(1, 2)
    blocks = [b for n in range(1, 7) for b in product((0, half), repeat=n)]
    rng = np.random.default_rng(8)
    blocks += [tuple(half if x else 0 for x in rng.integers(0, 2, 8)) for _ in range(4)]
    for bits in blocks:
        c = realize_entropy_block(bits)
        assert np.array_equal(c.C, graph_coupling(_entropy_block_oracle(bits)).C), bits


def _commuter_oracle(d, ell, L):
    """Per-cell symbol map (a, b) -> (a + 1 mod d, b) and the block-cycle check."""
    D = d * ell
    perm = []
    for v in range(D**L):
        word = [v // D ** (L - 1 - t) % D for t in range(L)]
        idx = 0
        for s in word:
            a, b = divmod(s, ell)
            idx = idx * D + ((a + 1) % d) * ell + b
        perm.append(idx)
    cycles = all(perm[v] // D ** (L - 1) // ell == (v // D ** (L - 1) // ell + 1) % d
                 for v in range(D**L))
    return perm, cycles


@pytest.mark.parametrize("d, ell, L", [(2, 2, 3), (3, 1, 4), (2, 1, 5), (2, 3, 2)])
def test_bernoulli_cyclic_commuter_matches_loop_oracle(d, ell, L):
    res = bernoulli_cyclic_commuter(d, ell, L)
    perm, cycles = _commuter_oracle(d, ell, L)
    assert list(res.perm) == perm
    assert res.cycles_blocks is cycles is True
    assert res.commutation_residual == 0


@pytest.mark.parametrize("m, pi", [(3, [1, 0]), (4, [3, 1, 0, 2]), (5, [2, 0, 3, 1])])
def test_odometer_commuter_and_witness_cells_match_loop_oracles(m, pi):
    low = len(pi)
    assert list(odometer_commuter(pi, m)) == [pi[v % low] + v - v % low
                                              for v in range(2**m)]
    sigma, tau = [1, 0, 3, 2], [2, 3, 0, 1]
    w = transitivity_witness(2, 2, sigma, tau)
    fine_perm = [sigma[v // 4] * 4 + tau[v % 4] for v in range(16)]
    assert np.array_equal(w.xi.C, graph_coupling(fine_perm).C)
