"""Lens dynamics: conjugation action, orbits, fixed spaces, periods."""

from fractions import Fraction
from itertools import islice, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslab import (
    CouplingMatrix,
    DimensionMismatch,
    ExperimentConfig,
    IETSpec,
    NotExact,
    bernoulli_system,
    cesaro_average,
    coupling_distance,
    detect_period,
    fixed_point_space,
    graph_coupling,
    iet_system,
    lens_iterate,
    lens_step,
    lens_step_inverse,
    lift_coupling,
    markov_commutation_residual,
    odometer_system,
    one_sided_step,
    orbit,
    parse_system_spec,
    product_coupling,
    random_coupling,
    repair_to_polytope,
    restrict_coupling,
    rigidity_probe,
    rotation_system,
    run_experiment,
    self_joining_residual,
    system_from_matrix,
    system_from_permutation,
    validate_coupling,
)
from lenslab import SizeGuard, consecutive_blocks, exact
from lenslab import experiments, lens
from lenslab.lens import FixedPointSpace, _pair_orbit_labels


def test_lens_step_conjugates_graph_couplings():
    # frozen example: tau = (0 1 2), sigma = (1 2) gives tau sigma tau^-1 = (0 2)
    tau = np.array([1, 2, 0])
    sigma = np.array([0, 2, 1])
    image = lens_step(system_from_permutation(tau), graph_coupling(sigma))
    assert coupling_distance(image, graph_coupling(np.array([2, 1, 0]))) == 0


def test_lens_step_exact_equals_matrix_conjugation():
    rng = np.random.default_rng(3)
    sys = rotation_system(6, 1)
    c = random_coupling(6, rng)
    fast = lens_step(sys, c)
    slow = exact.mat_conjugate(exact.stored(sys.Q), exact.stored(c.C))
    assert np.array_equal(fast.C, exact.entries(slow))


def test_lens_preserves_polytope_and_is_affine():
    rng = np.random.default_rng(9)
    sys = bernoulli_system(2, 2)
    a, b = random_coupling(4, rng), random_coupling(4, rng)
    t = Fraction(2, 7)
    mix = (np.asarray(a.C) * t + np.asarray(b.C) * (1 - t))
    lhs = lens_step(sys, CouplingMatrix(mix))
    rhs = np.asarray(lens_step(sys, a).C) * t + np.asarray(lens_step(sys, b).C) * (1 - t)
    assert np.array_equal(lhs.C, rhs)
    assert not validate_coupling(lhs)


def test_one_sided_step_composes_forward_map():
    tau = np.array([1, 2, 3, 0])
    sigma = np.array([2, 0, 3, 1])
    out = one_sided_step(system_from_permutation(tau), graph_coupling(sigma))
    assert coupling_distance(out, graph_coupling(tau[sigma])) == 0


def test_orbit_float_states_stay_repaired():
    sys = bernoulli_system(2, 2, backend=exact.FLOAT)
    rng = np.random.default_rng(1)
    c = random_coupling(4, rng, backend=exact.FLOAT)
    orb = orbit(sys, c, 12)
    for _ in range(2):  # each walk logs its own repairs
        states = list(orb)
        assert len(states) == 13 and len(orb.repair_residuals) == 12
    assert max(orb.repair_residuals) < 1e-10
    assert not validate_coupling(states[-1])


def test_orbit_steps_only_when_a_state_is_asked_for():
    sys = rotation_system(5, 2)
    c = random_coupling(5, np.random.default_rng(3))
    orb = orbit(sys, c, 10**9)  # nothing is stepped up front
    for _ in range(2):  # each walk starts again at c
        walk = iter(orb)
        for n in range(4):
            assert np.array_equal(next(walk).C, lens_iterate(sys, c, n).C)
        assert orb.repair_residuals == []  # no float step to repair


def test_cesaro_average_residual_bound():
    sys = rotation_system(7, 3)
    rng = np.random.default_rng(8)
    c = random_coupling(7, rng)
    for n, avg in cesaro_average(orbit(sys, c, 100), (10, 100)):
        assert not validate_coupling(avg)
        assert self_joining_residual(sys, avg) <= Fraction(2, n)


def test_fixed_space_rotation_dimension_and_circulants():
    for k in (3, 4, 5):
        space = fixed_point_space(rotation_system(k, 1))
        assert space.dimension == k - 1
        for d in map(exact.entries, space.basis):
            # invariance under the joint rotation forces circulant structure
            for i in range(k):
                for j in range(k):
                    assert d[i, j] == d[(i + 1) % k, (j + 1) % k]
            assert all(x == 0 for x in d.sum(axis=0))
            assert all(x == 0 for x in d.sum(axis=1))


def _orbit_labels_by_walking(perm, k):
    """Reference: walk each orbit of (i, j) -> (perm[i], perm[j]) in turn."""
    label = [-1] * (k * k)
    count = 0
    for start in range(k * k):
        if label[start] >= 0:
            continue
        idx = start
        while label[idx] < 0:
            label[idx] = count
            i, j = divmod(idx, k)
            idx = perm[i] * k + perm[j]
        count += 1
    return label


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(lambda k: st.permutations(list(range(k)))))
def test_pair_orbit_labels_match_walking_oracle(perm):
    k = len(perm)
    labels = _pair_orbit_labels(np.array(perm), k)
    assert labels.tolist() == _orbit_labels_by_walking(perm, k)


def test_fixed_space_full_shift_is_a_point():
    for L in (1, 2):
        space = fixed_point_space(bernoulli_system(2, L))
        assert space.dimension == 0
        assert self_joining_residual(bernoulli_system(2, L), product_coupling(2**L)) == 0


def test_fixed_space_float_backend_agrees():
    space = fixed_point_space(rotation_system(4, 1, backend=exact.FLOAT))
    assert space.dimension == 3
    # a stochastic float system: one aperiodic class, so a point
    shift_space = fixed_point_space(bernoulli_system(2, 2, backend=exact.FLOAT))
    assert shift_space.dimension == 0


def test_fixed_space_of_block_stochastic_system_agrees_across_backends():
    # diag(J/2, J/2): fixed directions are constant on the 2x2 block pairs,
    # +t on the diagonal pairs and -t off them, so the space is a line.
    h, z = Fraction(1, 2), Fraction(0)
    q = np.array([[h, h, z, z], [h, h, z, z], [z, z, h, h], [z, z, h, h]],
                 dtype=object)
    rational = fixed_point_space(system_from_matrix(q))
    floating = fixed_point_space(system_from_matrix(q.astype(float)))
    assert rational.dimension == floating.dimension == 1


@st.composite
def cyclic_stochastic_matrices(draw):
    """Doubly stochastic Q, k <= 8: drawn components, each with a period p
    and a class size s, a Birkhoff block (rational mix of permutations)
    from each class to the next, and the cells shuffled."""
    parts = []
    while not parts or (sum(p * s for p, s in parts) < 8 and draw(st.booleans())):
        room = 8 - sum(p * s for p, s in parts)
        s = draw(st.integers(1, min(room, 3)))
        parts.append((draw(st.integers(1, room // s)), s))
    k = sum(p * s for p, s in parts)
    q = np.full((k, k), Fraction(0), dtype=object)
    start = 0
    for p, s in parts:
        for c in range(p):
            rows, cols = start + c * s, start + (c + 1) % p * s
            weights = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
            for w in weights:
                for i, j in enumerate(draw(st.permutations(range(s)))):
                    q[rows + i, cols + j] += Fraction(w, sum(weights))
        start += p * s
    shuffle = draw(st.permutations(range(k)))
    return q[np.ix_(shuffle, shuffle)]


def _kronecker_system(q):
    """The lens-fixed, zero-marginal X as one linear system over flat
    row-major X: [Q^T (x) Q^T - I ; row sums ; column sums]."""
    k = len(q)
    eye, ones = np.eye(k, dtype=int), np.ones((1, k), dtype=int)
    return np.vstack([np.kron(q.T, q.T) - np.eye(k * k, dtype=int),
                      np.kron(eye, ones), np.kron(ones, eye)])


def _rank(vectors, n):
    rows = np.array(vectors, dtype=object).reshape(-1, n)
    return n - len(exact.exact_nullspace(exact.stored(rows)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cyclic_stochastic_matrices())
def test_fixed_space_matches_the_kronecker_oracle(q):
    from scipy.linalg import null_space

    k = len(q)
    kron = _kronecker_system(q)
    rational = fixed_point_space(system_from_matrix(q))
    floating = fixed_point_space(system_from_matrix(q.astype(float)))
    dim = null_space(kron.astype(float), rcond=1e-10).shape[1]
    assert rational.dimension == floating.dimension == dim
    new = [d.fractions.ravel() for d in rational.basis]
    old = [v.fractions for v in exact.exact_nullspace(exact.stored(kron))]
    assert _rank(new, k * k) == _rank(old, k * k) == _rank(new + old, k * k) == dim
    for d, f in zip(rational.basis, floating.basis):
        assert np.array_equal(exact.mat_conjugate(exact.stored(q), d).fractions, d.fractions)
        assert not d.num.sum(axis=0).any() and not d.num.sum(axis=1).any()
        assert np.array_equal(exact.as_float(d), f)


def test_fixed_space_guard_refuses_before_the_work():
    with pytest.raises(SizeGuard, match="class pairs"):
        fixed_point_space(rotation_system(4096, 1))
    # 64 one-cell cycles: 4096 pair orbits, a tree of 127, so 3969
    # directions of 64**2 cells.
    with pytest.raises(SizeGuard, match="basis cells"):
        fixed_point_space(rotation_system(64, 0))
    assert fixed_point_space(bernoulli_system(2, 12)).dimension == 0
    # One cycle: 128 pair orbits, a tree of one, so 127 * 128**2 basis
    # cells, just under the budget.
    assert fixed_point_space(rotation_system(128, 1)).dimension == 127


def test_fixed_space_guard_admits_the_basis_cells_at_the_budget():
    # rot:k=n,s=0: n one-cell cycles, n**2 pair orbits and a tree of 2n - 1,
    # so (n - 1)**2 directions of n**2 cells: 1369 * 1444 <= 2**21 at n = 38,
    # 1444 * 1521 > 2**21 at n = 39.
    assert lens.FIXED_SPACE_BUDGET == 2**21
    assert fixed_point_space(rotation_system(38, 0)).dimension == 37**2
    with pytest.raises(SizeGuard, match="basis cells"):
        fixed_point_space(rotation_system(39, 0))


def _elimination_basis(sys):
    """The fixed-point basis by elimination, the oracle: the row and column
    sums of each class on the orbits of class pairs (a[c, t] the cells of
    orbit t in a row of class c, a[m + d, t] in a column of class d), solved
    by exact.exact_nullspace, each vector spread to the cells."""
    cls, step = lens._cyclic_classes(sys)
    m = len(step)
    label = _pair_orbit_labels(step, m)
    size = np.bincount(cls, minlength=m)
    c, d = np.divmod(np.arange(m * m), m)
    a = np.zeros((2 * m, label.max() + 1), dtype=int)
    np.add.at(a, (c, label), size[d])
    np.add.at(a, (m + d, label), size[c])
    cell_orbit = label[cls[:, None] * m + cls[None, :]]
    return [exact.stored(exact.from_scaled(v.num[cell_orbit], v.den, sys.backend))
            for v in exact.exact_nullspace(a)]


def test_product_coupling_always_fixed():
    for sys in (rotation_system(6, 5), bernoulli_system(3, 1), odometer_system(2)):
        assert self_joining_residual(sys, product_coupling(sys.k)) == 0


def test_markov_commutation_matches_cell_commutation():
    # sigma commutes with tau iff the graph coupling commutes as an operator
    tau = np.array([1, 2, 3, 4, 0])
    sys = system_from_permutation(tau)
    commuting = np.array([2, 3, 4, 0, 1])  # tau^2
    assert markov_commutation_residual(sys, graph_coupling(commuting)) == 0
    non_commuting = np.array([1, 0, 2, 3, 4])
    assert markov_commutation_residual(sys, graph_coupling(non_commuting)) > 0


def test_detect_period_odometer():
    sys = odometer_system(2)
    c = graph_coupling(np.array([1, 0, 3, 2]))
    report = detect_period(sys, c, maxp=4)
    assert report.period is not None and 4 % report.period == 0
    # identity coupling has period equal to the cell-map order of tau^... 1
    ident = graph_coupling(np.arange(4))
    assert detect_period(sys, ident, maxp=4).period == 1


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_lens_polytope_invariance_property(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    sys = bernoulli_system(2, 1) if k == 2 else rotation_system(k, int(rng.integers(0, k)))
    c = random_coupling(k, rng)
    assert not validate_coupling(lens_step(sys, c))
    assert not validate_coupling(one_sided_step(sys, c))


def test_exhaustive_conjugation_k3():
    for tau in permutations(range(3)):
        sys = system_from_permutation(np.array(tau))
        inv = exact.invert_permutation(np.array(tau))
        for sigma in permutations(range(3)):
            expected = exact.compose_permutations(
                exact.compose_permutations(np.array(tau), np.array(sigma)), inv)
            image = lens_step(sys, graph_coupling(np.array(sigma)))
            assert coupling_distance(image, graph_coupling(expected)) == 0


def _dense_commutation_residual(sys, c):
    """|M Q - Q M|_1 for M = k C^T, with both products formed."""
    m, q = exact.stored(c.C.T * c.k), exact.stored(sys.Q)
    return exact.l1_norm(exact.mat_mul(m, q), exact.mat_mul(q, m))


def _random_iet(k, seed, backend):
    perm = tuple(int(x) for x in np.random.default_rng(seed).permutation(k))
    return iet_system(IETSpec(permutation=perm), backend=backend)


@pytest.mark.parametrize("make", [
    lambda b: rotation_system(9, 2, backend=b),
    lambda b: rotation_system(16, 5, backend=b),
    lambda b: odometer_system(3, backend=b),
    lambda b: odometer_system(5, backend=b),
    lambda b: _random_iet(12, 7, b),
    lambda b: _random_iet(20, 8, b),
], ids=["rot9", "rot16", "odo3", "odo5", "iet12", "iet20"])
def test_markov_commutation_residual_matches_dense_product(make):
    for backend in (exact.RATIONAL, exact.FLOAT):
        sys = make(backend)
        rng = np.random.default_rng(sys.k)
        couplings = [random_coupling(sys.k, rng, backend=backend),
                     graph_coupling(rng.permutation(sys.k), backend=backend),
                     graph_coupling(sys.perm, backend=backend),
                     product_coupling(sys.k, backend)]
        for c in couplings:
            fast, dense = markov_commutation_residual(sys, c), _dense_commutation_residual(sys, c)
            if backend == exact.RATIONAL:
                assert fast == dense and isinstance(fast, Fraction)
            else:
                assert abs(fast - dense) <= exact.FLOAT_TOL
        assert markov_commutation_residual(sys, couplings[2]) == 0


def _refuse_split(a):
    raise AssertionError("a Fraction array was split entry by entry")


@pytest.mark.parametrize("spec", ["odo:m=6", "rot:k=48,s=5"])
def test_exact_system_dynamics_read_no_fraction_entry(spec, monkeypatch):
    """Couplings and systems are built from integer numerators and exact
    dynamics relabel them, so no Fraction array is ever split."""
    monkeypatch.setattr(exact, "split_common", _refuse_split)
    sys = parse_system_spec(spec)
    k = sys.k
    c = random_coupling(k, np.random.default_rng(0))
    shift = graph_coupling(np.roll(np.arange(k), 1))  # commutes with a cycle
    assert detect_period(sys, shift, maxp=3).period == 1
    assert detect_period(sys, c, maxp=k).period == k
    assert markov_commutation_residual(sys, shift) == 0
    assert markov_commutation_residual(sys, c) > 0
    for mode in ("lens", "one-sided"):
        assert all(not validate_coupling(state) for state in orbit(sys, c, 3, mode=mode))
    blocks = consecutive_blocks([k // 4, k - k // 4])
    assert rigidity_probe(sys, blocks, 0) == rigidity_probe(sys, blocks, k) == 1
    assert rigidity_probe(sys, blocks, 1) < 1


@pytest.mark.parametrize("backend", [exact.RATIONAL, exact.FLOAT])
@pytest.mark.parametrize("spec", ["rot:k=16,s=3", "odo:m=4", "bern:d=2,L=4"])
def test_fixed_points_split_no_fraction_array(spec, backend, monkeypatch):
    """The null space comes out as integer numerators and the basis is
    built from them, so the fixed-points path splits no Fraction array."""
    monkeypatch.setattr(exact, "split_common", _refuse_split)
    space = fixed_point_space(parse_system_spec(spec, backend))
    assert all(exact.backend_of(d) == backend for d in space.basis)
    cfg = ExperimentConfig(experiment="fixed-points", system=spec, backend=backend)
    assert run_experiment(cfg, write=False).passed


@st.composite
def zoo_specs(draw):
    """A system of each finite zoo family: rot, odo, iet and bern:d=2,L<=4."""
    family = draw(st.sampled_from(["rot", "odo", "iet", "bern"]))
    if family == "rot":
        k = draw(st.integers(1, 24))
        return f"rot:k={k},s={draw(st.integers(0, k - 1))}"
    if family == "odo":
        return f"odo:m={draw(st.integers(1, 5))}"
    if family == "iet":
        perm = draw(st.permutations(range(draw(st.integers(1, 8)))))
        return "iet:perm=" + ",".join(map(str, perm))
    return f"bern:d=2,L={draw(st.integers(1, 4))}"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(cyclic_stochastic_matrices(), zoo_specs()))
def test_fixed_space_basis_is_the_elimination_basis(system):
    """The basis read off the double star of each orbit's fundamental cycle
    is, vector for vector, the reduced row echelon basis that elimination
    gives, on both backends."""
    for backend in (exact.RATIONAL, exact.FLOAT):
        if isinstance(system, str):
            sys = parse_system_spec(system, backend)
        else:
            sys = system_from_matrix(system if backend == exact.RATIONAL
                                     else system.astype(float))
        basis, oracle = fixed_point_space(sys).basis, _elimination_basis(sys)
        assert len(basis) == len(oracle)
        assert all(_same(x, y) for x, y in zip(basis, oracle))


def _zoo_pair(spec, seed, backend):
    """The system of spec on backend, and a random coupling over its cells."""
    sys = parse_system_spec(spec, backend)
    return sys, random_coupling(sys.k, np.random.default_rng(seed), backend=backend)


def _stack(matrices, backend, k):
    """Stored forms of k x k matrices as one (n, k, k) stored form."""
    if not matrices:
        return exact.constant((0, k, k), 0, backend)
    return exact.flat_concat(matrices).reshape(-1, k, k)


def _same(a, b):
    """Equal stored forms: the same Scaled, or bit-equal floats."""
    if isinstance(a, exact.Scaled):
        return a.den == b.den and np.array_equal(a.num, b.num)
    return np.array_equal(a, b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(zoo_specs(), st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_pull_back_restricts_the_dense_lens_image(spec, m, n, seed):
    """The n-th term W of pull_back from a block indicator P is Q^n P, and
    W^T C W sums lens^n C over block pairs: the block sums of the dense
    lens_iterate image, for any map of cells to m blocks (some may be
    empty).  Equal on rationals, within FLOAT_TOL on floats."""
    for backend in (exact.RATIONAL, exact.FLOAT):
        sys = parse_system_spec(spec, backend)
        rng = np.random.default_rng(seed)
        parent = rng.integers(0, m, sys.k)
        p = exact.numerators((sys.k, m))
        p[np.arange(sys.k), parent] = 1
        p = exact.from_scaled(p, 1, backend)
        c = random_coupling(sys.k, rng, backend=backend)
        dense = p
        terms = [w for w, count in lens.pull_back(sys, p, n) for _ in range(count)]
        assert len(terms) == n + 1
        for t, w in enumerate(terms):
            assert w.shape == (sys.k, m)
            want = exact.block_sums(lens_iterate(sys, c, t).matrix, parent, m)
            got = exact.mat_mul(exact.mat_mul(w.T, c.matrix), w)
            if backend == exact.RATIONAL:
                assert _same(w, dense) and _same(got, want)
            else:
                assert np.allclose(w, dense, rtol=0, atol=exact.FLOAT_TOL)
                assert np.allclose(got, want, rtol=0, atol=exact.FLOAT_TOL)
            dense = exact.mat_mul(sys.matrix, dense)


def test_pull_back_refuses_a_matrix_of_another_size():
    with pytest.raises(DimensionMismatch):
        lens.pull_back(rotation_system(4, 1), exact.constant((3, 2), 0), 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(zoo_specs(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_gather_of_a_stack_equals_the_gathers_of_its_matrices(spec, n, seed):
    """gather of an (n, k, k) stack along axes (1, 2), (1,) or (2,) equals
    gathering each matrix along (0, 1), (0,) or (1,), on the row and the
    column lines: relabel lines on exact systems, spread ones on bern.
    Equal on rationals, bit-equal on floats."""
    for backend in (exact.RATIONAL, exact.FLOAT):
        sys = parse_system_spec(spec, backend)
        rng = np.random.default_rng(seed)
        matrices = [random_coupling(sys.k, rng, backend=backend).matrix for _ in range(n)]
        stack = _stack(matrices, backend, sys.k)
        for lines in (sys.rows, sys.columns):
            assert lines.relabels == sys.exact
            for axes in ((1, 2), (1,), (2,)):
                got = exact.gather(stack, lines, axes)
                one = tuple(a - 1 for a in axes)
                want = _stack([exact.gather(m, lines, one) for m in matrices], backend, sys.k)
                assert got.shape == (n, sys.k, sys.k) and _same(got, want), (lines, axes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(zoo_specs(), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_lens_iterate_matches_repeated_steps(spec, n, seed):
    """lens_iterate(T, C, n) equals n lens_steps: equal on rationals,
    within FLOAT_TOL on floats."""
    for backend in (exact.RATIONAL, exact.FLOAT):
        sys, c = _zoo_pair(spec, seed, backend)
        stepped = c
        for _ in range(n):
            stepped = lens_step(sys, stepped)
        iterated = lens_iterate(sys, c, n)
        assert exact.max_abs(iterated.matrix, stepped.matrix) <= exact.tolerance(backend)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(zoo_specs(), st.integers(0, 2**32 - 1))
def test_lens_inverse_round_trip(spec, seed):
    """On an exact system lens_step_inverse undoes lens_step in both orders
    (equal on rationals, within FLOAT_TOL on floats); on a stochastic one
    it raises NotExact."""
    for backend in (exact.RATIONAL, exact.FLOAT):
        sys, c = _zoo_pair(spec, seed, backend)
        if not sys.exact:
            with pytest.raises(NotExact):
                lens_step_inverse(sys, c)
            continue
        tol = exact.tolerance(backend)
        back = lens_step_inverse(sys, lens_step(sys, c))
        forth = lens_step(sys, lens_step_inverse(sys, c))
        assert exact.max_abs(back.matrix, c.matrix) <= tol
        assert exact.max_abs(forth.matrix, c.matrix) <= tol


@settings(max_examples=60, deadline=None, derandomize=True)
@given(zoo_specs(), st.data())
def test_relabelling_carries_the_lens_to_the_conjugate_system(spec, data):
    """For a cell permutation tau, relabelling couplings by tau carries
    lens_step(T, .) to lens_step(tau T tau^-1, .): equal on rationals,
    within FLOAT_TOL on floats."""
    k = parse_system_spec(spec).k
    tau = np.array(data.draw(st.permutations(range(k))))
    inv = exact.invert_permutation(tau)
    seed = data.draw(st.integers(0, 2**32 - 1))

    def relabel(m):  # entry (i, j) moves to (tau[i], tau[j])
        return exact.relabel(m, np.ix_(inv, inv))

    for backend in (exact.RATIONAL, exact.FLOAT):
        sys = parse_system_spec(spec, backend)
        conj = system_from_matrix(relabel(sys.matrix))
        assert conj.exact == sys.exact and conj.backend == backend
        if sys.exact:
            expected = exact.compose_permutations(
                exact.compose_permutations(tau, sys.perm), inv)
            assert list(conj.perm) == list(expected)
        c = random_coupling(k, np.random.default_rng(seed), backend=backend)
        image = relabel(lens_step(sys, c).matrix)
        carried = lens_step(conj, CouplingMatrix(relabel(c.matrix))).matrix
        assert exact.max_abs(image, carried) <= exact.tolerance(backend)


def _factor_matrix(parent, kc):
    """The 0/1 matrix P of a parent map: P[i, parent(i)] = 1."""
    p = np.zeros((len(parent), kc), dtype=int)
    p[np.arange(len(parent)), parent] = 1
    return p


def _is_factor_map(fine, coarse, parent):
    """Q_f P = P Q_c, entry by entry on the rational Q's."""
    p = _factor_matrix(parent, coarse.k)
    return np.array_equal(fine.Q.dot(p), p.dot(coarse.Q))


@st.composite
def factor_pairs(draw):
    """(fine spec, coarse spec, parent): rot:k=rk,s=rs -> rot:k=k,s=s along
    a // r, or bern:d,L+1 -> bern:d,L along w % d**L, which drops the first
    symbol of the big-endian word."""
    if draw(st.booleans()):
        k, r = draw(st.integers(1, 8)), draw(st.integers(1, 4))
        s = draw(st.integers(0, k - 1))
        return f"rot:k={r * k},s={r * s}", f"rot:k={k},s={s}", np.arange(r * k) // r
    d = draw(st.integers(2, 3))
    L = draw(st.integers(1, 3 if d == 2 else 2))
    return f"bern:d={d},L={L + 1}", f"bern:d={d},L={L}", np.arange(d ** (L + 1)) % d**L


@settings(max_examples=40, deadline=None, derandomize=True)
@given(factor_pairs(), st.integers(0, 2**32 - 1))
def test_restriction_along_a_factor_map_commutes_with_the_lens(pair, seed):
    """Where Q_f P = P Q_c holds, restrict o lens_fine = lens_coarse o
    restrict, since both equal (Q_f P)^T C (Q_f P); restrict itself is
    P^T C P.  Equal on rationals, within FLOAT_TOL on floats."""
    fine_spec, coarse_spec, parent = pair
    assert _is_factor_map(parse_system_spec(fine_spec), parse_system_spec(coarse_spec), parent)
    for backend in (exact.RATIONAL, exact.FLOAT):
        fine, coarse = parse_system_spec(fine_spec, backend), parse_system_spec(coarse_spec, backend)
        p = _factor_matrix(parent, coarse.k).astype(object if backend == exact.RATIONAL else float)
        c = random_coupling(fine.k, np.random.default_rng(seed), backend=backend)
        down = restrict_coupling(c, parent)
        tol = exact.tolerance(backend)
        assert exact.max_abs(down.matrix, exact.stored(p.T.dot(c.C).dot(p))) <= tol
        pushed = restrict_coupling(lens_step(fine, c), parent)
        assert exact.max_abs(pushed.matrix, lens_step(coarse, down).matrix) <= tol


def test_dropping_the_last_symbol_is_not_a_factor_map_of_the_shift():
    """bern:d=2,L=4 -> bern:d=2,L=3 factors along w % 8 (first symbol
    dropped) but not along w // 2 (last symbol dropped), and there
    restriction does not commute with the lens."""
    fine, coarse = bernoulli_system(2, 4), bernoulli_system(2, 3)
    drop_first, drop_last = np.arange(16) % 8, np.arange(16) // 2
    assert _is_factor_map(fine, coarse, drop_first)
    assert not _is_factor_map(fine, coarse, drop_last)
    c = random_coupling(16, np.random.default_rng(0))
    pushed = restrict_coupling(lens_step(fine, c), drop_last)
    assert coupling_distance(pushed, lens_step(coarse, restrict_coupling(c, drop_last))) > 0


def _directions(sys, backend, kinds, seed):
    """Directions of each kind: a fixed-point basis direction ("fixed"), a
    difference of two random couplings ("zero": zero line sums, not fixed
    unless the lens is trivial), a random coupling ("coupling": line sums
    1/k), or a matrix whose rows only, or columns only, sum to zero ("rows",
    "cols")."""
    rng, basis = np.random.default_rng(seed), fixed_point_space(sys).basis
    out = []
    for t, kind in enumerate(kinds):
        if kind == "fixed" and basis:
            out.append(basis[t % len(basis)])
            continue
        if kind in ("rows", "cols"):
            y = rng.integers(-9, 10, (sys.k, sys.k))
            y = y - np.roll(y, 1, axis=1)
            out.append(exact.from_scaled(y if kind == "rows" else y.T, 7, backend))
            continue
        a = random_coupling(sys.k, rng, backend=backend).matrix
        if kind != "coupling":
            b = random_coupling(sys.k, rng, backend=backend).matrix
            a = exact.stored(exact.entries(a) - exact.entries(b))
        out.append(a)
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(zoo_specs(), st.lists(st.sampled_from(["fixed", "zero", "coupling", "rows", "cols"]),
                            max_size=4),
       st.integers(0, 2**32 - 1))
def test_fixed_points_checks_every_direction_as_the_per_direction_oracle(spec, kinds, seed):
    """The fixed-points verdicts, decided on the whole (n, k, k) stack of
    directions at once, equal the per-direction oracle: directions_fixed is
    every self_joining_residual <= tol, directions_have_zero_marginals is
    every marginal_defects list against 0 naming no line.  The residual of
    each direction is that direction's self_joining_residual."""
    for backend in (exact.RATIONAL, exact.FLOAT):
        sys = parse_system_spec(spec, backend)
        tol = exact.tolerance(backend)
        directions = _directions(sys, backend, kinds, seed)
        residuals = [self_joining_residual(sys, CouplingMatrix(d)) for d in directions]
        want = {
            "directions_fixed": all(r <= tol for r in residuals),
            "directions_have_zero_marginals": all(
                defect.startswith("negative") for d in directions
                for defect in exact.marginal_defects(d, 0, tol)),
        }
        space = FixedPointSpace(basis=tuple(directions))
        with mock.patch.object(experiments, "fixed_point_space", lambda _: space):
            report = run_experiment(ExperimentConfig(
                experiment="fixed-points", system=spec, backend=backend), write=False)
        assert {name: report.verdicts[name] for name in want} == want
        stack = _stack(directions, backend, sys.k)
        got = exact.entries(experiments._direction_checks(sys, stack)[0])
        assert len(got) == len(residuals)
        if backend == exact.RATIONAL:
            assert list(got) == residuals
        else:
            assert np.allclose(got, residuals, rtol=1e-9, atol=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(factor_pairs(), st.integers(0, 2**32 - 1))
def test_lifting_along_a_factor_map_commutes_with_the_lens_where_it_also_factors_back(
        pair, seed):
    """lift(C) = P C P^T / r^2 for the parent matrix P of r children per
    coarse cell.  Where Q_f P = P Q_c and Q_f^T P = P Q_c^T, lifting
    commutes with the lens, as Q_f^T P C P^T Q_f = P Q_c^T C Q_c P^T.  That
    holds on the rot pairs along a // r.  On the bern pairs along w % d^L
    only Q_f P = P Q_c holds: Q_f^T P reads the first L symbols of a word
    and P the last L, so a lifted graph coupling's lens image is not a lift
    of anything its coarse lens image lifts to."""
    fine_spec, coarse_spec, parent = pair
    fine, coarse = parse_system_spec(fine_spec), parse_system_spec(coarse_spec)
    p = _factor_matrix(parent, coarse.k)
    r = fine.k // coarse.k
    assert np.array_equal(fine.Q.dot(p), p.dot(coarse.Q))
    both_ways = np.array_equal(fine.Q.T.dot(p), p.dot(coarse.Q.T))
    assert both_ways == fine_spec.startswith("rot")
    rng = np.random.default_rng(seed)
    sigma = rng.permutation(coarse.k)
    for backend in (exact.RATIONAL, exact.FLOAT):
        fine, coarse = parse_system_spec(fine_spec, backend), parse_system_spec(coarse_spec, backend)
        tol = exact.tolerance(backend)
        pb = p.astype(object if backend == exact.RATIONAL else float)
        for c in (random_coupling(coarse.k, rng, backend=backend),
                  graph_coupling(sigma, backend=backend)):
            lifted = lift_coupling(c, parent)
            spread = exact.stored(pb.dot(c.C).dot(pb.T) * exact.scalar(Fraction(1, r * r), backend))
            assert exact.max_abs(lifted.matrix, spread) <= tol
            gap = exact.max_abs(lens_step(fine, lifted).matrix,
                                lift_coupling(lens_step(coarse, c), parent).matrix)
            if both_ways:
                assert gap <= tol
        if not both_ways:
            assert gap > tol  # the graph coupling, drawn last


#
# Walks end at their first fixed point.
#

def _start(kind, sys, seed):
    """A random, the product or a graph coupling over the cells of sys."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_coupling(sys.k, rng, backend=sys.backend)
    if kind == "product":
        return product_coupling(sys.k, sys.backend)
    return graph_coupling(rng.permutation(sys.k), sys.backend)


def _stepped(sys, c, n_steps, mode):
    """The oracle: states 0..n_steps of a plain stepping loop, each float
    step repaired, and the repair residuals."""
    step = lens_step if mode == "lens" else one_sided_step
    states, residuals = [c], []
    for _ in range(n_steps):
        c = step(sys, c)
        if c.backend == exact.FLOAT:
            repaired = repair_to_polytope(c.matrix)
            residuals.append(exact.l1_norm(repaired.matrix, c.matrix))
            c = repaired
        states.append(c)
    return states, residuals


def _identical(a, b):
    """The same stored form: numerators and denominator, or float bytes."""
    if isinstance(a, exact.Scaled):
        return a.den == b.den and np.array_equal(a.num, b.num)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(zoo_specs(), st.sampled_from([exact.RATIONAL, exact.FLOAT]),
       st.sampled_from(["random", "product", "graph"]), st.sampled_from(["lens", "one-sided"]),
       st.integers(0, 12), st.integers(0, 2**32 - 1), st.data())
def test_a_settled_walk_expands_to_the_plain_stepping_loop(spec, backend, start, mode,
                                                            n_steps, seed, data):
    """Iterating an orbit, whose walk ends at its first fixed point, gives
    the states and repair residuals of a plain stepping loop, state by
    state; cesaro_average equals the running-sum oracle at horizons before,
    at, inside and after the settling step."""
    sys = parse_system_spec(spec, backend)
    c = _start(start, sys, seed)
    states, residuals = _stepped(sys, c, n_steps, mode)
    orb = orbit(sys, c, n_steps, mode)
    walked = list(orb)
    assert len(walked) == n_steps + 1
    assert all(_identical(a.matrix, b.matrix) for a, b in zip(walked, states))
    assert orb.repair_residuals == residuals
    if not n_steps:
        return
    settled = next((n for n in range(1, n_steps + 1)
                    if _identical(states[n].matrix, states[n - 1].matrix)), n_steps)
    near = {n for n in range(settled - 1, settled + 3) if 1 <= n <= n_steps}
    drawn = data.draw(st.sets(st.integers(1, n_steps), max_size=3))
    horizons = near | drawn | {n_steps}
    averages = dict(cesaro_average(orbit(sys, c, n_steps, mode), horizons))
    assert sorted(averages) == sorted(horizons)
    for n, avg in averages.items():
        total = states[1].C  # summed in state order, then divided by N
        for s in states[2:n + 1]:
            total = total + s.C
        expected = CouplingMatrix(total / n).matrix
        assert _identical(avg.matrix, expected), n


@pytest.mark.parametrize("backend", [exact.RATIONAL, exact.FLOAT])
@pytest.mark.parametrize("L", range(2, 7))
def test_a_walk_on_a_bernoulli_shift_stops_by_step_L_plus_one(L, backend, monkeypatch):
    """Q^L = J/k on bern:d=2,L, so lens^L C is the product coupling and
    Q^L B is constant: each walk of N = 100 steps takes at most L + 1
    gathers, the last of which finds its input again.  (A float one-sided
    walk settles later, as its repair rounds.)"""
    gathers = []
    real = exact.gather

    def counted(*args, **kwargs):
        gathers.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exact, "gather", counted)
    sys = bernoulli_system(2, L, backend=backend)
    c = random_coupling(sys.k, np.random.default_rng(L), backend=backend)
    blocks = exact.from_scaled(np.eye(sys.k, 3, dtype=np.int64), 1, backend)
    mixing = ExperimentConfig(experiment="mixing-profile", system=f"bern:d=2,L={L}",
                              backend=backend, parameters={"n_max": "100"})
    walks = {
        "lens": lambda: list(orbit(sys, c, 100)),
        "cesaro": lambda: list(cesaro_average(orbit(sys, c, 100), [3, 100])),
        "pull_back": lambda: list(lens.pull_back(sys, blocks, 100)),
        "mixing": lambda: run_experiment(mixing, write=False),
    }
    if backend == exact.RATIONAL:
        walks["one-sided"] = lambda: list(orbit(sys, c, 100, "one-sided"))
    for name, run in walks.items():
        del gathers[:]
        run()
        assert len(gathers) <= L + 1, name


@pytest.mark.parametrize("backend", [exact.RATIONAL, exact.FLOAT])
def test_an_exact_walk_is_compared_once_and_a_fixed_start_settles_at_step_one(
        backend, monkeypatch):
    """A relabeling step is a bijection: a walk on rot:k=16 that moves at
    its first step compares states that once.  (A rational cesaro_average
    on an exact system walks no orbit, and compares none.)  The product
    coupling is tau-invariant: its walk settles at step 1, one gather and
    one run for every later state."""
    compared = []
    same = exact.same

    def counted(a, b):
        compared.append(1)
        return same(a, b)

    monkeypatch.setattr(exact, "same", counted)
    sys = rotation_system(16, 3, backend=backend)
    c = random_coupling(16, np.random.default_rng(5), backend=backend)
    mixing = ExperimentConfig(experiment="mixing-profile", system="rot:k=16,s=3",
                              backend=backend, parameters={"n_max": "40"})
    walked = int(backend == exact.FLOAT)
    for run, expected in ((lambda: list(orbit(sys, c, 40)), 1),
                          (lambda: list(orbit(sys, c, 40, "one-sided")), 1),
                          (lambda: list(cesaro_average(orbit(sys, c, 40), [7, 40])), walked),
                          (lambda: list(lens.pull_back(sys, c.matrix, 40)), 1),
                          (lambda: detect_period(sys, c, 40), 1),
                          (lambda: run_experiment(mixing, write=False), 1)):
        del compared[:]
        run()
        assert len(compared) == expected
    product = product_coupling(16, backend)
    for mode in ("lens", "one-sided"):
        runs = list(orbit(sys, product, 40, mode).runs())
        assert [count for _, count in runs] == [1, 40]
        assert _identical(runs[1][0].matrix, product.matrix)
    assert detect_period(sys, product, 40).period == 1


#
# An exact system's Cesaro sums are read off powers of its cell map.
#

# Horizons at and beside the powers of two up to 1025, where the doubling
# turns: 1, 2^j - 1, 2^j and 2^j + 1.
_TURNS = sorted({1} | {2**j + d for j in range(1, 11) for d in (-1, 0, 1)})


def _running_sums(sys, c, n_steps, mode):
    """The oracle: sum of states 1..N of a plain stepping loop, divided by N,
    for N = 1 .. n_steps."""
    step = lens_step if mode == "lens" else one_sided_step
    total, averages = None, {}
    for n in range(1, n_steps + 1):
        c = step(sys, c)
        total = c.matrix if total is None else exact.mat_add(total, c.matrix)
        averages[n] = exact.mat_div(total, n)
    return averages


@settings(max_examples=40, deadline=None, derandomize=True)
@given(zoo_specs().filter(lambda spec: not spec.startswith("bern")),
       st.sampled_from(["lens", "one-sided"]),
       st.lists(st.sampled_from(_TURNS), min_size=1, max_size=6),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_exact_cesaro_sums_by_doubling_match_the_running_sum(spec, mode, horizons,
                                                           extra, seed):
    """On rot, odo and iet systems a rational cesaro_average, which doubles
    on powers of the cell map, gives at every horizon, in any order and
    with repeats, the numerators and denominator of the stepwise running
    sum."""
    sys, c = _zoo_pair(spec, seed, exact.RATIONAL)
    n_steps = max(horizons) + extra
    expected = _running_sums(sys, c, max(horizons), mode)
    averages = list(cesaro_average(orbit(sys, c, n_steps, mode), horizons))
    assert [n for n, _ in averages] == sorted(set(horizons))
    for n, avg in averages:
        want = expected[n]
        assert avg.matrix.dtype == want.dtype
        assert _identical(avg.matrix, want), (n, mode)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("horizons", [[1000], [1000, 999, 513, 1]])
def test_exact_cesaro_average_relabels_log_n_times_a_horizon(horizons, monkeypatch):
    """A rational cesaro_average on rot:k=8 takes at most 2 bit_length(N) + 2
    relabels a horizon, where a walk would take N, and no lens step."""
    relabels = _counting(monkeypatch, exact, "relabel")
    steps = _counting(monkeypatch, lens, "lens_step")
    sys = rotation_system(8, 3)
    c = random_coupling(8, np.random.default_rng(2))
    list(cesaro_average(orbit(sys, c, 1000), horizons))
    assert len(relabels) <= sum(2 * n.bit_length() + 2 for n in horizons)
    assert not steps


def test_float_exact_cesaro_average_still_steps_each_state(monkeypatch):
    """A float orbit repairs each step, so its average keeps the walk: N
    lens steps on rot:k=8."""
    steps = _counting(monkeypatch, lens, "lens_step")
    sys = rotation_system(8, 3, backend=exact.FLOAT)
    c = random_coupling(8, np.random.default_rng(2), backend=exact.FLOAT)
    list(cesaro_average(orbit(sys, c, 200), [50, 200]))
    assert len(steps) == 200
