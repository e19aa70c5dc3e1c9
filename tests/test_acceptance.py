"""Acceptance gate: twelve timed exactness and bound properties.

Each criterion is one test, so a verbose run prints exactly one pass/fail
line per criterion; a matching console line (with the measured time) is
printed for runs with output capture disabled.  Every test enforces its own
wall-clock budget and uses exact arithmetic unless the property is about
the float backend, in which case the stated tolerance applies.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import scipy.linalg

from lenslab import (
    CouplingMatrix,
    IETSpec,
    bernoulli_cyclic_commuter,
    bernoulli_system,
    cesaro_average,
    consecutive_blocks,
    coupling_distance,
    detect_period,
    entropy_factor_F,
    fixed_point_space,
    graph_coupling,
    group_elements,
    group_rotation_conjugation,
    iet_system,
    lens_step,
    markov_commutation_residual,
    odometer_commuter,
    odometer_system,
    orbit,
    product_coupling,
    random_coupling,
    random_rational_target,
    realize_coupling_as_iet,
    realize_entropy_block,
    rigidity_probe,
    rotation_system,
    run_experiment,
    self_joining_residual,
    skew_Tbar_conjugation,
    skew_torus_restriction,
    skew_W_step,
    system_from_permutation,
    system_power,
    torus_point,
    transitivity_witness,
    validate_coupling,
)
from lenslab import exact
from lenslab.experiments import config_from_mapping

FLOAT_TOL = 1e-12


@contextmanager
def budget(num: int, name: str, limit_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {num:02d} ({name}): pass in {elapsed:.2f}s "
          f"(budget {limit_s:.0f}s)")
    assert elapsed < limit_s, (
        f"criterion {num} blew its {limit_s:.0f}s budget: {elapsed:.2f}s")


def marginal_deviation(c: CouplingMatrix) -> float:
    m = np.asarray(c.C, dtype=float)
    t = 1.0 / c.k
    return max(np.abs(m.sum(axis=0) - t).max(), np.abs(m.sum(axis=1) - t).max())


def mix(a: CouplingMatrix, b: CouplingMatrix, t) -> CouplingMatrix:
    return CouplingMatrix(t * np.asarray(a.C) + (1 - t) * np.asarray(b.C))


def test_criterion_01_polytope_preservation_and_affinity():
    """1000 random rational couplings across zoo systems (k <= 32): the lens
    step keeps both marginals exact and is an affine map; float deviation
    stays below 1e-12."""
    with budget(1, "polytope and affinity", 10):
        rng = np.random.default_rng(101)
        pool = [
            (rotation_system(32, 5), 200),
            (odometer_system(5), 200),
            (rotation_system(7, 3), 150),
            (iet_system(IETSpec((2, 0, 4, 5, 1, 3))), 150),
            (bernoulli_system(2, 3), 150),
            (bernoulli_system(3, 2), 80),
            (bernoulli_system(2, 4), 50),
            (bernoulli_system(2, 5), 20),
        ]
        assert sum(n for _, n in pool) == 1000
        t = Fraction(2, 7)
        affine_checks = 0
        for sys, trials in pool:
            k = sys.k
            prev = prev_image = None
            for i in range(trials):
                c = random_coupling(k, rng)
                image = lens_step(sys, c)
                assert not validate_coupling(image)
                cheap = sys.exact or k <= 9
                if prev is not None and cheap and i % 5 == 0:
                    lhs = lens_step(sys, mix(c, prev, t))
                    rhs = mix(image, prev_image, t)
                    assert np.array_equal(lhs.C, rhs.C)
                    affine_checks += 1
                prev, prev_image = c, image
        assert affine_checks >= 150

        # float backend leg of the same property
        for sysf in (rotation_system(8, 1, backend=exact.FLOAT),
                     bernoulli_system(2, 3, backend=exact.FLOAT)):
            k = sysf.k
            prev = prev_image = None
            for _ in range(50):
                c = random_coupling(k, rng, backend=exact.FLOAT)
                image = lens_step(sysf, c)
                assert marginal_deviation(image) <= FLOAT_TOL
                if prev is not None:
                    lhs = lens_step(sysf, mix(c, prev, 2 / 7))
                    rhs = mix(image, prev_image, 2 / 7)
                    assert exact.max_abs(lhs.C - rhs.C) <= FLOAT_TOL
                prev, prev_image = c, image


def test_criterion_02_conjugation_equivariance_exhaustive():
    """For every cell permutation pair (tau, sigma) with k <= 4 the lens
    step moves the graph coupling of sigma onto the graph coupling of the
    conjugate tau o sigma o tau^{-1}, exactly."""
    with budget(2, "conjugation equivariance", 5):
        checked = 0
        for k in range(1, 5):
            for tau in permutations(range(k)):
                tau = np.array(tau, dtype=int)
                sys = system_from_permutation(tau)
                tau_inv = exact.invert_permutation(tau)
                for sigma in permutations(range(k)):
                    sigma = np.array(sigma, dtype=int)
                    conj = exact.compose_permutations(
                        exact.compose_permutations(tau, sigma), tau_inv)
                    got = lens_step(sys, graph_coupling(sigma))
                    assert np.array_equal(got.C, graph_coupling(conj).C)
                    checked += 1
        assert checked == 1 + 4 + 36 + 576


def test_criterion_03_iet_realization_with_mass_count_oracle():
    """200 random valid rational targets (k <= 5, L <= 30) are realized as
    interval exchanges whose induced coupling equals the target exactly,
    confirmed by independently counting subinterval images."""
    with budget(3, "interval-exchange realization", 30):
        rng = np.random.default_rng(303)
        for trial in range(200):
            k = int(rng.integers(2, 6))
            L = k * int(rng.integers(1, 30 // k + 1))
            target = random_rational_target(k, L, rng)
            spec = realize_coupling_as_iet(target)
            assert spec.n_intervals == k * L
            counts = np.zeros((k, k), dtype=int)
            for u, image in enumerate(spec.permutation):
                counts[image // L, u // L] += 1
            assert np.array_equal(counts, k * np.asarray(target.m))
            for i in range(k):
                for j in range(k):
                    assert (Fraction(int(counts[i, j]), k * L)
                            == target.coupling().C[i, j])


def test_criterion_04_rigidity_versus_mixing_dichotomy():
    """Rotation approximants at Fibonacci sizes score exactly 1 at n = k
    (and strictly below 1 before); the full shift's score settles at the
    closed form sum(a_i) * sum(a_j^2) < 0.9, float-matched to 1e-12."""
    with budget(4, "rigidity vs mixing", 10):
        fib = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]
        for k in fib:
            if k == 2:
                blocks = [[0, 1]]  # no distinct-size split of two cells
            else:
                blocks = [[0], list(range(1, k))]
            sys = rotation_system(k, 1)
            assert rigidity_probe(sys, blocks, k) == 1
            if k > 2:
                assert rigidity_probe(sys, blocks, 1) < 1
                assert rigidity_probe(sys, blocks, k // 2) < 1

        sizes = (1, 3, 4)
        blocks = consecutive_blocks(sizes)
        masses = [Fraction(s, 8) for s in sizes]
        closed_form = sum(masses) * sum(a * a for a in masses)
        assert closed_form == Fraction(13, 32) < Fraction(9, 10)
        shift = bernoulli_system(2, 3)
        for n in (3, 4, 5, 6):
            assert rigidity_probe(shift, blocks, n) == closed_form
        shift_f = bernoulli_system(2, 3, backend=exact.FLOAT)
        for n in (3, 4, 5):
            score = rigidity_probe(shift_f, blocks, n)
            assert abs(score - float(closed_form)) <= FLOAT_TOL


def test_criterion_05_transitivity_witnesses():
    """Every neighborhood pair at depth one, and 50 seeded pairs at depth
    two, admit a fine graph coupling that the lens steers from the source
    permutation neighborhood exactly onto the target one."""
    with budget(5, "transitivity witnesses", 60):
        for sigma in permutations(range(2)):
            for pi in permutations(range(2)):
                res = transitivity_witness(2, 1, sigma, pi)
                assert res.n == 1
                assert res.check_source and res.check_image
                assert np.array_equal(res.restricted_source.C,
                                      graph_coupling(np.array(sigma)).C)
                assert np.array_equal(res.restricted_image.C,
                                      graph_coupling(np.array(pi)).C)
        rng = np.random.default_rng(505)
        for _ in range(50):
            sigma, pi = rng.permutation(4), rng.permutation(4)
            res = transitivity_witness(2, 2, sigma, pi)
            assert res.n == 2
            assert res.check_source and res.check_image
            assert np.array_equal(res.restricted_source.C,
                                  graph_coupling(sigma).C)
            assert np.array_equal(res.restricted_image.C,
                                  graph_coupling(pi).C)


def test_criterion_06_entropy_factor_blocks():
    """Every 0/half block with n <= 3, and 50 seeded blocks with n <= 8, is
    realized by a coupling whose factor sequence opens with exactly that
    block."""
    with budget(6, "entropy factor blocks", 30):
        half = Fraction(1, 2)
        checked = 0
        for n in (1, 2, 3):
            for bits in product((Fraction(0), half), repeat=n):
                lam = realize_entropy_block(bits)
                assert entropy_factor_F(bernoulli_system(2, n), lam, n) == list(bits)
                checked += 1
        assert checked == 14
        rng = np.random.default_rng(606)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            bits = tuple(half if rng.integers(2) else Fraction(0)
                         for _ in range(n))
            lam = realize_entropy_block(bits)
            assert entropy_factor_F(bernoulli_system(2, n), lam, n) == list(bits)


def test_criterion_07_fixed_and_periodic_points():
    """(a) The lens-fixed couplings of a cyclic rotation form an affine
    space of dimension k-1 made of circulants, matching an independent
    float nullspace oracle; (b) every cyclic symbol commuter of the full
    shift commutes with the shift matrix exactly; (c) all 24 low-digit
    odometer commuters commute with the fourth odometer power and have
    lens period dividing 4."""
    with budget(7, "fixed and periodic points", 60):
        # (a) rotation fixed spaces, with an SVD nullspace cross-check
        for k in (3, 4, 5):
            space = fixed_point_space(rotation_system(k, 1))
            assert space.dimension == k - 1
            assert len(space.basis) == k - 1
            assert self_joining_residual(
                rotation_system(k, 1), product_coupling(k)) == 0
            for d in space.basis:
                d = exact.entries(d)
                for i in range(k):
                    for j in range(k):
                        assert d[i, j] == d[(i + 1) % k, (j + 1) % k]
                assert all(x == 0 for x in d.sum(axis=0))
                assert all(x == 0 for x in d.sum(axis=1))
            q = np.asarray(rotation_system(k, 1, backend=exact.FLOAT).Q,
                           dtype=float)
            fixed_rows = np.kron(q.T, q.T) - np.eye(k * k)
            marg = np.zeros((2 * k, k * k))
            for i in range(k):
                for j in range(k):
                    marg[i, i * k + j] = 1.0
                    marg[k + j, i * k + j] = 1.0
            null = scipy.linalg.null_space(np.vstack([fixed_rows, marg]),
                                           rcond=1e-10)
            assert null.shape[1] == k - 1

        # (b) full-shift commuters: exact operator commutation
        for d in (2, 3):
            for ell in (1, 2):
                for L in (1, 2):
                    res = bernoulli_cyclic_commuter(d, ell, L)
                    assert res.commutation_residual == 0
                    assert res.cycles_blocks

        # (c) odometer commuters on the low two digits at level three
        syso = odometer_system(3)
        power4 = system_power(syso, 4)
        count = 0
        for pi in permutations(range(4)):
            s = odometer_commuter(pi, 3)
            lam = graph_coupling(s)
            assert markov_commutation_residual(power4, lam) == 0
            report = detect_period(syso, lam, maxp=4)
            assert report.period is not None
            assert 4 % report.period == 0
            count += 1
        assert count == 24


def test_criterion_08_one_sided_quasi_attractor():
    """One-sided orbits of the full shift hit the product coupling exactly
    by step 2L and stay there; one-sided orbits of graph couplings under a
    cyclic rotation stay graph couplings of the rotated permutations."""
    with budget(8, "one-sided quasi-attractor", 10):
        shift = bernoulli_system(2, 3)
        prod = product_coupling(8)
        rng = np.random.default_rng(808)
        for _ in range(20):
            c0 = random_coupling(8, rng)
            dists = [coupling_distance(st, prod)
                     for st in orbit(shift, c0, 10, mode="one-sided")]
            hit = next(n for n, d in enumerate(dists) if d == 0)
            assert hit <= 6  # 2L = 6
            assert all(d == 0 for d in dists[hit:])

        rot = rotation_system(8, 1)
        tau = np.asarray(rot.perm, dtype=int)
        for _ in range(5):
            sigma = rng.permutation(8)
            orb = orbit(rot, graph_coupling(sigma), 16, mode="one-sided")
            current = sigma
            for n, state in enumerate(orb):
                assert np.array_equal(state.C, graph_coupling(current).C), n
                current = tau[current]


def test_criterion_09_cesaro_barycenter_bound():
    """For a representative of every finite-partition zoo family and 20
    seeded initial couplings, the self-joining residual of the N-step
    orbit average obeys the telescoping bound 2/N at N = 10, 100, 1000."""
    with budget(9, "cesaro barycenter", 30):
        exact_systems = [
            rotation_system(8, 3),
            odometer_system(3),
            iet_system(IETSpec((2, 0, 4, 5, 1, 3))),
        ]
        for sys in exact_systems:
            rng = np.random.default_rng(909)
            for _ in range(20):
                c0 = random_coupling(sys.k, rng)
                for n, avg in cesaro_average(orbit(sys, c0, 1000), (10, 100, 1000)):
                    assert self_joining_residual(sys, avg) <= Fraction(2, n)

        # the stochastic full shift: exact arithmetic to N = 100, floats
        # (whose entries stop changing after mixing) for the N = 1000 leg
        shift = bernoulli_system(2, 3)
        shift_f = bernoulli_system(2, 3, backend=exact.FLOAT)
        rng = np.random.default_rng(919)
        for _ in range(20):
            c0 = random_coupling(8, rng)
            for n, avg in cesaro_average(orbit(shift, c0, 100), (10, 100)):
                assert self_joining_residual(shift, avg) <= Fraction(2, n)
            c0f = CouplingMatrix(exact.as_float(np.asarray(c0.C)))
            [(_, avgf)] = cesaro_average(orbit(shift_f, c0f, 1000), [1000])
            assert self_joining_residual(shift_f, avgf) <= 2 / 1000 + 1e-9


def test_criterion_10_skew_product_dynamics():
    """On a 5x5x5 rational grid and three rotation angles, conjugating the
    translation by the affine skew map equals the closed-form step, and the
    invariant-torus restriction is the expected affine map."""
    with budget(10, "skew-product dynamics", 5):
        fifths = [Fraction(i, 5) for i in range(5)]
        for alpha in (Fraction(1, 7), Fraction(2, 9), Fraction(5, 11)):
            for a, b, c in product(fifths, fifths, fifths):
                t = torus_point(a, b, c)
                stepped = skew_W_step(t)
                assert skew_Tbar_conjugation(t, alpha) == stepped
                assert skew_torus_restriction(a, (b, c)) == stepped[1:]


def test_criterion_11_group_rotation_embedding():
    """For three finite abelian groups and three automorphisms each,
    conjugating every rotation by the automorphism lands exactly on the
    rotation by the automorphism image."""
    with budget(11, "group-rotation embedding", 5):
        cases = {
            (5,): ([[2]], [[3]], [[4]]),
            (2, 2, 2): (
                [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
            ),
            (4, 3): ([[3, 0], [0, 1]], [[1, 0], [0, 2]], [[3, 0], [0, 2]]),
        }
        for moduli, mats in cases.items():
            for mat in mats:
                for z in group_elements(moduli):
                    image = group_rotation_conjugation(moduli, mat, z)
                    expected = tuple(
                        sum(mat[i][j] * z[j] for j in range(len(moduli)))
                        % moduli[i]
                        for i in range(len(moduli)))
                    assert image == expected


CONFIGS = [
    {"experiment": "rigidity-sweep", "system": "rot:k=6,s=1",
     "blocks": "1,2,3", "n_max": "6", "expect_return_at": "6"},
    {"experiment": "mixing-profile", "system": "bern:d=2,L=2",
     "n_max": "4", "expect_zero_by": "2"},
    {"experiment": "transitivity-witness", "d": "2", "L": "2",
     "sigma": "1,0,3,2", "pi": "2,3,0,1"},
    {"experiment": "entropy-factor", "block": "0,1/2,1/2"},
    {"experiment": "fixed-points", "system": "rot:k=4,s=1"},
    {"experiment": "periodic-commuters", "family": "odometer",
     "m": "3", "pi": "1,0,3,2"},
    {"experiment": "one-sided-limit", "system": "bern:d=2,L=2",
     "n_steps": "6", "init": "random", "seed": "9",
     "expect_product_by": "4"},
    {"experiment": "cesaro-barycenter", "system": "rot:k=5,s=2",
     "seed": "11", "N_values": "10,50", "n_initials": "2"},
    {"experiment": "skew-orbit", "system": "skew:alpha=1/7",
     "start": "0,1/3,2/5", "N": "8"},
    {"experiment": "iet-realize", "k": "4", "L": "12", "seed": "5"},
    {"experiment": "group-embedding", "moduli": "4,3", "matrix": "3,0;0,2"},
]


def test_criterion_12_experiment_determinism(tmp_path):
    """Re-running every registry experiment with a fixed config produces a
    byte-identical report and byte-identical CSV series files."""
    with budget(12, "experiment determinism", 60):
        assert sorted(m["experiment"] for m in CONFIGS) == sorted(
            e["name"] for e in __import__("lenslab").list_experiments())
        for mapping in CONFIGS:
            out = tmp_path / mapping["experiment"]
            cfg = config_from_mapping({**mapping, "output_dir": str(out)})
            first = run_experiment(cfg)
            assert first.passed, mapping["experiment"]
            snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
            assert "report.json" in snapshot and len(snapshot) >= 2
            second = run_experiment(cfg)
            assert second.passed
            for p in sorted(out.iterdir()):
                assert p.read_bytes() == snapshot[p.name], p.name
            assert first.to_stable_json() == second.to_stable_json()
