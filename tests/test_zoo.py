"""Systems zoo: rotations, odometers, shifts, IETs, skew products, groups."""

import tracemalloc
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenslab import (
    DimensionMismatch,
    IETSpec,
    NonInvertible,
    SizeGuard,
    SkewSpec,
    bernoulli_system,
    graph_coupling,
    group_automorphism_check,
    group_elements,
    group_rotation_conjugation,
    iet_system,
    lens_step,
    odometer_system,
    parse_system_spec,
    random_coupling,
    rotation_system,
    skew_Tbar_conjugation,
    skew_W_step,
    skew_torus_restriction,
    system_power,
    torus_point,
)
from lenslab import exact, zoo
from lenslab.partitions import FiniteSystem


def test_rotation_cycle_structure():
    sys = rotation_system(6, 2)
    assert sys.exact
    assert list(sys.perm) == [2, 3, 4, 5, 0, 1]
    assert list(system_power(sys, 3).perm) == list(range(6))
    assert all(list(system_power(sys, n).perm) != list(range(6)) for n in (1, 2))


def test_odometer_adds_one_with_carry():
    sys = odometer_system(3)
    assert sys.k == 8
    assert list(sys.perm) == [(v + 1) % 8 for v in range(8)]


def test_odometer_size_guard():
    with pytest.raises(SizeGuard):
        odometer_system(20)


def _word(idx, d, length):
    """Big-endian symbols of cell idx, one division per symbol."""
    word = []
    for _ in range(length):
        word.append(idx % d)
        idx //= d
    return tuple(reversed(word))


def test_bernoulli_de_bruijn_structure():
    b = bernoulli_system(2, 2)
    assert not b.exact
    q = np.asarray(b.Q)
    # word w = (w0 w1) may step to (w1 c) only
    for w in range(4):
        w0, w1 = _word(w, 2, 2)
        for wp in range(4):
            expected = Fraction(1, 2) if _word(wp, 2, 2)[0] == w1 else 0
            assert q[w, wp] == expected


@pytest.mark.parametrize("d, L", [(3, 2), (2, 3), (4, 1)])
def test_bernoulli_steps_drop_the_first_symbol(d, L):
    q = np.asarray(bernoulli_system(d, L).Q)
    for w in range(d**L):
        tail = _word(w, d, L)[1:]
        for wp in range(d**L):
            expected = Fraction(1, d) if _word(wp, d, L)[:-1] == tail else 0
            assert q[w, wp] == expected


def test_bernoulli_power_uniformizes():
    b = bernoulli_system(3, 2)
    p = system_power(b, 2)
    assert all(x == Fraction(1, 9) for x in np.asarray(p.Q).ravel())


def test_iet_system_permutes_subintervals():
    spec = IETSpec(permutation=(2, 3, 0, 1))
    sys = iet_system(spec)
    assert sys.exact and sys.k == 4
    with pytest.raises(ValueError):
        IETSpec(permutation=(0, 1, 1))


def test_torus_point_reduces_mod_one():
    p = torus_point(Fraction(5, 4), Fraction(-1, 3), Fraction(2))
    assert p == (Fraction(1, 4), Fraction(2, 3), Fraction(0))


def test_skew_step_formula():
    p = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5))
    assert skew_W_step(p) == (Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))


def test_skew_conjugation_equals_step_on_grid():
    qden = 4
    alpha = Fraction(1, 7)
    for a, b, c in iter_product(range(qden), repeat=3):
        t = (Fraction(a, qden), Fraction(b, qden), Fraction(c, qden))
        assert skew_Tbar_conjugation(t, alpha) == skew_W_step(t)


def test_skew_conjugation_is_alpha_free():
    t = (Fraction(1, 3), Fraction(1, 2), Fraction(5, 6))
    outs = {skew_Tbar_conjugation(t, a)
            for a in (Fraction(0), Fraction(1, 3), Fraction(2, 7))}
    assert len(outs) == 1


def _oracle_Tbar_conjugation(t, alpha):
    """The conjugation composed one Fraction at a time: Tbar^{-1}, then S_t,
    then Tbar, at each point of {0, 1/3, 2/5, 5/7}^3."""
    alpha = Fraction(alpha)
    t = torus_point(*t)
    grid = [Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(5, 7)]
    vec = None
    for p in iter_product(grid, repeat=3):
        x, y, z = p
        q = torus_point(x - alpha, y - x + alpha, z - y)
        q = torus_point(*(qi + ti for qi, ti in zip(q, t)))
        x, y, z = q
        q = torus_point(x + alpha, x + y, x + y + z)
        delta = torus_point(*(qi - pi for qi, pi in zip(q, p)))
        if vec is None:
            vec = delta
        elif vec != delta:
            raise ArithmeticError("composite is not a single translation")
    return vec


def _torus_fractions():
    # Denominators up to 2**70 put the common denominator past the int64 path.
    dens = st.one_of(st.integers(1, 60), st.integers(2**61, 2**70))
    return dens.flatmap(lambda d: st.builds(Fraction, st.integers(-3 * d, 3 * d),
                                            st.just(d)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(_torus_fractions(), _torus_fractions(), _torus_fractions()),
       _torus_fractions())
@example((Fraction(1, 3), Fraction(7, 10**20 + 3), Fraction(2, 5)), Fraction(1, 7))
def test_skew_conjugation_matches_the_fraction_oracle(t, alpha):
    out = skew_Tbar_conjugation(t, alpha)
    assert out == _oracle_Tbar_conjugation(t, alpha) == skew_W_step(torus_point(*t))
    assert all(type(x) is Fraction for x in out)


def test_skew_conjugation_checks_every_sample_point(monkeypatch):
    # Tbar with a square in its last coordinate: the composite moves points
    # by amounts that depend on the point, so it is no translation.
    def bent(num, a, den):
        x, y, z = num.T
        return np.stack([x + a, x + y, x * x + y + z], axis=1) % den

    monkeypatch.setattr(zoo, "_tbar", bent)
    with pytest.raises(ArithmeticError, match="single translation"):
        skew_Tbar_conjugation((Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)),
                              Fraction(1, 7))


def test_skew_power_identity_on_denominator_q_points():
    def wpow(p, n):
        for _ in range(n):
            p = skew_W_step(p)
        return p

    p3 = (Fraction(1, 3), Fraction(2, 3), Fraction(0))
    assert wpow(p3, 3) == p3  # odd q: period divides q
    p4 = (Fraction(1, 4), Fraction(3, 4), Fraction(1, 2))
    assert wpow(p4, 16) == p4  # every q: period divides q^2
    assert wpow(p4, 8) == p4   # even q: period divides 2q


def test_skew_torus_restriction_matches_full_map():
    a = Fraction(1, 6)
    for b, c in iter_product(range(6), repeat=2):
        t = (a, Fraction(b, 6), Fraction(c, 6))
        assert skew_torus_restriction(a, t[1:]) == skew_W_step(t)[1:]


def test_group_elements_enumeration():
    els = group_elements((2, 3))
    assert len(els) == 6
    assert (1, 2) in els


def test_group_automorphism_check_rejects():
    with pytest.raises(NonInvertible):
        group_automorphism_check((4,), [[2]])  # not invertible mod 4
    with pytest.raises(NonInvertible):
        group_automorphism_check((4, 3), [[1, 1], [0, 1]])  # ill-defined mixing
    group_automorphism_check((4, 3), [[3, 0], [0, 2]])
    group_automorphism_check((2, 2, 2), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def test_group_rotation_conjugation_identity():
    moduli = (5,)
    for m in (1, 2, 3, 4):
        for z in group_elements(moduli):
            img = group_rotation_conjugation(moduli, [[m]], z)
            assert img == ((m * z[0]) % 5,)


def test_system_spec_grammar():
    sys = parse_system_spec("rot:k=5,s=2")
    assert isinstance(sys, FiniteSystem) and sys.k == 5
    assert parse_system_spec("odo:m=2").k == 4
    assert parse_system_spec("bern:d=2,L=3").k == 8
    assert parse_system_spec("iet:perm=2,0,1").k == 3
    skew = parse_system_spec("skew:alpha=1/7")
    assert isinstance(skew, SkewSpec) and skew.alpha == Fraction(1, 7)
    with pytest.raises(Exception):
        parse_system_spec("nope:k=1")
    with pytest.raises(Exception):
        parse_system_spec("rot:k=5,bogus=2")


def test_parsed_systems_act_on_couplings():
    sys = parse_system_spec("rot:k=4,s=1")
    c = graph_coupling(np.array([1, 0, 3, 2]))
    assert not np.shares_memory(lens_step(sys, c).C, c.C)


def _apply_matrix_oracle(moduli, mat, z):
    """M z one coordinate at a time, in Python integers."""
    r = len(moduli)
    return tuple(sum(int(mat[i][j]) * int(z[j]) for j in range(r)) % moduli[i]
                 for i in range(r))


def _conjugation_oracle(moduli, mat, z):
    """T R_z T^{-1} composed tuple by tuple over the whole group; M z or None."""
    elements = group_elements(moduli)
    inverse = {_apply_matrix_oracle(moduli, mat, g): g for g in elements}
    mz = _apply_matrix_oracle(moduli, mat, z)
    for g in elements:
        shifted = tuple((p + zi) % m for p, zi, m in zip(inverse[g], z, moduli))
        expected = tuple((gi + w) % m for gi, w, m in zip(g, mz, moduli))
        if _apply_matrix_oracle(moduli, mat, shifted) != expected:
            return None
    return mz


@pytest.mark.parametrize("moduli, mat", [
    ((8, 8), [[1, 3], [0, 1]]),
    ((8, 8), [[3, 2], [1, 1]]),
    ((6, 6), [[1, 2], [0, 1]]),
    ((6, 6), [[5, 1], [-1, 0]]),
    ((4, 2), [[1, 2], [1, 1]]),
])
def test_group_rotation_conjugation_matches_loop_oracle(moduli, mat):
    for z in group_elements(moduli):
        img = group_rotation_conjugation(moduli, mat, z)
        assert img == _conjugation_oracle(moduli, mat, z)
        assert all(type(x) is int for x in img)


_GROUPS = [
    ((8, 8), [[1, 3], [0, 1]]),
    ((8, 8), [[3, 2], [1, 1]]),
    ((6, 6), [[5, 1], [-1, 0]]),
    ((4, 2), [[1, 2], [1, 1]]),
    ((5,), [[3]]),
    ((2, 2, 2), [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    ((64, 64), [[1, 1], [0, 1]]),  # order 4096: four z rows a block
]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(_GROUPS), st.data())
def test_group_rotation_conjugation_on_an_array_matches_the_oracle_row_by_row(group, data):
    """An (n, r) array of elements, in any order, with repeats and with
    coordinates outside 0..m-1, gives the (n, r) array of M z and a mask
    that holds on every row; each row equals the oracle and the one-z call."""
    moduli, mat = group
    coords = [st.integers(-2 * m, 2 * m) for m in moduli]
    zs = data.draw(st.lists(st.tuples(*coords), min_size=1, max_size=12))
    images, holds = group_rotation_conjugation(moduli, mat, np.array(zs))
    assert images.shape == (len(zs), len(moduli)) and holds.all()
    for z, img in zip(zs, images.tolist()):
        assert tuple(img) == _conjugation_oracle(moduli, mat, z)
        assert tuple(img) == group_rotation_conjugation(moduli, mat, z)


def test_group_rotation_conjugation_masks_the_rows_where_the_identity_fails(monkeypatch):
    """With a map T that is a bijection but no homomorphism, the identity
    T R_z T^{-1} = R_{T z} fails for some z: the mask is False on exactly
    those rows (checked tuple by tuple), in every block, and the one-z
    call raises ArithmeticError there."""
    moduli = (64, 64)
    elements, images = zoo._automorphism_images(moduli, [[1, 1], [0, 1]])
    broken = images.copy()
    broken[[1, 2]] = broken[[2, 1]]  # T swaps the images of (0, 1) and (0, 2)
    monkeypatch.setattr(zoo, "_automorphism_images", lambda *_: (elements, broken))
    rng = np.random.default_rng(0)
    zs = np.concatenate([elements[:6], elements[rng.choice(len(elements), 14)]])
    _, holds = group_rotation_conjugation(moduli, [[1, 1], [0, 1]], zs)
    flat = {tuple(g): i for i, g in enumerate(elements.tolist())}
    image = {tuple(g): tuple(elements[broken[i]]) for g, i in flat.items()}
    inverse = {v: g for g, v in image.items()}

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    for z, ok in zip(map(tuple, zs.tolist()), holds.tolist()):
        tz = image[z]
        assert ok == all(image[add(inverse[g], z)] == add(g, tz) for g in flat)
        if not ok:
            with pytest.raises(ArithmeticError, match="conjugation identity failed"):
                group_rotation_conjugation(moduli, [[1, 1], [0, 1]], z)
    assert holds[0] and not holds[1:3].any()


@pytest.mark.parametrize("moduli, mat, error, message", [
    ((4, 4), [[1]], DimensionMismatch, "matrix shape must match the number of factors"),
    ((64, 65), [[1, 0], [0, 1]], SizeGuard, "group of order 4160 > 4096"),
    ((4, 2), [[1, 1], [0, 1]], NonInvertible, "entry (0,1) ignores the factor orders"),
    ((4, 6), [[1, 0], [1, 1]], NonInvertible, "entry (1,0) ignores the factor orders"),
    ((4, 4), [[2, 0], [0, 1]], NonInvertible, "matrix is not a bijection on the group"),
    ((8, 8), [[1, 2**61 + 3], [0, 1]], None, None),  # no int64 wrap
])
def test_group_automorphism_check_keeps_its_checks_and_messages(moduli, mat, error, message):
    if error is None:
        group_automorphism_check(moduli, mat)
        assert (group_rotation_conjugation(moduli, mat, (3, 5))
                == _apply_matrix_oracle(moduli, mat, (3, 5)))
        return
    with pytest.raises(error) as info:
        group_automorphism_check(moduli, mat)
    assert str(info.value) == message


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_system_holds_its_permutation_only():
    # A dense 4096 x 4096 Q would take at least 8 * 4096**2 bytes.
    assert _peak_bytes(lambda: rotation_system(exact.SIZE_LIMIT, 1)) < 4 * 2**20


@pytest.mark.parametrize("build", [
    lambda: random_coupling(exact.SIZE_LIMIT + 1, np.random.default_rng(0)),
    lambda: graph_coupling(range(exact.SIZE_LIMIT + 1)),
])
def test_couplings_refuse_oversized_k_before_allocating(build):
    def refused():
        with pytest.raises(SizeGuard, match="side > 4096"):
            build()
    assert _peak_bytes(refused) < 4 * 2**20
