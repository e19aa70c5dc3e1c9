"""Arithmetic backbone: scaled-integer matmul, nullspaces, permutations."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenslab import (
    CouplingMatrix,
    FiniteSystem,
    RationalTarget,
    bernoulli_system,
    exact,
    graph_coupling,
    lens_step,
    lift_coupling,
    product_coupling,
    random_coupling,
    repair_to_polytope,
    rotation_system,
    system_from_matrix,
    system_from_permutation,
    system_power,
)


def frac_matrix(rows):
    return exact.frac_array(rows)


def test_split_join_roundtrip():
    a = frac_matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(2), Fraction(0)]])
    split = exact.split_common(a)
    num, den = split.num, split.den
    assert den == 6
    back = exact.join_scaled(num, den)
    assert np.array_equal(a, back)


def test_mat_mul_matches_fraction_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = np.array([[Fraction(int(x), int(y)) for x, y in
                       zip(rng.integers(-9, 10, 4), rng.integers(1, 7, 4))]
                      for _ in range(4)], dtype=object)
        b = np.array([[Fraction(int(x), int(y)) for x, y in
                       zip(rng.integers(-9, 10, 4), rng.integers(1, 7, 4))]
                      for _ in range(4)], dtype=object)
        fast = exact.mat_mul(exact.stored(a), exact.stored(b))
        slow = a @ b  # numpy object matmul uses Fraction arithmetic directly
        assert np.array_equal(exact.entries(fast), slow)


def test_kernels_refuse_a_fraction_array():
    a = frac_matrix([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(TypeError, match="exact.stored"):
        exact.mat_mul(a, a)
    assert exact.mat_mul(exact.stored(a), exact.stored(a)).fractions[0, 0] == Fraction(1, 4)


def test_mat_conjugate_is_two_muls():
    q = exact.matrix_of_permutation([2, 0, 1])
    c = exact.stored(frac_matrix([[Fraction(i * 3 + j, 9) for j in range(3)]
                                  for i in range(3)]))
    assert np.array_equal(exact.entries(exact.mat_conjugate(q, c)),
                          exact.entries(exact.mat_mul(exact.mat_mul(q.T, c), q)))


def test_mat_power_binary_exponentiation():
    a = exact.stored(frac_matrix([[1, 1], [0, 1]]))
    p = exact.mat_power(a, 25)
    assert p.fractions[0, 1] == 25
    assert np.array_equal(exact.entries(exact.mat_power(a, 0)),
                          exact.entries(exact.identity(2)))
    with pytest.raises(ValueError):
        exact.mat_power(a, -1)


def test_int64_fast_path_agrees_with_object_path():
    # Entries big enough to matter, small enough for the int64 guard.
    rng = np.random.default_rng(7)
    a = rng.integers(-10**6, 10**6, (8, 8)).astype(object)
    b = rng.integers(-10**6, 10**6, (8, 8)).astype(object)
    assert np.array_equal(exact._int_matmul(a, b), a @ b)


def test_int64_guard_falls_back_for_huge_entries():
    big = 2**70
    a = np.array([[big, 1], [0, big]], dtype=object)
    out = exact._int_matmul(a, a)
    assert out[0, 0] == big * big


def test_permutation_helpers():
    p = np.array([2, 0, 1])
    assert list(exact.invert_permutation(p)) == [1, 2, 0]
    q = np.array([1, 0, 2])
    assert list(exact.compose_permutations(p, q)) == [0, 2, 1]
    for perm, order in ((p, 3), (np.array([1, 0, 3, 2]), 2)):
        sys = system_from_permutation(perm)
        identity = list(range(len(perm)))
        assert list(system_power(sys, order).perm) == identity
        assert all(list(system_power(sys, n).perm) != identity for n in range(1, order))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2, 9), min_size=1, max_size=9))
def test_is_permutation_is_the_sorted_check(cells):
    """One range check and one bincount say what sorting says: the cells
    are 0 .. k-1, each once."""
    cells = np.array(cells)
    assert exact.is_permutation(cells) == (sorted(cells.tolist()) == list(range(len(cells))))


def test_matrix_of_permutation_convention():
    m = exact.matrix_of_permutation([1, 2, 0]).fractions
    # column j carries its mass to row perm[j]
    assert m[1, 0] == 1 and m[2, 1] == 1 and m[0, 2] == 1
    assert exact.permutation_of_matrix(exact.stored(m.T)) is not None


def test_permutation_of_matrix_rejects_non_permutation():
    m = exact.stored(exact.frac_array([[Fraction(1, 2), Fraction(1, 2)],
                                       [Fraction(1, 2), Fraction(1, 2)]]))
    assert exact.permutation_of_matrix(m) is None


def test_exact_nullspace_known_kernel():
    # x + y + z = 0 and x - z = 0 has kernel spanned by (1, -2, 1)
    a = exact.stored(exact.frac_array([[1, 1, 1], [1, 0, -1]]))
    basis = exact.exact_nullspace(a)
    assert len(basis) == 1
    v = basis[0].fractions
    ratio = v[0]
    assert v[1] == -2 * ratio and v[2] == ratio and ratio != 0


def test_exact_nullspace_agrees_with_scipy_dimension():
    from scipy.linalg import null_space

    rng = np.random.default_rng(5)
    for _ in range(10):
        a_int = rng.integers(-3, 4, (3, 5))
        basis = exact.exact_nullspace(a_int)
        dim = null_space(a_int.astype(float)).shape[1]
        assert len(basis) == dim
        for v in basis:
            residual = a_int.astype(object) @ v.fractions
            assert all(x == 0 for x in residual.ravel())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12),
               min_size=9, max_size=9))
def test_l1_and_max_norms_consistent(vals):
    a = exact.stored(np.array(vals, dtype=object).reshape(3, 3))
    assert exact.l1_norm(a) >= exact.max_abs(a)
    assert exact.l1_norm(a) == sum(abs(v) for v in vals)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.permutations(list(range(5))))
def test_permutation_matrix_roundtrip(perm):
    m = exact.matrix_of_permutation(perm).fractions
    # column sums and row sums are 1: doubly stochastic 0/1 matrix
    assert all(m[:, j].sum() == 1 for j in range(5))
    tau = exact.permutation_of_matrix(exact.stored(m.T))
    assert tau is not None
    assert list(m.T[np.arange(5), tau]) == [Fraction(1)] * 5


#
# Scaled-integer kernels against per-entry Fraction oracles.
#

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=40)


def matrices(shape=(3, 4)):
    size = shape[0] * shape[1]
    return st.lists(fractions_st, min_size=size, max_size=size).map(
        lambda vals: np.array(vals, dtype=object).reshape(shape))


def oracle_split(a):
    den = math.lcm(*(x.denominator for x in a.ravel()))
    return [x.numerator * (den // x.denominator) for x in a.ravel()], den


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices())
def test_split_join_roundtrip_matches_oracle(a):
    split = exact.split_common(a)
    num, den = split.num, split.den
    want_num, want_den = oracle_split(a)
    assert den == want_den
    assert [int(n) for n in num.ravel()] == want_num
    back = exact.join_scaled(num, den)
    assert back.shape == a.shape
    assert all(type(x) is Fraction and x == y for x, y in zip(back.ravel(), a.ravel()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(), matrices(), fractions_st)
def test_reductions_match_oracle(a, b, s):
    diff = [x - y for x, y in zip(a.ravel(), b.ravel())]
    sa, sb = exact.stored(a), exact.stored(b)
    assert exact.l1_norm(sa) == sum(abs(x) for x in a.ravel())
    assert exact.max_abs(sa) == max(abs(x) for x in a.ravel())
    assert exact.l1_norm(sa, sb) == sum(abs(x) for x in diff)
    assert exact.l1_norm(sa, s) == sum(abs(x - s) for x in a.ravel())
    assert exact.max_abs(sa, sb) == max(abs(x) for x in diff)
    assert exact.max_abs(sa, s) == max(abs(x - s) for x in a.ravel())
    # Lowest terms are unique: equal values, equal numerators and denominator.
    same = sa.den == sb.den and np.array_equal(sa.num, sb.num)
    assert same == all(x == 0 for x in diff)
    again = exact.stored(exact.frac_array(a.tolist()))
    assert again.den == sa.den and np.array_equal(again.num, sa.num)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(matrices(), min_size=1, max_size=5))
def test_mat_add_and_mat_div_match_oracle(arrays):
    total = exact.stored(arrays[0])
    for a in arrays[1:]:
        total = exact.mat_add(total, exact.stored(a))
    mean = exact.mat_div(total, len(arrays))
    assert math.gcd(int(np.gcd.reduce(mean.num, axis=None)), mean.den) == 1
    for idx in np.ndindex(arrays[0].shape):
        assert mean.fractions[idx] == sum(a[idx] for a in arrays) / len(arrays)


def test_int64_bound_on_numerators():
    below = exact.frac_array([2**62 - 1, -(2**62 - 1), 3])
    split = exact.split_common(below)
    num, den = split.num, split.den
    assert num.dtype == np.int64 and den == 1
    for big in (2**62, -(2**62), 2**80):
        split = exact.split_common(exact.frac_array([big, 1]))
        num, den = split.num, split.den
        assert num.dtype == object and list(num) == [big, 1] and den == 1
        assert exact.l1_norm(exact.stored(exact.frac_array([big, 1]))) == abs(big) + 1


def test_int64_bound_on_common_denominator():
    primes = [2**31 - 1, 2**61 - 1, 1000003]
    a = exact.frac_array([Fraction(1, p) for p in primes])
    split = exact.split_common(a)
    num, den = split.num, split.den
    assert den == math.prod(primes) and den > 2**63
    assert num.dtype == object
    assert np.array_equal(exact.join_scaled(num, den), a)
    s = exact.stored(a)
    assert exact.l1_norm(s) == sum(Fraction(1, p) for p in primes)
    assert exact.max_abs(s, Fraction(1, 2)) == Fraction(1, 2) - Fraction(1, primes[1])


def test_sums_promote_before_int64_overflow():
    near = Fraction(2**62 - 1)
    a = exact.stored(exact.frac_array([[near, near], [near, near]]))
    assert a.num.dtype == np.int64
    assert exact.l1_norm(a) == 4 * near
    assert exact.l1_norm(a, exact.scale(a, -1)) == 8 * near
    total = exact.mat_add(exact.mat_add(a, a), a)
    assert total.num.dtype == object
    assert exact.mat_div(total, 3).fractions[0, 0] == near
    assert exact.marginal_defects(a, 2 * near, 0.0) == []


def test_int_matmul_stays_int64_when_it_fits():
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    assert exact._int_matmul(a, a.T).dtype == np.int64
    assert exact._int_matmul(a.astype(object), a.T.astype(object)).dtype == np.int64
    zero, big = np.zeros((2, 2), dtype=np.int64), np.full((2, 2), 2**70, dtype=object)
    assert (exact._int_matmul(zero, big) == 0).all()


@pytest.mark.parametrize("m, k, n", [(16, 256, 16), (15, 256, 17), (64, 1, 64), (3, 7, 5)])
@pytest.mark.parametrize("worst", [2**53 - 1, 2**53, 2**58, 2**61])
def test_int_matmul_is_exact_on_either_side_of_the_float_path(m, k, n, worst):
    """Products of at least _FLOAT_WORK multiply-adds whose worst sum is
    below 2**53 run in float64; the rest in int64.  Entries at the bound
    make every sum as wide as allowed, so a float path taken past 2**53
    would drop low bits."""
    top = math.isqrt(worst // k)
    rng = np.random.default_rng(k * m + n)
    a = rng.choice([-top, top - 1, 1, top], (m, k))
    b = rng.choice([-top, top, top - 3, 7], (k, n))
    out = exact._int_matmul(a, b)
    assert out.dtype == np.int64
    assert np.array_equal(out.astype(object), a.astype(object) @ b.astype(object))


def test_zero_operand_with_huge_denominator():
    zero = exact.constant((2, 2), 0)
    tiny = exact.constant((2, 2), Fraction(1, 2**70))
    assert exact.l1_norm(zero, tiny) == Fraction(4, 2**70)
    assert exact.max_abs(zero, Fraction(1, 2**70)) == Fraction(1, 2**70)
    assert exact.mat_div(exact.mat_add(zero, tiny), 2).fractions[0, 0] == Fraction(1, 2**71)


def test_stored_form_kernels_past_int64_match_fraction_oracles():
    a = exact.frac_array([[2**70, 1], [Fraction(3, 2**70), Fraction(-5, 7)]])
    s = exact.stored(a)
    assert s.num.dtype == object
    assert np.array_equal(exact.scale(s, Fraction(-3, 4)).fractions, a * Fraction(-3, 4))
    assert np.array_equal(exact.relabel(s, np.ix_([1, 0], [1, 0])).fractions,
                          a[np.ix_([1, 0], [1, 0])])
    assert np.array_equal(exact.select(s, (0, slice(None))).fractions, a[0])
    assert np.array_equal(exact.block_sums(s, np.array([0, 0]), 1).fractions,
                          np.array([[a.sum()]], dtype=object))
    assert exact.l1_norm(s, exact.stored(a.T)) == np.abs(a - a.T).sum()
    w = exact.frac_array([Fraction(1, 3), 2**65])
    assert exact.quadratic_form(exact.stored(w), s) == w @ a @ w
    assert exact.as_float(s).tolist() == a.astype(float).tolist()
    zero = exact.scale(s, 0)  # results that fit go back to int64
    assert zero.num.dtype == np.int64 and zero.den == 1


def test_marginal_defects_match_per_entry_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.integers(-1, 4, (4, 4))
        m = np.array([[Fraction(int(v), 12) for v in row] for row in vals], dtype=object)
        target = Fraction(1, 4)
        want = [f"row_sum({i})" for i in range(4) if sum(m[i, :]) != target]
        want += [f"col_sum({j})" for j in range(4) if sum(m[:, j]) != target]
        want += [f"negative_entry({i},{j})" for i in range(4) for j in range(4)
                 if m[i, j] < 0]
        assert exact.marginal_defects(exact.stored(m), target, 1e-12) == want
        mf = exact.as_float(exact.stored(m))
        assert exact.marginal_defects(mf, 0.25, 1e-12) == want


#
# Backend parity: every builder gives the float image of its rational build,
# and every rational build holds one stored form.
#

BUILDERS = {
    "product_coupling": lambda b: product_coupling(7, b),
    "graph_coupling": lambda b: graph_coupling([3, 0, 4, 1, 2], b),
    "bernoulli_system": lambda b: bernoulli_system(3, 2, b),
    "rotation_system": lambda b: rotation_system(6, 5, b),
    "identity": lambda b: exact.identity(5, b),
    "random_coupling": lambda b: random_coupling(
        6, np.random.default_rng(3), backend=b),
    "RationalTarget.coupling": lambda b: RationalTarget(
        L=9, m=np.array([[2, 1, 0], [0, 1, 2], [1, 1, 1]])).coupling(b),
    # Derived results whose float images round exactly like their entries.
    "lens_step(rotation)": lambda b: lens_step(
        rotation_system(6, 5, b), random_coupling(6, np.random.default_rng(4), backend=b)),
    "lens_step(shift)": lambda b: lens_step(
        bernoulli_system(2, 2, b), graph_coupling([1, 3, 0, 2], b)),
    "lift_coupling": lambda b: lift_coupling(
        random_coupling(3, np.random.default_rng(5), backend=b), np.arange(6) // 2),
    "system_power(shift)": lambda b: system_power(bernoulli_system(2, 2, b), 2),
}


def _stored_and_view(obj):
    """The stored form of a build and a freshly fetched per-entry view."""
    if isinstance(obj, CouplingMatrix):
        return obj.matrix, obj.C
    if isinstance(obj, FiniteSystem):
        return obj.matrix, obj.Q
    return obj, exact.entries(obj)


def _rebuilt(obj, view):
    """The same kind of object built again from its per-entry view."""
    if isinstance(obj, CouplingMatrix):
        return CouplingMatrix(view).matrix
    if isinstance(obj, FiniteSystem):
        return system_from_matrix(view).matrix
    return exact.stored(view)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_agree_across_backends(name):
    build = BUILDERS[name]
    rational, floating = build(exact.RATIONAL), build(exact.FLOAT)
    stored, view = _stored_and_view(rational)
    float_stored, float_view = _stored_and_view(floating)
    assert view.dtype == object and float_view.dtype == np.float64
    assert np.array_equal(float_stored, float_view)
    assert all(isinstance(x, Fraction) for x in view.flat)
    assert np.array_equal(exact.as_float(view), float_view)
    assert np.array_equal(exact.as_float(stored), float_view)
    # The stored form: read-only numerators over one denominator, in lowest terms.
    assert isinstance(stored, exact.Scaled)
    assert stored.num.dtype == np.int64 and not stored.num.flags.writeable
    assert math.gcd(int(np.gcd.reduce(stored.num, axis=None)), stored.den) == 1
    # The view is built once, except a system's Q, which is built on each
    # read and not kept; building from it gives the same stored form.
    kept = _stored_and_view(rational)[1] is view
    assert kept != isinstance(rational, FiniteSystem) and not view.flags.writeable
    again = _rebuilt(rational, view)
    assert again.den == stored.den and np.array_equal(again.num, stored.num)
    assert again.num.dtype == stored.num.dtype


def test_scalar_tolerance_and_from_scaled_follow_the_backend():
    x = Fraction(2, 7)
    assert exact.scalar(x) == x and isinstance(exact.scalar(x), Fraction)
    assert exact.scalar(x, exact.FLOAT) == 2 / 7
    assert exact.tolerance(exact.RATIONAL) == 0
    assert exact.tolerance(exact.FLOAT) == exact.FLOAT_TOL
    assert exact.tolerance(exact.FLOAT, exact.SOLVER_TOL) == exact.SOLVER_TOL
    num = np.array([[1, 3], [5, 0]])
    assert np.array_equal(exact.from_scaled(num, 6).fractions,
                          exact.frac_array([["1/6", "1/2"], ["5/6", 0]]))
    assert np.array_equal(exact.from_scaled(num, 6, exact.FLOAT), num / 6)


def test_power_exceeds_limit_matches_the_power():
    for base in range(0, 70):
        for exp in range(0, 30):
            assert exact.power_exceeds_limit(base, exp) == (base**exp > exact.SIZE_LIMIT)
    assert exact.power_exceeds_limit(2, 10**20)
    assert not exact.power_exceeds_limit(1, 10**20)
    assert exact.power_exceeds_limit(10**20, 1)


@pytest.mark.parametrize("parts", [
    [["1/2", "1/3"], ["1/6"]],
    [["0"], ["5/4", "-1/4", "3/4"]],
    [[str(2**70), "1/3"], ["-1/5"]],  # past int64, onto the object path
    [["1/" + str(2**40)], ["1/" + str(2**40 + 1)]],  # common denominator past int64
])
def test_flat_concat_joins_stored_forms_over_one_denominator(parts):
    arrays = [exact.stored(exact.frac_array(p)) for p in parts]
    joined = exact.flat_concat(arrays)
    expected = [Fraction(x) for p in parts for x in p]
    assert isinstance(joined, exact.Scaled)
    assert math.gcd(int(np.gcd.reduce(joined.num, axis=None)), joined.den) == 1
    assert list(joined.fractions) == expected
    floats = exact.flat_concat([np.array([0.5, -0.0]), np.array([[1.5]])])
    assert floats.tolist() == [0.5, -0.0, 1.5] and not floats.flags.writeable


@pytest.mark.parametrize("block", [6, 40, exact._BLOCK_SLOTS])
@pytest.mark.parametrize("magnitude", [9, 2**70])
def test_collect_lines_matches_the_dense_sum_at_any_block_size(monkeypatch, block, magnitude):
    """Slots merged in blocks of lines (written over the sorted slots) or
    all at once give the lines of the dense sum, on int64 and on Python-int
    numerators, and the dense form when a line holds every position."""
    monkeypatch.setattr(exact, "_BLOCK_SLOTS", block)
    rng = np.random.default_rng(block + magnitude % 7)
    for k, width, widths in [(9, 9, (3, 4)), (5, 4, (6,)), (12, 30, (2, 1, 5)), (7, 7, (1,))]:
        pos = [rng.integers(0, width, size=(k, w)) for w in widths]
        num = [rng.integers(-3, 4, size=(k, w)).astype(object) * magnitude for w in widths]
        if magnitude < exact._INT64_SAFE:
            num = [n.astype(np.int64) for n in num]
        dense = np.zeros((k, width), dtype=object)
        for p, n in zip(pos, num):
            np.add.at(dense, (np.arange(k)[:, None], p), n.astype(object))
        bound = sum(widths) * 3 * magnitude
        lines = exact.collect_lines(pos, num, 7, width=width, bound=bound)
        assert exact.same(exact.lines_matrix(lines, width), exact.from_scaled(dense, 7))
        assert exact.is_dense(lines) == (lines.idx.shape[1] == width)
        if not exact.is_dense(lines):  # canonical: ascending, repeats valued zero
            assert (np.diff(lines.idx, axis=1) >= 0).all()
            assert not lines.val.num[~exact._real(lines.idx)].any()


#
# The gather kernel against the dense integer product, its test-only oracle.
#

def _birkhoff_numerators(k, perms, weights):
    """Integer numerators of sum_t w_t P_t, over the total weight: row perm[j]
    of column j takes w_t for each permutation."""
    num = np.zeros((k, k), dtype=object)
    for perm, w in zip(perms, weights):
        num[np.asarray(perm), np.arange(k)] += w
    return num


def _dense_oracle(xn, qn, mode):
    """Integer numerators of the product gather takes in each mode, by dense
    _int_matmul on the k x k numerators of Q."""
    if mode == "QtXQ":
        return exact._int_matmul(exact._int_matmul(qn.T, xn), qn)
    if mode == "QtX":
        return exact._int_matmul(qn.T, xn)
    if mode == "XQ":
        return exact._int_matmul(xn, qn)
    return exact._int_matmul(qn, xn)  # "QX" and "Qw"


_GATHER_MODES = {"QtXQ": ("columns", (0, 1)), "QtX": ("columns", (0,)),
                 "XQ": ("columns", (1,)), "QX": ("rows", (0,)), "Qw": ("rows", (0,))}

# Largest |entry| drawn: small, near 2^61 (int64 operands whose products pass
# 2^62), and past int64 (Python-int operands).
_MAGNITUDES = (9, 2**61, 2**70)


@st.composite
def _gather_cases(draw):
    k = draw(st.integers(1, 9))
    s = draw(st.integers(1, 3))
    perms = [draw(st.permutations(range(k))) for _ in range(s)]
    weights = draw(st.lists(st.integers(1, draw(st.sampled_from((1, 7, 2**70)))),
                            min_size=s, max_size=s))
    mode = draw(st.sampled_from(sorted(_GATHER_MODES)))
    largest = draw(st.sampled_from(_MAGNITUDES))
    shape = (k,) if mode == "Qw" else (k, k)
    entries = draw(st.lists(st.integers(-largest, largest), min_size=math.prod(shape),
                            max_size=math.prod(shape)))
    den = draw(st.integers(1, 12))
    return k, perms, weights, mode, np.array(entries, dtype=object).reshape(shape), den


def _lines(q, side):
    return exact.support(q.T if side == "columns" else q)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_gather_cases())
def test_gather_equals_the_dense_product(case):
    k, perms, weights, mode, xn, xden = case
    qn, qden = _birkhoff_numerators(k, perms, weights), sum(weights)
    side, axes = _GATHER_MODES[mode]
    q, x = exact.from_scaled(qn, qden), exact.from_scaled(xn, xden)
    lines = _lines(q, side)
    assert lines.relabels == (np.count_nonzero(q.num == q.den) == k)
    got = exact.gather(x, lines, axes)
    expected = exact.from_scaled(_dense_oracle(xn, qn, mode), xden * qden ** len(axes))
    assert got.den == expected.den and np.array_equal(got.num, expected.num)
    assert got.num.dtype == expected.num.dtype
    # Floats gather from the float lines; only rounding may differ.
    qf, xf = exact.from_scaled(qn, qden, exact.FLOAT), exact.from_scaled(xn, xden, exact.FLOAT)
    gotf = exact.gather(xf, _lines(qf, side), axes)
    expectedf = exact.as_float(expected)
    assert np.allclose(gotf, expectedf, rtol=1e-12, atol=0)
    assert not gotf.flags.writeable


@pytest.mark.parametrize("k, s", [(256, 1), (256, 2), (256, 3), (128, 3)])
def test_gather_equals_the_dense_product_up_to_k_256(k, s):
    rng = np.random.default_rng(k + s)
    weights = [int(w) for w in rng.integers(1, 20, size=s)]
    qn = _birkhoff_numerators(k, [rng.permutation(k) for _ in range(s)], weights)
    q = exact.from_scaled(qn, sum(weights))
    xn = rng.integers(-(2**40), 2**40, size=(k, k))
    x = exact.from_scaled(xn, 7)
    for mode, (side, axes) in _GATHER_MODES.items():
        if mode == "Qw":
            continue
        expected = exact.from_scaled(_dense_oracle(xn, q.num, mode),
                                     7 * q.den ** len(axes))
        got = exact.gather(x, _lines(q, side), axes)
        assert got.den == expected.den and np.array_equal(got.num, expected.num), mode


@pytest.mark.parametrize("d, L", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 1)])
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_bernoulli_lines_are_those_of_its_matrix(d, L, backend):
    sys = bernoulli_system(d, L, backend)
    q = sys.matrix
    for built, read in ((sys.rows, exact.support(q)), (sys.columns, exact.support(q.T))):
        assert np.array_equal(built.idx, read.idx)
        assert np.array_equal(exact.entries(built.val), exact.entries(read.val))
        assert not built.idx.flags.writeable


def test_stored_copies_a_writable_array_and_keeps_a_read_only_one():
    m = np.full((3, 3), 1 / 9)
    c = repair_to_polytope(m)
    m[0, 0] = 0.5  # the caller's array stays theirs to write
    assert c.matrix[0, 0] == 1 / 9 and not c.matrix.flags.writeable
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 0.5
    frozen = exact.freeze(np.full((3, 3), 1 / 9))
    assert exact.stored(frozen) is frozen
    q = np.eye(3)
    sys = system_from_matrix(q)
    q[0, 0] = 0.0
    assert sys.matrix[0, 0] == 1.0


#
# Carried numerator bounds: results against a scan-everything oracle.
#

_SAFE = 2**62


def _largest(num):
    return max((abs(int(n)) for n in np.asarray(num, dtype=object).flat), default=0)


def _canonical(num, den):
    """(numerators as Python ints, denominator, dtype) of num / den in lowest
    terms, by one gcd over every entry: int64 exactly when every |entry| is
    below 2**62."""
    flat = [int(n) for n in np.ravel(num)]
    g = math.gcd(den, *flat)
    flat = [n // g for n in flat]
    return flat, den // g, np.int64 if _largest(flat) < _SAFE else object


def _assert_result(got, num, den, dtype=None):
    """got equals num / den in lowest terms (or, with dtype, exactly num over
    den with that dtype), and carries a bound no entry passes."""
    want, want_den, want_dtype = _canonical(num, den) if dtype is None else (
        [int(n) for n in np.ravel(num)], den, dtype)
    assert got.den == want_den and [int(n) for n in got.num.ravel()] == want
    assert got.num.dtype == want_dtype and got.shape == np.shape(num)
    assert got.bound >= _largest(want)


def _loosened(s, slack):
    """s with its carried bound raised by slack: still a bound, no longer tight."""
    return exact.Scaled(s.num, s.den, s.bound + slack)


# Largest |numerator| drawn: small, at int64's edge of safety, past int64.
_REACH = (9, 2**31, 2**61, 2**62 - 1, 2**62, 2**70)
_DENS = (1, 6, 12, 2**64 + 13, 3 * 2**65, 5**30)
_SLACKS = (0, 7, 2**40, 2**62)


@st.composite
def _operands(draw, shape):
    largest = draw(st.sampled_from(_REACH))
    # One sign throughout makes the sums that reach their bounds.
    lowest = draw(st.sampled_from((-largest, 0)))
    entries = draw(st.lists(st.integers(lowest, largest), min_size=math.prod(shape),
                            max_size=math.prod(shape)))
    num = np.array(entries, dtype=object).reshape(shape)
    den = draw(st.sampled_from(_DENS))
    s = exact.from_scaled(num, den)
    _assert_result(s, num, den)
    return _loosened(s, draw(st.sampled_from(_SLACKS)))


@st.composite
def _bound_cases(draw):
    k = draw(st.integers(1, 5))
    a, b = draw(_operands((k, k))), draw(_operands((k, k)))
    s = draw(st.integers(1, 3))
    perms = [draw(st.permutations(range(k))) for _ in range(s)]
    weights = draw(st.lists(st.integers(1, draw(st.sampled_from((1, 7, 2**40)))),
                            min_size=s, max_size=s))
    q = exact.from_scaled(_birkhoff_numerators(k, perms, weights), sum(weights))
    q = _loosened(q, draw(st.sampled_from(_SLACKS)))
    parent = np.array(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    factor = draw(st.sampled_from((Fraction(1), Fraction(-3, 4), Fraction(2**61),
                                   Fraction(1, 2**64 + 1), Fraction(0))))
    return a, b, q, parent, factor, draw(st.integers(1, 7))


def _object(s):
    return s.num.astype(object)


def _tight_case():
    """Two-term lines and a rescaled sum at 2**61, all bounds tight: a bound
    that drops the term count s or the rescale factor falls below the
    entries, and the int64 path it allows overflows."""
    a = exact.from_scaled(np.full((2, 2), 2**61), 1)
    b = exact.from_scaled(np.ones((2, 2), dtype=np.int64), 3)
    q = exact.from_scaled(_birkhoff_numerators(2, [[0, 1], [1, 0]], [1, 1]), 2)
    return a, b, q, np.array([0, 1]), Fraction(1), 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bound_cases())
@example(_tight_case())
def test_carried_bounds_give_the_scanned_results(case):
    a, b, q, parent, factor, n = case
    an, bn, qn = _object(a), _object(b), _object(q)
    lines = exact.support(q.T)
    for axes, dense in (((0,), qn.T @ an), ((1,), an @ qn), ((0, 1), qn.T @ an @ qn)):
        got = exact.gather(a, lines, axes)
        if lines.relabels:  # entries move, so the values, dtype and den stay
            _assert_result(got, dense, a.den, a.num.dtype)
        else:
            _assert_result(got, dense, a.den * q.den ** len(axes))
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    total = an * fa + bn * fb

    def leaves_int64(s, f):
        """An operand that holds Python ints, or whose rescale may pass 2**62."""
        return s.num.dtype == object or (f > 1 and max(_largest(s.num), 1) * f >= _SAFE)
    # A sum stays over the lcm, unreduced, in Python ints where an operand or the sum is.
    in_python_ints = leaves_int64(a, fa) or leaves_int64(b, fb) or _largest(total) >= _SAFE
    summed = exact.mat_add(a, b)
    _assert_result(summed, total, den, object if in_python_ints else np.int64)
    _assert_result(exact.mat_div(summed, n), total, den * n)
    _assert_result(exact.mat_mul(a, b), an @ bn, a.den * b.den)
    p, r = factor.as_integer_ratio()
    _assert_result(exact.scale(a, factor), an * p, a.den * r)
    diagonal = (np.arange(len(an)), np.arange(len(an))[::-1])
    _assert_result(exact.select(a, diagonal), an[diagonal], a.den)
    sums = np.zeros((2, 2), dtype=object)
    np.add.at(sums, (parent[:, None], parent), an)
    _assert_result(exact.block_sums(a, parent, 2), sums, a.den)
    weights = [n * (i + 1) for i in range(len(an))]
    assert exact.weighted_squares(a, weights) == sum(
        Fraction(int(x * x), a.den**2 * weights[i]) for (i, _), x in np.ndenumerate(an))
    _assert_result(exact.flat_concat([a, b]),
                   np.concatenate([an.ravel() * fa, bn.ravel() * fb]), den)
    difference = np.abs(an * fa - bn * fb)
    assert exact.l1_norm(a, b) == Fraction(int(difference.sum()), den)
    for axis in (0, 1):
        _assert_result(exact.l1_norm(a, b, axis), difference.sum(axis=axis), den)
        _assert_result(exact.l1_norm(a, None, axis), np.abs(an).sum(axis=axis), a.den)
    assert exact.max_abs(a, b) == Fraction(int(difference.max()), den)
    # The doors that scan: a Fraction array is split, and its bound read, once.
    fractions = np.array([Fraction(int(x), a.den) for x in an.flat], dtype=object)
    for door in (exact.split_common, exact.stored):
        _assert_result(door(fractions.reshape(an.shape)), an, a.den)


def test_every_scaled_carries_its_bound():
    with pytest.raises(TypeError):
        exact.Scaled(np.array([1, 2]), 3)


@pytest.mark.parametrize("bound", [None, 4, 4 + 2**40, 2**62, 2**70])
def test_reduced_reaches_lowest_terms_past_a_common_probe(bound):
    """The probe is a gcd of den with a few entries; when it is above 1, a gcd
    over every entry decides, so no common factor is missed or assumed."""
    cases = [([2, 3, 4], 6)]  # probe gcd(6, 4, 2) = 2, but gcd(6, 2, 3, 4) = 1
    # One entry off the common factor, at every place, probed or not.
    cases += [([2] * i + [3] + [2] * (40 - i), 6) for i in range(41)]
    cases += [([4] * i + [2] + [4] * (40 - i), 12) for i in range(41)]
    # Zero probes: their gcd with den is den itself.
    cases += [([0] * i + [3] + [0] * (40 - i), 6) for i in range(41)]
    cases += [([0, 0, 0], 6), ([0] * 50, 2**64 + 13), ([0], 1)]
    for entries, den in cases:
        num = np.array(entries, dtype=np.int64)
        _assert_result(exact._reduced(num, den, bound), num, den)
    # Python-int numerators, reducing into int64 or staying past it.
    big = 2**70
    for entries, den in (([2 * big, 3 * big, 4 * big], 6 * big),
                         ([big, 3, 0, 5 * big], 2 * big), ([6 * big, 9 * big], 2**62 * 3)):
        num = np.array(entries, dtype=object)
        _assert_result(exact._reduced(num, den, None if bound is None else 9 * big), num, den)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 4), st.booleans(), st.booleans(),
       st.sampled_from((9, 2**61, 2**70)), st.integers(0, 2**32 - 1))
def test_block_sums_match_the_cell_by_cell_oracle(n, r, equal, scattered, largest, seed):
    """Equal blocks of consecutive cells, equal scattered blocks, and
    unequal or empty ones, on int64, Python-int and float numerators:
    every sum is the cell-by-cell one."""
    rng = np.random.default_rng(seed)
    k = n * r
    parent = np.arange(k) // r if equal else np.sort(rng.integers(0, n, k))
    if scattered:
        parent = rng.permutation(parent)
    num = np.array([[int(x) * (largest // 9) for x in row]
                    for row in rng.integers(-9, 10, (k, k))], dtype=object)
    a = exact.from_scaled(num, 7)
    sums = np.zeros((n, n), dtype=object)
    for i, j in np.ndindex(k, k):
        sums[parent[i], parent[j]] += num[i, j]
    _assert_result(exact.block_sums(a, parent, n), sums, 7)
    floats = exact.block_sums(exact.as_float(a), parent, n)
    assert floats.dtype == float and floats.shape == (n, n)
    # Float sums cancel to within rounding of the largest cell, times the cells.
    assert np.allclose(floats, (sums / 7).astype(float), rtol=0,
                       atol=exact.FLOAT_TOL * k * k * largest)


@pytest.mark.parametrize("weights", [[1], [3, 5], [2**40, 3, 7**25]])
def test_weighted_squares_past_int64_and_on_floats(weights):
    rows = len(weights)
    for largest in (3, 2**31, 2**40, 2**70):
        num = np.array([[largest, -1, 2]] * rows, dtype=object)
        a = exact.from_scaled(num, 5)
        want = sum(Fraction(int(x) ** 2, 25 * weights[i]) for (i, _), x in np.ndenumerate(num))
        assert exact.weighted_squares(a, weights) == want
        if largest < 2**40:
            assert exact.weighted_squares(exact.as_float(a), weights) == pytest.approx(
                float(want), rel=1e-15)
