"""Dual numeric backends: exact rational matrices and float64 matrices.

Rational matrices are numpy object arrays holding ``fractions.Fraction``;
float matrices are ordinary float64 arrays.  This is the only module that
knows the number format of a backend.  Everywhere else a value is written
once, exactly (a ``Fraction`` or an integer), and handed to ``scalar``,
``constant``, ``from_scaled`` or ``tolerance`` with the backend; kernels
here dispatch on dtype, so callers never branch on the backend by hand.

The rational kernels do no per-entry Fraction arithmetic.  They work on a
scaled-integer form: ``split_common`` writes an array as (integer
numerators, one common denominator), numpy does the products, sums,
comparisons and reductions on the numerators, and ``join_scaled`` builds
the Fraction result once, with one Fraction object per distinct value.

Numerators are int64 whenever every entry stays below ``_INT64_SAFE``
(2**62) in magnitude, so the sum or difference of two such arrays cannot
overflow; every kernel checks the worst case of its own operation (inner
dimension times largest magnitudes for a product, count times largest
magnitude for a sum) before staying in int64, and otherwise falls back to
object arrays of Python ints, which never overflow.  Code that rewrites
numerators in place converts them to Python ints first.

A frozen array (read-only, and so is every array up its ``.base`` chain)
is split once: the split is remembered under ``id(array)`` until the array
is collected, and its numerators are handed out read-only.  A transposed
view of a frozen array reuses the split of its base.  Value types in this
package freeze their arrays and never mutate them.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import DimensionMismatch

RATIONAL = "rational"
FLOAT = "float"

# Float-backend tolerances: one for arithmetic that only rounds, one for
# results of the SVD nullspace solver.
FLOAT_TOL = 1e-12
SOLVER_TOL = 1e-9

# Worst-case |entry| bound under which int64 accumulation cannot overflow.
_INT64_SAFE = 2**62

# Splits of frozen arrays by id(array); weakref.finalize drops an entry
# when its array is collected, before the id can be reused.
_SPLITS: dict[int, tuple[np.ndarray, int]] = {}


def is_rational_array(a: np.ndarray) -> bool:
    return a.dtype == object


def backend_of(a: np.ndarray) -> str:
    return RATIONAL if is_rational_array(a) else FLOAT


def frac_array(rows) -> np.ndarray:
    """Object array of Fractions from nested ints/Fractions/strings."""
    arr = np.array(
        [[Fraction(x) for x in row] for row in rows] if np.ndim(rows) == 2
        else [Fraction(x) for x in rows],
        dtype=object,
    )
    return arr


def scalar(x, backend: str = RATIONAL):
    """The exact rational x on a backend: a Fraction, or the nearest float."""
    return Fraction(x) if backend == RATIONAL else float(x)


def tolerance(backend: str, float_tol: float = FLOAT_TOL):
    """Comparison slack: none on the rational backend, float_tol on floats."""
    return Fraction(0) if backend == RATIONAL else float_tol


def from_scaled(num: np.ndarray, den: int, backend: str = RATIONAL) -> np.ndarray:
    """Integer numerators over one denominator, as an array on a backend."""
    return join_scaled(num, den) if backend == RATIONAL else num / den


def constant(shape, value, backend: str = RATIONAL) -> np.ndarray:
    return np.full(shape, scalar(value, backend))


def zeros(shape, backend: str = RATIONAL) -> np.ndarray:
    return constant(shape, 0, backend)


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark array read-only; value types in this package never mutate."""
    a.setflags(write=False)
    return a


def _frozen(a) -> bool:
    """True when a and every array up its .base chain are read-only."""
    while a is not None:
        if not isinstance(a, np.ndarray) or a.flags.writeable:
            return False
        a = a.base
    return True


def _is_transpose(a: np.ndarray, base: np.ndarray) -> bool:
    return (a.ndim == 2 and a.shape == base.shape[::-1]
            and a.strides == base.strides[::-1]
            and a.__array_interface__["data"] == base.__array_interface__["data"])


def _magnitude(x: np.ndarray) -> int:
    """Largest |entry| of an integer array, as a Python int (no temporary)."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _split_entries(a: np.ndarray) -> tuple[np.ndarray, int]:
    if a.size == 0:
        return np.zeros(a.shape, dtype=np.int64), 1
    try:
        nums = np.fromiter((x.numerator for x in a.flat), np.int64, a.size)
        dens = np.fromiter((x.denominator for x in a.flat), np.int64, a.size)
    except OverflowError:  # an entry beyond int64: Python ints throughout
        nums = np.fromiter((x.numerator for x in a.flat), object, a.size)
        dens = np.fromiter((x.denominator for x in a.flat), object, a.size)
    den = int(np.lcm.reduce(dens))
    # int64 lcm wraps silently, but only when the true lcm is >= 2**63; a
    # positive common multiple below that bound is therefore the lcm.
    if den <= 0 or (den % dens).any():
        dens = dens.astype(object)
        den = int(np.lcm.reduce(dens))
    small = int(dens.min())
    if (nums.dtype != object and den < _INT64_SAFE
            and _magnitude(nums) * (den // small) < _INT64_SAFE):
        if den != small:
            np.floor_divide(den, dens, out=dens)
            nums *= dens
    else:
        nums = nums.astype(object) * (den // dens.astype(object))
    return nums.reshape(a.shape), den


def _split(a: np.ndarray) -> tuple[np.ndarray, int]:
    """The split behind split_common.

    Reductions and checks call this directly, so split_common is entered
    only where a caller asks for the split itself (perfbench traces it by
    name and counts those calls).
    """
    if not _frozen(a):
        return _split_entries(a)
    hit = _SPLITS.get(id(a))
    if hit is None:
        if a.base is not None and _is_transpose(a, a.base):
            num, den = _split(a.base)
            return num.T, den
        num, den = _split_entries(a)
        num.setflags(write=False)
        hit = _SPLITS[id(a)] = (num, den)
        weakref.finalize(a, _SPLITS.pop, id(a), None)
    return hit


def split_common(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Write a rational array as (integer numerators, common denominator).

    The denominator is the lcm of the entries' denominators.  Numerators
    are int64 when they stay below _INT64_SAFE, Python ints otherwise.  A
    frozen array is split once; its cached numerators are read-only.
    """
    return _split(a)


def join_scaled(num: np.ndarray, den: int) -> np.ndarray:
    """Rebuild a Fraction array from integer numerators over one denominator.

    One Fraction is built per distinct numerator and spread back by index.
    """
    if num.size == 0:
        return np.empty(num.shape, dtype=object)
    flat = num.ravel()
    g = math.gcd(int(np.gcd.reduce(flat)), den)
    if g > 1:
        flat = flat // g
        den //= g
    distinct, index = np.unique(flat, return_inverse=True)
    values = np.empty(len(distinct), dtype=object)
    values[:] = [Fraction(int(n), den) for n in distinct]
    return values[index.reshape(num.shape)]


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matmul with an int64 fast path guarded by a magnitude bound."""
    # max(.., 1): an all-zero operand must not let the other skip the bound.
    if a.shape[-1] * max(_magnitude(a), 1) * max(_magnitude(b), 1) < _INT64_SAFE:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object, copy=False) @ b.astype(object, copy=False)


def _rescale(num, factor: int):
    """num * factor; int64 arrays move to Python ints if it could overflow."""
    if factor == 1:
        return num
    if (isinstance(num, np.ndarray) and num.dtype != object
            and max(_magnitude(num), 1) * factor >= _INT64_SAFE):
        num = num.astype(object)
    return num * factor


def _int_sum(x: np.ndarray, axis=None):
    """Exact sum of integer entries, in int64 only when it cannot overflow."""
    count = x.size if axis is None else x.shape[axis]
    if x.dtype != object and _magnitude(x) * count >= _INT64_SAFE:
        x = x.astype(object)
    return x.sum(axis=axis)


def _scaled(a: np.ndarray, b=None) -> tuple[np.ndarray, int]:
    """(numerators, denominator) of a, or of a - b for b an array or scalar.

    Both operands go over one common denominator; the difference of two
    int64 numerator arrays is below 2**63, so it cannot overflow.
    """
    na, da = _split(a)
    if b is None:
        return na, da
    nb, db = _split(b) if isinstance(b, np.ndarray) else Fraction(b).as_integer_ratio()
    den = math.lcm(da, db)
    return _rescale(na, den // da) - _rescale(nb, den // db), den


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if not is_rational_array(a):
        return a @ b
    na, da = split_common(a)
    nb, db = split_common(b)
    return join_scaled(_int_matmul(na, nb), da * db)


def mat_conjugate(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Return Q^T C Q with a single Fraction rebuild on the rational path."""
    if not is_rational_array(q):
        return q.T @ c @ q
    nq, dq = split_common(q)
    nc, dc = split_common(c)
    prod = _int_matmul(_int_matmul(nq.T, nc), nq)
    return join_scaled(prod, dq * dq * dc)


def mat_power(a: np.ndarray, n: int) -> np.ndarray:
    """Non-negative matrix power by binary exponentiation."""
    if n < 0:
        raise ValueError("mat_power expects n >= 0")
    result = identity(a.shape[0], backend_of(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def identity(k: int, backend: str = RATIONAL) -> np.ndarray:
    return matrix_of_permutation(np.arange(k), backend)


def l1_norm(a: np.ndarray, b=None):
    """Entrywise L1 norm of a, or of a - b when b (array or scalar) is given."""
    if not is_rational_array(a):
        return float(np.abs(a if b is None else a - b).sum())
    num, den = _scaled(a, b)
    return Fraction(int(_int_sum(np.abs(num))), den)


def max_abs(a: np.ndarray, b=None):
    """Largest |entry| of a, or of a - b when b (array or scalar) is given."""
    if not is_rational_array(a):
        d = np.abs(a if b is None else a - b)
        return float(d.max()) if d.size else 0.0
    num, den = _scaled(a, b)
    return Fraction(_magnitude(num), den)


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    if is_rational_array(a) and is_rational_array(b):
        # Equal values have equal reduced denominators, hence equal splits.
        na, da = _split(a)
        nb, db = _split(b)
        return da == db and bool(np.array_equal(na, nb))
    if is_rational_array(a) or is_rational_array(b):
        return all(x == y for x, y in zip(a.ravel(), b.ravel()))
    return bool(np.array_equal(a, b))


def mat_mean(arrays) -> np.ndarray:
    """Entrywise mean of equally shaped arrays; one Fraction rebuild when
    rational, the float sum taken in list order otherwise."""
    if not is_rational_array(arrays[0]):
        total = arrays[0].copy()
        for a in arrays[1:]:
            total = total + a
        return total / len(arrays)
    total, den = _split(arrays[0])
    for a in arrays[1:]:
        num, d = _split(a)
        common = math.lcm(den, d)
        total = _rescale(total, common // den) + _rescale(num, common // d)
        if total.dtype != object and _magnitude(total) >= _INT64_SAFE:
            total = total.astype(object)
        den = common
    return join_scaled(total, den * len(arrays))


def marginal_defects(m: np.ndarray, target, tol: float) -> list[str]:
    """Lines of m whose sum is not target, then negative entries.

    Returns 'row_sum(i)', 'col_sum(j)' and 'negative_entry(i,j)' labels in
    that order.  target is exact; tol applies to float arrays only.
    """
    if is_rational_array(m):
        num, den = _split(m)
        p, q = Fraction(target).as_integer_ratio()
        # A line sums to p/q exactly when its numerators sum to p*den/q.
        bad_rows = _rescale(_int_sum(num, axis=1), q) != p * den
        bad_cols = _rescale(_int_sum(num, axis=0), q) != p * den
        negative = np.argwhere(num < 0)
    else:
        target = float(target)
        bad_rows = [abs(m[i, :].sum() - target) > tol for i in range(m.shape[0])]
        bad_cols = [abs(m[:, j].sum() - target) > tol for j in range(m.shape[1])]
        negative = np.argwhere(m < -tol)
    out = [f"row_sum({i})" for i in np.flatnonzero(bad_rows)]
    out += [f"col_sum({j})" for j in np.flatnonzero(bad_cols)]
    out += [f"negative_entry({i},{j})" for i, j in negative]
    return out


def as_float(a: np.ndarray) -> np.ndarray:
    if is_rational_array(a):
        return a.astype(float)
    return np.asarray(a, dtype=float)


def as_rational(a: np.ndarray, max_denominator: int = 10**12) -> np.ndarray:
    """Float array to Fractions; exact inputs pass through unchanged."""
    if is_rational_array(a):
        return a
    out = np.empty(a.shape, dtype=object)
    oflat, flat = out.ravel(), a.ravel()
    for i, x in enumerate(flat):
        oflat[i] = Fraction(x).limit_denominator(max_denominator)
    return out


def matrix_of_permutation(perm, backend: str = RATIONAL) -> np.ndarray:
    """0/1 matrix M with M[perm[j], j] = 1 (column j sent to row perm[j])."""
    k = len(perm)
    m = zeros((k, k), backend)
    m[np.asarray(perm, dtype=int), np.arange(k)] = scalar(1, backend)
    return m


def permutation_of_matrix(q: np.ndarray):
    """Forward cell map tau with Q[a, tau(a)] = 1, or None if Q is not one:
    on both backends each row must hold a single one and zeros elsewhere."""
    if is_rational_array(q):
        num, one = _split(q)
    else:
        num, one = np.asarray(q, dtype=float), 1.0
    ones = num == one
    if not (np.all(ones.sum(axis=1) == 1) and np.all((num != 0).sum(axis=1) == 1)):
        return None
    perm = ones.argmax(axis=1)
    if not np.all(np.bincount(perm, minlength=len(perm)) == 1):
        return None
    return perm


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty(len(perm), dtype=int)
    inv[np.asarray(perm, dtype=int)] = np.arange(len(perm))
    return inv


def compose_permutations(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Composition p after q: j -> p[q[j]]."""
    return np.asarray(p, dtype=int)[np.asarray(q, dtype=int)]


def format_value(x) -> str | float | int:
    """JSON-friendly value: 'p/q' strings for rationals, numbers otherwise."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)


def parse_value(s):
    """Inverse of format_value: accepts 'p/q' strings and plain numbers."""
    if isinstance(s, str):
        return Fraction(s)
    if isinstance(s, (int, np.integer)):
        return Fraction(int(s))
    return float(s)


def matrix_to_values(a) -> list:
    """Row-major JSON values of a matrix, each rendered by format_value."""
    return [format_value(x) for x in np.asarray(a).ravel()]


def matrix_from_values(values, k: int, name: str) -> np.ndarray:
    """Inverse of matrix_to_values for a k x k matrix: a float array when
    any entry is a float, a Fraction object array otherwise."""
    parsed = [parse_value(v) for v in values]
    if len(parsed) != k * k:
        raise DimensionMismatch(f"{name} must hold k*k row-major entries")
    dtype = float if any(isinstance(v, float) for v in parsed) else object
    return np.array(parsed, dtype=dtype).reshape(k, k)


def gcd_reduce_row(row: np.ndarray) -> np.ndarray:
    g = reduce(math.gcd, map(int, row), 0)
    if g > 1:
        return row // g
    return row


def exact_nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Basis of {x : A x = 0} over the rationals, by integer Gauss-Jordan.

    a: object array of Fractions or ints, shape (m, n).  Returns a list of
    Fraction vectors of length n.  Row operations stay in integers; each row
    is divided by its gcd to keep magnitudes tame.
    """
    if a.size == 0:
        return []
    if a.dtype != object:
        a = as_rational(a)
    work = a.copy()
    if any(isinstance(x, Fraction) for x in work.ravel()):
        # Row operations below rewrite work in place: Python ints only.
        work = split_common(work)[0].astype(object)
    m, n = work.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        candidates = [i for i in range(r, m) if work[i, c] != 0]
        if not candidates:
            continue
        i0 = min(candidates, key=lambda i: abs(int(work[i, c])))
        if i0 != r:
            work[[r, i0]] = work[[i0, r]]
        p = int(work[r, c])
        for i in range(m):
            if i != r and work[i, c] != 0:
                work[i] = work[i] * p - work[r] * int(work[i, c])
                work[i] = gcd_reduce_row(work[i])
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = zeros(n)
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            if work[ri, fc] != 0:
                v[pc] = Fraction(-int(work[ri, fc]), int(work[ri, pc]))
        basis.append(v)
    return basis
