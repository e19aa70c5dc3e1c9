"""Dual numeric backends: exact rational matrices and float64 matrices.

A rational matrix is stored as a ``Scaled``: read-only integer numerators
over one positive denominator, in lowest terms; a float matrix is a float64
array.  This is the only module that knows the number format of a backend.
Elsewhere a value is written once, exactly, and handed to ``scalar``,
``constant``, ``from_scaled`` or ``tolerance`` with the backend; builders
fill integer numerators from ``numerators`` (the one allocator, guarded by
``SIZE_LIMIT``) and pass them to ``from_scaled``.

A ``Fraction`` array enters through one door, ``stored``, which splits it
once (``split_common``); the public entry points that take a caller's
matrix call it.  Every kernel takes stored forms only, lets numpy work on
the numerators, and returns a ``Scaled``; ``backend_of`` refuses an object
array.  ``Fraction`` objects are built only when something asks for
``Scaled.fractions``: once, one per distinct value (``join_scaled``).
Numerators are int64 while every entry stays below ``_INT64_SAFE`` (2**62)
in magnitude, so a sum or difference of two cannot overflow; each kernel
checks the worst case of its own operation before staying in int64, and
otherwise works on Python ints, which never overflow.

The worst case comes from an upper bound on the numerators that travels
with each value (``Scaled.bound``).  The kernel that makes a value fills it
in from what it already computed (a gather's s * max|x| * max|val|, a sum's
rescaled operands, a relabel's unchanged entries), so no result is scanned
again.  A bound only ever proves int64 safe: at or past ``_INT64_SAFE`` one
exact scan decides, so every result has the dtype, numerators and
denominator that scanning everything gives.  Every entry is scanned only
for a value made without a bound (``from_scaled``, ``split_common``: its
max and min), by ``max_abs``, whose answer is the exact maximum, and where a
bound reaches ``_INT64_SAFE``.  ``_reduced`` probes for a common factor
first, as the gcd of the denominator with that max and min or with a few
entries, and takes the gcd of every entry only when the probe is above 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import SizeGuard

RATIONAL = "rational"
FLOAT = "float"

# Largest number of cells per side of any matrix the package builds.
SIZE_LIMIT = 4096

# Float-backend tolerances: one for arithmetic that only rounds, and the
# slack detect_period allows a float orbit that returns near its start.
FLOAT_TOL = 1e-12
SOLVER_TOL = 1e-9

# Worst-case |entry| bound under which int64 accumulation cannot overflow.
_INT64_SAFE = 2**62

# Bound under which every integer sum of products is exact in float64.
_FLOAT_EXACT = 2**53

# Multiply-adds from which a matrix product runs in float64: at 16 x 256 x 16
# BLAS took 14 us against 79 us in numpy's integer loop, at 9 x 81 x 9 7 us
# against 11, and on an inner dimension of 1 (an outer product) it is slower.
_FLOAT_WORK = 2**16

# Entries _reduced reads, beside the denominator, to probe a common factor.
_PROBES = 16


@dataclass(frozen=True, eq=False)
class Scaled:
    """The rational array num / den in lowest terms, gcd(num, den) == 1,
    which makes it unique (a mat_add sum excepted).  num is read-only, int64
    while every |entry| < _INT64_SAFE and Python ints otherwise; from_scaled
    reduces and picks the dtype, this constructor trusts its caller.  bound,
    when the kernel that made the value knew one, is an upper bound on every
    |entry| of num."""

    num: np.ndarray
    den: int
    bound: int | None = None

    def __post_init__(self):
        freeze(self.num)

    @cached_property
    def magnitude(self) -> int:
        """An upper bound on every |numerator|: the carried one, or, for a
        value made without one, max |num| from one scan."""
        return _magnitude(self.num) if self.bound is None else self.bound

    @property
    def shape(self) -> tuple:
        return self.num.shape

    @property
    def size(self) -> int:
        return self.num.size

    @property
    def dtype(self):
        return self.num.dtype

    def ravel(self) -> np.ndarray:
        return self.num.ravel()

    def reshape(self, *shape) -> Scaled:
        return Scaled(self.num.reshape(*shape), self.den, self.bound)

    @property
    def T(self) -> Scaled:
        return Scaled(self.num.T, self.den, self.bound)

    @cached_property
    def fractions(self) -> np.ndarray:
        """The entries as a read-only Fraction object array, built once."""
        return freeze(join_scaled(self.num, self.den))


@dataclass(frozen=True, eq=False)
class Support:
    """A square matrix by the nonzeros of its lines, s to a line: line j
    holds val[j, t] at idx[j, t] (read-only, ascending; a shorter line
    repeats a position with value zero), val a (k, s) stored form over the
    matrix's denominator.  Q's column lines give X Q and Q^T X, its row
    lines Q X (gather)."""

    idx: np.ndarray
    val: Scaled | np.ndarray

    @cached_property
    def relabels(self) -> bool:
        """One value per line, equal to one: a permutation matrix."""
        num, one = _num_one(self.val)
        return self.idx.shape[1] == 1 and bool((num == one).all())


def _num_one(val):
    """The numerators of a stored form, and the numerator of one among them."""
    return (val.num, val.den) if isinstance(val, Scaled) else (val, 1)


def power_exceeds_limit(base: int, exp: int) -> bool:
    """base**exp > SIZE_LIMIT, decided without building a huge power."""
    # base >= 2**(b - 1) for b = base.bit_length(), so a large exp is decided
    # by bit lengths alone, as 2**(exp * (b - 1)) > SIZE_LIMIT.
    if base > 1 and exp * (base.bit_length() - 1) >= SIZE_LIMIT.bit_length():
        return True
    return base**exp > SIZE_LIMIT


def backend_of(a) -> str:
    """RATIONAL for a Scaled, FLOAT for a numeric array; an object array
    has not been through stored and is refused."""
    if isinstance(a, Scaled):
        return RATIONAL
    if a.dtype == object:
        raise TypeError("a Fraction array enters the kernels through exact.stored")
    return FLOAT


def frac_array(rows) -> np.ndarray:
    """Object array of Fractions from nested ints/Fractions/strings."""
    return np.array([[Fraction(x) for x in row] for row in rows] if np.ndim(rows) == 2
                    else [Fraction(x) for x in rows], dtype=object)


def scalar(x, backend: str = RATIONAL):
    """The exact rational x on a backend: a Fraction, or the nearest float."""
    return Fraction(x) if backend == RATIONAL else float(x)


def tolerance(backend: str, float_tol: float = FLOAT_TOL):
    """Comparison slack: none on the rational backend, float_tol on floats."""
    return Fraction(0) if backend == RATIONAL else float_tol


def numerators(shape, largest: int = 0) -> np.ndarray:
    """Zero array for integer numerators up to largest in magnitude (int64
    below _INT64_SAFE); SizeGuard, before allocating, past SIZE_LIMIT."""
    shape = tuple(np.atleast_1d(shape).tolist())
    if max(shape, default=0) > SIZE_LIMIT:
        raise SizeGuard(f"array of shape {shape} has a side > {SIZE_LIMIT}")
    return np.zeros(shape, dtype=np.int64 if largest < _INT64_SAFE else object)


def from_scaled(num: np.ndarray, den: int, backend: str = RATIONAL):
    """Integer numerators over one denominator on a backend: a Scaled in
    lowest terms, or the float64 array of the nearest floats."""
    num = np.asarray(num)
    return _reduced(num, den) if backend == RATIONAL else _to_float(num, den)


def constant(shape, value, backend: str = RATIONAL):
    p, q = Fraction(value).as_integer_ratio()
    num = numerators(shape, abs(p))
    num[...] = p  # every entry p / q, in lowest terms already
    return Scaled(num, q, abs(p)) if backend == RATIONAL else _to_float(num, q)


def stored(a):
    """The stored form of a caller's matrix, the one door for Fraction
    arrays: a Scaled passes through, a Fraction array is split once into a
    Scaled, a read-only array passes through, and a writable one is copied
    read-only, so the caller's array stays theirs to write."""
    if isinstance(a, Scaled):
        return a
    a = np.asarray(a)
    if a.dtype == object:
        return split_common(a)
    return freeze(a.copy()) if a.flags.writeable else a


def flat_concat(arrays):
    """The entries of stored forms, each flattened, joined into one stored
    form: a Scaled over the lcm of their denominators when rational."""
    if backend_of(arrays[0]) == FLOAT:
        return freeze(np.concatenate([np.ravel(a) for a in arrays]))
    den = math.lcm(*(s.den for s in arrays))
    return _reduced(np.concatenate([_rescale(s.num, den // s.den, s.magnitude).ravel()
                                    for s in arrays]),
                    den, max(s.magnitude * (den // s.den) for s in arrays))


def entries(a) -> np.ndarray:
    """Per-entry view: the Fraction array of a rational, floats as they are."""
    return a.fractions if isinstance(a, Scaled) else a


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark array read-only; value types in this package never mutate."""
    a.setflags(write=False)
    return a


def _magnitude(x: np.ndarray) -> int:
    """Largest |entry| of an integer array, as a Python int (no temporary)."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _settled(num: np.ndarray, bound: int, factor: int = 1) -> int:
    """max(bound, 1), for bound >= max|num|, when its product with factor
    stays below _INT64_SAFE or num holds Python ints already; otherwise
    max(|num|, 1) from one exact scan.  A carried bound only ever proves that
    int64 is safe; at or past _INT64_SAFE the exact scan decides."""
    if max(bound, 1) * factor >= _INT64_SAFE and num.dtype != object:
        bound = _magnitude(num)
    return max(bound, 1)


def _reduced(num: np.ndarray, den: int, bound: int | None = None) -> Scaled:
    """num / den in lowest terms, numerators int64 exactly when they fit.

    bound, if given, is an upper bound on |num|; without one, num's max and
    min are read and give it exactly.  The common factor is probed first, as
    the gcd of den with that max and min, or with a few entries when bound
    is given; every entry is read only when the probe is above 1."""
    if not num.size:
        return Scaled(np.zeros(num.shape, np.int64), 1, 0)
    scanned = bound is None
    if scanned:
        high, low = int(num.max()), int(num.min())
        bound, probe = max(high, -low), math.gcd(den, high, low)
    else:
        probe = math.gcd(den, *num.flat[::num.size // _PROBES + 1].tolist())
    # The gcd of den and every entry divides the probe.
    common = int(np.gcd.reduce(num, axis=None)) if probe > 1 else 1
    if not common:  # every entry is zero, whatever den is
        return Scaled(np.zeros(num.shape, np.int64), 1, 0)
    g = math.gcd(common, probe)
    if g > 1:
        num, den, bound = num // g, den // g, bound // g
    if num.dtype != object:
        num = num.astype(np.int64, copy=False)
    if bound >= _INT64_SAFE and not scanned:
        bound = _magnitude(num)
    fits = bound < _INT64_SAFE
    if fits != (num.dtype == np.int64):
        num = num.astype(np.int64 if fits else object)
    return Scaled(num, den, bound)


def _to_float(num: np.ndarray, den: int) -> np.ndarray:
    """num / den rounded once per entry, as float(Fraction(n, den)) is."""
    if num.dtype != object and _magnitude(num) < 2**53 and den < 2**53:
        return num / den  # both sides exact in float64: one correct rounding
    flat = [int(n) / den for n in num.ravel()]  # int / int rounds correctly
    return np.array(flat, dtype=float).reshape(num.shape)


def split_common(a: np.ndarray) -> Scaled:
    """Split a Fraction (or int) object array into integer numerators over
    one common denominator, reading every entry once.

    The result is in lowest terms: the denominator is the lcm of the
    entries' denominators.  Numerators are int64 when they stay below
    _INT64_SAFE, Python ints otherwise, and are read-only.
    """
    a = np.asarray(a)
    nums = np.fromiter((x.numerator for x in a.flat), object, a.size)
    dens = np.fromiter((x.denominator for x in a.flat), object, a.size)
    den = math.lcm(*set(dens.tolist()))
    return _reduced((nums * (den // dens)).reshape(a.shape), den)


def join_scaled(num: np.ndarray, den: int) -> np.ndarray:
    """Rebuild a Fraction array from integer numerators over one denominator.

    One Fraction is built per distinct numerator and spread back by index.
    """
    if num.size == 0:
        return np.empty(num.shape, dtype=object)
    distinct, index = np.unique(num.ravel(), return_inverse=True)
    values = np.empty(len(distinct), dtype=object)
    values[:] = [Fraction(int(n), den) for n in distinct]
    return values[index.reshape(num.shape)]


def _int_matmul(a: np.ndarray, b: np.ndarray, bound_a: int | None = None,
                bound_b: int | None = None) -> np.ndarray:
    """Integer matmul with fast paths guarded by a magnitude bound: the
    operands' bounds, when given, and otherwise, or when they do not prove
    a path safe, their exact magnitudes.  Below 2**53 a product of two
    matrices of at least _FLOAT_WORK multiply-adds runs in float64, below
    _INT64_SAFE any product runs in int64, and on Python ints past that."""
    # max(.., 1): an all-zero operand must not let the other skip the bound.
    def worst(ma, mb):
        return a.shape[-1] * max(ma, 1) * max(mb, 1)
    if bound_a is None or bound_b is None or worst(bound_a, bound_b) >= _INT64_SAFE:
        bound_a, bound_b = _magnitude(a), _magnitude(b)
    if (a.ndim == b.ndim == 2 and a.shape[1] > 1 and a.size * b.shape[1] >= _FLOAT_WORK
            and worst(bound_a, bound_b) < _FLOAT_EXACT):
        # Every partial sum is an integer below 2**53, so float64 is exact, and
        # BLAS multiplies large matrices far faster than numpy's integer loop.
        # Smaller products, outer products and vector products stay in int64.
        return (a.astype(float) @ b.astype(float)).astype(np.int64)
    if worst(bound_a, bound_b) < _INT64_SAFE:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object, copy=False) @ b.astype(object, copy=False)


def _rescale(num, factor: int, bound: int):
    """num * factor, for bound >= |num|; int64 arrays move to Python ints if
    it could overflow."""
    if factor == 1:
        return num
    f = abs(factor)
    if isinstance(num, np.ndarray) and _settled(num, bound, f) * f >= _INT64_SAFE:
        num = num.astype(object, copy=False)
    return num * factor


def _int_sum(x: np.ndarray, bound: int, axis=None):
    """Exact sums of integer entries, for bound >= |x|, in int64 only when
    they cannot overflow; with an upper bound on the |sums|."""
    count = x.size if axis is None else math.prod(x.shape[a] for a in np.atleast_1d(axis))
    if _settled(x, bound, count) * count >= _INT64_SAFE:
        x = x.astype(object, copy=False)
    return x.sum(axis=axis), bound * count


def _over_lcm(a, b):
    """The numerators of a and of b (an array or scalar) over the lcm of
    their denominators, that lcm, and a bound on the sum of their |entries|.
    Each numerator array rescaled in int64 stays below 2**62, so their sum or
    difference cannot overflow."""
    nb, db = (b.num, b.den) if isinstance(b, Scaled) else Fraction(b).as_integer_ratio()
    mb = b.magnitude if isinstance(b, Scaled) else abs(nb)
    den = math.lcm(a.den, db)
    fa, fb = den // a.den, den // db
    return (_rescale(a.num, fa, a.magnitude), _rescale(nb, fb, mb), den,
            a.magnitude * fa + mb * fb)


def _scaled(a, b=None) -> tuple[np.ndarray, int, int]:
    """(numerators, denominator, bound on |numerators|) of a, or of a - b
    for b an array or scalar."""
    if b is None:
        return a.num, a.den, a.magnitude
    na, nb, den, bound = _over_lcm(a, b)
    return na - nb, den, bound


def mat_mul(a, b):
    if backend_of(a) == FLOAT:
        return a @ b
    return _reduced(_int_matmul(a.num, b.num, a.magnitude, b.magnitude), a.den * b.den,
                    a.shape[-1] * a.magnitude * b.magnitude)


def mat_conjugate(q, c):
    """Return Q^T C Q by dense products: the oracle of gather."""
    if backend_of(q) == FLOAT:
        return q.T @ c @ q
    prod = _int_matmul(_int_matmul(q.num.T, c.num), q.num)
    return _reduced(prod, q.den * q.den * c.den)


def mat_power(a, n: int):
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


def scale(a, x):
    """a times the exact rational x."""
    if backend_of(a) == FLOAT:
        return a * scalar(x, FLOAT)
    p, q = Fraction(x).as_integer_ratio()
    return _reduced(_rescale(a.num, p, a.magnitude), a.den * q, a.magnitude * abs(p))


def gather(x, lines: Support, axes=(0,)):
    """x times the matrix of lines along each axis in turn: along axis a,
    entry j is sum_t x.take(idx[j, t], a) * val[j, t], the column-wise
    sparse product (Gustavson 1978), k^2 s work.  Lines that relabel only
    take entries: no multiply, no reduction.  Numerators stay int64 while
    s * max|x| * max|val| per axis stays below _INT64_SAFE; that product,
    from the operands' bounds, is the result's bound."""
    if lines.relabels:
        # One broadcast index, p[:, None] and p on two axes, after any
        # leading ones; an axis between two of axes keeps its order.
        p, first, last = lines.idx[:, 0], min(axes), max(axes)
        return relabel(x, (slice(None),) * first + tuple(
            (p if a in axes else np.arange(x.shape[a])).reshape((-1,) + (1,) * (last - a))
            for a in range(first, last + 1)))
    if backend_of(x) == FLOAT:
        for a in axes:
            x = _gather_axis(x, lines.idx, as_float(lines.val), a)
        return freeze(x)
    # >= 1: Python-int values move x too.
    step = lines.idx.shape[1] * max(lines.val.magnitude, 1)
    num, bound = x.num, _settled(x.num, x.magnitude, step ** len(axes))
    for a in axes:
        bound *= step
        num = num.astype(object, copy=False) if bound >= _INT64_SAFE else num
        num = _gather_axis(num, lines.idx, lines.val.num, a)
    return _reduced(num, x.den * lines.val.den ** len(axes), bound)


def _gather_axis(x: np.ndarray, idx: np.ndarray, val: np.ndarray, axis: int):
    shape = (-1,) + (1,) * (x.ndim - 1 - axis)  # val[:, t] along axis
    out = x.take(idx[:, 0], axis)
    out *= val[:, 0].reshape(shape)
    for t in range(1, idx.shape[1]):
        part = x.take(idx[:, t], axis)
        part *= val[:, t].reshape(shape)
        out += part
    return out


def relabel(a, index):
    """The entries a[index] for an index that reaches every row and column,
    as a relabeling does: the values, and so the denominator, stay."""
    if backend_of(a) == FLOAT:
        return freeze(a[index])
    return Scaled(a.num[index], a.den, a.magnitude)


def select(a, index):
    """The entries a[index], as an array on the backend of a."""
    if backend_of(a) == FLOAT:
        return a[index]
    return _reduced(a.num[index], a.den, a.magnitude)


def block_sums(a, parent: np.ndarray, n: int):
    """n x n sums of a over blocks: entry (u, v) adds every a[i, j] with
    parent[i] = u and parent[j] = v."""
    index = (parent[:, None], parent[None, :])
    if backend_of(a) == FLOAT:
        out = np.zeros((n, n))
        np.add.at(out, index, a)
        return out
    out = numerators((n, n), _settled(a.num, a.magnitude, a.size) * a.size)
    np.add.at(out, index, a.num.astype(out.dtype, copy=False))
    return _reduced(out, a.den, a.magnitude * a.size)


def block_diagonal_sum(a, label: np.ndarray):
    """Sum of the entries a[i, j] with label[i] == label[j], for a label
    numbering the blocks of a cell partition 0, 1, ...  Floats add block by
    block in label order, each block's cells ascending; rationals add all
    numerators under the block-diagonal mask at once."""
    if backend_of(a) == FLOAT:
        order = np.argsort(label, kind="stable")
        total = 0.0
        for cells in np.split(order, np.cumsum(np.bincount(label))[:-1]):
            total += float(a[np.ix_(cells, cells)].sum())
        return total
    total, _ = _int_sum(a.num[label[:, None] == label[None, :]], a.magnitude)
    return Fraction(int(total), a.den)


def quadratic_form(w, c):
    """w^T C w for a vector w and a matrix C, or the row lines (Support) of
    a rational C, whose product C w is one gather."""
    if isinstance(c, Support):
        cw = gather(w, c)
        return Fraction(int(_int_matmul(w.num, cw.num, w.magnitude, cw.magnitude)),
                        w.den * cw.den)
    if backend_of(c) == FLOAT:
        return float(w @ (c @ w))
    wc = _int_matmul(w.num, c.num, w.magnitude, c.magnitude)
    n = _int_matmul(wc, w.num, w.size * w.magnitude * c.magnitude, w.magnitude)
    return Fraction(int(n), w.den * w.den * c.den)


def weighted_squares(a, weights):
    """The sum over i, j of a[i, j]^2 / weights[i], for positive int weights,
    of a matrix, or of each matrix of an (n, m, m) stack, a list of n values.
    On rationals each is one Fraction, the squared numerators summed over
    the one denominator a.den^2 lcm(weights), in int64 while the bound
    allows; on floats each matrix reduces as it would on its own."""
    if backend_of(a) == FLOAT:
        totals = (np.square(a).sum(axis=-1) / np.asarray(weights, dtype=float)).sum(axis=-1)
        return float(totals) if a.ndim == 2 else totals.tolist()
    lcm = math.lcm(*weights)
    num, worst = a.num, a.shape[-2] * a.shape[-1] * lcm
    bound = _settled(num, a.magnitude, a.magnitude * worst)
    dtype = object if bound * bound * worst >= _INT64_SAFE else np.int64
    factor = np.array([lcm // w for w in weights], dtype)
    totals = np.square(num.astype(dtype, copy=False)).sum(axis=-1) @ factor
    den = a.den * a.den * lcm
    if num.ndim == 2:
        return Fraction(int(totals), den)
    return [Fraction(int(t), den) for t in totals.tolist()]


def identity(k: int, backend: str = RATIONAL):
    return matrix_of_permutation(np.arange(k), backend)


def l1_norm(a, b=None, axis=None):
    """Entrywise L1 norm of a, or of a - b when b (array or scalar) is given;
    with axis, the norms over those axes as a stored form."""
    if backend_of(a) == FLOAT:
        d = np.subtract(a, 0.0 if b is None else b)  # a new array: abs in place
        total = np.abs(d, out=d).sum(axis=axis)
        return float(total) if axis is None else freeze(total)
    num, den, bound = _scaled(a, b)
    # a - b is a new array: abs in place; a alone is read-only.
    total, bound = _int_sum(np.abs(num, out=None if b is None else num), bound, axis)
    return Fraction(int(total), den) if axis is None else _reduced(total, den, bound)


def max_abs(a, b=None):
    """Largest |entry| of a, or of a - b when b (array or scalar) is given."""
    if backend_of(a) == FLOAT:
        d = np.abs(a if b is None else a - b)
        return float(d.max()) if d.size else 0.0
    num, den, _ = _scaled(a, b)
    return Fraction(_magnitude(num), den)


def support(a) -> Support:
    """The row lines of a square stored form, a shorter line repeating its
    last position with value zero; support(a.T) gives the column lines."""
    num = a.num if isinstance(a, Scaled) else a
    line, pos = np.nonzero(num)
    count = np.bincount(line, minlength=num.shape[0])
    slot = np.arange(len(line)) - np.repeat(np.cumsum(count) - count, count)
    idx = np.full((num.shape[0], max(count.max(initial=0), 1)), -1)
    idx[line, slot] = pos
    val = np.zeros(idx.shape, dtype=num.dtype)
    val[line, slot] = num[line, pos]
    val = Scaled(val, a.den, a.magnitude) if isinstance(a, Scaled) else freeze(val)
    return Support(freeze(np.maximum.accumulate(idx, axis=1)), val)


# Row lines as a matrix's own form.  Lines of width s = k are dense_lines,
# the stored matrix itself; narrower ones are canonical (Support): every
# line's positions ascending, a shorter line repeating its last position
# with value zero, so that equal matrices have equal lines of one width.

def dense_lines(a) -> Support:
    """The row lines of a k x k stored form with every position kept: s =
    k, idx a read-only broadcast of arange(k), one per k, val a itself."""
    return Support(_every_position(a.shape[0]), a)


@lru_cache(maxsize=16)
def _every_position(k: int) -> np.ndarray:
    return np.broadcast_to(np.arange(k), (k, k))


def is_dense(lines: Support) -> bool:
    """Whether lines are dense_lines: s = k and idx a broadcast row."""
    return lines.idx.shape[1] == len(lines.idx) and not lines.idx.strides[0]


def _real(idx: np.ndarray) -> np.ndarray:
    """The slots of canonical lines that hold a position of their own: all
    but the repeats a shorter line pads with."""
    real = np.ones(idx.shape, dtype=bool)
    np.not_equal(idx[:, 1:], idx[:, :-1], out=real[:, 1:])
    return real


def collect_lines(pos: np.ndarray, num: np.ndarray, den: int,
                  backend: str = RATIONAL) -> Support:
    """The lines of the k x k matrix with num[i, t] / den added at (i,
    pos[i, t]) for every slot, for int64 num whose line sums stay below
    2**62, repeated positions summed: each line sorted, s the most
    positions a line holds, dense_lines when that is k."""
    k, m = pos.shape
    if m == 1:  # one position a line: sorted already
        idx, out = freeze(np.array(pos)), np.array(num)
    else:
        order = np.argsort(pos, axis=1)
        pos, num = _by_rows(pos, order), _by_rows(num, order)
        real = _real(pos)
        slot = np.cumsum(real, axis=1) - 1  # where each entry goes in its line
        flat = np.flatnonzero(real)
        at = (flat // m, slot.ravel()[flat])
        idx = np.full((k, int(slot[:, -1].max()) + 1), -1)
        out = numerators(idx.shape)
        idx[at], out[at] = pos.ravel()[flat], np.add.reduceat(num.ravel(), flat)
        freeze(np.maximum.accumulate(idx, axis=1, out=idx))
    if idx.shape[1] == k:  # a line holds every position: the dense form
        return dense_lines(_fresh(from_scaled(lines_matrix(Support(idx, out)), den, backend)))
    return Support(idx, _fresh(from_scaled(out, den, backend)))


def _by_rows(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """a[i, order[i, t]]: each row of a in its own order."""
    return a[np.arange(len(a))[:, None], order]


def _fresh(a):
    """A new stored form made read-only: a Scaled is already."""
    return a if isinstance(a, Scaled) else freeze(a)


def lines_matrix(lines: Support):
    """The k x k stored form of row lines: val itself for dense_lines, else
    the values written at their positions, each repeat left out."""
    if is_dense(lines):
        return lines.val
    num, _ = _num_one(lines.val)
    k, real = len(num), _real(lines.idx)
    out = np.zeros((k, k), dtype=num.dtype)
    out[np.flatnonzero(real) // real.shape[1], lines.idx[real]] = num[real]
    if isinstance(lines.val, Scaled):  # zeros keep the lowest terms
        return Scaled(out, lines.val.den, lines.val.magnitude)
    return freeze(out)


def relabel_lines(lines: Support, p: np.ndarray | None = None,
                  to: np.ndarray | None = None) -> Support:
    """The lines of the matrix M' with M'[i, to[j]] = M[p[i], j] for the
    matrix M of lines and permutations p and to (either one the identity
    when None): line i is line p[i], each position j moved to to[j], the
    line sorted again with its repeats last, k s work.  Dense lines relabel
    their matrix (relabel)."""
    if is_dense(lines):
        if to is None:
            index = slice(None) if p is None else p
        else:
            q = invert_permutation(to)
            index = (slice(None), q) if p is None else (p[:, None], q)
        return Support(lines.idx, relabel(lines.val, index))
    idx, (num, _), k = lines.idx, _num_one(lines.val), len(lines.idx)
    if p is not None:
        idx, num = idx[p], num[p]
    if to is not None and idx.shape[1] == 1:
        idx = to[idx]
    elif to is not None:
        # Repeats sort last, as position k, and take the line's last one.
        key = np.where(_real(idx), to[idx], k)
        order = np.argsort(key, axis=1)
        idx, num = _by_rows(key, order), _by_rows(num, order)
        idx[idx == k] = -1
        np.maximum.accumulate(idx, axis=1, out=idx)
    val = Scaled(num, lines.val.den, lines.val.magnitude) if isinstance(lines.val, Scaled) else freeze(num)
    return Support(freeze(idx), val)


def l1_lines(a: Support, b) -> Fraction:
    """Entrywise L1 norm of A - B for the rational matrices A and B of row
    lines a and b, or of A - b for a scalar b.  Two line sets are merged
    position by position (lines of one position each are compared slot
    against slot); against a scalar every slot adds |val - b| and every
    position past the k s slots adds |b|."""
    k = len(a.idx)
    if isinstance(b, Support):
        na, nb, den, bound = _over_lcm(a.val, b.val)
        if a.idx.shape[1] == b.idx.shape[1] == 1:
            # One position a line: two lines meet only where it is the same.
            diff = np.where(a.idx == b.idx, np.abs(na - nb), np.abs(na) + np.abs(nb))
        else:
            at = np.arange(0, k * k, k)[:, None]
            keys = np.concatenate(((a.idx + at).ravel(), (b.idx + at).ravel()))
            order = np.argsort(keys, kind="stable")  # two sorted runs: a merge
            start = np.flatnonzero(_real(keys[order][None, :]))
            diff = np.add.reduceat(np.concatenate((na.ravel(), -nb.ravel()))[order], start)
            np.abs(diff, out=diff)
        total, _ = _int_sum(diff, bound)
        return Fraction(int(total), den)
    na, nb, den, bound = _over_lcm(a.val, b)
    diff = na - nb
    total, _ = _int_sum(np.abs(diff, out=diff), bound)
    # A repeat holds zero, so it adds |b| as a position no line holds does.
    return Fraction(int(total) + (k * k - na.size) * abs(nb), den)


def mat_add(a, b, times: int = 1):
    """Entrywise a + times b, for an int times >= 0.  A float sum adds b
    times over, in turn, so its bits are those of a running sum.  A rational
    sum scales b once, and stays over the lcm of the denominators,
    unreduced: a running sum skips a gcd pass (about ten adds' time) per
    term, and mat_div reduces once."""
    if not times:
        return a
    if backend_of(a) == FLOAT:
        total = a + b
        for _ in range(times - 1):
            total += b
        return total
    if times > 1:
        b = Scaled(_rescale(b.num, times, b.magnitude), b.den, b.magnitude * times)
    na, nb, den, bound = _over_lcm(a, b)
    total = na + nb
    bound = _settled(total, bound)
    if bound >= _INT64_SAFE:
        total = total.astype(object, copy=False)
    return Scaled(total, den, bound)


def same(a, b) -> bool:
    """Whether two stored forms are one value written alike: the same
    denominator and numerators, or the same float64 bits.  The first line
    is compared before the rest: two states that differ mostly differ
    there already.  Row lines (Support) compare their values, then their
    positions."""
    lines = (a.idx, b.idx) if isinstance(a, Support) else None
    if lines:
        a, b = a.val, b.val
    if isinstance(a, Scaled):
        if a.den != b.den:
            return False
        a, b = a.num, b.num
    else:
        a, b = a.view(np.int64), b.view(np.int64)
    return (a.shape == b.shape and bool((a[:1] == b[:1]).all()) and bool((a == b).all())
            and (lines is None or lines[0] is lines[1] or np.array_equal(*lines)))


def mat_div(a, n: int):
    """a / n for an int n > 0: exact in lowest terms, or a float division."""
    if backend_of(a) == FLOAT:
        return freeze(a / n)
    return _reduced(a.num, a.den * n, a.magnitude)


def marginal_defects(m, target, tol: float) -> list[str]:
    """Lines of m whose sum is not target, then negative entries.

    Returns 'row_sum(i)', 'col_sum(j)' and 'negative_entry(i,j)' names in
    that order.  target is exact; tol applies to float arrays only.  m is a
    square stored form, or the row lines (Support) of a rational one, whose
    column sums add each value at its position.
    """
    lines = m if isinstance(m, Support) else None
    if lines is not None or backend_of(m) == RATIONAL:
        s = m if lines is None else lines.val
        num, bound = s.num, s.magnitude
        rows, row_bound = _int_sum(num, bound, 1)
        if lines is None:
            cols, col_bound = _int_sum(num, bound, 0)
            negative = np.argwhere(num < 0)
        else:
            col_bound = _settled(num, bound, num.size) * num.size
            cols = numerators(len(num), col_bound)
            np.add.at(cols, lines.idx.ravel(), num.ravel())
            line, slot = np.nonzero(num < 0)
            negative = zip(line, lines.idx[line, slot])
        # A line sums to p/q exactly when its numerators sum to p*den/q.
        p, q = Fraction(target).as_integer_ratio()
        bad_rows = _rescale(rows, q, row_bound) != p * s.den
        bad_cols = _rescale(cols, q, col_bound) != p * s.den
    else:
        target = float(target)
        bad_rows = [abs(m[i, :].sum() - target) > tol for i in range(m.shape[0])]
        bad_cols = [abs(m[:, j].sum() - target) > tol for j in range(m.shape[1])]
        negative = np.argwhere(m < -tol)
    out = [f"row_sum({i})" for i in np.flatnonzero(bad_rows)]
    out += [f"col_sum({j})" for j in np.flatnonzero(bad_cols)]
    out += [f"negative_entry({i},{j})" for i, j in negative]
    return out


def as_float(a) -> np.ndarray:
    if isinstance(a, Scaled):
        return _to_float(a.num, a.den)
    return np.asarray(a, dtype=float)


def matrix_of_permutation(perm, backend: str = RATIONAL):
    """0/1 matrix M with M[perm[j], j] = 1 (column j sent to row perm[j])."""
    k = len(perm)
    num = numerators((k, k))
    num[np.asarray(perm, dtype=int), np.arange(k)] = 1
    return from_scaled(num, 1, backend)


def permutation_of_matrix(q):
    """Forward cell map tau with Q[a, tau(a)] = 1, or None if Q is not one:
    on both backends every row and every column must hold a single one."""
    return permutation_of_lines(support(q))


def permutation_of_lines(lines: Support):
    """permutation_of_matrix of the matrix of row lines: every line holds
    one nonzero, equal to one, and no two lines hold it at one position."""
    num, one = _num_one(lines.val)
    nonzero = num != 0
    rows, slot = np.arange(len(num)), nonzero.argmax(axis=1)
    if not ((nonzero.sum(axis=1) == 1).all() and (num[rows, slot] == one).all()):
        return None
    tau = lines.idx[rows, slot]
    return tau if (np.bincount(tau, minlength=len(tau)) == 1).all() else None


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty(len(perm), dtype=int)
    inv[np.asarray(perm, dtype=int)] = np.arange(len(perm))
    return inv


def compose_permutations(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Composition p after q: j -> p[q[j]]."""
    return np.asarray(p, dtype=int)[np.asarray(q, dtype=int)]


def cycle_min(perm: np.ndarray) -> np.ndarray:
    """The smallest cell of each cell's cycle under a permutation.  Pointer
    doubling: after t rounds, low[x] is the smallest of the first 2^t cells
    of x's orbit, and no cycle is longer than len(perm)."""
    low, step = np.arange(len(perm)), np.asarray(perm, dtype=int)
    for _ in range(len(perm).bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    return low


def permutation_cycles(perm: np.ndarray) -> tuple[np.ndarray, ...]:
    """(order, first, pos, length): the cells listed cycle by cycle, each
    cycle from its smallest cell in step order, and for each cell the slot
    in order where its cycle starts, its position in its cycle and the
    cycle's length, so that perm^n(x) = order[first + (pos + n) % length].

    A cell's distance forward to its cycle's smallest cell is ranked by
    pointer jumping (Wyllie 1979), the smallest cell standing still."""
    k, perm = len(perm), np.asarray(perm, dtype=int)
    low = cycle_min(perm)
    cells = np.arange(k)
    at_low = low == cells
    ahead, dist = np.where(at_low, cells, perm), (~at_low).astype(int)
    for _ in range(k.bit_length()):
        dist = dist + dist[ahead]
        ahead = ahead[ahead]
    size = np.bincount(low, minlength=k)
    length = size[low]
    pos = (length - dist) % length
    return np.lexsort((pos, low)), (np.cumsum(size) - size)[low], pos, length


def exact_nullspace(a) -> list[Scaled]:
    """Basis of {x : A x = 0} over the rationals, by integer Gauss-Jordan.

    A is a matrix of ints or a Scaled, whose numerators span the same null
    space.  Returns one Scaled vector per free column: 1 there, and minus
    the reduced row's entry over its pivot at each pivot column.  Rows stay
    Python ints, each divided by its gcd to keep magnitudes tame.

    Nothing in the library calls it: lens.fixed_point_space reads the same
    basis off a spanning tree.  It stays as the oracle that the tests check
    that basis against, and as a layer perfbench/tracing.py names.
    """
    if isinstance(a, Scaled):
        a = a.num
    elif np.asarray(a).dtype.kind not in "iu":
        raise TypeError("exact_nullspace takes an integer matrix or a Scaled (exact.stored)")
    work = np.asarray(a).astype(object)  # rewritten in place
    m, n = work.shape
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        candidates = [i for i in range(r, m) if work[i, c] != 0]
        if not candidates:
            continue
        i0 = min(candidates, key=lambda i: abs(work[i, c]))
        work[[r, i0]] = work[[i0, r]]
        for i in range(m):
            if i != r and work[i, c] != 0:
                row = work[i] * work[r, c] - work[r] * work[i, c]
                work[i] = row // (math.gcd(*row.tolist()) or 1)
        pivots.append(c)
        if len(pivots) == m:
            break
    rows, pivot_cols = np.arange(len(pivots)), np.array(pivots, dtype=int)
    diag = work[rows, pivot_cols]
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        col = work[rows, fc]
        # den is a multiple of each pivot whose row meets fc: exact division.
        den = math.lcm(*diag[col != 0].tolist())
        num = np.zeros(n, dtype=object)
        num[fc] = den
        num[pivot_cols] = -col * den // diag
        basis.append(_reduced(num, den))
    return basis
