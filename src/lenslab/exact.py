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

The worst case comes from an upper bound on the numerators that every
value carries (``Scaled.bound``, a required field).  The kernel that makes
a value fills it in from what it already computed (a gather's
s * max|x| * max|val|, a sum's rescaled operands, a relabel's unchanged
entries), so no result is scanned again.  A bound only ever proves int64
safe: at or past ``_INT64_SAFE`` one exact scan decides, so every result
has the dtype, numerators and denominator that scanning everything gives.
Every entry is scanned only where no kernel knew a bound (``from_scaled``,
``split_common``: ``_reduced`` reads their max and min), by ``max_abs``,
whose answer is the exact maximum, and where a bound reaches
``_INT64_SAFE``.  ``_reduced`` probes for a common factor
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

# Cells that the zoo systems kept for reuse hold in their lines, k s a
# system, in all: at 24 B a cell (a row and a column position and one shared
# value), about 1.5 MiB, and about 4.4 MiB with each system's fixed 2 KiB
# when they are the 2129 smallest rotations.  A system past it on its own is
# built and not kept.
KEPT_CELLS = 2**16

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
    which makes it unique (the sums of mat_add, fold_lines, lift_lines,
    run_means, residue_sums and average_runs excepted, which lowest
    reduces).  num is read-only, int64 while every |entry| < _INT64_SAFE
    and Python ints otherwise; from_scaled reduces and picks the dtype,
    this constructor trusts its caller.  bound, filled in by the kernel
    that made the value (or by _reduced's scan), is an upper bound on every
    |entry| of num; every Scaled carries one."""

    num: np.ndarray
    den: int
    bound: int

    def __post_init__(self):
        freeze(self.num)

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
    """A matrix by the nonzeros of its lines, s to a line: line j holds
    val[j, t] at idx[j, t] (read-only, ascending; a shorter line repeats a
    position with value zero), val a (k, s) stored form over the matrix's
    denominator.  The matrix is square unless its holder gives a width (a
    coupling's held matrix, CouplingMatrix.width).  Q's column lines give X Q and Q^T X, its row
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
    return Scaled(num, q, abs(p)) if backend == RATIONAL else freeze(_to_float(num, q))


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
    return _reduced(np.concatenate([_rescale(s.num, den // s.den, s.bound).ravel()
                                    for s in arrays]),
                    den, max(s.bound * (den // s.den) for s in arrays))


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
    if isinstance(b, Scaled):
        nb, db = b.num, b.den
    else:
        nb, db = (b if isinstance(b, Fraction) else Fraction(b)).as_integer_ratio()
    mb = b.bound if isinstance(b, Scaled) else abs(nb)
    den = math.lcm(a.den, db)
    fa, fb = den // a.den, den // db
    return (_rescale(a.num, fa, a.bound), _rescale(nb, fb, mb), den,
            a.bound * fa + mb * fb)


def _scaled(a, b=None) -> tuple[np.ndarray, int, int]:
    """(numerators, denominator, bound on |numerators|) of a, or of a - b
    for b an array or scalar."""
    if b is None:
        return a.num, a.den, a.bound
    na, nb, den, bound = _over_lcm(a, b)
    return na - nb, den, bound


def mat_mul(a, b):
    if backend_of(a) == FLOAT:
        return a @ b
    return _reduced(_int_matmul(a.num, b.num, a.bound, b.bound), a.den * b.den,
                    a.shape[-1] * a.bound * b.bound)


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
    return _reduced(_rescale(a.num, p, a.bound), a.den * q, a.bound * abs(p))


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
    step = lines.idx.shape[1] * max(lines.val.bound, 1)
    num, bound = x.num, _settled(x.num, x.bound, step ** len(axes))
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


def run_means(x, d: int):
    """The means of x's runs of d consecutive rows, for a row count that d
    divides: row v is sum_c x[v d + c] / d.  Floats add x[v d + c] / d in
    turn, as a gather on a line of d values 1/d does; rationals sum the
    numerators over d times the denominator, unreduced (lowest reduces).
    On cylinder words, Q x for the rows of the full shift Q that x holds."""
    if backend_of(x) == FLOAT:
        share = 1 / d
        out = x[0::d] * share
        for c in range(1, d):
            out += x[c::d] * share
        return freeze(out)
    num, bound = x.num, _settled(x.num, x.bound, d) * d
    if bound >= _INT64_SAFE:
        num = num.astype(object)
    return Scaled(num.reshape(-1, d, *num.shape[1:]).sum(axis=1), x.den * d, bound)


def residue_sums(x, r: int):
    """The sums of x's rows by their index mod r, for a row count that r
    divides: row a is sum_t x[t r + a], unreduced on rationals (lowest
    reduces); x itself when r is its row count.  F^T R = X^T W for W[w] =
    R[w mod r]."""
    n = x.shape[0] // r
    if n == 1:
        return x
    if backend_of(x) == FLOAT:
        return freeze(x.reshape(n, r, *x.shape[1:]).sum(axis=0))
    num, bound = x.num, _settled(x.num, x.bound, n) * n
    if bound >= _INT64_SAFE:
        num = num.astype(object)
    return Scaled(num.reshape(n, r, *num.shape[1:]).sum(axis=0), x.den, bound)


def relabel(a, index):
    """The entries a[index] for an index that reaches every row and column,
    as a relabeling does: the values, and so the denominator, stay."""
    if backend_of(a) == FLOAT:
        return freeze(a[index])
    return Scaled(a.num[index], a.den, a.bound)


def select(a, index):
    """The entries a[index], as an array on the backend of a."""
    if backend_of(a) == FLOAT:
        return a[index]
    return _reduced(a.num[index], a.den, a.bound)


def block_sums(a, parent: np.ndarray, n: int):
    """n x n sums of a over blocks: entry (u, v) adds every a[i, j] with
    parent[i] = u and parent[j] = v."""
    index = (parent[:, None], parent[None, :])
    if backend_of(a) == FLOAT:
        out = np.zeros((n, n))
        np.add.at(out, index, a)
        return out
    out = numerators((n, n), _settled(a.num, a.bound, a.size) * a.size)
    np.add.at(out, index, a.num.astype(out.dtype, copy=False))
    return _reduced(out, a.den, a.bound * a.size)


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
    total, _ = _int_sum(a.num[label[:, None] == label[None, :]], a.bound)
    return Fraction(int(total), a.den)


def quadratic_form(w, c):
    """w^T C w for a vector w and a matrix C, or the row lines (Support) of
    a rational C, whose product C w is one gather."""
    if isinstance(c, Support):
        cw = gather(w, c)
        return Fraction(int(_int_matmul(w.num, cw.num, w.bound, cw.bound)),
                        w.den * cw.den)
    if backend_of(c) == FLOAT:
        return float(w @ (c @ w))
    wc = _int_matmul(w.num, c.num, w.bound, c.bound)
    n = _int_matmul(wc, w.num, w.size * w.bound * c.bound, w.bound)
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
    bound = _settled(num, a.bound, a.bound * worst)
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
    val = Scaled(val, a.den, a.bound) if isinstance(a, Scaled) else freeze(val)
    return Support(freeze(np.maximum.accumulate(idx, axis=1)), val)


# Row lines as a matrix's own form.  A matrix has n rows and width columns,
# n unless a caller says otherwise.  Lines that hold every position are
# dense_lines, the stored matrix itself; narrower ones are canonical
# (Support): every line's positions ascending, a shorter line repeating its
# last position with value zero, so that equal matrices have equal lines of
# one width.

def dense_lines(a) -> Support:
    """The row lines of an n x width stored form with every position kept:
    idx a read-only broadcast of arange(width), one per row, val a itself."""
    return Support(_every_position(*a.shape), a)


@lru_cache(maxsize=16)
def _every_position(n: int, width: int) -> np.ndarray:
    return np.broadcast_to(np.arange(width), (n, width))


def is_dense(lines: Support) -> bool:
    """Whether lines are dense_lines: idx a broadcast row, no step between
    lines (every other line set holds its own positions)."""
    return not lines.idx.strides[0]


def _real(idx: np.ndarray) -> np.ndarray:
    """The slots of canonical lines that hold a position of their own: all
    but the repeats a shorter line pads with."""
    real = np.ones(idx.shape, dtype=bool)
    np.not_equal(idx[:, 1:], idx[:, :-1], out=real[:, 1:])
    return real


# Slots that collect_lines and l1_lines take at once: their temporaries,
# about a hundred bytes a slot, follow a block of lines, not the whole set.
_BLOCK_SLOTS = 2**16


def collect_lines(pos, num, den: int, backend: str = RATIONAL,
                  width: int | None = None, bound: int = 0) -> Support:
    """The lines of the k x width matrix (width k unless given) with
    num[i, t] / den added at (i, pos[i, t]) for every slot, repeated
    positions summed: each line sorted, s the most positions a line holds,
    dense_lines when that is width.  pos and num are (k, m) arrays, or lists
    of such arrays whose slots line i joins.  num is int64, or Python ints
    where bound, an upper bound on every |line sum|, reaches 2**62.  Past
    _BLOCK_SLOTS slots, lines are collected a block at a time into lines as
    wide as their slots, cut to s (copied when that halves them)."""
    if isinstance(pos, np.ndarray):
        pos, num = [pos], [num]
    k, m = len(pos[0]), sum(p.shape[1] for p in pos)
    width = k if width is None else width
    if m == 1:  # one position a line: sorted already
        idx, out = freeze(np.array(pos[0])), np.array(num[0])
    elif k * m <= _BLOCK_SLOTS:
        idx, out = _collected(np.concatenate(pos, 1) if len(pos) > 1 else pos[0],
                              np.concatenate(num, 1) if len(num) > 1 else num[0], bound)
        freeze(idx)
    else:
        idx = np.empty((k, m), dtype=int)
        out, s = np.zeros((k, m), dtype=np.int64 if bound < _INT64_SAFE else object), 1
        step = max(1, _BLOCK_SLOTS // m)
        for lo in range(0, k, step):
            lines = slice(lo, lo + step)
            i, o = _collected(np.concatenate([p[lines] for p in pos], 1),
                              np.concatenate([n[lines] for n in num], 1), bound)
            # Past its own, a line repeats its last position, with value zero.
            idx[lines, :i.shape[1]], idx[lines, i.shape[1]:] = i, i[:, -1:]
            out[lines, :o.shape[1]] = o
            s = max(s, i.shape[1])
        idx, out = (a[:, :s].copy() if 2 * s <= m else a[:, :s] for a in (idx, out))
        freeze(idx)
    if idx.shape[1] == width:  # a line holds every position: the dense form
        return dense_lines(_fresh(from_scaled(lines_matrix(Support(idx, out), width),
                                              den, backend)))
    return Support(idx, _fresh(from_scaled(out, den, backend)))


def _collected(pos: np.ndarray, num: np.ndarray, bound: int):
    """collect_lines' positions and numerators for one block of lines."""
    m = pos.shape[1]
    order = np.argsort(pos, axis=1)
    pos, num = _by_rows(pos, order), _by_rows(num, order)
    real = _real(pos)
    slot = np.cumsum(real, axis=1) - 1  # where each entry goes in its line
    flat = np.flatnonzero(real)
    at = (flat // m, slot.ravel()[flat])
    idx = np.full((len(pos), int(slot[:, -1].max()) + 1), -1)
    out = numerators(idx.shape, bound)
    idx[at], out[at] = pos.ravel()[flat], np.add.reduceat(num.ravel(), flat)
    return np.maximum.accumulate(idx, axis=1, out=idx), out


def _by_rows(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """a[i, order[i, t]]: each row of a in its own order."""
    return a[np.arange(len(a))[:, None], order]


def _fresh(a):
    """A new stored form made read-only: a Scaled is already."""
    return a if isinstance(a, Scaled) else freeze(a)


def lines_matrix(lines: Support, width: int | None = None):
    """The n x width stored form of row lines (width n unless given): val
    itself for dense_lines, else the values written at their positions,
    each repeat left out."""
    if is_dense(lines):
        return lines.val
    num, _ = _num_one(lines.val)
    k, real = len(num), _real(lines.idx)
    out = np.zeros((k, k if width is None else width), dtype=num.dtype)
    out[np.flatnonzero(real) // real.shape[1], lines.idx[real]] = num[real]
    if isinstance(lines.val, Scaled):  # zeros keep the lowest terms
        return Scaled(out, lines.val.den, lines.val.bound)
    return freeze(out)


def _spread(num: np.ndarray, like, share: int):
    """num over the denominator of the stored form like times share,
    unreduced (lowest gives lowest terms); or, for a float like, num /
    share."""
    if isinstance(like, Scaled):
        return Scaled(num, like.den * share, like.bound)
    return freeze(num / share)


def lowest(a):
    """A stored form, or the values of row lines, in lowest terms: the
    unreduced sums of mat_add, fold_lines, lift_lines, run_means,
    residue_sums and average_runs reduced; floats as they are."""
    if isinstance(a, Support):
        return Support(a.idx, lowest(a.val))
    return _reduced(a.num, a.den, a.bound) if isinstance(a, Scaled) else a


def lift_lines(lines: Support, rows: int, cols: int, width: int) -> Support:
    """The row lines of the matrix of lines (width columns) spread evenly
    over blocks of rows x cols cells: entry (u, p) / (rows cols) at each
    cell (u rows + i, p cols + j), over rows cols times the denominator,
    unreduced.  Lines are repeated rows times, and each position widens to
    cols positions."""
    if rows == cols == 1:
        return lines
    num, _ = _num_one(lines.val)
    if is_dense(lines):
        num = np.repeat(num, rows, 0) if rows > 1 else num
        return dense_lines(_spread(np.repeat(num, cols, 1) if cols > 1 else num,
                                   lines.val, rows * cols))
    idx, num = np.repeat(lines.idx, rows, 0), np.repeat(num, rows, 0)
    if cols > 1:
        # A repeat widens onto its line's last block again: the running
        # maximum moves it to the last cell, after the real ones.
        idx = (idx[:, :, None] * cols + np.arange(cols)).reshape(len(idx), -1)
        np.maximum.accumulate(idx, axis=1, out=idx)
        num = np.repeat(num, cols, 1)
    return Support(freeze(idx), _spread(num, lines.val, rows * cols))


# Cells of the held matrix past which fold_lines merges narrow rational
# lines rather than summing the matrix they spread to.  Measured on the
# first fold of a graph and of a random coupling on bern d = 2, 3 and 4, on
# a 2-core x86 host: the sums take 23-37 us against 42-76 us merged at k =
# 128, the two are about even at k = 243-256 (46-81 against 49-122 us), and
# the merge wins from k = 512 (70-185 us against 0.24-0.30 ms).
_FOLD_DENSE = 2**16


def fold_lines(lines: Support, d: int, rows: bool, cols: bool, width: int) -> Support:
    """The row lines of the n x width matrix M of lines with its d blocks of
    rows summed, M'[v] = sum_c M[c n/d + v], when rows, and then its d
    blocks of columns, M'[:, v] = sum_c M'[:, c width/d + v], when cols: on
    cylinder words, the first symbol summed out.  Rational lines narrower
    than they could be, of a matrix past _FOLD_DENSE cells, are merged (d
    lines into one, positions mod width/d; collect_lines), in work
    proportional to their slots; otherwise the matrix is summed, d blocks
    at a time, in symbol order."""
    n = len(lines.idx)
    m, w = (n // d if rows else n), (width // d if cols else width)
    step = d ** (rows + cols)
    if isinstance(lines.val, Scaled) and not is_dense(lines) and n * width > _FOLD_DENSE:
        idx, num = lines.idx, lines.val.num
        bound = _settled(num, lines.val.bound, step) * step
        if bound >= _INT64_SAFE:
            num = num.astype(object)
        # Line v joins lines c m + v, each block of lines a view, and
        # position p joins p mod w.
        idx, num = (([a[c * m:(c + 1) * m] for c in range(d)] if rows else [a])
                    for a in (idx, num))
        if cols:
            idx = [a % w for a in idx]
        return collect_lines(idx, num, lines.val.den, width=w, bound=bound)
    a = lines_matrix(lines, width)
    if not isinstance(a, Scaled):
        if rows:
            a = a.reshape(d, m, width).sum(axis=0)
        return dense_lines(freeze(a.reshape(m, d, w).sum(axis=1) if cols else a))
    num, bound = a.num, _settled(a.num, a.bound, step) * step
    if bound >= _INT64_SAFE:
        num = num.astype(object)
    # One reduction over the first symbol of each folded axis.
    num = num.reshape((d, m, d, w) if rows and cols else (d, m, w) if rows else (m, d, w))
    num = num.sum(axis=(0, 2) if rows and cols else 0 if rows else 1)
    if num.dtype == object:  # past int64 by the bound: the scan picks the dtype
        return dense_lines(_reduced(num, a.den, bound))
    # Sums over the one denominator, unreduced as a mat_add sum is: every
    # entry of a coupling is at most 1, so its numerators stay below den.
    return dense_lines(Scaled(num, a.den, bound))


def average_runs(lines: Support, d: int, width: int) -> Support:
    """The row lines of M', M'[i, p] = sum_c M[i, (p mod width/d) d + c] / d,
    for the rational row lines of an n x width matrix M: each run of d
    consecutive columns averaged, and the width/d averages laid d times
    along the line, merged (collect_lines) in work proportional to M's
    slots times d, which on dense lines is n width d log(width d) against
    a gather's n width d.  On cylinder words, M Q^T for the full shift Q:
    the last symbol averaged out, and a new first one free."""
    h, num = width // d, lines.val.num
    bound = _settled(num, lines.val.bound, d) * d  # d slots merge into one
    if bound >= _INT64_SAFE:
        num = num.astype(object)
    pos = lines.idx // d
    if pos.shape[1] == 1:  # one position a line: its d copies ascend, unreduced
        return Support(freeze(pos + np.arange(0, width, h)),
                       Scaled(np.repeat(num, d, axis=1), lines.val.den * d, bound))
    return collect_lines([pos + t * h for t in range(d)], [num] * d, lines.val.den * d,
                         width=width, bound=bound)


def add_lines(a: Support | None, b: Support, width: int, times: int = 1) -> Support:
    """The row lines of A + times B for rational matrices of row lines a and
    b, of width columns (A zero when a is None), for an int times >= 0:
    dense where either is, unreduced (mat_add), and merged (collect_lines)
    where both are narrower."""
    if a is None:
        a, times = b, times - 1
    if not times:
        return a
    if is_dense(a) or is_dense(b):
        return dense_lines(mat_add(lines_matrix(a, width), lines_matrix(b, width), times))
    val = b.val
    if times > 1:
        val = Scaled(_rescale(val.num, times, val.bound), val.den, val.bound * times)
    na, nb, den, bound = _over_lcm(a.val, val)
    return collect_lines([a.idx, b.idx], [na, nb], den, width=width, bound=bound)


def relabel_lines(lines: Support, p: np.ndarray | None = None,
                  to: np.ndarray | None = None) -> Support:
    """The lines of the matrix M' with M'[i, to[j]] = M[p[i], j] for the
    square matrix M of lines and permutations p and to (either one the
    identity when None): line i is line p[i], each position j moved to
    to[j], the line sorted again with its repeats last, k s work.  Dense
    lines relabel their matrix (relabel)."""
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
    val = Scaled(num, lines.val.den, lines.val.bound) if isinstance(lines.val, Scaled) else freeze(num)
    return Support(freeze(idx), val)


def l1_lines(a: Support, b: Support, width: int | None = None,
             ratio: tuple[int, int] = (1, 1)) -> Fraction:
    """Entrywise L1 norm of A - B for the rational matrices A and B of row
    lines a and b, B of width columns (its line count unless given).  Lines
    held alike are merged position by position (lines of one position each
    are compared slot against slot).  A may be held ratio = (rows, cols)
    times coarser, its entry (u, p) spread evenly over the cells (u rows +
    i, p cols + j) of B's shape: then each cell of B's lines reads the cell
    of A above it (a sorted search of A's cell keys, or its flat index
    when A is dense), and each cell of A adds |its share| for every cell
    of its block that B's lines leave out, _BLOCK_SLOTS slots at a time."""
    n = len(b.idx)
    width = n if width is None else width
    rows, cols = ratio
    share = rows * cols
    na, nb, den, bound = _over_lcm(a.val, b.val)
    if share == 1:
        if a.idx.shape[1] == b.idx.shape[1] == 1:
            # One position a line: two lines meet only where it is the same.
            diff = np.where(a.idx == b.idx, np.abs(na - nb), np.abs(na) + np.abs(nb))
        else:
            at = np.arange(0, n * width, width)[:, None]
            keys = np.concatenate(((a.idx + at).ravel(), (b.idx + at).ravel()))
            order = np.argsort(keys, kind="stable")  # two sorted runs: a merge
            start = np.flatnonzero(_real(keys[order][None, :]))
            diff = np.add.reduceat(np.concatenate((na.ravel(), -nb.ravel()))[order], start)
            np.abs(diff, out=diff)
        total, _ = _int_sum(diff, bound)
        return Fraction(int(total), den)
    total, step = 0, max(1, _BLOCK_SLOTS // (a.idx.shape[1] + rows * b.idx.shape[1]))
    dense = is_dense(a)
    for lo in range(0, len(a.idx), step):
        total += _l1_block(a.idx[lo:lo + step], na[lo:lo + step],
                           b.idx[lo * rows:(lo + step) * rows], nb[lo * rows:(lo + step) * rows],
                           width // cols, ratio, bound, dense)
    return Fraction(total, den * share)


def _l1_block(a_idx, na, b_idx, nb, coarse: int, ratio: tuple[int, int], bound: int,
              dense: bool) -> int:
    """l1_lines' numerator over den * share for one block of A's lines and
    the lines of B below them, A's width coarse, A's lines dense_lines when
    dense."""
    rows, cols = ratio
    share = rows * cols
    real_b = _real(b_idx)
    key_b = (b_idx // cols + (np.arange(len(b_idx)) // rows * coarse)[:, None])[real_b]
    vb = _rescale(nb[real_b], share, bound)
    if not dense:
        real_a = _real(a_idx)
        key_a = (a_idx + (np.arange(len(a_idx)) * coarse)[:, None])[real_a]  # ascending
        va = na[real_a]
        at = np.minimum(np.searchsorted(key_a, key_b), len(key_a) - 1)
        hit = key_a[at] == key_b
    else:  # every cell is held, its key its flat index
        va, at, hit = na.ravel(), key_b, None
    if bound * share >= _INT64_SAFE:  # |va| times its cells left out
        va = va.astype(object)
    over = va[at]
    if hit is not None:
        over[~hit] = 0
        at = at[hit]
    left = share - np.bincount(at, minlength=len(va))  # cells B leaves out
    total, _ = _int_sum(np.concatenate((np.abs(over - vb), np.abs(va) * left)), bound * share)
    return int(total)


def scalar_gap(lines: Support, b, width: int, largest: bool = False, over: int = 1):
    """The L1 norm of M - b, or with largest its largest |entry|, divided by
    over, for the n x width matrix M of row lines and an exact rational b:
    |val - b| at every slot (a repeat holds zero), and |b| at every cell no
    slot holds, which dense lines have none of."""
    cells = 0 if is_dense(lines) else len(lines.idx) * width - lines.idx.size
    if not isinstance(lines.val, Scaled):
        b = scalar(b, FLOAT)
        diff = np.abs(lines.val - b)
        gap = (max(diff.max(initial=0.0), abs(b) if cells else 0.0) if largest
               else diff.sum() + cells * abs(b))
        return float(gap) / over
    na, nb, den, bound = _over_lcm(lines.val, b)
    diff = na - nb
    np.abs(diff, out=diff)
    if largest:
        return Fraction(max(int(diff.max(initial=0)), abs(nb) if cells else 0), den * over)
    total, _ = _int_sum(diff, bound)
    return Fraction(int(total) + cells * abs(nb), den * over)


def is_constant(a, x) -> bool:
    """Whether every entry of a stored form is the exact rational x, or on
    floats the float nearest it.  A Scaled is in lowest terms, so its
    entries all equal p/q exactly when den is q and every numerator p."""
    if isinstance(a, Scaled):
        p, q = Fraction(x).as_integer_ratio()
        return a.den == q and bool((a.num == p).all())
    return bool((a == scalar(x, FLOAT)).all())


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
        b = Scaled(_rescale(b.num, times, b.bound), b.den, b.bound * times)
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
    return _reduced(a.num, a.den * n, a.bound)


def marginal_defects(m, target, tol: float, lift: tuple[int, int] = (1, 1),
                     width: int | None = None) -> list[str]:
    """Lines of m whose sum is not target, then negative entries.

    Returns 'row_sum(i)', 'col_sum(j)' and 'negative_entry(i,j)' names in
    that order.  m is a stored form, or its row lines (Support), whose
    column sums add each value at its position.  With lift = (rows, cols),
    m holds a matrix spread over blocks (lift_lines) and has width columns
    (its line count unless given): a line of m then sums to rows (or cols)
    times target, and names are of the spread matrix's cells.  target is
    exact and rationals compare exactly; on floats each sum or entry of the
    spread matrix may miss by tol, so a line of m by rows (or cols) tol and
    an entry by rows cols tol.
    """
    lines = m if isinstance(m, Support) else dense_lines(m)
    (fr, fc), val = lift, lines.val
    num, one = _num_one(val)
    rational = isinstance(val, Scaled)
    bound = val.bound if rational else 0
    rows, row_bound = _int_sum(num, bound, 1) if rational else (num.sum(axis=1), 0)
    if is_dense(lines):
        cols, col_bound = _int_sum(num, bound, 0) if rational else (num.sum(axis=0), 0)
    else:
        width = len(num) if width is None else width
        col_bound = _settled(num, bound, num.size) * num.size
        cols = numerators(width, col_bound) if rational else np.zeros(width)
        np.add.at(cols, lines.idx.ravel(), num.ravel())
    if rational:
        # A line of m sums to f p/q exactly when its numerators sum to f p den/q.
        p, q = Fraction(target).as_integer_ratio()
        bad_rows = np.flatnonzero(_rescale(rows, q, row_bound) != fr * p * one)
        bad_cols = np.flatnonzero(_rescale(cols, q, col_bound) != fc * p * one)
        neg_i, slot = np.nonzero(num < 0)
    else:
        t = float(target)
        bad_rows = np.flatnonzero(np.abs(rows - fr * t) > fr * tol)
        bad_cols = np.flatnonzero(np.abs(cols - fc * t) > fc * tol)
        neg_i, slot = np.nonzero(num < -fr * fc * tol)
    neg_j = lines.idx[neg_i, slot]
    if lift != (1, 1) and (bad_rows.size or bad_cols.size or neg_i.size):
        bad_rows, bad_cols = _spread_cells(bad_rows, fr), _spread_cells(bad_cols, fc)
        i = neg_i[:, None, None] * fr + np.arange(fr)[:, None]
        j = neg_j[:, None, None] * fc + np.arange(fc)
        neg_i, neg_j = (x.ravel() for x in np.broadcast_arrays(i, j))
        order = np.lexsort((neg_j, neg_i))  # row by row, as the spread matrix lists them
        neg_i, neg_j = neg_i[order], neg_j[order]
    out = [f"row_sum({i})" for i in bad_rows]
    out += [f"col_sum({j})" for j in bad_cols]
    out += [f"negative_entry({i},{j})" for i, j in zip(neg_i, neg_j)]
    return out


def _spread_cells(cells: np.ndarray, f: int) -> np.ndarray:
    """The cells c f .. c f + f - 1 that each of cells spreads over."""
    return cells if f == 1 else (cells[:, None] * f + np.arange(f)).ravel()


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


def is_permutation(cells: np.ndarray) -> bool:
    """Whether a 1-d int array of k >= 1 entries permutes 0 .. k-1: every
    entry in range, and every cell hit once (one bincount)."""
    k = len(cells)
    return bool(cells.min() >= 0 and cells.max() < k
                and (np.bincount(cells, minlength=k) == 1).all())


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
