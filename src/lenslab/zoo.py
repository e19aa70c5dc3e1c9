"""Stock systems: rotations, odometers, shifts, interval exchanges, and
exact torus/group maps used by the conjugation experiments.

Conventions fixed here and relied on everywhere else:

* odometer cells are the integers 0 .. 2^m - 1, and the map is +1 mod
  2^m: written least-significant digit first, adding one carries
  rightward, 000 -> 100 -> 010 -> 110 -> 001 -> ...
* shift-system cells are words read left to right as coordinates 0..L-1,
  indexed big-endian; the shift drops the first symbol and appends one new
  symbol at the end, giving the de Bruijn matrix Q[w, w'] = 1/d.

rotation_system, odometer_system and bernoulli_system build each system
once per process: a repeated call, on the same normalized arguments and
backend, returns the same frozen FiniteSystem, with whatever its cached
properties (perm, cylinder, its lines' relabels) have already worked out.
The kept systems' lines hold at most exact.KEPT_CELLS cells in all, k s a
system; the least recently used goes first, and a system past the bound on
its own is built and not kept.  Only a process that builds a system more
than once gains: a sweep of runs in one interpreter, not a single
lens-lab run.  iet_system, system_from_permutation and system_from_matrix
take a caller's arrays and build anew each time.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product as iter_product

import numpy as np

from . import exact
from .errors import DimensionMismatch, NonInvertible, SizeGuard
from .exact import KEPT_CELLS, SIZE_LIMIT
from .partitions import FiniteSystem, system_from_permutation

__all__ = [
    "SIZE_LIMIT",
    "IETSpec",
    "TorusPoint",
    "SkewSpec",
    "rotation_system",
    "odometer_system",
    "bernoulli_system",
    "iet_system",
    "torus_point",
    "skew_W_step",
    "skew_Tbar_conjugation",
    "skew_torus_restriction",
    "skew_orbit",
    "group_elements",
    "group_automorphism_check",
    "group_rotation_conjugation",
    "parse_system_spec",
]


class _Kept:
    """The systems of the zoo constructors, by builder and normalized
    arguments, least recently used first; their lines hold at most
    KEPT_CELLS cells in all.  The lock makes each lookup and each insertion
    whole, so threads that build at once keep one system."""

    def __init__(self):
        self.systems: OrderedDict[tuple, FiniteSystem] = OrderedDict()
        self.cells = 0
        self.lock = threading.Lock()

    def clear(self):
        with self.lock:
            self.systems.clear()
            self.cells = 0

    def __call__(self, build, *args) -> FiniteSystem:
        """The kept build(*args), or a new one, kept unless its lines alone
        hold more than KEPT_CELLS; the least recently used systems make
        room for it."""
        key = (build, *args)
        with self.lock:
            system = self.systems.get(key)
            if system is not None:
                self.systems.move_to_end(key)
                return system
        system = build(*args)
        cells = system.rows.idx.size
        if cells > KEPT_CELLS:
            return system
        with self.lock:
            kept = self.systems.setdefault(key, system)
            if kept is system:
                self.cells += cells
                while self.cells > KEPT_CELLS:
                    self.cells -= self.systems.popitem(last=False)[1].rows.idx.size
            return kept


_kept = _Kept()


def rotation_system(k: int, s: int, backend: str = exact.RATIONAL) -> FiniteSystem:
    """Cyclic rotation on Z_k by s: cell a maps onto cell a + s mod k.
    Built once per (k, s mod k, backend) and kept (module docstring)."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > SIZE_LIMIT:
        raise SizeGuard(f"rotation on {k} cells > {SIZE_LIMIT}")
    return _kept(_rotation, k, s % k, backend)  # s % k first: a huge s stays out of numpy


def _rotation(k: int, s: int, backend: str) -> FiniteSystem:
    return system_from_permutation((np.arange(k) + s) % k, backend=backend)


def odometer_system(m: int, backend: str = exact.RATIONAL) -> FiniteSystem:
    """Binary odometer truncated at level m: 2^m cells, one full cycle.
    Built once per (m, backend) and kept (module docstring)."""
    if m < 1:
        raise ValueError("m must be positive")
    if exact.power_exceeds_limit(2, m):
        raise SizeGuard(f"odometer level {m} needs 2^{m} cells > {SIZE_LIMIT}")
    return _kept(_odometer, m, backend)


def _odometer(m: int, backend: str) -> FiniteSystem:
    k = 2**m
    return system_from_permutation((np.arange(k) + 1) % k, backend=backend)


def bernoulli_system(d: int, L: int, backend: str = exact.RATIONAL) -> FiniteSystem:
    """Full shift on d symbols at cylinder resolution L (de Bruijn matrix).

    Cells are length-L words; Q[w, w'] = 1/d iff w' drops the first symbol
    of w and appends any new final symbol.  Built once per (d, L, backend)
    and kept while its d^(L+1) cells fit KEPT_CELLS (module docstring).
    """
    if d < 2 or L < 1:
        raise ValueError("need an alphabet of size >= 2 and L >= 1")
    if exact.power_exceeds_limit(d, L):
        raise SizeGuard(f"d^L = {d}^{L} cells > {SIZE_LIMIT}")
    return _kept(_bernoulli, d, L, backend)


def _bernoulli(d: int, L: int, backend: str) -> FiniteSystem:
    k = d**L
    # Q's lines: word w steps to (w mod d^(L-1)) * d + c, and is reached
    # from c * d^(L-1) + w // d, for each symbol c.
    words, symbols = np.arange(k)[:, None], np.arange(d)
    value = exact.constant((k, d), Fraction(1, d), backend)
    rows = exact.Support(exact.freeze(words % d ** (L - 1) * d + symbols), value)
    columns = exact.Support(exact.freeze(words // d + symbols * d ** (L - 1)), value)
    return FiniteSystem(rows, columns)


@dataclass(frozen=True, eq=False)
class IETSpec:
    """Interval exchange on n_intervals = len(permutation) equal intervals:
    interval u moves to slot permutation[u] by translation.

    permutation is given as any sequence of integers and kept as a tuple of
    Python ints; image holds the same map as a read-only index array,
    checked once to be a bijection (one bincount)."""

    permutation: tuple[int, ...]
    image: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        image = np.asarray(self.permutation)
        n = image.size
        if image.ndim != 1 or n and image.dtype.kind not in "iu":
            raise ValueError("permutation must be a sequence of integers")
        image = image.astype(np.intp)
        if n and not exact.is_permutation(image):
            raise ValueError("permutation must be a bijection on the intervals")
        object.__setattr__(self, "image", exact.freeze(image))
        object.__setattr__(self, "permutation", tuple(image.tolist()))

    @property
    def n_intervals(self) -> int:
        return len(self.permutation)


def iet_system(spec: IETSpec, backend: str = exact.RATIONAL) -> FiniteSystem:
    if spec.n_intervals > SIZE_LIMIT:
        raise SizeGuard(
            f"interval exchange on {spec.n_intervals} intervals > {SIZE_LIMIT}")
    return system_from_permutation(spec.image, backend=backend)


#
# Exact torus points and the affine skew machinery.
#

TorusPoint = tuple[Fraction, ...]


def torus_point(*coords) -> TorusPoint:
    return tuple(Fraction(c) % 1 for c in coords)


# A denominator below this bound keeps every intermediate of the maps below
# (a sum of three numerators, or W^n at n <= steps once den is charged
# (steps + 1)^2) inside int64.
_SKEW_INT64_BOUND = 2**62 // 4


def _torus_row(point, *dens, steps: int = 0) -> tuple[np.ndarray, int]:
    """A point of the torus as a (1, len) row of integer numerators in
    [0, den), den the lcm of its denominators and of dens: int64 while
    den (steps + 1)^2, which bounds W^n for n <= steps, stays below
    _SKEW_INT64_BOUND, Python ints past it."""
    point = torus_point(*point)
    den = math.lcm(*dens, *(x.denominator for x in point))
    dtype = np.int64 if den * (steps + 1) ** 2 < _SKEW_INT64_BOUND else object
    return np.array([[x.numerator * (den // x.denominator) for x in point]], dtype=dtype), den


def _point(row: np.ndarray, den: int) -> TorusPoint:
    return tuple(Fraction(int(x), den) for x in row)


def _w_power(num: np.ndarray, den: int, n) -> np.ndarray:
    """W^n(a, b, c) = (a, b + n a, c + n b + n(n+1)/2 a) on rows of
    numerators over den, for one n or an n per row."""
    a, b, c = num.T
    return np.stack(np.broadcast_arrays(a, b + n * a, c + n * b + n * (n + 1) // 2 * a),
                    axis=1) % den


def _restriction(num: np.ndarray, den: int) -> np.ndarray:
    """W on the invariant torus {first coordinate = a} of each row (a, b,
    c): the affine map (b, c) -> (b + a, b + c + a)."""
    a, b, c = num.T
    return np.stack([b + a, b + c + a], axis=1) % den


def _tbar(num: np.ndarray, a, den: int) -> np.ndarray:
    """Tbar(x, y, z) = (x + alpha, x + y, x + y + z) on rows of numerators
    over den, with alpha = a / den."""
    x, y, z = num.T
    return np.stack([x + a, x + y, x + y + z], axis=1) % den


def _tbar_inv(num: np.ndarray, a, den: int) -> np.ndarray:
    x, y, z = num.T
    return np.stack([x - a, y - x + a, z - y], axis=1) % den


@cache
def _sample_grid() -> np.ndarray:
    """The 64 sample points of {0, 1/3, 2/5, 5/7}^3 as numerators over 105."""
    grid = [0, 35, 42, 75]
    return exact.freeze(np.array(list(iter_product(grid, repeat=3)), dtype=np.int64))


def _translations(t: np.ndarray, a, den: int) -> np.ndarray:
    """The translation vector of Tbar o S_t o Tbar^{-1} for each row t of
    numerators over den (den a multiple of 105), alpha = a / den.

    The maps are composed on the 64 sample points, for a block of about
    2^14 (t, sample point) rows at once; ArithmeticError unless every
    composite moves its sample points by one vector."""
    p = _sample_grid().astype(t.dtype) * (den // 105)
    pulled = _tbar_inv(p, a, den)
    out, rows = np.empty_like(t), max(1, 2**14 // len(p))
    for b in range(0, len(t), rows):
        block = t[b:b + rows, None, :]
        q = _tbar(((pulled + block) % den).reshape(-1, 3), a, den).reshape(len(block), len(p), 3)
        delta = (q - p) % den
        if not (delta == delta[:, :1]).all():
            raise ArithmeticError("composite is not a single translation")
        out[b:b + rows] = delta[:, 0]
    return out


def skew_W_step(p: TorusPoint) -> TorusPoint:
    """One step of W(a, b, c) = (a, a+b, a+b+c) on the rational 3-torus."""
    num, den = _torus_row(p, steps=1)
    return _point(_w_power(num, den, 1)[0], den)


def skew_Tbar_conjugation(t: TorusPoint, alpha) -> TorusPoint:
    """Translation vector of Tbar o S_t o Tbar^{-1} where S_t adds t.

    Composes the three maps pointwise on the 64 rational sample points,
    checks the composite is one translation independent of the sample and
    of alpha's role, and returns that translation.  The result always
    equals skew_W_step(t) = (a, a+b, a+b+c).  Every point is a row of
    integer numerators over one common denominator, int64 while no
    intermediate can overflow and Python ints past that.
    """
    alpha = Fraction(alpha)
    num, den = _torus_row(t, 105, alpha.denominator)
    a = alpha.numerator * (den // alpha.denominator) % den
    return _point(_translations(num, a, den)[0], den)


def skew_torus_restriction(a, p2d: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """W restricted to the invariant torus {first coordinate = a}: the
    affine map (b, c) -> (b + a, b + c + a)."""
    num, den = _torus_row((a, *p2d))
    return _point(_restriction(num, den)[0], den)


def skew_orbit(start, alpha, n_steps: int):
    """The orbit t_n = W^n(start), n = 0 .. n_steps, with the pointwise
    checks of skew_Tbar_conjugation and skew_torus_restriction on each of
    its points, taken on all of them at once.

    Returns (num, den, conjugated, restricted).  num holds the points as
    rows of integer numerators over den, the lcm of 105 and of alpha's and
    the start's denominators, read off the closed form of W^n: int64 while
    den (n_steps + 1)^2 stays below _SKEW_INT64_BOUND, Python ints past it.
    conjugated marks the points t where Tbar o S_t o Tbar^{-1} is the
    translation by W(t), and restricted those where W on the invariant
    torus of t's first coordinate moves (b, c) as W moves t; a composite
    that is not one translation raises ArithmeticError, as
    skew_Tbar_conjugation does.
    """
    alpha = Fraction(alpha)
    start, den = _torus_row(start, 105, alpha.denominator, steps=n_steps)
    a = alpha.numerator * (den // alpha.denominator) % den
    num = _w_power(start, den, np.arange(n_steps + 1).astype(start.dtype))
    stepped = _w_power(num, den, 1)
    conjugated = (_translations(num, a, den) == stepped).all(axis=1)
    restricted = (_restriction(num, den) == stepped[:, 1:]).all(axis=1)
    return num, den, conjugated, restricted


#
# Rotations on finite abelian groups and their automorphism conjugations.
#

def _group_order(moduli: tuple[int, ...]) -> int:
    size = math.prod(moduli)
    if size > SIZE_LIMIT:
        raise SizeGuard(f"group of order {size} > {SIZE_LIMIT}")
    return size


def group_elements(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    _group_order(moduli)
    return [tuple(z) for z in iter_product(*(range(m) for m in moduli))]


def _automorphism_images(moduli: tuple[int, ...], mat) -> tuple[np.ndarray, np.ndarray]:
    """Group elements as rows, in group_elements order, and the flat index
    of M z for each; raises unless z -> M z is an automorphism."""
    if np.shape(mat) != (len(moduli),) * 2:
        raise DimensionMismatch("matrix shape must match the number of factors")
    size = _group_order(moduli)
    mods = np.asarray(moduli, dtype=int)
    # Row i of M z is only read mod moduli[i]; reduced before numpy sees it,
    # a huge entry cannot overflow.
    mat = np.asarray([[int(x) % m for x in row] for row, m in zip(mat, moduli)],
                     dtype=int)
    # Well-definedness: column j is a homomorphism image of a generator of
    # order moduli[j], so M[i][j] * moduli[j] must vanish mod moduli[i].
    bad = np.argwhere(mat * mods[None, :] % mods[:, None] != 0)
    if len(bad):
        raise NonInvertible(f"entry ({bad[0][0]},{bad[0][1]}) ignores the factor orders")
    elements = np.stack(np.unravel_index(np.arange(size), moduli), axis=1)
    images = np.ravel_multi_index(tuple((elements @ mat.T).T), moduli, mode="wrap")
    if not np.all(np.bincount(images, minlength=size) == 1):
        raise NonInvertible("matrix is not a bijection on the group")
    return elements, images


def group_automorphism_check(moduli: tuple[int, ...], mat) -> None:
    """Raise NonInvertible unless z -> M z is an automorphism of the group."""
    _automorphism_images(tuple(moduli), mat)


def group_rotation_conjugation(moduli, mat, z):
    """Conjugate the rotation by z with the automorphism M: T R_z T^{-1}.

    Verifies pointwise over the whole group that the composite equals the
    rotation by M z, for a block of about 2^14 (z, element) pairs at once.
    For one element z, returns M z as a tuple of ints and raises
    ArithmeticError if the identity fails; for an (n, r) array of elements,
    returns the (n, r) array of M z and the mask of rows where it holds.
    """
    moduli = tuple(int(m) for m in moduli)
    elements, images = _automorphism_images(moduli, mat)
    one = np.ndim(z) == 1  # reduced in Python ints: a huge coordinate stays out of numpy
    zs = np.array([[int(zi) % m for zi, m in zip(z, moduli)]] if one else np.asarray(z) % moduli)
    mz = elements[images[np.ravel_multi_index(tuple(zs.T), moduli)]]
    inverse, holds = exact.invert_permutation(images), np.empty(len(zs), dtype=bool)

    # (g_i + w_i) mod m_i times its flat stride, for g_i + w_i < 2 m_i.
    tables = [np.arange(2 * m) % m * math.prod(moduli[i + 1:]) for i, m in enumerate(moduli)]

    def rotate(w):  # flat index of g + w for every element g, a row per w
        return sum(t[elements[:, i] + w[:, i, None]] for i, t in enumerate(tables))

    rows = max(1, 2**14 // len(elements))
    for b in range(0, len(zs), rows):
        block = slice(b, b + rows)
        holds[block] = (images[rotate(zs[block])][:, inverse] == rotate(mz[block])).all(axis=1)
    if not one:
        return mz, holds
    if not holds[0]:
        raise ArithmeticError("conjugation identity failed")
    return tuple(int(x) for x in mz[0])


@dataclass(frozen=True)
class SkewSpec:
    """Marker for the affine skew family; not a finite-partition system."""

    alpha: Fraction


def parse_system_spec(spec: str, backend: str = exact.RATIONAL):
    """Zoo grammar: rot:k=13,s=5 | odo:m=4 | bern:d=2,L=3 |
    iet:perm=2,0,1 | skew:alpha=1/7."""
    spec = spec.strip()
    if ":" not in spec:
        raise ValueError(f"malformed system spec {spec!r}")
    family, _, rest = spec.partition(":")
    family = family.strip()
    if family == "iet":
        key, _, value = rest.partition("=")
        if key.strip() != "perm":
            raise ValueError("iet spec takes perm=<comma-separated cells>")
        perm = tuple(int(x) for x in value.split(","))
        return iet_system(IETSpec(permutation=perm), backend=backend)
    params = {}
    for item in rest.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key in params:
            raise ValueError(f"{family} spec repeats {key}")
        params[key] = value.strip()

    def take(*names):
        if set(params) != set(names):
            raise ValueError(
                f"{family} spec takes exactly {','.join(names)}; got {spec!r}")
        return [params[n] for n in names]

    if family == "rot":
        k, s = take("k", "s")
        return rotation_system(int(k), int(s), backend)
    if family == "odo":
        (m,) = take("m")
        return odometer_system(int(m), backend)
    if family == "bern":
        d, L = take("d", "L")
        return bernoulli_system(int(d), int(L), backend)
    if family == "skew":
        (alpha,) = take("alpha")
        return SkewSpec(alpha=Fraction(alpha))
    raise ValueError(f"unknown system family {family!r}")
