"""Stock systems: rotations, odometers, shifts, interval exchanges, and
exact torus/group maps used by the conjugation experiments.

Conventions fixed here and relied on everywhere else:

* odometer cells are the integers 0 .. 2^m - 1, and the map is +1 mod
  2^m: written least-significant digit first, adding one carries
  rightward, 000 -> 100 -> 010 -> 110 -> 001 -> ...
* shift-system cells are words read left to right as coordinates 0..L-1,
  indexed big-endian; the shift drops the first symbol and appends one new
  symbol at the end, giving the de Bruijn matrix Q[w, w'] = 1/d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iter_product

import numpy as np

from . import exact
from .errors import DimensionMismatch, NonInvertible, SizeGuard
from .exact import SIZE_LIMIT
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
    "group_elements",
    "group_automorphism_check",
    "group_rotation_conjugation",
    "parse_system_spec",
]

def rotation_system(k: int, s: int, backend: str = exact.RATIONAL) -> FiniteSystem:
    """Cyclic rotation on Z_k by s: cell a maps onto cell a + s mod k."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > SIZE_LIMIT:
        raise SizeGuard(f"rotation on {k} cells > {SIZE_LIMIT}")
    perm = (np.arange(k) + s % k) % k  # s % k first: a huge s stays out of numpy
    return system_from_permutation(perm, backend=backend)


def odometer_system(m: int, backend: str = exact.RATIONAL) -> FiniteSystem:
    """Binary odometer truncated at level m: 2^m cells, one full cycle."""
    if m < 1:
        raise ValueError("m must be positive")
    if exact.power_exceeds_limit(2, m):
        raise SizeGuard(f"odometer level {m} needs 2^{m} cells > {SIZE_LIMIT}")
    k = 2**m
    return system_from_permutation((np.arange(k) + 1) % k, backend=backend)


def bernoulli_system(d: int, L: int, backend: str = exact.RATIONAL) -> FiniteSystem:
    """Full shift on d symbols at cylinder resolution L (de Bruijn matrix).

    Cells are length-L words; Q[w, w'] = 1/d iff w' drops the first symbol
    of w and appends any new final symbol.
    """
    if d < 2 or L < 1:
        raise ValueError("need an alphabet of size >= 2 and L >= 1")
    if exact.power_exceeds_limit(d, L):
        raise SizeGuard(f"d^L = {d}^{L} cells > {SIZE_LIMIT}")
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
    interval u moves to slot permutation[u] by translation."""

    permutation: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.permutation) != list(range(self.n_intervals)):
            raise ValueError("permutation must be a bijection on the intervals")

    @property
    def n_intervals(self) -> int:
        return len(self.permutation)


def iet_system(spec: IETSpec, backend: str = exact.RATIONAL) -> FiniteSystem:
    if spec.n_intervals > SIZE_LIMIT:
        raise SizeGuard(
            f"interval exchange on {spec.n_intervals} intervals > {SIZE_LIMIT}")
    return system_from_permutation(np.asarray(spec.permutation, dtype=int),
                                   backend=backend)


#
# Exact torus points and the affine skew machinery.
#

TorusPoint = tuple[Fraction, ...]


def torus_point(*coords) -> TorusPoint:
    return tuple(Fraction(c) % 1 for c in coords)


def skew_W_step(p: TorusPoint) -> TorusPoint:
    """One step of W(a, b, c) = (a, a+b, a+b+c) on the rational 3-torus."""
    a, b, c = p
    return torus_point(a, a + b, a + b + c)


# Numerators below this bound keep every sum of three, and so every
# intermediate of the maps below, inside int64.
_SKEW_INT64_BOUND = 2**62 // 4


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
    t = torus_point(*t)
    den = math.lcm(105, alpha.denominator, *(ti.denominator for ti in t))
    dtype = np.int64 if den < _SKEW_INT64_BOUND else object
    p = _sample_grid().astype(dtype) * (den // 105)
    a = alpha.numerator * (den // alpha.denominator) % den
    shift = np.array([ti.numerator * (den // ti.denominator) for ti in t], dtype=dtype)
    q = _tbar((_tbar_inv(p, a, den) + shift) % den, a, den)
    delta = (q - p) % den
    if not np.all(delta == delta[0]):
        raise ArithmeticError("composite is not a single translation")
    return tuple(Fraction(int(d), den) for d in delta[0])


def skew_torus_restriction(a, p2d: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """W restricted to the invariant torus {first coordinate = a}: the
    affine map (b, c) -> (b + a, b + c + a)."""
    a = Fraction(a)
    b, c = (Fraction(x) for x in p2d)
    return (b + a) % 1, (b + c + a) % 1


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
