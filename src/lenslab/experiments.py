"""Reproducible experiment runner over the coupling-space laboratory.

A fixed registry of named experiments binds the zoo, the lens dynamics, and
the constructive witnesses into parameterized runs with structured reports.
Reports are byte-stable: the same (config, seed, backend) always produces
identical report.json and CSV bytes, so runs can be diffed across machines.
"""

from __future__ import annotations

import os
import stat
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import exact
from .constructions import (
    bernoulli_cyclic_commuter,
    consecutive_blocks,
    entropy_factor_F,
    odometer_commuter,
    random_rational_target,
    realize_coupling_as_iet,
    realize_entropy_block,
    rigidity_sweep,
    transitivity_witness,
)
from .couplings import (
    CouplingMatrix,
    graph_coupling,
    graph_permutation,
    product_coupling,
    product_distance,
    random_coupling,
    validate_coupling,
)
from .errors import InvalidConfig, SizeGuard, UnknownExperiment
from .lens import (
    cesaro_average,
    detect_period,
    fixed_point_space,
    markov_commutation_residual,
    one_sided_step,
    orbit,
    self_joining_residual,
    walk,
)
from .partitions import FiniteSystem, system_power
from .zoo import (
    SIZE_LIMIT,
    SkewSpec,
    bernoulli_system,
    group_elements,
    group_rotation_conjugation,
    odometer_system,
    parse_system_spec,
    skew_orbit,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ParamSpec",
    "ExperimentSpec",
    "REGISTRY",
    "run_experiment",
    "list_experiments",
    "parse_config_text",
    "load_config_file",
    "apply_overrides",
    "config_from_mapping",
    "validate_config",
]

# ---------------------------------------------------------------------------
# Config and report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: registry name, zoo system, raw parameter strings."""

    experiment: str
    system: str = ""
    backend: str = exact.RATIONAL
    output_dir: str = ""
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentReport:
    """Structured run result.

    scalars and verdicts are flat maps; series maps a name to (columns,
    texts, index), cell (r, c) being texts[index[r, c]], the value_str text of
    a distinct cell held once.  passed is whether every verdict holds.  The
    stable JSON form excludes the wall-clock duration so that identical
    (config, seed, backend) reruns are byte-identical.
    """

    config: ExperimentConfig
    scalars: dict
    series: dict
    verdicts: dict
    duration_seconds: float

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def rows(self, name: str) -> list[tuple]:
        """The rows of a series as tuples of cell texts."""
        _, texts, index = self.series[name]
        return list(map(tuple, texts[index].tolist()))

    def _json_chunks(self):
        """to_stable_json in pieces, each series a chunk of rows at a time."""
        lead = ('{\n  "config": ' + _json_object(vars(self.config), "  ")
                + ',\n  "passed": ' + ("true" if self.passed else "false")
                + ',\n  "scalars": ' + _json_object(self.scalars, "  ")
                + ',\n  "series": {')
        for n, name in enumerate(sorted(self.series)):
            cols, texts, index = self.series[name]
            columns = ("[\n        " + ",\n        ".join(map(encode_basestring_ascii, cols))
                       + "\n      ]" if cols else "[]")
            lead += ((",\n    " if n else "\n    ") + encode_basestring_ascii(name)
                     + ': {\n      "columns": ' + columns + ',\n      "rows": ')
            if not len(index):
                lead += "[]\n    }"
                continue
            row, close = ("[\n          ", "\n        ]") if cols else ("[]", "")
            pool = np.array(list(map(encode_basestring_ascii, texts)), dtype=object)
            yield from _row_chunks(pool, index, lead + "[\n        " + row, ",\n          ",
                                   close + ",\n        " + row, close + "\n      ]\n    }")
            lead = ""
        yield (lead + ("\n  }," if self.series else "},") + '\n  "verdicts": '
               + _json_object(self.verdicts, "  ") + "\n}\n")

    def _csv_chunks(self, name: str):
        cols, texts, index = self.series[name]
        return _row_chunks(texts, index, ",".join(cols) + "\n", ",", "\n", "\n")

    def to_stable_json(self) -> str:
        """json.dumps(doc, sort_keys=True, indent=2) + "\n", byte for byte."""
        return "".join(self._json_chunks())

    def series_csv(self, name: str) -> str:
        return "".join(self._csv_chunks(name))

    def write(self, out_dir: str | Path) -> Iterable[Path]:
        """report.json and one CSV per series in out_dir, made if missing,
        each overwritten in place (an O_TRUNC open starts ext4 writeback
        that a rerun waits for) and cut at its end, also where its stream
        fails.  Returns the written paths, each made into a Path only when
        the caller iterates them."""
        base = os.fspath(out_dir) or "."  # Path("") is the working directory
        names = sorted(self.series)
        paths = [f"{base}/report.json", *(f"{base}/{name}.csv" for name in names)]
        for path, chunks in zip(paths, [self._json_chunks(), *map(self._csv_chunks, names)]):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            except FileNotFoundError:  # the directory is not there yet
                os.makedirs(base, exist_ok=True)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            end = 0
            try:
                for chunk in chunks:
                    data = chunk.encode()
                    at = os.write(fd, data)
                    while at < len(data):  # a write may take fewer bytes than given
                        at += os.write(fd, memoryview(data)[at:])
                    end += at
            finally:
                try:
                    os.ftruncate(fd, end)
                finally:
                    os.close(fd)
        return map(Path, paths)


def _json_object(d: dict, pad: str) -> str:
    """d as json.dumps(d, sort_keys=True, indent=2) lays it out at indent
    pad: str keys, and values that are str, bool (tested before int, which
    a bool also is), int, or a dict of these."""
    if not d:
        return "{}"
    inner = pad + "  "
    lines = []
    for k, v in sorted(d.items()):
        if isinstance(v, str):
            text = encode_basestring_ascii(v)
        elif isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, int):
            text = int.__repr__(v)
        elif isinstance(v, dict):
            text = _json_object(v, inner)
        else:
            raise TypeError(f"a report holds no {type(v).__name__} value: {v!r}")
        lines.append(encode_basestring_ascii(k) + ": " + text)
    return "{\n" + inner + (",\n" + inner).join(lines) + "\n" + pad + "}"


# Rows a report lays out at once, so a write holds one chunk's text, not the file.
_CHUNK_ROWS = 1024


def _row_chunks(pool, index, head, mid, end, last):
    """head, then the rows of cells pool[index] a chunk at a time: the cells
    of a row joined by mid, each row followed by end and the last by last."""
    yield head
    n, c = index.shape
    grid = np.empty((min(n, _CHUNK_ROWS), max(2 * c, 1)), dtype=object)
    grid[:, 1::2], grid[:, -1] = mid, end
    for a in range(0, n, _CHUNK_ROWS):
        part = grid[:n - a]
        part[:, :2 * c:2] = pool[index[a:a + _CHUNK_ROWS]]
        part[-1, -1] = end if a + _CHUNK_ROWS < n else last
        yield "".join(part.ravel().tolist())


def _bool_text(x) -> str:
    return "true" if x else "false"


def _int_text(x) -> str:
    return str(int(x))


def _float_text(x) -> str:
    return str(float(x))


# Cell renderers by type: a cell takes the renderer of the first class on
# its type's MRO that has one, object's at the latest.
_CELL_TEXT = {bool: _bool_text, np.bool_: _bool_text, str: str, Fraction: str,
              int: int.__repr__, np.integer: _int_text, object: _float_text}


def value_str(x) -> str:
    """Canonical cell rendering: 'true'/'false' for booleans (numpy's too),
    strings unchanged, a Fraction as exact 'p/q', integers (numpy's too) as
    integers, and any other number as its float."""
    for cls in type(x).__mro__:
        render = _CELL_TEXT.get(cls)
        if render is not None:
            return render(x)


def _distinct(keys: np.ndarray) -> tuple:
    """np.unique(keys, return_inverse=True) for a 1-d array.  Integers that
    span fewer values than there are keys are counted instead of sorted:
    shifted by the least, one bincount, and the rank of each key among the
    keys present."""
    if keys.dtype.kind in "iu" and keys.size:
        low = keys.min()
        if int(keys.max()) - int(low) < keys.size:  # as Python ints: no wrap
            offset = (keys - low).astype(np.intp, copy=False)
            present = np.bincount(offset) > 0
            rank = np.cumsum(present) - 1
            return np.flatnonzero(present).astype(keys.dtype) + low, rank[offset]
    return np.unique(keys, return_inverse=True)


def _render_series(columns) -> tuple:
    """(texts, index): value_str of each distinct cell of each column once,
    and the (rows x columns) place of each cell among them."""
    texts, index = [], []
    for column in columns:
        if isinstance(column, exact.Scaled):
            keys, at = _distinct(column.num)
            values = [Fraction(n, column.den) for n in keys.tolist()]
        elif isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
            # Distinct bit patterns, so that -0.0 keeps its own text.
            keys, at = _distinct(column.view(f"u{column.itemsize}"))
            values = keys.view(column.dtype).tolist()
        elif isinstance(column, np.ndarray) and column.dtype.kind == "U":
            values, at = np.unique(column, return_inverse=True)
            values = values.tolist()
        else:
            values, at = column, np.arange(len(column))
        index.append(at + len(texts))
        texts.extend(map(value_str, values))
    # Places in the smallest type that holds them; unequal lengths raise, and
    # a runner's empty list(zip(*rows)) is zero rows of one column.
    return (np.array(texts, dtype=object),
            np.array(index, np.min_scalar_type(len(texts)), ndmin=2).T)


# ---------------------------------------------------------------------------
# Parameter schemas and the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # int | fraction | str | intlist | fraclist | intmatrix
    required: bool = True
    default: str | None = None
    help: str = ""
    minimum: int = 0  # smallest accepted int, or entry of an intlist
    horizon: str = ""  # an int parameter this int may not exceed


def _coerce(kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "fraction":
            return Fraction(raw)
        if kind == "str":
            return raw
        if kind in ("intlist", "fraclist"):
            parse = int if kind == "intlist" else Fraction
            values = tuple(parse(x) for x in raw.split(",") if x.strip() != "")
            if not values:
                raise ValueError("no entries")
            return values
        if kind == "intmatrix":
            rows = tuple(tuple(int(x) for x in row.split(","))
                         for row in raw.split(";"))
            if len({len(row) for row in rows}) != 1:
                raise ValueError("rows differ in length")
            return rows
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidConfig(f"cannot parse value {raw!r} as {kind}: {e}") from None
    raise InvalidConfig(f"unknown parameter kind {kind!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment.

    series maps each CSV series name to its column names.  needs_system
    is the type of system the runner takes, FiniteSystem or SkewSpec, or
    None when it takes none.  The runner takes (system, typed parameters,
    backend), system being the parsed spec (None without one), and returns
    raw values: (scalars, columns by series name, verdicts); run_experiment
    renders them.
    """

    name: str
    description: str
    backends: tuple
    series: dict
    runner: object
    needs_system: type | None = None
    params: tuple = ()

    @property
    def needs_seed(self) -> bool:
        return any(p.name == "seed" and p.required for p in self.params)

    def param_map(self) -> dict:
        return {p.name: p for p in self.params}


REGISTRY: dict[str, ExperimentSpec] = {}

_BOTH = (exact.RATIONAL, exact.FLOAT)
_EXACT_ONLY = (exact.RATIONAL,)


def _experiment(**fields):
    """Register the decorated runner with the given ExperimentSpec fields."""
    def register(runner):
        spec = ExperimentSpec(runner=runner, **fields)
        REGISTRY[spec.name] = spec
        return runner
    return register


# Cell operations one run's loops may take: a step gathers k^2 cells from s
# lines each (s = 1, a relabel, on an exact system), or k m cells when it
# pulls a k x m indicator matrix back (lens.pull_back), and none costs less
# than SIZE_LIMIT, its fixed Python cost (a rot:k=6 lens step takes 86 us,
# so an operation is about 21 ns).  Every step is charged, although a walk
# ends at its first fixed point (lens.walk) and an exact system reads its
# Cesaro sums and sweep scores off powers of tau: the charge is the worst
# case, a walk that never settles.
STEP_BUDGET = 2**27


def _guard_steps(steps: int, step_cost: int):
    """SizeGuard before the first step when the loop would pass STEP_BUDGET."""
    if steps * max(step_cost, SIZE_LIMIT) > STEP_BUDGET:
        raise SizeGuard(f"{steps} steps of {step_cost} cell operations "
                        f"> {STEP_BUDGET}")


def _step_cost(sys: FiniteSystem) -> int:
    """k^2 s: a step gathers every cell of a k x k matrix from s lines."""
    return sys.k**2 * sys.columns.idx.shape[1]


def _flag(name: str, raw: str) -> bool:
    """A yes/no parameter: empty is no; anything but the usual spellings of
    yes and no is a config error."""
    value = raw.strip().lower()
    if value in ("", "0", "false", "no", "off"):
        return False
    if value in ("1", "true", "yes", "on"):
        return True
    raise InvalidConfig(f"{name} must be yes or no, not {raw!r}")


def _rng_children(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@_experiment(
    name="rigidity-sweep",
    description="Block-probe lens scores over a step range; score 1 returns "
                "certify rigidity of the cell dynamics.",
    backends=_BOTH,
    needs_system=FiniteSystem,
    params=(
        ParamSpec("blocks", "intlist", help="distinct block sizes summing to k",
                  minimum=1),
        ParamSpec("n_max", "int", help="largest lens step to score"),
        ParamSpec("expect_return_at", "int", required=False,
                  help="step where the score must return to 1", minimum=1,
                  horizon="n_max"),
    ),
    series={"scores": ("n", "score")},
)
def _run_rigidity_sweep(sys, p, backend):
    if sum(p["blocks"]) != sys.k:
        raise InvalidConfig(f"blocks must sum to k = {sys.k}")
    # Each n is charged one pull-back step of the k x m block indicator,
    # k s m operations, also where an exact system counts label pairs instead.
    _guard_steps(p["n_max"] + 1, sys.k * sys.rows.idx.shape[1] * len(p["blocks"]))
    tol = exact.tolerance(backend)
    scores = rigidity_sweep(sys, consecutive_blocks(p["blocks"]), p["n_max"])
    returns = [n for n, s in enumerate(scores) if n >= 1 and abs(s - 1) <= tol]
    scalars = {
        "k": sys.k,
        "first_return": returns[0] if returns else -1,
        "final_score": scores[-1],
    }
    verdicts = {
        "score_at_zero_is_one": abs(scores[0] - 1) <= tol,
        "scores_in_unit_interval": all(-tol <= s <= 1 + tol for s in scores),
    }
    if p["expect_return_at"] is not None:
        verdicts["returns_at_expected_step"] = abs(scores[p["expect_return_at"]] - 1) <= tol
    return scalars, {"scores": (range(len(scores)), scores)}, verdicts


@_experiment(
    name="mixing-profile",
    description="Residual max|Q^n[i,j]/k - 1/k^2| per step; zero residual "
                "means n-step independence of the partition from itself.",
    backends=_BOTH,
    needs_system=FiniteSystem,
    params=(
        ParamSpec("n_max", "int", help="largest power to profile"),
        ParamSpec("expect_zero_by", "int", required=False,
                  help="step from which the residual must vanish", horizon="n_max"),
    ),
    series={"residuals": ("n", "residual")},
)
def _run_mixing_profile(sys, p, backend):
    k = sys.k
    _guard_steps(p["n_max"] + 1, _step_cost(sys))
    tol = exact.tolerance(backend)
    # State n of the one-sided orbit of the diagonal coupling I/k is
    # (Q^n)^T / k, so its largest distance to the product is the residual.
    residuals = []
    states = walk(partial(one_sided_step, sys), graph_coupling(np.arange(k), backend),
                  p["n_max"], sys.exact)
    for state, count in states:
        residuals += [product_distance(state, norm="max")] * count
    zeros = [n for n, r in enumerate(residuals) if r <= tol]
    scalars = {"k": k, "first_independent_n": zeros[0] if zeros else -1}
    bound = Fraction(k - 1, k * k) + tol
    verdicts = {"residuals_bounded": all(r <= bound for r in residuals)}
    if p["expect_zero_by"] is not None:
        verdicts["independent_from_expected_step"] = all(
            r <= tol for r in residuals[p["expect_zero_by"]:])
    return scalars, {"residuals": (range(len(residuals)), residuals)}, verdicts


@_experiment(
    name="transitivity-witness",
    description="Fine graph coupling steered by the lens from one "
                "permutation neighborhood into another, both exactly.",
    backends=_EXACT_ONLY,
    params=(
        ParamSpec("d", "int", help="alphabet size", minimum=2),
        ParamSpec("L", "int", help="base cylinder length", minimum=1),
        ParamSpec("sigma", "intlist", help="source permutation of d^L cells"),
        ParamSpec("pi", "intlist", help="target permutation of d^L cells"),
        ParamSpec("epsilon", "fraction", required=False, default="1/1000000",
                  help="neighborhood radius"),
    ),
    series={"restrictions": ("which", "i", "j", "mass")},
)
def _run_transitivity_witness(_, p, backend):
    if p["epsilon"] <= 0:
        raise InvalidConfig("epsilon must be positive")
    # No step charge: the witness takes no step, and its ResolutionGuard
    # (d^(2L) <= SIZE_LIMIT) bounds its two bincounts to d^(2L) cells each.
    w = transitivity_witness(p["d"], p["L"], p["sigma"], p["pi"], p["epsilon"])
    k = w.restricted_source.k
    # Cell c of the restrictions series is entry (i, j) of source, then image.
    i, j = np.divmod(np.arange(2 * k * k) % (k * k), k)
    masses = exact.flat_concat([w.restricted_source.matrix, w.restricted_image.matrix])
    scalars = {"n": w.n, "fine_k": w.fine_k, "base_k": k}
    verdicts = {
        "source_in_neighborhood": w.check_source,
        "image_in_neighborhood": w.check_image,
    }
    series = {"restrictions": (np.repeat(["source", "image"], k * k), i, j, masses)}
    return scalars, series, verdicts


@_experiment(
    name="entropy-factor",
    description="Realize a prescribed 0/half block as the opening of the "
                "factor sequence n -> (lens^n C)(A x A).",
    backends=_EXACT_ONLY,
    params=(
        ParamSpec("block", "fraclist", help="entries 0 or 1/2, e.g. 0,1/2,0"),
        ParamSpec("n_values", "int", required=False,
                  help="how many sequence values to emit (default block length)"),
    ),
    series={"factor_sequence": ("n", "F")},
)
def _run_entropy_factor(_, p, backend):
    block = p["block"]
    if any(b not in (0, Fraction(1, 2)) for b in block):
        raise InvalidConfig("block entries must be 0 or 1/2")
    n = len(block)
    n_values = p["n_values"] if p["n_values"] is not None else n
    if n_values < n:
        raise InvalidConfig("n_values must cover the block length")
    coupling = realize_entropy_block(block)
    sys = bernoulli_system(2, n)
    _guard_steps(n_values, sys.k**2)  # a step is a matrix-vector product
    values = entropy_factor_F(sys, coupling, n_values)
    scalars = {"resolution": 2**n, "block_length": n}
    verdicts = {"block_realized": all(values[t] == block[t] for t in range(n))}
    return scalars, {"factor_sequence": (range(len(values)), values)}, verdicts


@_experiment(
    name="fixed-points",
    description="Affine hull of the lens fixed couplings: dimension, basis "
                "directions, and the always-fixed product coupling.",
    backends=_BOTH,
    needs_system=FiniteSystem,
    series={"basis": ("direction", "i", "j", "value")},
)
def _run_fixed_points(sys, p, backend):
    k = sys.k
    tol = exact.tolerance(backend)
    basis = fixed_point_space(sys).basis
    values = exact.flat_concat(basis) if basis else exact.constant((0,), 0, backend)
    residuals, row_sums, col_sums = _direction_checks(sys, values.reshape(-1, k, k))
    # The product coupling's lens image Q^T (J/k^2) Q is s^T s / k^2 for the
    # column sums s = 1^T Q: an outer product, not a conjugation.
    sums = exact.gather(exact.constant((1, k), 1, backend), sys.columns, (1,))
    image = exact.scale(exact.mat_mul(sums.T, sums), Fraction(1, k * k))
    product_residual = exact.l1_norm(image, exact.scalar(Fraction(1, k * k), backend))
    scalars = {
        "k": k,
        "affine_dimension": len(basis),
        "product_residual": product_residual,
    }
    verdicts = {
        "product_coupling_fixed": product_residual <= tol,
        "directions_fixed": exact.max_abs(residuals) <= tol,
        "directions_have_zero_marginals": max(exact.max_abs(row_sums),
                                              exact.max_abs(col_sums)) <= tol,
    }
    # Cell c of the basis series is entry (i, j) of direction t.
    t, ij = np.divmod(np.arange(len(basis) * k * k), k * k)
    return scalars, {"basis": (t, *np.divmod(ij, k), values)}, verdicts


def _direction_checks(sys, stack):
    """Per direction of an (n, k, k) stack: its L1 distance to its lens
    image, and its row and column sums, as products with the ones vector.
    A direction is not a coupling, but the lens and the checks are linear."""
    ones = exact.constant((sys.k, 1), 1, exact.backend_of(stack))
    return (exact.l1_norm(exact.gather(stack, sys.columns, (1, 2)), stack, axis=(1, 2)),
            exact.mat_mul(stack, ones), exact.mat_mul(ones.T, stack))


@_experiment(
    name="periodic-commuters",
    description="Cell permutations commuting with a shift (cyclic symbol "
                "action) or with an odometer power; lens period checks.",
    backends=_EXACT_ONLY,
    params=(
        ParamSpec("family", "str", help="'bernoulli' or 'odometer'"),
        ParamSpec("d", "int", required=False, help="bernoulli: cycled factor size",
                  minimum=1),
        ParamSpec("ell", "int", required=False, help="bernoulli: fixed factor size",
                  minimum=1),
        ParamSpec("L", "int", required=False, help="bernoulli: cylinder length",
                  minimum=1),
        ParamSpec("m", "int", required=False, help="odometer: level", minimum=1),
        ParamSpec("pi", "intlist", required=False,
                  help="odometer: permutation of the low-digit values"),
    ),
    series={"commuter": ("cell", "image"), "period_residuals": ("p", "residual")},
)
def _run_periodic_commuters(_, p, backend):
    family = p["family"]
    if family == "bernoulli":
        for name in ("d", "ell", "L"):
            if p[name] is None:
                raise InvalidConfig(f"bernoulli family needs parameter {name!r}")
        if p["d"] * p["ell"] < 2:
            raise InvalidConfig("bernoulli family needs d * ell >= 2")
        res = bernoulli_cyclic_commuter(p["d"], p["ell"], p["L"])
        scalars = {
            "k": len(res.perm),
            "commutation_residual": res.commutation_residual,
        }
        verdicts = {
            "commutes_exactly": res.commutation_residual == 0,
            "cycles_first_symbol_blocks": res.cycles_blocks,
        }
        return scalars, {"commuter": (range(len(res.perm)), res.perm)}, verdicts
    if family == "odometer":
        if p["m"] is None or p["pi"] is None:
            raise InvalidConfig("odometer family needs parameters 'm' and 'pi'")
        m = p["m"]
        s = odometer_commuter(p["pi"], m)
        block = len(p["pi"])
        sys = odometer_system(m, backend=backend)
        _guard_steps(block, _step_cost(sys))
        c = graph_coupling(s, backend=backend)
        power = system_power(sys, block)
        residual = markov_commutation_residual(power, c)
        report = detect_period(sys, c, maxp=block)
        scalars = {
            "k": 2**m,
            "block": block,
            "period": report.period if report.period is not None else -1,
            "power_commutation_residual": residual,
        }
        verdicts = {
            "commutes_with_block_power": residual <= exact.tolerance(backend),
            "period_found": report.period is not None,
            "period_divides_block": (report.period is not None
                                     and block % report.period == 0),
        }
        rows = sorted(report.residual_by_p.items())
        return scalars, {"period_residuals": list(zip(*rows))}, verdicts
    raise InvalidConfig("family must be 'bernoulli' or 'odometer'")


def _initial_coupling(init: str, k: int, backend: str, p) -> CouplingMatrix:
    if init == "product":
        return product_coupling(k, backend)
    if init.startswith("graph:"):
        try:
            perm = tuple(int(x) for x in init[len("graph:"):].split(","))
        except ValueError:
            raise InvalidConfig(
                f"graph init must list cells as integers, got {init!r}") from None
        if sorted(perm) != list(range(k)):
            raise InvalidConfig("graph init must list a permutation of the cells")
        return graph_coupling(np.asarray(perm, dtype=int), backend=backend)
    if init == "random":
        if p["seed"] is None:
            raise InvalidConfig("init=random needs a seed")
        rng = _rng_children(p["seed"], 1)[0]
        return random_coupling(k, rng, backend=backend)
    raise InvalidConfig("init must be 'random', 'product', or 'graph:<perm>'")


@_experiment(
    name="one-sided-limit",
    description="One-sided orbit C -> Q^T C: distance to the product "
                "coupling per step, with optional attractor expectations.",
    backends=_BOTH,
    needs_system=FiniteSystem,
    params=(
        ParamSpec("n_steps", "int", help="orbit length"),
        ParamSpec("init", "str", required=False, default="random",
                  help="'random' (needs seed), 'product', or 'graph:<perm>'"),
        ParamSpec("seed", "int", required=False, help="seed for init=random"),
        ParamSpec("expect_product_by", "int", required=False,
                  help="step from which the orbit must sit on the product",
                  horizon="n_steps"),
        ParamSpec("expect_graph_orbit", "str", required=False, default="",
                  help="set to 'yes' to require every state be a graph coupling"),
    ),
    series={"distance_to_product": ("n", "distance")},
)
def _run_one_sided_limit(sys, p, backend):
    graph_orbit = _flag("expect_graph_orbit", p["expect_graph_orbit"])
    if graph_orbit and backend != exact.RATIONAL:
        raise InvalidConfig("expect_graph_orbit needs the rational backend")
    k = sys.k
    _guard_steps(p["n_steps"], _step_cost(sys))
    tol = exact.tolerance(backend)
    c0 = _initial_coupling(p["init"], k, backend, p)
    distances, on_graphs = [], graph_orbit
    for last, count in orbit(sys, c0, p["n_steps"], mode="one-sided").runs():
        distances += [product_distance(last)] * count
        on_graphs = on_graphs and graph_permutation(last) is not None
    hit = next((n for n, d in enumerate(distances) if d <= tol), -1)
    scalars = {"k": k, "final_distance_to_product": distances[-1], "first_product_hit": hit}
    verdicts = {"states_stay_in_polytope": not validate_coupling(last)}
    if p["expect_product_by"] is not None:
        verdicts["product_from_expected_step"] = all(
            d <= tol for d in distances[p["expect_product_by"]:])
    if graph_orbit:
        verdicts["orbit_stays_on_graph_couplings"] = on_graphs
    series = {"distance_to_product": (range(len(distances)), distances)}
    return scalars, series, verdicts


@_experiment(
    name="cesaro-barycenter",
    description="Orbit averages (1/N) sum of lens states: the self-joining "
                "residual of the average obeys the 2/N telescoping bound.",
    backends=_BOTH,
    needs_system=FiniteSystem,
    params=(
        ParamSpec("N_values", "intlist", required=False, default="10,100",
                  help="averaging horizons", minimum=1),
        ParamSpec("n_initials", "int", required=False, default="3",
                  help="number of random initial couplings", minimum=1),
        ParamSpec("seed", "int", help="seed for the initial couplings"),
    ),
    series={"residuals": ("initial", "N", "residual", "bound")},
)
def _run_cesaro_barycenter(sys, p, backend):
    k = sys.k
    n_values = sorted(set(p["N_values"]))
    # Each initial is charged N lens steps, also where an exact rational
    # start reads its sums off powers of tau in fewer, and one residual step
    # per horizon.
    _guard_steps(p["n_initials"] * (n_values[-1] + len(n_values)), _step_cost(sys))
    rows = []
    for idx, rng in enumerate(_rng_children(p["seed"], p["n_initials"])):
        orb = orbit(sys, random_coupling(k, rng, backend=backend), n_values[-1])
        for n, average in cesaro_average(orb, n_values):
            bound = exact.scalar(Fraction(2, n), backend)
            rows.append((idx, n, self_joining_residual(sys, average), bound))
    scalars = {"k": k, "n_initials": p["n_initials"],
               "worst_margin": max(r - bound for *_, r, bound in rows)}
    tol = exact.tolerance(backend)
    verdicts = {"residual_within_two_over_N": all(r <= bound + tol for *_, r, bound in rows)}
    return scalars, {"residuals": list(zip(*rows))}, verdicts


@_experiment(
    name="skew-orbit",
    description="Orbit of the exact skew map W(a,b,c)=(a,a+b,a+b+c) with "
                "pointwise conjugation and invariant-torus checks.",
    backends=_EXACT_ONLY,
    needs_system=SkewSpec,
    params=(
        ParamSpec("start", "fraclist", help="initial point a,b,c"),
        ParamSpec("N", "int", help="number of steps"),
    ),
    series={"orbit": ("n", "a", "b", "c")},
)
def _run_skew_orbit(skew, p, backend):
    start = p["start"]
    if len(start) != 3:
        raise InvalidConfig("start must have three coordinates")
    # A step conjugates 64 sample points; charged as 4 steps of the Python
    # floor, the cost of one point's check (0.15-0.3 ms) when each point
    # was conjugated on its own.
    _guard_steps(p["N"], 4 * SIZE_LIMIT)
    num, den, conjugated, restricted = skew_orbit(start, skew.alpha, p["N"])
    back = np.flatnonzero((num[1:] == num[0]).all(axis=1))
    scalars = {"alpha": Fraction(skew.alpha),
               "return_step": int(back[0]) + 1 if back.size else -1}
    verdicts = {
        "conjugation_matches_skew_step": conjugated.all(),
        "torus_restriction_is_affine_map": restricted.all(),
    }
    return scalars, {"orbit": (range(len(num)), *(exact.from_scaled(x, den) for x in num.T))}, verdicts


@_experiment(
    name="iet-realize",
    description="Draw a random rational coupling target and realize it as "
                "an interval exchange whose induced coupling matches exactly.",
    backends=_EXACT_ONLY,
    params=(
        ParamSpec("k", "int", help="number of cells", minimum=1),
        ParamSpec("L", "int", help="target denominator (k must divide L)", minimum=1),
        ParamSpec("seed", "int", help="seed for the target draw"),
    ),
    series={"target": ("i", "j", "mass")},
)
def _run_iet_realize(_, p, backend):
    k, L = p["k"], p["L"]
    if k * L > SIZE_LIMIT:  # before the k x k target is drawn
        raise SizeGuard(f"k*L = {k * L} subintervals > {SIZE_LIMIT}")
    target = random_rational_target(k, L, _rng_children(p["seed"], 1)[0])
    spec = realize_coupling_as_iet(target)
    # Subinterval u of cell u // L lands in cell image // L.
    counts = np.bincount(spec.image // L * k + np.arange(k * L) // L,
                         minlength=k * k).reshape(k, k)
    induced_ok = bool(np.array_equal(counts, np.asarray(target.m) * k))
    i, j = np.divmod(np.arange(k * k), k)
    mass = exact.from_scaled(target.m.ravel(), L)
    scalars = {"k": k, "L": L, "n_intervals": spec.n_intervals}
    verdicts = {"induced_coupling_equals_target": induced_ok}
    return scalars, {"target": (i, j, mass)}, verdicts


@_experiment(
    name="group-embedding",
    description="For a finite abelian group and an automorphism matrix M, "
                "verify T R_z T^{-1} = R_{Mz} for every group element z.",
    backends=_EXACT_ONLY,
    params=(
        ParamSpec("moduli", "intlist", help="cyclic factors, e.g. 4,3", minimum=1),
        ParamSpec("matrix", "intmatrix",
                  help="automorphism rows, e.g. 1,1;0,1"),
    ),
    series={"images": ("z", "image")},
)
def _run_group_embedding(_, p, backend):
    moduli = tuple(p["moduli"])
    elements = group_elements(moduli)
    images, holds = group_rotation_conjugation(moduli, p["matrix"], np.array(elements))
    columns = (["|".join(map(str, z)) for z in elements],
               ["|".join(map(str, img)) if ok else "fail"
                for img, ok in zip(images.tolist(), holds.tolist())])
    scalars = {"group_order": len(elements)}
    verdicts = {"conjugation_identity_holds": holds.all()}
    return scalars, {"images": columns}, verdicts


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_RESERVED = ("experiment", "system", "backend", "output_dir")


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' comments and blank lines ignored."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidConfig(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise InvalidConfig(f"line {lineno}: empty key")
        out[key] = value
    return out


def load_config_file(path: str | Path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise InvalidConfig(f"config file not found: {p}")
    return parse_config_text(p.read_text())


def apply_overrides(mapping: dict, overrides) -> dict:
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise InvalidConfig(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    if "experiment" not in mapping:
        raise InvalidConfig("config must set 'experiment'")
    params = {k: v for k, v in mapping.items() if k not in _RESERVED}
    return ExperimentConfig(
        experiment=mapping["experiment"],
        system=mapping.get("system", ""),
        backend=mapping.get("backend", exact.RATIONAL),
        output_dir=mapping.get("output_dir", ""),
        parameters=params,
    )


def validate_config(cfg: ExperimentConfig) -> tuple:
    """Check cfg against the registry; return (system, typed parameter
    map), the system parsed from its spec (None without one)."""
    for name, value in [*((f, getattr(cfg, f)) for f in _RESERVED), *cfg.parameters.items()]:
        if not isinstance(value, str):
            raise InvalidConfig(f"config value {name!r} must be a string, "
                                f"got {type(value).__name__} {value!r}")
    if cfg.experiment not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownExperiment(
            f"unknown experiment {cfg.experiment!r}; registry: {known}")
    spec = REGISTRY[cfg.experiment]
    if cfg.backend not in (exact.RATIONAL, exact.FLOAT):
        raise InvalidConfig(
            f"backend must be '{exact.RATIONAL}' or '{exact.FLOAT}'")
    if cfg.backend not in spec.backends:
        raise InvalidConfig(
            f"experiment {spec.name!r} is exact-only; backend "
            f"{cfg.backend!r} is not allowed")
    if spec.needs_system is not None and not cfg.system:
        raise InvalidConfig(f"experiment {spec.name!r} needs a system spec")
    if spec.needs_system is None and cfg.system:
        raise InvalidConfig(f"experiment {spec.name!r} takes no system spec")
    known = spec.param_map()
    for name in cfg.parameters:
        if name not in known:
            expected = ", ".join(sorted(known)) or "(none)"
            raise InvalidConfig(
                f"unknown parameter {name!r} for {spec.name!r}; "
                f"expected: {expected}")
    typed = {}
    for p in spec.params:
        raw = cfg.parameters.get(p.name, p.default)
        # Absent, or empty where no default would stand in: unset.
        if raw is None or raw == "" and p.default is None and not p.required:
            if p.required:
                raise InvalidConfig(
                    f"experiment {spec.name!r} needs parameter {p.name!r} ({p.help})")
            typed[p.name] = None
            continue
        typed[p.name] = value = _coerce(p.kind, raw)
        entries = value if p.kind == "intlist" else (value,) if p.kind == "int" else ()
        if any(v < p.minimum for v in entries):
            raise InvalidConfig(
                f"parameter {p.name!r} must be >= {p.minimum}, got {value}")
    for p in spec.params:  # an expectation past the horizon could never hold
        if p.horizon and typed[p.name] is not None and typed[p.name] > typed[p.horizon]:
            raise InvalidConfig(f"parameter {p.name!r} = {typed[p.name]} lies past "
                                f"{p.horizon} = {typed[p.horizon]}")
    if cfg.output_dir:
        _check_output_dir(cfg.output_dir)
    if not cfg.system:
        return None, typed
    try:
        system = parse_system_spec(cfg.system, backend=cfg.backend)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidConfig(f"bad system spec {cfg.system!r}: {e}") from None
    if not isinstance(system, spec.needs_system):
        raise InvalidConfig(f"system {cfg.system!r} is not a "
                            f"{spec.needs_system.__name__} for {spec.name!r}")
    return system, typed


def _check_output_dir(path: str):
    """Refuse an output_dir that write could not make a directory: a file,
    or a path under one.  One stat; a missing directory is made by write."""
    try:
        if stat.S_ISDIR(os.stat(path).st_mode):
            return
    except FileNotFoundError:
        return
    except NotADirectoryError:
        pass
    raise InvalidConfig(f"output_dir {path!r} is a file or lies under one, "
                        f"so it cannot be a directory")


def run_experiment(cfg: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Validate, dispatch to the registry, render, and optionally write.

    Each series column is rendered to value_str texts in one pass;
    int scalars stay JSON integers and every other scalar is rendered
    with value_str.
    """
    system, typed = validate_config(cfg)
    spec = REGISTRY[cfg.experiment]
    start = time.perf_counter()
    scalars, columns, verdicts = spec.runner(system, typed, cfg.backend)
    duration = time.perf_counter() - start
    # Float comparisons yield numpy.bool_, which json refuses.
    verdicts = {name: bool(v) for name, v in verdicts.items()}
    report = ExperimentReport(
        config=cfg,
        scalars={name: v if isinstance(v, int) else value_str(v)
                 for name, v in scalars.items()},
        series={name: (spec.series[name], *_render_series(cols))
                for name, cols in columns.items()},
        verdicts=verdicts,
        duration_seconds=duration,
    )
    if write and cfg.output_dir:
        report.write(cfg.output_dir)
    return report


_PARAM_FIELDS = ("name", "kind", "required", "default", "help")


def list_experiments() -> list[dict]:
    """Machine-readable registry listing (JSON round-trippable)."""
    out = []
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        out.append({
            "name": spec.name,
            "description": spec.description,
            "backends": list(spec.backends),
            "needs_system": spec.needs_system is not None,
            "needs_seed": spec.needs_seed,
            "parameters": [{f: getattr(p, f) for f in _PARAM_FIELDS} for p in spec.params],
            "csv": {name: ",".join(cols)
                    for name, cols in sorted(spec.series.items())},
        })
    return out
