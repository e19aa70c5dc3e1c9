"""Reproducible experiment runner over the coupling-space laboratory.

A fixed registry of named experiments binds the zoo, the lens dynamics, and
the constructive witnesses into parameterized runs with structured reports.
Reports are byte-stable: the same (config, seed, backend) always produces
identical report.json and CSV bytes, so runs can be diffed across machines.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
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
    rigidity_probe,
    transitivity_witness,
)
from .couplings import (
    CouplingMatrix,
    coupling_distance,
    graph_coupling,
    product_coupling,
    random_coupling,
    validate_coupling,
)
from .errors import InvalidConfig, LensLabError, UnknownExperiment
from .lens import (
    cesaro_average,
    detect_period,
    fixed_point_space,
    markov_commutation_residual,
    orbit,
    self_joining_residual,
)
from .partitions import FiniteSystem, system_power
from .zoo import (
    SkewSpec,
    bernoulli_system,
    group_elements,
    group_rotation_conjugation,
    odometer_system,
    parse_system_spec,
    skew_Tbar_conjugation,
    skew_torus_restriction,
    skew_W_step,
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

FLOAT_TOL = 1e-12


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
    rows) with every cell already rendered to a canonical string.  The
    stable JSON form excludes the wall-clock duration so that identical
    (config, seed, backend) reruns are byte-identical.
    """

    config: ExperimentConfig
    scalars: dict
    series: dict
    verdicts: dict
    passed: bool
    duration_seconds: float

    def to_stable_json(self) -> str:
        doc = {
            "config": {
                "experiment": self.config.experiment,
                "system": self.config.system,
                "backend": self.config.backend,
                "output_dir": self.config.output_dir,
                "parameters": dict(sorted(self.config.parameters.items())),
            },
            "scalars": self.scalars,
            "series": {
                name: {"columns": list(cols), "rows": [list(r) for r in rows]}
                for name, (cols, rows) in sorted(self.series.items())
            },
            "verdicts": self.verdicts,
            "passed": self.passed,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def series_csv(self, name: str) -> str:
        cols, rows = self.series[name]
        lines = [",".join(cols)]
        lines.extend(",".join(r) for r in rows)
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        report = out / "report.json"
        report.write_text(self.to_stable_json())
        paths.append(report)
        for name in sorted(self.series):
            p = out / f"{name}.csv"
            p.write_text(self.series_csv(name))
            paths.append(p)
        return paths


def value_str(x) -> str:
    """Canonical cell rendering: exact 'p/q' for rationals, repr for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# Parameter schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # int | fraction | str | intlist | fraclist | intmatrix
    required: bool = True
    default: str | None = None
    help: str = ""
    minimum: int = 0  # smallest accepted value of an int parameter


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
            return tuple(tuple(int(x) for x in row.split(","))
                         for row in raw.split(";"))
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidConfig(f"cannot parse value {raw!r} as {kind}: {e}") from None
    raise InvalidConfig(f"unknown parameter kind {kind!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    backends: tuple
    needs_system: bool
    needs_seed: bool
    params: tuple
    csv_schemas: dict
    runner: object

    def param_map(self) -> dict:
        return {p.name: p for p in self.params}


def _tol(backend: str):
    return Fraction(0) if backend == exact.RATIONAL else FLOAT_TOL


def _parse_system(spec: str, backend: str):
    try:
        return parse_system_spec(spec, backend=backend)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidConfig(f"bad system spec {spec!r}: {e}") from None


def _need_system(cfg: ExperimentConfig, backend: str) -> FiniteSystem:
    if not cfg.system:
        raise InvalidConfig(f"experiment {cfg.experiment!r} needs a system spec")
    obj = _parse_system(cfg.system, backend)
    if not isinstance(obj, FiniteSystem):
        raise InvalidConfig(
            f"system {cfg.system!r} does not define cell dynamics here")
    return obj


def _rng_children(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# Runners: each returns (scalars, series, verdicts)
# ---------------------------------------------------------------------------

def _run_rigidity_sweep(cfg, p, backend):
    sys = _need_system(cfg, backend)
    blocks = consecutive_blocks(p["blocks"])
    tol = _tol(backend)
    n_values = list(range(p["n_max"] + 1))
    scores = [rigidity_probe(sys, blocks, n) for n in n_values]
    rows = [(value_str(n), value_str(s)) for n, s in zip(n_values, scores)]
    returns = [n for n, s in zip(n_values, scores) if n >= 1 and abs(s - 1) <= tol]
    scalars = {
        "k": sys.k,
        "first_return": returns[0] if returns else -1,
        "final_score": value_str(scores[-1]),
    }
    verdicts = {
        "score_at_zero_is_one": abs(scores[0] - 1) <= tol,
        "scores_in_unit_interval": all(-tol <= s <= 1 + tol for s in scores),
    }
    if p["expect_return_at"] is not None:
        n = p["expect_return_at"]
        verdicts["returns_at_expected_step"] = (
            n <= p["n_max"] and abs(scores[n] - 1) <= tol)
    return scalars, {"scores": (("n", "score"), rows)}, verdicts


def _run_mixing_profile(cfg, p, backend):
    sys = _need_system(cfg, backend)
    k = sys.k
    tol = _tol(backend)
    uniform = Fraction(1, k) if backend == exact.RATIONAL else 1.0 / k
    power = exact.identity(k, backend)
    q = np.asarray(sys.Q)
    rows, residuals = [], []
    for n in range(p["n_max"] + 1):
        r = exact.max_abs(power, uniform) / k
        residuals.append(r)
        rows.append((value_str(n), value_str(r)))
        power = exact.mat_mul(power, q)
    zeros = [n for n, r in enumerate(residuals) if r <= tol]
    scalars = {"k": k, "first_independent_n": zeros[0] if zeros else -1}
    verdicts = {
        "residuals_bounded": all(r <= Fraction(k - 1, k * k) + tol for r in residuals)
        if backend == exact.RATIONAL
        else all(r <= (k - 1) / k**2 + FLOAT_TOL for r in residuals),
    }
    if p["expect_zero_by"] is not None:
        m = p["expect_zero_by"]
        verdicts["independent_from_expected_step"] = (
            m <= p["n_max"] and all(r <= tol for r in residuals[m:]))
    return scalars, {"residuals": (("n", "residual"), rows)}, verdicts


def _run_transitivity_witness(cfg, p, backend):
    if p["epsilon"] <= 0:
        raise InvalidConfig("epsilon must be positive")
    w = transitivity_witness(p["d"], p["L"], p["sigma"], p["pi"], p["epsilon"])
    matrix_rows = []
    for name, c in (("source", w.restricted_source), ("image", w.restricted_image)):
        for i in range(c.k):
            for j in range(c.k):
                matrix_rows.append((name, value_str(i), value_str(j),
                                    value_str(c.C[i, j])))
    scalars = {"n": w.n, "fine_k": w.fine_k, "base_k": w.restricted_source.k}
    series = {"restrictions": (("which", "i", "j", "mass"), matrix_rows)}
    verdicts = {
        "source_in_neighborhood": w.check_source,
        "image_in_neighborhood": w.check_image,
    }
    return scalars, series, verdicts


def _run_entropy_factor(cfg, p, backend):
    block = p["block"]
    for b in block:
        if b != 0 and b != Fraction(1, 2):
            raise InvalidConfig("block entries must be 0 or 1/2")
    n = len(block)
    n_values = p["n_values"] if p["n_values"] is not None else n
    if n_values < n:
        raise InvalidConfig("n_values must cover the block length")
    coupling = realize_entropy_block(block)
    sys = bernoulli_system(2, n)
    values = entropy_factor_F(sys, coupling, n_values)
    rows = [(value_str(m), value_str(v)) for m, v in enumerate(values)]
    scalars = {"resolution": 2**n, "block_length": n}
    verdicts = {"block_realized": all(values[t] == block[t] for t in range(n))}
    return scalars, {"factor_sequence": (("n", "F"), rows)}, verdicts


def _run_fixed_points(cfg, p, backend):
    sys = _need_system(cfg, backend)
    k = sys.k
    # SVD nullspaces on the float backend are only good to solver precision.
    tol = Fraction(0) if backend == exact.RATIONAL else 1e-9
    space = fixed_point_space(sys)
    rows = []
    directions_fixed = True
    zero_marginals = True
    for t, direction in enumerate(space.basis):
        d = np.asarray(direction)
        image = exact.mat_conjugate(np.asarray(sys.Q), d)
        if exact.l1_diff(image, d) > tol:
            directions_fixed = False
        sums = [abs(x) for x in d.sum(axis=0)] + [abs(x) for x in d.sum(axis=1)]
        if any(s > tol for s in sums):
            zero_marginals = False
        for i in range(k):
            for j in range(k):
                rows.append((value_str(t), value_str(i), value_str(j),
                             value_str(d[i, j])))
    product_residual = self_joining_residual(sys, product_coupling(k, backend))
    scalars = {
        "k": k,
        "affine_dimension": space.dimension,
        "product_residual": value_str(product_residual),
    }
    verdicts = {
        "product_coupling_fixed": product_residual <= tol,
        "directions_fixed": directions_fixed,
        "directions_have_zero_marginals": zero_marginals,
    }
    return scalars, {"basis": (("direction", "i", "j", "value"), rows)}, verdicts


def _run_periodic_commuters(cfg, p, backend):
    family = p["family"]
    if family == "bernoulli":
        for name in ("d", "ell", "L"):
            if p[name] is None:
                raise InvalidConfig(f"bernoulli family needs parameter {name!r}")
        if p["d"] * p["ell"] < 2:
            raise InvalidConfig("bernoulli family needs d * ell >= 2")
        res = bernoulli_cyclic_commuter(p["d"], p["ell"], p["L"])
        rows = [(value_str(v), value_str(res.perm[v]))
                for v in range(len(res.perm))]
        scalars = {
            "k": len(res.perm),
            "commutation_residual": value_str(res.commutation_residual),
        }
        verdicts = {
            "commutes_exactly": res.commutation_residual == 0,
            "cycles_first_symbol_blocks": res.cycles_blocks,
        }
        return scalars, {"commuter": (("cell", "image"), rows)}, verdicts
    if family == "odometer":
        if p["m"] is None or p["pi"] is None:
            raise InvalidConfig("odometer family needs parameters 'm' and 'pi'")
        m = p["m"]
        s = odometer_commuter(p["pi"], m)
        block = len(p["pi"])
        sys = odometer_system(m, backend=backend)
        c = graph_coupling(s, backend=backend)
        power = system_power(sys, block)
        residual = markov_commutation_residual(power, c)
        report = detect_period(sys, c, maxp=block)
        rows = [(value_str(q), value_str(r))
                for q, r in sorted(report.residual_by_p.items())]
        scalars = {
            "k": 2**m,
            "block": block,
            "period": report.period if report.period is not None else -1,
            "power_commutation_residual": value_str(residual),
        }
        verdicts = {
            "commutes_with_block_power": residual <= _tol(backend),
            "period_found": report.period is not None,
            "period_divides_block": (report.period is not None
                                     and block % report.period == 0),
        }
        return scalars, {"period_residuals": (("p", "residual"), rows)}, verdicts
    raise InvalidConfig("family must be 'bernoulli' or 'odometer'")


def _initial_coupling(init: str, k: int, backend: str, p) -> CouplingMatrix:
    if init == "product":
        return product_coupling(k, backend)
    if init.startswith("graph:"):
        perm = tuple(int(x) for x in init[len("graph:"):].split(","))
        if sorted(perm) != list(range(k)):
            raise InvalidConfig("graph init must list a permutation of the cells")
        return graph_coupling(np.asarray(perm, dtype=int), backend=backend)
    if init == "random":
        if p["seed"] is None:
            raise InvalidConfig("init=random needs a seed")
        rng = _rng_children(p["seed"], 1)[0]
        return random_coupling(k, rng, backend=backend)
    raise InvalidConfig("init must be 'random', 'product', or 'graph:<perm>'")


def _run_one_sided_limit(cfg, p, backend):
    sys = _need_system(cfg, backend)
    k = sys.k
    tol = _tol(backend)
    c0 = _initial_coupling(p["init"], k, backend, p)
    orb = orbit(sys, c0, p["n_steps"], mode="one-sided")
    prod = product_coupling(k, backend)
    distances = [coupling_distance(state, prod) for state in orb.states]
    rows = [(value_str(n), value_str(d)) for n, d in enumerate(distances)]
    hit = next((n for n, d in enumerate(distances) if d <= tol), -1)
    last = orb.states[-1]
    scalars = {
        "k": k,
        "final_distance_to_product": value_str(distances[-1]),
        "first_product_hit": hit,
    }
    verdicts = {"states_stay_in_polytope": not validate_coupling(last)}
    if p["expect_product_by"] is not None:
        m = p["expect_product_by"]
        verdicts["product_from_expected_step"] = (
            m <= p["n_steps"] and all(d <= tol for d in distances[m:]))
    if p["expect_graph_orbit"]:
        if backend != exact.RATIONAL:
            raise InvalidConfig("expect_graph_orbit needs the rational backend")
        ok = True
        for state in orb.states:
            scaled = np.asarray(state.C) * k
            if exact.permutation_of_matrix(scaled) is None:
                ok = False
                break
        verdicts["orbit_stays_on_graph_couplings"] = ok
    return scalars, {"distance_to_product": (("n", "distance"), rows)}, verdicts


def _run_cesaro_barycenter(cfg, p, backend):
    sys = _need_system(cfg, backend)
    k = sys.k
    n_values = sorted(set(p["N_values"]))
    if not n_values or n_values[0] < 1:
        raise InvalidConfig("N_values must be positive integers")
    if p["seed"] is None:
        raise InvalidConfig("cesaro-barycenter needs a seed")
    rngs = _rng_children(p["seed"], p["n_initials"])

    def one_initial(rng):
        c0 = random_coupling(k, rng, backend=backend)
        orb = orbit(sys, c0, n_values[-1])
        out = []
        for n in n_values:
            avg = cesaro_average(orb, n)
            out.append(self_joining_residual(sys, avg))
        return out

    all_residuals = [one_initial(rng) for rng in rngs]
    rows, ok, worst = [], True, None
    for idx, residuals in enumerate(all_residuals):
        for n, r in zip(n_values, residuals):
            bound = Fraction(2, n) if backend == exact.RATIONAL else 2.0 / n
            margin = r - bound
            if worst is None or margin > worst:
                worst = margin
            if r > bound + _tol(backend):
                ok = False
            rows.append((value_str(idx), value_str(n), value_str(r),
                         value_str(bound)))
    scalars = {
        "k": k,
        "n_initials": p["n_initials"],
        "worst_margin": value_str(worst),
    }
    verdicts = {"residual_within_two_over_N": ok}
    return scalars, {"residuals": (("initial", "N", "residual", "bound"), rows)}, verdicts


def _run_skew_orbit(cfg, p, backend):
    if not cfg.system:
        raise InvalidConfig("skew-orbit needs system skew:alpha=<fraction>")
    spec = _parse_system(cfg.system, backend)
    if not isinstance(spec, SkewSpec):
        raise InvalidConfig("skew-orbit needs a skew:alpha=... system spec")
    start = p["start"]
    if len(start) != 3:
        raise InvalidConfig("start must have three coordinates")
    point = tuple(Fraction(x) % 1 for x in start)
    points = [point]
    for _ in range(p["N"]):
        point = skew_W_step(point)
        points.append(point)
    conj_ok, restrict_ok = True, True
    rows = []
    for n, t in enumerate(points):
        rows.append((value_str(n), value_str(t[0]), value_str(t[1]),
                     value_str(t[2])))
        if skew_Tbar_conjugation(t, spec.alpha) != skew_W_step(t):
            conj_ok = False
        if skew_torus_restriction(t[0], (t[1], t[2])) != skew_W_step(t)[1:]:
            restrict_ok = False
    ret = next((n for n in range(1, len(points)) if points[n] == points[0]), -1)
    scalars = {"alpha": value_str(Fraction(spec.alpha)), "return_step": ret}
    verdicts = {
        "conjugation_matches_skew_step": conj_ok,
        "torus_restriction_is_affine_map": restrict_ok,
    }
    return scalars, {"orbit": (("n", "a", "b", "c"), rows)}, verdicts


def _run_iet_realize(cfg, p, backend):
    if p["seed"] is None:
        raise InvalidConfig("iet-realize needs a seed")
    rng = _rng_children(p["seed"], 1)[0]
    k, L = p["k"], p["L"]
    target = random_rational_target(k, L, rng)
    spec = realize_coupling_as_iet(target)
    counts = np.zeros((k, k), dtype=int)
    for u, image in enumerate(spec.permutation):
        counts[image // L, u // L] += 1
    induced_ok = bool(np.array_equal(counts, np.asarray(target.m) * k))
    rows = [(value_str(i), value_str(j),
             value_str(Fraction(int(target.m[i, j]), L)))
            for i in range(k) for j in range(k)]
    scalars = {"k": k, "L": L, "n_intervals": spec.n_intervals}
    verdicts = {"induced_coupling_equals_target": induced_ok}
    return scalars, {"target": (("i", "j", "mass"), rows)}, verdicts


def _run_group_embedding(cfg, p, backend):
    moduli = tuple(p["moduli"])
    mat = p["matrix"]
    elements = group_elements(moduli)

    def conjugate(z):
        try:
            return group_rotation_conjugation(moduli, mat, z)
        except ArithmeticError:
            return None

    images = [conjugate(z) for z in elements]
    ok = all(img is not None for img in images)
    rows = [("|".join(map(str, z)),
             "|".join(map(str, img)) if img is not None else "fail")
            for z, img in zip(elements, images)]
    scalars = {"group_order": len(elements)}
    verdicts = {"conjugation_identity_holds": ok}
    return scalars, {"images": (("z", "image"), rows)}, verdicts


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BOTH = (exact.RATIONAL, exact.FLOAT)
_EXACT_ONLY = (exact.RATIONAL,)


def _flag(raw: str):
    return raw.strip().lower() in ("1", "true", "yes", "on")


REGISTRY: dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec):
    REGISTRY[spec.name] = spec


_register(ExperimentSpec(
    name="rigidity-sweep",
    description="Block-probe lens scores over a step range; score 1 returns "
                "certify rigidity of the cell dynamics.",
    backends=_BOTH,
    needs_system=True,
    needs_seed=False,
    params=(
        ParamSpec("blocks", "intlist", help="distinct block sizes summing to k"),
        ParamSpec("n_max", "int", help="largest lens step to score"),
        ParamSpec("expect_return_at", "int", required=False,
                  help="step where the score must return to 1"),
    ),
    csv_schemas={"scores": "n,score"},
    runner=_run_rigidity_sweep,
))

_register(ExperimentSpec(
    name="mixing-profile",
    description="Residual max|Q^n[i,j]/k - 1/k^2| per step; zero residual "
                "means n-step independence of the partition from itself.",
    backends=_BOTH,
    needs_system=True,
    needs_seed=False,
    params=(
        ParamSpec("n_max", "int", help="largest power to profile"),
        ParamSpec("expect_zero_by", "int", required=False,
                  help="step from which the residual must vanish"),
    ),
    csv_schemas={"residuals": "n,residual"},
    runner=_run_mixing_profile,
))

_register(ExperimentSpec(
    name="transitivity-witness",
    description="Fine graph coupling steered by the lens from one "
                "permutation neighborhood into another, both exactly.",
    backends=_EXACT_ONLY,
    needs_system=False,
    needs_seed=False,
    params=(
        ParamSpec("d", "int", help="alphabet size", minimum=2),
        ParamSpec("L", "int", help="base cylinder length", minimum=1),
        ParamSpec("sigma", "intlist", help="source permutation of d^L cells"),
        ParamSpec("pi", "intlist", help="target permutation of d^L cells"),
        ParamSpec("epsilon", "fraction", required=False, default="1/1000000",
                  help="neighborhood radius"),
    ),
    csv_schemas={"restrictions": "which,i,j,mass"},
    runner=_run_transitivity_witness,
))

_register(ExperimentSpec(
    name="entropy-factor",
    description="Realize a prescribed 0/half block as the opening of the "
                "factor sequence n -> (lens^n C)(A x A).",
    backends=_EXACT_ONLY,
    needs_system=False,
    needs_seed=False,
    params=(
        ParamSpec("block", "fraclist", help="entries 0 or 1/2, e.g. 0,1/2,0"),
        ParamSpec("n_values", "int", required=False,
                  help="how many sequence values to emit (default block length)"),
    ),
    csv_schemas={"factor_sequence": "n,F"},
    runner=_run_entropy_factor,
))

_register(ExperimentSpec(
    name="fixed-points",
    description="Affine hull of the lens fixed couplings: dimension, basis "
                "directions, and the always-fixed product coupling.",
    backends=_BOTH,
    needs_system=True,
    needs_seed=False,
    params=(),
    csv_schemas={"basis": "direction,i,j,value"},
    runner=_run_fixed_points,
))

_register(ExperimentSpec(
    name="periodic-commuters",
    description="Cell permutations commuting with a shift (cyclic symbol "
                "action) or with an odometer power; lens period checks.",
    backends=_EXACT_ONLY,
    needs_system=False,
    needs_seed=False,
    params=(
        ParamSpec("family", "str", help="'bernoulli' or 'odometer'"),
        ParamSpec("d", "int", required=False, help="bernoulli: cycled factor size",
                  minimum=1),
        ParamSpec("ell", "int", required=False, help="bernoulli: fixed factor size",
                  minimum=1),
        ParamSpec("L", "int", required=False, help="bernoulli: cylinder length",
                  minimum=1),
        ParamSpec("m", "int", required=False, help="odometer: level"),
        ParamSpec("pi", "intlist", required=False,
                  help="odometer: permutation of the low-digit values"),
    ),
    csv_schemas={"commuter": "cell,image", "period_residuals": "p,residual"},
    runner=_run_periodic_commuters,
))

_register(ExperimentSpec(
    name="one-sided-limit",
    description="One-sided orbit C -> Q^T C: distance to the product "
                "coupling per step, with optional attractor expectations.",
    backends=_BOTH,
    needs_system=True,
    needs_seed=False,
    params=(
        ParamSpec("n_steps", "int", help="orbit length"),
        ParamSpec("init", "str", required=False, default="random",
                  help="'random' (needs seed), 'product', or 'graph:<perm>'"),
        ParamSpec("seed", "int", required=False, help="seed for init=random"),
        ParamSpec("expect_product_by", "int", required=False,
                  help="step from which the orbit must sit on the product"),
        ParamSpec("expect_graph_orbit", "str", required=False, default="",
                  help="set to 'yes' to require every state be a graph coupling"),
    ),
    csv_schemas={"distance_to_product": "n,distance"},
    runner=_run_one_sided_limit,
))

_register(ExperimentSpec(
    name="cesaro-barycenter",
    description="Orbit averages (1/N) sum of lens states: the self-joining "
                "residual of the average obeys the 2/N telescoping bound.",
    backends=_BOTH,
    needs_system=True,
    needs_seed=True,
    params=(
        ParamSpec("N_values", "intlist", required=False, default="10,100",
                  help="averaging horizons"),
        ParamSpec("n_initials", "int", required=False, default="3",
                  help="number of random initial couplings", minimum=1),
        ParamSpec("seed", "int", help="seed for the initial couplings"),
    ),
    csv_schemas={"residuals": "initial,N,residual,bound"},
    runner=_run_cesaro_barycenter,
))

_register(ExperimentSpec(
    name="skew-orbit",
    description="Orbit of the exact skew map W(a,b,c)=(a,a+b,a+b+c) with "
                "pointwise conjugation and invariant-torus checks.",
    backends=_EXACT_ONLY,
    needs_system=True,
    needs_seed=False,
    params=(
        ParamSpec("start", "fraclist", help="initial point a,b,c"),
        ParamSpec("N", "int", help="number of steps"),
    ),
    csv_schemas={"orbit": "n,a,b,c"},
    runner=_run_skew_orbit,
))

_register(ExperimentSpec(
    name="iet-realize",
    description="Draw a random rational coupling target and realize it as "
                "an interval exchange whose induced coupling matches exactly.",
    backends=_EXACT_ONLY,
    needs_system=False,
    needs_seed=True,
    params=(
        ParamSpec("k", "int", help="number of cells", minimum=1),
        ParamSpec("L", "int", help="target denominator (k must divide L)", minimum=1),
        ParamSpec("seed", "int", help="seed for the target draw"),
    ),
    csv_schemas={"target": "i,j,mass"},
    runner=_run_iet_realize,
))

_register(ExperimentSpec(
    name="group-embedding",
    description="For a finite abelian group and an automorphism matrix M, "
                "verify T R_z T^{-1} = R_{Mz} for every group element z.",
    backends=_EXACT_ONLY,
    needs_system=False,
    needs_seed=False,
    params=(
        ParamSpec("moduli", "intlist", help="cyclic factors, e.g. 4,3"),
        ParamSpec("matrix", "intmatrix",
                  help="automorphism rows, e.g. 1,1;0,1"),
    ),
    csv_schemas={"images": "z,image"},
    runner=_run_group_embedding,
))


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


def validate_config(cfg: ExperimentConfig) -> dict:
    """Check cfg against the registry; return the typed parameter map."""
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
    if spec.needs_system and not cfg.system:
        raise InvalidConfig(f"experiment {spec.name!r} needs a system spec")
    known = spec.param_map()
    for name in cfg.parameters:
        if name not in known:
            expected = ", ".join(sorted(known)) or "(none)"
            raise InvalidConfig(
                f"unknown parameter {name!r} for {spec.name!r}; "
                f"expected: {expected}")
    typed = {}
    for p in spec.params:
        if p.name in cfg.parameters:
            raw = cfg.parameters[p.name]
        elif p.default is not None:
            raw = p.default
        elif p.required:
            raise InvalidConfig(
                f"experiment {spec.name!r} needs parameter {p.name!r} ({p.help})")
        else:
            typed[p.name] = None
            continue
        typed[p.name] = _coerce(p.kind, raw)
        if p.kind == "int" and typed[p.name] < p.minimum:
            raise InvalidConfig(
                f"parameter {p.name!r} must be >= {p.minimum}, got {typed[p.name]}")
    if spec.needs_seed and typed.get("seed") is None:
        raise InvalidConfig(f"experiment {spec.name!r} uses randomness; set a seed")
    if "expect_graph_orbit" in typed:
        typed["expect_graph_orbit"] = _flag(typed["expect_graph_orbit"] or "")
    return typed


def run_experiment(cfg: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Validate, dispatch to the registry, assemble and optionally write."""
    typed = validate_config(cfg)
    spec = REGISTRY[cfg.experiment]
    start = time.perf_counter()
    scalars, series, verdicts = spec.runner(cfg, typed, cfg.backend)
    duration = time.perf_counter() - start
    # Float comparisons yield numpy.bool_, which json refuses.
    verdicts = {name: bool(v) for name, v in verdicts.items()}
    report = ExperimentReport(
        config=cfg,
        scalars=scalars,
        series=series,
        verdicts=verdicts,
        passed=all(verdicts.values()),
        duration_seconds=duration,
    )
    if write and cfg.output_dir:
        report.write(cfg.output_dir)
    return report


def list_experiments() -> list[dict]:
    """Machine-readable registry listing (JSON round-trippable)."""
    out = []
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        out.append({
            "name": spec.name,
            "description": spec.description,
            "backends": list(spec.backends),
            "needs_system": spec.needs_system,
            "needs_seed": spec.needs_seed,
            "parameters": [
                {
                    "name": p.name,
                    "kind": p.kind,
                    "required": p.required,
                    "default": p.default,
                    "help": p.help,
                }
                for p in spec.params
            ],
            "csv": dict(sorted(spec.csv_schemas.items())),
        })
    return out
