"""Experiment registry, config plumbing, report determinism, CLI exits."""

import dataclasses
import hashlib
import importlib
import importlib.util
import json
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from lenslab import (
    ExperimentConfig,
    InvalidConfig,
    SizeGuard,
    UnknownExperiment,
    apply_overrides,
    config_from_mapping,
    exact,
    list_experiments,
    load_config_file,
    parse_system_spec,
    parse_config_text,
    run_experiment,
    validate_config,
    value_str,
)
from lenslab.cli import main as cli_main
from lenslab.experiments import REGISTRY, STEP_BUDGET, _guard_steps, _step_cost

EXPECTED_NAMES = [
    "cesaro-barycenter",
    "entropy-factor",
    "fixed-points",
    "group-embedding",
    "iet-realize",
    "mixing-profile",
    "one-sided-limit",
    "periodic-commuters",
    "rigidity-sweep",
    "skew-orbit",
    "transitivity-witness",
]


#
# Registry listing.
#

def test_registry_contains_exactly_the_expected_experiments():
    assert [e["name"] for e in list_experiments()] == EXPECTED_NAMES


def test_listing_is_json_roundtrippable_and_complete():
    listing = list_experiments()
    assert json.loads(json.dumps(listing)) == listing
    for entry in listing:
        assert entry["description"]
        assert set(entry["backends"]) <= {"rational", "float"}
        for p in entry["parameters"]:
            assert p["kind"] in ("int", "fraction", "str",
                                 "intlist", "fraclist", "intmatrix")
        for schema in entry["csv"].values():
            assert "," in schema


#
# Canonical value rendering.
#

def test_value_str_canonical_forms():
    assert value_str(True) == "true"
    assert value_str(False) == "false"
    assert value_str(Fraction(3, 1)) == "3"
    assert value_str(Fraction(13, 32)) == "13/32"
    assert value_str(7) == "7"
    assert value_str(0.1) == "0.1"
    assert value_str(1 / 3) == repr(1 / 3)
    assert value_str("graph:2,0,1") == "graph:2,0,1"


#
# Config parsing and overrides.
#

def test_parse_config_text_handles_comments_and_spacing():
    text = """
    # a comment
    experiment = rigidity-sweep

    system= rot:k=6,s=1
    blocks =1,2,3
    """
    mapping = parse_config_text(text)
    assert mapping == {
        "experiment": "rigidity-sweep",
        "system": "rot:k=6,s=1",
        "blocks": "1,2,3",
    }


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(InvalidConfig):
        parse_config_text("just some words\n")
    with pytest.raises(InvalidConfig):
        parse_config_text("= value\n")


def test_apply_overrides_wins_and_validates():
    base = {"experiment": "mixing-profile", "n_max": "3"}
    out = apply_overrides(base, ["n_max=5", "expect_zero_by=2"])
    assert out["n_max"] == "5" and out["expect_zero_by"] == "2"
    assert base["n_max"] == "3"  # original untouched
    with pytest.raises(InvalidConfig):
        apply_overrides(base, ["nonsense"])


def test_config_from_mapping_splits_reserved_keys():
    cfg = config_from_mapping({
        "experiment": "mixing-profile",
        "system": "bern:d=2,L=2",
        "backend": "rational",
        "output_dir": "/tmp/x",
        "n_max": "3",
    })
    assert cfg.experiment == "mixing-profile"
    assert cfg.system == "bern:d=2,L=2"
    assert cfg.output_dir == "/tmp/x"
    assert cfg.parameters == {"n_max": "3"}
    with pytest.raises(InvalidConfig):
        config_from_mapping({"system": "rot:k=3,s=1"})


#
# Validation errors.
#

def cfg_for(experiment, system="", backend="rational", **params):
    return ExperimentConfig(experiment=experiment, system=system,
                            backend=backend,
                            parameters={k: str(v) for k, v in params.items()})


def test_validate_rejects_unknown_experiment():
    with pytest.raises(UnknownExperiment, match="rigidity-sweep"):
        validate_config(cfg_for("no-such-thing"))


def test_validate_rejects_bad_backend():
    with pytest.raises(InvalidConfig, match="backend"):
        validate_config(cfg_for("mixing-profile", system="bern:d=2,L=2",
                                backend="decimal", n_max=3))


def test_validate_rejects_float_on_exact_only_experiment():
    with pytest.raises(InvalidConfig, match="exact-only"):
        validate_config(cfg_for("skew-orbit", system="skew:alpha=1/7",
                                backend="float", start="0,0,0", N=4))


def test_validate_requires_system_when_needed():
    with pytest.raises(InvalidConfig, match="needs a system"):
        validate_config(cfg_for("rigidity-sweep", blocks="1,2", n_max=3))


def test_validate_rejects_unknown_parameter():
    with pytest.raises(InvalidConfig, match="expected: "):
        validate_config(cfg_for("mixing-profile", system="bern:d=2,L=2",
                                n_max=3, bogus=1))


def test_validate_requires_missing_parameter():
    with pytest.raises(InvalidConfig, match="n_max"):
        validate_config(cfg_for("mixing-profile", system="bern:d=2,L=2"))


def test_validate_requires_seed_for_random_experiments():
    with pytest.raises(InvalidConfig, match="seed"):
        validate_config(cfg_for("iet-realize", k=3, L=9))


def test_validate_rejects_unparsable_values():
    with pytest.raises(InvalidConfig, match="cannot parse"):
        validate_config(cfg_for("mixing-profile", system="bern:d=2,L=2",
                                n_max="three"))


def test_validate_applies_defaults_and_types():
    system, typed = validate_config(cfg_for(
        "transitivity-witness", d=2, L=1, sigma="1,0", pi="0,1"))
    assert system is None
    assert typed["epsilon"] == Fraction(1, 10**6)
    assert typed["sigma"] == (1, 0)
    system, typed = validate_config(cfg_for("cesaro-barycenter",
                                            system="rot:k=5,s=1", seed=7))
    assert system.k == 5 and system.exact
    assert typed["N_values"] == (10, 100)
    assert typed["n_initials"] == 3


@pytest.mark.parametrize("change", [
    {"parameters": {"n_max": 2.9}}, {"parameters": {"n_max": 3}},
    {"output_dir": Path("out")}, {"system": None}, {"backend": b"rational"},
    {"experiment": ["mixing-profile"]}])
def test_config_values_that_are_not_strings_are_refused(change, tmp_path, monkeypatch):
    # A float n_max would run as int(2.9) = 2 and be reported as 2.9, and a
    # Path output_dir would run the experiment and fail only in its report.
    monkeypatch.chdir(tmp_path)
    cfg = dataclasses.replace(cfg_for("mixing-profile", system="bern:d=2,L=2", n_max=3),
                              output_dir="out")
    with pytest.raises(InvalidConfig, match="must be a string"):
        run_experiment(dataclasses.replace(cfg, **change))
    assert not any(tmp_path.iterdir())
    assert run_experiment(cfg).passed and (tmp_path / "out" / "report.json").is_file()


def test_run_rejects_bad_system_spec_as_config_error():
    with pytest.raises(InvalidConfig, match="bad system spec"):
        run_experiment(cfg_for("mixing-profile", system="rot:k=0,s=1",
                               n_max=2), write=False)


#
# Determinism and report files.
#

def test_seeded_run_is_byte_identical():
    cfg = cfg_for("cesaro-barycenter", system="bern:d=2,L=2",
                  seed=42, N_values="10,50", n_initials=2)
    a = run_experiment(cfg, write=False)
    b = run_experiment(cfg, write=False)
    assert a.to_stable_json() == b.to_stable_json()
    assert a.series_csv("residuals") == b.series_csv("residuals")
    assert a.passed


def test_report_files_roundtrip(tmp_path):
    out = tmp_path / "runs" / "run1"  # write makes both directories
    cfg = ExperimentConfig(
        experiment="mixing-profile", system="bern:d=2,L=2",
        output_dir=str(out),
        parameters={"n_max": "3", "expect_zero_by": "2"})
    report = run_experiment(cfg)
    assert report.passed
    doc = json.loads((out / "report.json").read_text())
    assert doc["passed"] is True
    assert "duration" not in json.dumps(doc)  # wall clock excluded
    assert doc["config"]["parameters"]["n_max"] == "3"
    csv = (out / "residuals.csv").read_text().splitlines()
    assert csv[0] == "n,residual"
    assert len(csv) == 5  # header + n = 0..3
    assert csv[-1].endswith(",0")  # exact zero residual at n = L = 2 onward


def test_rewrite_over_longer_files_leaves_only_the_new_bytes(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig(
        experiment="mixing-profile", system="bern:d=2,L=2",
        output_dir=str(out), parameters={"n_max": "3"})
    report = run_experiment(cfg)
    for name in ("report.json", "residuals.csv"):
        (out / name).write_text("stale\n" * 2000)
    run_experiment(cfg)
    assert (out / "report.json").read_text() == report.to_stable_json()
    assert (out / "residuals.csv").read_text() == report.series_csv("residuals")


def test_scalars_hold_printable_values():
    report = run_experiment(cfg_for(
        "rigidity-sweep", system="rot:k=6,s=1", blocks="1,2,3",
        n_max=6, expect_return_at=6), write=False)
    assert report.passed
    assert report.scalars["first_return"] == 6
    assert report.scalars["final_score"] == "1"


#
# Command line interface.
#

def write_config(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


PASSING = """
experiment = rigidity-sweep
system = rot:k=6,s=1
blocks = 1,2,3
n_max = 6
expect_return_at = 6
"""

FAILING = PASSING.replace("expect_return_at = 6", "expect_return_at = 3")


def test_cli_run_passing_config(tmp_path, capsys):
    path = write_config(tmp_path, "ok.cfg", PASSING)
    assert cli_main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "experiment: rigidity-sweep" in out
    assert "verdict returns_at_expected_step: pass" in out
    assert "passed: true" in out


def test_cli_run_failing_verdict_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, "bad.cfg", FAILING)
    assert cli_main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "verdict returns_at_expected_step: FAIL" in out
    assert "passed: false" in out


def test_cli_set_overrides_flip_the_outcome(tmp_path):
    path = write_config(tmp_path, "bad.cfg", FAILING)
    assert cli_main(["run", path, "--set", "expect_return_at=6"]) == 0


def test_cli_empty_value_unsets_an_optional_int_but_not_a_required_one(capsys):
    shipped = str(CONFIGS / "one-sided-limit.cfg")
    assert cli_main(["run", shipped, "--set", "output_dir=", "--set", "expect_product_by="]) == 0
    out = capsys.readouterr().out
    assert "verdict product_from_expected_step" not in out
    assert cli_main(["run", shipped, "--set", "output_dir="]) == 0
    assert "verdict product_from_expected_step: pass" in capsys.readouterr().out
    assert cli_main(["run", shipped, "--set", "output_dir=", "--set", "n_steps="]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse value '' as int") and err.count("\n") == 1


def test_cli_unknown_experiment_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, "unknown.cfg", "experiment = warp-drive\n")
    assert cli_main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_file_exits_two(tmp_path, capsys):
    assert cli_main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_size_guard_exits_three(tmp_path, capsys):
    path = write_config(tmp_path, "huge.cfg", """
experiment = iet-realize
k = 2
L = 16384
seed = 1
""")
    assert cli_main(["run", path]) == 3
    assert "size guard" in capsys.readouterr().err


@pytest.mark.parametrize("k, L", [(4000, 4000), (10**6, 10**6)])
def test_cli_iet_realize_refuses_oversized_runs_before_drawing(k, L, capsys):
    tracemalloc.start()
    try:
        code = cli_main(["run", str(CONFIGS / "iet-realize.cfg"), "--set", "output_dir=",
                         "--set", f"k={k}", "--set", f"L={L}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == f"size guard: k*L = {k * L} subintervals > 4096\n"
    assert peak < 4 * 2**20  # the k x k target would take 8 k^2 bytes


@pytest.mark.parametrize("system", [
    "rot:k=4097,s=1",
    "iet:perm=" + ",".join(map(str, range(4097))),
])
def test_cli_size_guard_refuses_oversized_permutation_systems(system, capsys):
    code = cli_main(["run", str(CONFIGS / "mixing-profile.cfg"),
                     "--set", "output_dir=", "--set", f"system={system}"])
    assert code == 3
    assert capsys.readouterr().err.startswith("size guard:")


def test_cli_crash_exits_four_with_one_stderr_line(tmp_path, capsys):
    # A directory where report.json should go makes the report write fail:
    # that is neither a failed verdict (1) nor a config problem (2).
    (tmp_path / "report.json").mkdir()
    code = cli_main(["run", str(CONFIGS / "mixing-profile.cfg"),
                     "--set", f"output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: IsADirectoryError: ") and err.count("\n") == 1


@pytest.mark.parametrize("under", [False, True])
def test_an_output_dir_that_cannot_be_a_directory_is_refused_before_running(
        under, tmp_path, monkeypatch, capsys):
    file = tmp_path / "file"
    file.write_text("")
    out = file / "out" if under else file
    ran = []
    spec = REGISTRY["mixing-profile"]
    monkeypatch.setitem(REGISTRY, spec.name, dataclasses.replace(
        spec, runner=lambda *args: ran.append(args)))
    for command in ("validate", "run"):
        assert cli_main([command, str(CONFIGS / "mixing-profile.cfg"),
                         "--set", f"output_dir={out}"]) == 2
        assert capsys.readouterr().err.startswith("config error: output_dir ")
    assert not ran and file.read_text() == ""


def test_an_empty_output_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_experiment(cfg_for("mixing-profile", system="bern:d=2,L=2", n_max=3)).passed
    assert not any(tmp_path.iterdir())


def test_cli_list_shows_every_experiment(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_NAMES:
        assert f"{name}:" in out


def test_cli_list_json_is_machine_readable(capsys):
    assert cli_main(["list", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in listing] == EXPECTED_NAMES


def test_cli_validate_accepts_and_rejects(tmp_path, capsys):
    good = write_config(tmp_path, "good.cfg", PASSING)
    assert cli_main(["validate", good]) == 0
    assert "ok: rigidity-sweep" in capsys.readouterr().out
    assert cli_main(["validate", good, "--set", "bogus=1"]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_cli_run_writes_report_when_asked(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, "w.cfg",
                        PASSING + f"output_dir = {out_dir}\n")
    assert cli_main(["run", path]) == 0
    assert (out_dir / "report.json").is_file()
    assert (out_dir / "scores.csv").is_file()
    assert f"report: {out_dir}/report.json" in capsys.readouterr().out


#
# Shipped configs on the float backend, and boundary overrides.
#

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FLOAT_EXPERIMENTS = sorted(name for name, spec in REGISTRY.items()
                           if "float" in spec.backends)


def _is_number(text):
    for parse in (float, Fraction):  # float takes ints too, Fraction 'p/q'
        try:
            parse(text)
            return True
        except ValueError:
            pass
    return False


@pytest.mark.parametrize("name", FLOAT_EXPERIMENTS)
def test_float_backend_reports_are_written(name, tmp_path):
    mapping = apply_overrides(load_config_file(CONFIGS / f"{name}.cfg"),
                              ["backend=float", f"output_dir={tmp_path}"])
    report = run_experiment(config_from_mapping(mapping))
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config"]["backend"] == "float"
    assert all(type(v) is bool for v in report.verdicts.values())
    assert doc["verdicts"] == report.verdicts
    strings = [v for v in doc["scalars"].values() if isinstance(v, str)]
    for csv in tmp_path.glob("*.csv"):
        for line in csv.read_text().splitlines()[1:]:
            strings.extend(line.split(","))
    assert strings and all(_is_number(s) for s in strings), strings


def _numbers(report):
    """Scalars and series cells of a report as floats, keyed by position."""
    values = {("scalar", name): v for name, v in report.scalars.items()}
    for name in report.series:
        for r, row in enumerate(report.rows(name)):
            values.update(((name, r, c), cell) for c, cell in enumerate(row))
    return {key: float(Fraction(v)) for key, v in values.items()}


@pytest.mark.parametrize("name", FLOAT_EXPERIMENTS)
def test_shipped_config_agrees_across_backends(name):
    mapping = load_config_file(CONFIGS / f"{name}.cfg")
    rational, floating = (
        run_experiment(config_from_mapping(
            apply_overrides(mapping, [f"backend={b}"])), write=False)
        for b in ("rational", "float"))
    assert floating.verdicts == rational.verdicts
    exact_values, float_values = _numbers(rational), _numbers(floating)
    assert float_values.keys() == exact_values.keys()
    for key, x in exact_values.items():
        assert abs(float_values[key] - x) <= exact.FLOAT_TOL, key


def _run_override(name, override, capsys, command="run"):
    code = cli_main([command, str(CONFIGS / f"{name}.cfg"),
                     "--set", "output_dir=", "--set", override])
    return code, capsys.readouterr().err


# Values only a runner can refuse; validate checks the schema and the system.
RUN_ONLY = {("one-sided-limit", "init=graph:0,x"),
            ("one-sided-limit", "expect_graph_orbit=ye")}


@pytest.mark.parametrize("name, override", [
    ("iet-realize", "seed=-1"),
    ("rigidity-sweep", "n_max=-3"),
    ("entropy-factor", "block="),
    ("one-sided-limit", "init=graph:0,x"),
    ("group-embedding", "matrix=1,1;0"),
    ("group-embedding", "moduli=-4,3"),
    ("rigidity-sweep", "blocks=0,1,2,3"),
    ("one-sided-limit", "expect_graph_orbit=ye"),
    ("fixed-points", "system=rot:k=4,k=6,s=1"),
    ("fixed-points", "system=rot:k=6,s=1,s=2"),
    ("mixing-profile", "system=bern:d=2,L=2,d=2"),
    ("fixed-points", "system=rot:k=abc,s=1"),
    ("fixed-points", "system=skew:alpha=1/7"),
    ("skew-orbit", "system=rot:k=4,s=1"),
    ("fixed-points", "system=nope:x=1"),
    ("entropy-factor", "system=rot:k=4,s=1"),
    ("periodic-commuters", "m=0"),
    ("rigidity-sweep", "expect_return_at=0"),
])
def test_cli_rejects_known_bad_overrides_as_config_errors(name, override, capsys):
    commands = ("run",) if (name, override) in RUN_ONLY else ("run", "validate")
    for command in commands:
        code, err = _run_override(name, override, capsys, command)
        assert code == 2, command
        assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("name, override, message", [
    ("one-sided-limit", "n_steps=0", "'expect_product_by' = 4 lies past n_steps = 0"),
    ("mixing-profile", "expect_zero_by=5", "'expect_zero_by' = 5 lies past n_max = 4"),
    ("rigidity-sweep", "expect_return_at=7", "'expect_return_at' = 7 lies past n_max = 6"),
])
def test_an_expectation_past_the_horizon_is_refused_before_the_first_step(
        name, override, message, monkeypatch, capsys):
    """A verdict expected after the last step could never hold: run and
    validate both refuse it as a config error, and the runner is not
    called.  At the horizon itself the shipped run goes ahead."""
    ran = []
    spec = REGISTRY[name]
    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(
        spec, runner=lambda *args: ran.append(args)))
    for command in ("run", "validate"):
        code, err = _run_override(name, override, capsys, command)
        assert code == 2, command
        assert err == f"config error: parameter {message}\n"
    assert not ran
    monkeypatch.setitem(REGISTRY, name, spec)
    horizon = {"one-sided-limit": "n_steps=4", "mixing-profile": "expect_zero_by=4",
               "rigidity-sweep": "expect_return_at=6"}[name]
    assert _run_override(name, horizon, capsys) == (0, "")


def test_odometer_level_zero_is_a_config_error_with_any_pi(capsys):
    # pi=0 permutes the one low-digit value, so only m is out of range.
    for command in ("run", "validate"):
        code = cli_main([command, str(CONFIGS / "periodic-commuters.cfg"), "--set", "output_dir=",
                         "--set", "m=0", "--set", "pi=0"])
        err = capsys.readouterr().err
        assert code == 2, command
        assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["bern:d=2,L=3", "bern:d=3,L=2", "rot:k=7,s=3"])
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_mixing_profile_past_the_settling_step_matches_a_stepwise_loop(spec, backend):
    # The power walk of bern:d,L ends at step L + 1, where Q^L = J/k comes
    # back; each residual is the parent formula's over one gather per n, to
    # the last bit on floats.
    n_max = 12
    report = run_experiment(cfg_for("mixing-profile", system=spec, backend=backend,
                                    n_max=n_max), write=False)
    sys = parse_system_spec(spec, backend)
    uniform = exact.scalar(Fraction(1, sys.k), backend)
    power, expected = exact.identity(sys.k, backend), []
    for n in range(n_max + 1):
        expected.append((str(n), value_str(exact.max_abs(power, uniform) / sys.k)))
        power = exact.gather(power, sys.columns, (1,))
    assert report.rows("residuals") == expected


def test_cli_refuses_an_oversized_system_under_run_and_validate(capsys):
    for command in ("run", "validate"):
        code, err = _run_override("fixed-points", "system=rot:k=5000,s=1", capsys, command)
        assert code == 3, command
        assert err.startswith("size guard:") and err.count("\n") == 1


def test_an_empty_system_is_allowed_where_none_is_taken(capsys):
    code, _ = _run_override("entropy-factor", "system=", capsys, "validate")
    assert code == 0


def test_a_run_parses_its_system_spec_once(monkeypatch):
    calls = []

    def counted(spec, backend):
        calls.append(spec)
        return parse_system_spec(spec, backend)

    monkeypatch.setattr("lenslab.experiments.parse_system_spec", counted)
    for cfg, parses in (
            (cfg_for("mixing-profile", system="bern:d=2,L=2", n_max=3), 1),
            (cfg_for("skew-orbit", system="skew:alpha=1/7", start="0,0,0", N=4), 1),
            (cfg_for("entropy-factor", block="0,1/2"), 0)):
        del calls[:]
        assert run_experiment(cfg, write=False).passed
        assert len(calls) == parses, cfg.experiment


@pytest.mark.parametrize("value, checked", [
    ("", False), ("0", False), ("off", False), (" No ", False), ("FALSE", False),
    ("1", True), ("yes", True), ("On", True), (" TRUE ", True),
])
def test_expect_graph_orbit_reads_the_usual_yes_and_no_spellings(value, checked):
    report = run_experiment(cfg_for("one-sided-limit", system="rot:k=5,s=2",
                                    n_steps="3", init="graph:1,2,3,4,0",
                                    expect_graph_orbit=value), write=False)
    assert ("orbit_stays_on_graph_couplings" in report.verdicts) == checked
    assert report.passed


HUGE = "100000000000000000000"
BOUNDARY_VALUES = {
    "int": ("-1", "0", "", HUGE),
    "intlist": ("-1", "0", HUGE),
    # Other kinds take a huge number and a word that parses as nothing.
    "fraction": (HUGE, "abc"),
    "fraclist": (HUGE, "abc"),
    "str": (HUGE, "abc"),
    "intmatrix": (HUGE, "abc"),
}


@pytest.mark.parametrize("name, param, value", [
    (name, p.name, value) for name, spec in sorted(REGISTRY.items())
    for p in spec.params for value in BOUNDARY_VALUES[p.kind]
])
def test_cli_int_parameter_boundaries_exit_honestly(name, param, value, capsys):
    spec = REGISTRY[name].param_map()[param]
    start = time.perf_counter()
    code, err = _run_override(name, f"{param}={value}", capsys)
    elapsed = time.perf_counter() - start
    if value in (HUGE, "abc"):
        # A huge count or size, or a word, may also be refused by the
        # config check or a guard, at once.
        assert code in (0, 1, 2, 3)
        assert elapsed < 1
    elif value == "" and not spec.required and spec.default is None:
        # An empty value unsets the parameter; the run goes on without it.
        assert code in (0, 1, 2)
    elif value == "" or int(value) < spec.minimum:
        assert code == 2
    else:
        # The run may legitimately fail a verdict, or a runner may refuse
        # the combination, but nothing escapes as a traceback.
        assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("config error:") and err.count("\n") == 1
    if code == 3:
        assert err.startswith("size guard:") and err.count("\n") == 1


def test_step_budget_refuses_one_step_past_it_before_running():
    floor_steps = STEP_BUDGET // exact.SIZE_LIMIT  # steps below the floor cost
    _guard_steps(floor_steps, 1)
    with pytest.raises(SizeGuard):
        _guard_steps(floor_steps + 1, 1)
    _guard_steps(2, STEP_BUDGET // 2)
    with pytest.raises(SizeGuard):
        _guard_steps(3, STEP_BUDGET // 2)


@pytest.mark.parametrize("spec, steps", [
    ("bern:d=2,L=12", 4),  # k^2 s = 2^25 cell operations a step
    ("bern:d=3,L=6", 84),  # 729^2 * 3
    ("bern:d=4,L=5", 32),  # 2^22
    ("rot:k=2048,s=1", 32),  # exact: k^2 = 2^22, one relabel
    ("bern:d=2,L=5", STEP_BUDGET // exact.SIZE_LIMIT),  # below the floor cost
])
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_steps_are_charged_k_squared_s_at_the_budget_edge(spec, steps, backend):
    sys = parse_system_spec(spec, backend)
    _guard_steps(steps, _step_cost(sys))
    with pytest.raises(SizeGuard):
        _guard_steps(steps + 1, _step_cost(sys))


@pytest.mark.parametrize("L, backend, n_max, refused", [
    (9, "rational", 255, False), (9, "rational", 256, True),
    (10, "float", 63, False), (10, "float", 64, True),
])
def test_mixing_profile_steps_are_admitted_by_cost(L, backend, n_max, refused,
                                                   capsys):
    # n_max + 1 steps of k^2 s = 2^(2L + 1) operations.  An admitted run
    # fails the shipped config's expect_zero_by verdict, since k = 2^L
    # needs L steps.
    code = cli_main(["run", str(CONFIGS / "mixing-profile.cfg"), "--set", "output_dir=",
                     "--set", f"system=bern:d=2,L={L}", "--set", f"backend={backend}",
                     "--set", f"n_max={n_max}"])
    assert code == (3 if refused else 1)


@pytest.mark.parametrize("L, backend, n_max, refused", [
    (12, "float", 5460, False), (12, "float", 5461, True),
    (12, "rational", 5460, False), (12, "rational", 5461, True),
])
def test_rigidity_sweep_charges_each_lens_step(L, backend, n_max, refused, capsys):
    # Each n pulls the k x 3 block indicator back one step on s = 2 lines,
    # k s m = 6 * 2^12 = 24576 operations at k = 4096, so the budget holds
    # 5461 values of n.  An admitted run fails the shipped config's
    # expect_return_at verdict, since the shift never returns.
    k = 2**L
    start = time.perf_counter()
    code = cli_main(["run", str(CONFIGS / "rigidity-sweep.cfg"), "--set", "output_dir=",
                     "--set", f"system=bern:d=2,L={L}", "--set", f"backend={backend}",
                     "--set", f"blocks=1,2,{k - 3}", "--set", f"n_max={n_max}"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    if refused:
        assert code == 3 and elapsed < 1
        assert err == "size guard: 5462 steps of 24576 cell operations > 134217728\n"
    else:
        assert code == 1


@pytest.mark.parametrize("cells, refused", [(128, False), (256, True)])
def test_periodic_commuters_charges_each_lens_step(cells, refused, capsys):
    # The period check takes len(pi) exact lens steps of k^2 = 2^20
    # operations at m = 10, so the budget holds 128 of them.
    start = time.perf_counter()
    code = cli_main(["run", str(CONFIGS / "periodic-commuters.cfg"), "--set", "output_dir=",
                     "--set", "m=10", "--set", "pi=" + ",".join(map(str, range(cells)))])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    if refused:
        assert code == 3 and elapsed < 1
        assert err.startswith("size guard:") and err.count("\n") == 1
    else:
        assert code == 0


@pytest.mark.parametrize("n, refused", [(31, False), (32, True)])
def test_cesaro_barycenter_charges_each_lens_step_and_horizon(n, refused, capsys):
    # rot:k=2048,s=1 costs k^2 = 2^22 a step, so the budget holds 32 steps:
    # N lens steps and one residual step for the one horizon.
    start = time.perf_counter()
    code = cli_main(["run", str(CONFIGS / "cesaro-barycenter.cfg"), "--set", "output_dir=",
                     "--set", "system=rot:k=2048,s=1", "--set", "n_initials=1",
                     "--set", f"N_values={n}"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    if refused:
        assert code == 3 and elapsed < 1
        assert err.startswith("size guard:") and err.count("\n") == 1
    else:
        assert code == 0


@pytest.mark.parametrize("name, override, expected", [
    ("mixing-profile", f"system=bern:d=2,L={HUGE}", 3),
    ("mixing-profile", f"system=odo:m={HUGE}", 3),
    ("rigidity-sweep", f"system=rot:k=6,s={HUGE}", 0),
    ("group-embedding", f"matrix={HUGE},0;0,1", 2),
    ("group-embedding", f"matrix={HUGE}1,0;0,1", 0),
])
def test_cli_huge_values_outside_int_parameters_exit_at_once(name, override,
                                                             expected, capsys):
    start = time.perf_counter()
    code, _ = _run_override(name, override, capsys)
    assert code == expected
    assert time.perf_counter() - start < 1


#
# Golden outputs of the shipped configs and the registry listing.
#

DIGESTS = CONFIGS.parent / "perfbench" / "digests.json"


def _digest_dir(path):
    """The hash perfbench/worker.py:digest_dir takes of a report directory."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def test_shipped_configs_match_recorded_digests(tmp_path, monkeypatch):
    recorded = json.loads(DIGESTS.read_text())["cli-configs"]["*"]
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name in EXPECTED_NAMES:
        assert cli_main(["run", str(CONFIGS / f"{name}.cfg")]) == 0
        digests[name] = _digest_dir(tmp_path / "out" / name)
    assert digests == recorded


def test_cli_list_json_matches_golden_file(capsys):
    assert cli_main(["list", "--json"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "list.json"
    assert capsys.readouterr().out == golden.read_text()


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py loaded from its file under its own name, as
    perfbench's scripts import each other, and out of sys.modules again
    after the test."""
    path = CONFIGS.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["rational-permutation", "rational-stochastic"])
def test_benchmark_seed_zero_matches_recorded_digests(workload, tmp_path, monkeypatch):
    """Replays seed 0 as perfbench/worker.py configures it, against the
    digests recorded for that seed."""
    recorded = json.loads(DIGESTS.read_text())[workload]["0"]
    monkeypatch.chdir(tmp_path)
    digests = {}
    for job in _perfbench_module("workloads", monkeypatch).make_jobs(workload, 0):
        mapping = {"experiment": job["experiment"], "backend": job["backend"],
                   "output_dir": f"out/{job['id']}", **job["parameters"]}
        if job["system"]:
            mapping["system"] = job["system"]
        assert run_experiment(config_from_mapping(mapping)).passed, job["id"]
        digests[job["id"]] = _digest_dir(tmp_path / "out" / job["id"])
    assert digests == recorded


def test_every_traced_layer_name_resolves(monkeypatch):
    # tracing.install raises on a missing name, so a deleted library
    # function breaks a traced benchmark run.  install is not called here:
    # it would wrap library functions for every later test.
    _perfbench_module("workloads", monkeypatch)
    tracing = _perfbench_module("tracing", monkeypatch)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"lenslab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_a_random_one_sided_orbit_stays_below_one_dense_array():
    """one-sided-limit on rot:k=256 from a random start relabels the lines
    of a coupling with at most six nonzeros a line; one k x k int64 array
    would take 512 KB, and the whole run, reading included, stays below
    half of that."""
    cfg = ExperimentConfig(experiment="one-sided-limit", system="rot:k=256,s=5",
                           parameters={"n_steps": "8", "init": "random", "seed": "9"})
    run_experiment(cfg, write=False)  # imports and first-call caches
    tracemalloc.start()
    try:
        report = run_experiment(cfg, write=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 256 * 2**10


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(experiment="periodic-commuters",
                     parameters={"family": "odometer", "m": "12", "pi": "1,0,3,2"}),
    ExperimentConfig(experiment="one-sided-limit", system="rot:k=4096,s=1",
                     parameters={"n_steps": "8", "init": "random", "seed": "9"}),
], ids=["periodic-commuters-m12", "one-sided-limit-k4096"])
def test_graph_and_random_couplings_at_k_4096_take_no_dense_array(cfg):
    """Both runs work on couplings with one to six nonzeros a line; one
    4096 x 4096 int64 array would take 128 MB."""
    tracemalloc.start()
    try:
        report = run_experiment(cfg, write=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert report.duration_seconds < 1 and peak < 16 * 2**20
