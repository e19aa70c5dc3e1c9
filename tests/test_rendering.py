"""Report rendering: columns against per-cell value_str, stable JSON against
json.dumps, and the column-built series against the row loops they replace."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenslab import (
    ExperimentConfig,
    ExperimentReport,
    exact,
    fixed_point_space,
    parse_system_spec,
    random_rational_target,
    run_experiment,
    value_str,
)
from lenslab.experiments import REGISTRY, _render_column


def _old_stable_json(report):
    """The renderer before rows were spliced in: json.dumps of the whole doc."""
    cfg = report.config
    doc = {
        "config": {
            "experiment": cfg.experiment,
            "system": cfg.system,
            "backend": cfg.backend,
            "output_dir": cfg.output_dir,
            "parameters": dict(sorted(cfg.parameters.items())),
        },
        "scalars": report.scalars,
        "series": {
            name: {"columns": list(cols), "rows": [list(r) for r in rows]}
            for name, (cols, rows) in sorted(report.series.items())
        },
        "verdicts": report.verdicts,
        "passed": report.passed,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _report(parameters=None, scalars=None, series=None, verdicts=None):
    return ExperimentReport(
        config=ExperimentConfig(experiment="x", system="rot:k=2,s=1",
                                parameters=parameters or {}),
        scalars=scalars or {}, series=series or {}, verdicts=verdicts or {},
        passed=all((verdicts or {}).values()), duration_seconds=0.0)


TRICKY = ['"', "\\", "\x00", "\x1f", "\n", "é", " ", "😀", '"rows": []', ""]
texts = st.one_of(st.sampled_from(TRICKY), st.text())
rows = st.lists(st.lists(texts, max_size=4).map(tuple), max_size=6)
series = st.dictionaries(texts, st.tuples(st.lists(texts, max_size=4).map(tuple), rows),
                         max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parameters=st.dictionaries(texts, texts, max_size=4),
       scalars=st.dictionaries(texts, st.one_of(st.integers(), texts), max_size=4),
       series=series,
       verdicts=st.dictionaries(texts, st.booleans(), max_size=3))
@example(parameters={}, scalars={}, series={}, verdicts={})
@example(parameters={}, scalars={}, series={"s": (("a", "b"), [])}, verdicts={})
@example(parameters={}, scalars={}, series={"s": ((), [(), ()])}, verdicts={})
@example(parameters={"rows": '"rows": []', '"rows": []': "[]"},
         scalars={"rows": '"rows": []'},
         series={"rows": (("rows",), [('"rows": []',)]), "a": (("x",), [])},
         verdicts={"rows": True})
@example(parameters={}, scalars={},
         series={"t": (("c",), [(c,) for c in TRICKY])}, verdicts={})
def test_stable_json_equals_json_dumps(parameters, scalars, series, verdicts):
    report = _report(parameters, scalars, series, verdicts)
    assert report.to_stable_json() == _old_stable_json(report)


CELLS = st.one_of(
    st.fractions(), st.integers(), st.floats(), st.booleans(), st.text(max_size=3),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats().map(np.float64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.fractions()), st.lists(st.integers()), st.lists(st.floats()),
    st.lists(st.booleans()), st.lists(st.text(max_size=3)), st.lists(CELLS)))
def test_list_column_renders_as_per_cell_value_str(column):
    assert _render_column(column) == [value_str(x) for x in column]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.integers(-2**63, 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 255)).map(lambda v: np.array(v, dtype=np.uint8)),
    st.lists(st.floats()).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.fractions()).map(lambda v: np.array(v, dtype=object))))
def test_numpy_column_renders_as_per_cell_value_str(column):
    assert _render_column(column) == [value_str(x) for x in column]


@pytest.mark.parametrize("num, den", [
    ([3, -6, 0, 3, 9], 12), ([], 1), ([2**70, -(2**70), 1], 3), ([5, 5], 1)])
def test_scaled_column_renders_its_fractions(num, den):
    column = exact.from_scaled(np.array(num, dtype=object), den)
    assert _render_column(column) == [value_str(Fraction(n, den)) for n in num]


def test_negative_zero_keeps_its_own_text():
    column = np.array([0.0, -0.0, 0.0, -0.0])
    assert _render_column(column) == ["0.0", "-0.0", "0.0", "-0.0"]


def test_ragged_columns_are_refused_not_cut(monkeypatch):
    spec = REGISTRY["group-embedding"]

    def ragged(cfg, p, backend):
        return {}, {"images": (["0|0", "1|0"], ["0|0"])}, {"ok": True}

    monkeypatch.setitem(REGISTRY, spec.name, dataclasses.replace(spec, runner=ragged))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(
            experiment="group-embedding",
            parameters={"moduli": "2,1", "matrix": "1,0;0,1"}), write=False)


def _cell_rows(rows):
    return [tuple(value_str(x) for x in row) for row in rows]


@pytest.mark.parametrize("system, backend", [
    ("rot:k=6,s=1", "rational"), ("rot:k=8,s=3", "rational"),
    ("odo:m=3", "rational"), ("rot:k=5,s=2", "float"),
    ("bern:d=2,L=2", "rational"), ("bern:d=2,L=1", "float")])
def test_fixed_points_series_matches_row_loop(system, backend):
    report = run_experiment(ExperimentConfig(
        experiment="fixed-points", system=system, backend=backend), write=False)
    sys = parse_system_spec(system, backend=backend)
    k = sys.k
    basis = [exact.entries(d) for d in fixed_point_space(sys).basis]
    rows = [(t, i, j, d[i, j])
            for t, d in enumerate(basis) for i in range(k) for j in range(k)]
    assert report.series["basis"][1] == _cell_rows(rows)


@pytest.mark.parametrize("k, L, seed", [(1, 3, 0), (4, 12, 5), (8, 16, 7), (6, 6, 2)])
def test_iet_target_series_matches_row_loop(k, L, seed):
    report = run_experiment(ExperimentConfig(
        experiment="iet-realize",
        parameters={"k": str(k), "L": str(L), "seed": str(seed)}), write=False)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    target = random_rational_target(k, L, rng)
    rows = [(i, j, Fraction(int(target.m[i, j]), L))
            for i in range(k) for j in range(k)]
    assert report.series["target"][1] == _cell_rows(rows)
