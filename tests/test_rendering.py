"""Report rendering: columns against per-cell value_str, stable JSON and the
streamed files against json.dumps and row joins, and the column-built series
against the row loops they replace."""

import dataclasses
import enum
import os
import tempfile
import tracemalloc
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
from lenslab import experiments
from lenslab.experiments import REGISTRY, _render_series

from report_oracles import old_csv, old_stable_json


def _stored(cols, rows):
    """A series given by its rows in the form a report keeps: the distinct
    cell texts and a (rows x columns) index into them."""
    cells = np.array([c for row in rows for c in row], dtype=object)
    texts, index = np.unique(cells, return_inverse=True)
    return cols, texts, index.reshape(len(rows), len(cols))


def _report(parameters=None, scalars=None, series=None, verdicts=None):
    return ExperimentReport(
        config=ExperimentConfig(experiment="x", system="rot:k=2,s=1",
                                parameters=parameters or {}),
        scalars=scalars or {}, verdicts=verdicts or {},
        series={name: _stored(*s) for name, s in (series or {}).items()},
        duration_seconds=0.0)


TRICKY = ['"', "\\", "\x00", "\x1f", "\n", "é", "\u2028", "😀", '"rows": []', ""]
texts = st.one_of(st.sampled_from(TRICKY), st.text())
# A series name is also a file name: no "/" or NUL, and short enough for any
# file system.
file_names = texts.filter(lambda s: "/" not in s and "\x00" not in s
                          and len(s.encode()) <= 200)


def _series(names):
    """Series by name: up to four columns and six rows of one cell each."""
    return st.dictionaries(names, st.lists(texts, max_size=4).map(tuple).flatmap(
        lambda cols: st.tuples(st.just(cols), st.lists(
            st.lists(texts, min_size=len(cols), max_size=len(cols)).map(tuple),
            max_size=6))), max_size=4)


def _reports(names):
    """Given reports whose series are named from names, with the examples
    every report writer must pass."""
    def decorate(test):
        test = example(parameters={}, scalars={}, series={}, verdicts={})(test)
        test = example(parameters={}, scalars={}, series={"s": (("a", "b"), [])},
                       verdicts={})(test)
        test = example(parameters={}, scalars={}, series={"s": ((), [(), ()])},
                       verdicts={})(test)
        test = example(parameters={"rows": '"rows": []', '"rows": []': "[]"},
                       scalars={"rows": '"rows": []'},
                       series={"rows": (("rows",), [('"rows": []',)]), "a": (("x",), [])},
                       verdicts={"rows": True})(test)
        test = example(parameters={}, scalars={},
                       series={"t": (("c",), [(c,) for c in TRICKY])}, verdicts={})(test)
        test = example(parameters={}, scalars={"b": True, "f": False, "i": 1, "z": 0},
                       series={}, verdicts={})(test)
        test = given(parameters=st.dictionaries(texts, texts, max_size=4),
                     scalars=st.dictionaries(texts, st.one_of(st.integers(), st.booleans(),
                                                              texts), max_size=4),
                     series=_series(names),
                     verdicts=st.dictionaries(texts, st.booleans(), max_size=3))(test)
        return settings(max_examples=200, deadline=None, derandomize=True)(test)
    return decorate


@_reports(texts)
def test_stable_json_equals_json_dumps(parameters, scalars, series, verdicts):
    report = _report(parameters, scalars, series, verdicts)
    assert report.to_stable_json() == old_stable_json(report)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@_reports(file_names)
def test_written_report_equals_the_oracles_at_every_chunk_size(
        chunk, parameters, scalars, series, verdicts):
    report = _report(parameters, scalars, series, verdicts)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(experiments, "_CHUNK_ROWS", chunk)
        paths = list(report.write(out))
        assert paths[0].read_bytes() == old_stable_json(report).encode()
        assert [p.name for p in paths[1:]] == [f"{name}.csv" for name in sorted(series)]
        for name, path in zip(sorted(series), paths[1:]):
            assert path.read_bytes() == old_csv(report, name).encode()


@_reports(file_names)
def test_short_writes_still_write_every_byte(parameters, scalars, series, verdicts):
    report = _report(parameters, scalars, series, verdicts)
    write = os.write

    def at_most_seven(fd, data):
        return write(fd, data[:7])

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(experiments.os, "write", at_most_seven)
        paths = list(report.write(out))
        mp.undo()
        assert paths[0].read_bytes() == old_stable_json(report).encode()
        for name, path in zip(sorted(series), paths[1:]):
            assert path.read_bytes() == old_csv(report, name).encode()


def test_write_memory_follows_the_chunk_not_the_rows(tmp_path, monkeypatch):
    report = run_experiment(ExperimentConfig(
        experiment="fixed-points", system="rot:k=48,s=1"), write=False)
    rows = len(report.series["basis"][2])
    assert rows == 47 * 48**2
    peaks = []
    for chunk in (64, rows):
        monkeypatch.setattr(experiments, "_CHUNK_ROWS", chunk)
        tracemalloc.start()
        try:
            report.write(tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (tmp_path / "report.json").read_text() == old_stable_json(report)
    assert 10 * peaks[0] < peaks[1], peaks


@pytest.mark.parametrize("fails, name", [(0, "report.json"), (1, "s.csv")])
def test_a_failed_write_leaves_no_stale_tail(fails, name, tmp_path, monkeypatch):
    _report(series={"s": (("a", "b"), [(str(i), "x" * 20) for i in range(50)])}
            ).write(tmp_path)
    report = _report(series={"s": (("a", "b"), [(str(i), "y") for i in range(30)])})
    whole = {"report.json": report.to_stable_json(), "s.csv": report.series_csv("s")}
    streams, row_chunks = [], experiments._row_chunks

    def failing(*args):
        streams.append(args)
        chunks = row_chunks(*args)
        yield next(chunks)
        yield next(chunks)
        if len(streams) > fails:
            raise RuntimeError("stream failed")
        yield from chunks

    monkeypatch.setattr(experiments, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(experiments, "_row_chunks", failing)
    with pytest.raises(RuntimeError, match="stream failed"):
        report.write(tmp_path)
    written = (tmp_path / name).read_text()
    assert whole[name].startswith(written) and len(written) < len(whole[name])
    if name == "s.csv":
        assert (tmp_path / "report.json").read_text() == whole["report.json"]


def _cells(column):
    """The rendered texts of a one-column series, one per cell."""
    texts, index = _render_series([column])
    return texts[index[:, 0]].tolist()


CELLS = st.one_of(
    st.fractions(), st.integers(), st.floats(), st.booleans(), st.text(max_size=3),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats().map(np.float64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.fractions()), st.lists(st.integers()), st.lists(st.floats()),
    st.lists(st.booleans()), st.lists(st.text(max_size=3)), st.lists(CELLS)))
def test_list_column_renders_as_per_cell_value_str(column):
    assert _cells(column) == [value_str(x) for x in column]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.integers(-2**63, 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 255)).map(lambda v: np.array(v, dtype=np.uint8)),
    st.lists(st.floats()).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.fractions()).map(lambda v: np.array(v, dtype=object)),
    st.lists(texts).map(lambda v: np.array(v, dtype=str))))
def test_numpy_column_renders_as_per_cell_value_str(column):
    assert _cells(column) == [value_str(x) for x in column]


def _old_value_str(x) -> str:
    """value_str before it dispatched on the cell's type: an isinstance chain."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (str, Fraction)):
        return str(x)
    return str(int(x) if isinstance(x, (int, np.integer)) else float(x))


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


NUMPY_AND_ENUM_CELLS = st.one_of(
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-128, 127).map(np.int8), st.integers(0, 2**64 - 1).map(np.uint64),
    st.text(max_size=3).map(np.str_), st.booleans().map(np.bool_), st.sampled_from(_Level))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(CELLS, NUMPY_AND_ENUM_CELLS))
def test_value_str_equals_the_isinstance_chain(x):
    assert value_str(x) == _old_value_str(x)


def test_numpy_bools_render_as_booleans():
    assert value_str(np.bool_(True)) == value_str(True) == "true"
    assert value_str(np.bool_(False)) == value_str(False) == "false"
    assert _cells(np.array([True, False, True])) == ["true", "false", "true"]


@pytest.mark.parametrize("num, den", [
    ([3, -6, 0, 3, 9], 12), ([], 1), ([2**70, -(2**70), 1], 3), ([5, 5], 1)])
def test_scaled_column_renders_its_fractions(num, den):
    column = exact.from_scaled(np.array(num, dtype=object), den)
    assert _cells(column) == [value_str(Fraction(n, den)) for n in num]


def test_negative_zero_keeps_its_own_text():
    column = np.array([0.0, -0.0, 0.0, -0.0])
    assert _cells(column) == ["0.0", "-0.0", "0.0", "-0.0"]


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
    assert report.rows("basis") == _cell_rows(rows)


@pytest.mark.parametrize("k, L, seed", [(1, 3, 0), (4, 12, 5), (8, 16, 7), (6, 6, 2)])
def test_iet_target_series_matches_row_loop(k, L, seed):
    report = run_experiment(ExperimentConfig(
        experiment="iet-realize",
        parameters={"k": str(k), "L": str(L), "seed": str(seed)}), write=False)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    target = random_rational_target(k, L, rng)
    rows = [(i, j, Fraction(int(target.m[i, j]), L))
            for i in range(k) for j in range(k)]
    assert report.rows("target") == _cell_rows(rows)


def _column_of(kind, values):
    """values as a series column of one kind: an int64 array, the float64
    cells whose bit patterns are |values| (NaNs among them), or a Scaled
    over 6."""
    if kind == "scaled":
        return exact.from_scaled(np.array(values, dtype=object), 6)
    if kind == "float-bits":
        return np.array([abs(v) for v in values], dtype=np.uint64).view(np.float64)
    return np.array(values, dtype=np.int64)


def _cell_texts(column):
    cells = column.fractions if isinstance(column, exact.Scaled) else column
    return [value_str(x) for x in cells]


@st.composite
def _integer_columns(draw):
    """Up to three columns of one length n: nonnegative keys below n (the
    counted path), keys with negatives or reaching n, and keys as wide as
    int64, as integer, float-bit and Scaled columns."""
    n = draw(st.integers(1, 40))
    ranges = [(0, n - 1), (-3, n), (0, n), (-2**63, 2**63 - 1), (0, 2**62)]
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        low, high = draw(st.sampled_from(ranges))
        values = draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
        columns.append(_column_of(draw(st.sampled_from(["int", "float-bits", "scaled"])),
                                  values))
    return columns


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["int64", "int32", "int8", "uint64", "uint8"]),
       st.integers(-2**40, 2**40), st.integers(1, 60), st.data())
@example("int64", -1, 5, None)
def test_distinct_is_the_sort_on_integer_keys(dtype, low, n, data):
    """_distinct gives np.unique's values, dtype and inverse, whether the
    keys are counted (a span below their number, negatives included) or
    sorted (a wider span)."""
    info = np.iinfo(dtype)
    low = min(max(low, info.min), info.max)
    if data is None:  # the -1/+1 numerators of a fixed-point basis, with zeros
        keys = np.array([-1, 0, 1, 0, -1], dtype=dtype)
    else:
        span = data.draw(st.sampled_from([n, 2 * n, 2**62]))
        high = min(low + span, info.max)
        keys = np.array(data.draw(st.lists(st.integers(low, high), min_size=n, max_size=n)),
                        dtype=dtype)
    values, inverse = experiments._distinct(keys)
    want_values, want_inverse = np.unique(keys, return_inverse=True)
    assert values.dtype == want_values.dtype
    assert np.array_equal(values, want_values) and np.array_equal(inverse, want_inverse)


def _sorting_distinct(keys):
    return np.unique(keys, return_inverse=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integer_columns())
@example([np.arange(5), np.array([4, 0, 4, 0, 1]), np.array([-1, 0, 1, 2, 3])])
@example([np.array([0.0, 5e-324, 1e-323, 5e-324]), np.array([0.0, -0.0, 0.0, 0.0])])
def test_counted_columns_render_the_rows_the_sort_renders(columns):
    def rendered():
        cols = tuple(f"c{i}" for i in range(len(columns)))
        return dataclasses.replace(_report(), series={"s": (cols, *_render_series(columns))})
    counted = rendered()
    original = experiments._distinct
    experiments._distinct = _sorting_distinct
    try:
        sorted_ = rendered()
    finally:
        experiments._distinct = original
    expected = list(zip(*(_cell_texts(c) for c in columns)))
    assert counted.rows("s") == sorted_.rows("s") == expected
    assert counted.to_stable_json() == sorted_.to_stable_json()
