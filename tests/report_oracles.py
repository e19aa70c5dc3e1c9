"""The renderers written reports are checked against: json.dumps of the
whole document and one join per CSV row, as reports were rendered before
they streamed."""

import json
from pathlib import Path


def old_stable_json(report):
    """The renderer before reports streamed: json.dumps of the whole doc."""
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
            name: {"columns": list(cols), "rows": [list(r) for r in report.rows(name)]}
            for name, (cols, *_) in sorted(report.series.items())
        },
        "verdicts": report.verdicts,
        "passed": report.passed,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def old_csv(report, name):
    """The CSV before reports streamed: one join per row."""
    lines = [",".join(report.series[name][0])]
    lines.extend(",".join(r) for r in report.rows(name))
    return "\n".join(lines) + "\n"


def assert_written_as_the_oracles(report, out_dir):
    """out_dir holds report.json and one CSV per series, nothing else, each
    with the bytes the oracles give."""
    out = Path(out_dir)
    csvs = {f"{name}.csv": name for name in report.series}
    assert sorted(p.name for p in out.iterdir()) == sorted(["report.json", *csvs])
    assert (out / "report.json").read_bytes() == old_stable_json(report).encode()
    for file, name in csvs.items():
        assert (out / file).read_bytes() == old_csv(report, name).encode()
