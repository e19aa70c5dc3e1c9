"""Command line entry points: run, list, validate.

Exit codes: 0 run passed, 1 a verdict failed, 2 configuration problem,
3 size guard refused the computation, 4 the run crashed on any other error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import LensLabError, ResolutionGuard, SizeGuard
from .experiments import (
    apply_overrides,
    config_from_mapping,
    list_experiments,
    load_config_file,
    run_experiment,
    validate_config,
)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_SIZE_GUARD = 3
EXIT_CRASH = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lens-lab",
        description="Finite-resolution coupling dynamics experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("config", help="flat key = value config file")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override any config key")

    lst = sub.add_parser("list", help="list the experiment registry")
    lst.add_argument("--json", action="store_true",
                     help="machine-readable registry listing")

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("config", help="flat key = value config file")
    val.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override any config key")
    return parser


def _load(path: str, overrides):
    mapping = apply_overrides(load_config_file(path), overrides)
    return config_from_mapping(mapping)


def _cmd_run(args) -> int:
    cfg = _load(args.config, args.overrides)
    report = run_experiment(cfg)
    print(f"experiment: {cfg.experiment}")
    if cfg.system:
        print(f"system: {cfg.system}")
    print(f"backend: {cfg.backend}")
    for name in sorted(report.verdicts):
        state = "pass" if report.verdicts[name] else "FAIL"
        print(f"verdict {name}: {state}")
    for name in sorted(report.scalars):
        print(f"scalar {name}: {report.scalars[name]}")
    if cfg.output_dir:
        print(f"report: {cfg.output_dir}/report.json")
    print(f"duration_seconds: {report.duration_seconds:.3f}")
    print(f"passed: {'true' if report.passed else 'false'}")
    return EXIT_PASS if report.passed else EXIT_VERDICT_FAIL


def _cmd_list(args) -> int:
    listing = list_experiments()
    if args.json:
        print(json.dumps(listing, sort_keys=True, indent=2))
        return EXIT_PASS
    for entry in listing:
        print(f"{entry['name']}: {entry['description']}")
        backends = ", ".join(entry["backends"])
        needs = [n for n in ("system", "seed") if entry[f"needs_{n}"]]
        extra = f"; needs {', '.join(needs)}" if needs else ""
        print(f"  backends: {backends}{extra}")
        for p in entry["parameters"]:
            req = "required" if p["required"] else (
                f"default {p['default']}" if p["default"] is not None else "optional")
            print(f"  param {p['name']} ({p['kind']}, {req}): {p['help']}")
        for series, schema in entry["csv"].items():
            print(f"  csv {series}.csv: {schema}")
    return EXIT_PASS


def _cmd_validate(args) -> int:
    cfg = _load(args.config, args.overrides)
    validate_config(cfg)
    print(f"ok: {cfg.experiment} on backend {cfg.backend}")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list(args)
        return _cmd_validate(args)
    except (SizeGuard, ResolutionGuard) as e:
        print(f"size guard: {e}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except LensLabError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as e:  # a crash must not read as a failed verdict
        message = " ".join(str(e).splitlines())
        print(f"error: {type(e).__name__}: {message}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
