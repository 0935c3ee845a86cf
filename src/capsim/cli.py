"""Command-line harness: run and validate scenario configs.

Exit codes: 0 success, 2 schema violation, 3 numeric failure in one or
more grid points, 4 I/O error.  `validate` is report-only and always
exits 0.  Configs may be file paths or the name of a bundled recipe
(see list-recipes).
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from importlib import resources

from .config import parse_config, sanity_warnings, validate_raw
from .experiments import EXPERIMENTS

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _recipe_names():
    root = resources.files("capsim").joinpath("recipes")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _resolve_config(name_or_path):
    """Load a config from a path, or fall back to a bundled recipe name."""
    try:
        with open(name_or_path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        root = resources.files("capsim").joinpath("recipes")
        candidate = root.joinpath(name_or_path + ".json")
        if candidate.is_file():
            return json.loads(candidate.read_text())
        raise


def cmd_run(args):
    from .runner import run_sweep, write_outputs  # numpy: only a run pays for it

    try:
        raw = _resolve_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.seed is not None and isinstance(raw, dict):  # checked like the config's own seed
        raw = dict(raw, seed=args.seed)
    errors = validate_raw(raw)
    if errors:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    config = parse_config(raw)
    if args.out is not None:
        config = dataclasses.replace(config, output_path=os.path.join(
            args.out, os.path.basename(config.output_path)))
    for w in sanity_warnings(config):
        print(f"warning: {w}", file=sys.stderr)
    try:  # the sweep may write side files into the output directory
        os.makedirs(os.path.dirname(config.output_path) or ".", exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO
    start = time.perf_counter()
    lines, columns, n_failures = run_sweep(config, workers=args.workers)
    try:
        path = write_outputs(config, lines, columns, n_failures, time.perf_counter() - start)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(lines)} rows to {path}"
          + (f" ({n_failures} failed points)" if n_failures else ""))
    return EXIT_NUMERIC if n_failures else EXIT_OK


def cmd_validate(args):
    report = {"status": "valid", "errors": [], "warnings": []}
    try:
        raw = _resolve_config(args.config)
    except OSError as exc:
        report["status"] = "invalid"
        report["errors"].append(f"cannot read config: {exc}")
    else:
        report["errors"] = validate_raw(raw)
        if report["errors"]:
            report["status"] = "invalid"
        else:
            report["warnings"] = sanity_warnings(parse_config(raw))
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_list_experiments(args):
    for name in sorted(EXPERIMENTS):
        print(name)
    return EXIT_OK


def cmd_list_recipes(args):
    for name in _recipe_names():
        print(name)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="caps-sim",
        description="Scenario runner for passive-interconnect performance models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="config path or bundled recipe name")
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (output is identical "
                            "for any worker count)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="schema and sanity report (no run)")
    p_val.add_argument("config", help="config path or bundled recipe name")
    p_val.set_defaults(fn=cmd_validate)

    p_list = sub.add_parser("list-experiments", help="print experiment names")
    p_list.set_defaults(fn=cmd_list_experiments)

    p_rec = sub.add_parser("list-recipes", help="print bundled recipe names")
    p_rec.set_defaults(fn=cmd_list_recipes)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
