"""Command-line front end: run, validate and list the shipped scenarios.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import scenarios
from .dynamics import SolverError
from .scenarios import SCENARIOS, ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eitcool",
        description="Simulator and analytics for gradient-coupled EIT cooling "
                    "of a cantilever with an NV center")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to the scenario config file")
    run_p.add_argument("--output-dir", help="override the config output_dir")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--rel-tol", type=float, help="override solver.rel_tol")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")

    sub.add_parser("list-scenarios", help="print the known scenario names")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            print(f"{name:22s} {SCENARIOS[name].description}")
        return EXIT_OK
    if args.command == "validate":
        try:
            config, warnings = scenarios.validate_config(args.config)
        except ConfigError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        for warning in warnings:
            print(f"warning: {warning}")
        print(f"ok: scenario {config.scenario!r} validates clean")
        return EXIT_OK

    # run
    try:
        config = scenarios.load_config(args.config)
        if args.output_dir:
            config.output_dir = Path(args.output_dir)
        if args.seed is not None:
            config.seed = args.seed
        if args.rel_tol is not None:
            if "solver" not in SCENARIOS[config.scenario].sections:
                raise ConfigError(f"--rel-tol: scenario {config.scenario!r} "
                                  "reads no solver section")
            # replace() re-runs the range checks of SolverSpec
            config.solver = dataclasses.replace(config.solver, rel_tol=args.rel_tol)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        manifest = scenarios.run(config)
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        _write_failure_manifest(config, str(err))
        return EXIT_SOLVER
    except OSError as err:
        print(f"output failure: {err}", file=sys.stderr)
        return EXIT_IO
    for name in sorted(manifest.outputs):
        print(f"wrote {config.output_dir / name}")
    print(f"manifest {config.output_dir / 'manifest.txt'} "
          f"({manifest.wall_time_s:.2f} s)")
    return EXIT_OK


def _write_failure_manifest(config, message):
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
        done = sorted(p.name for p in config.output_dir.glob("*.csv"))
        with open(config.output_dir / "manifest.txt", "w", newline="\n") as fh:
            fh.write(f"scenario = {config.scenario}\n")
            fh.write("status = solver-failure\n")
            fh.write(f"error = {message}\n")
            for name in done:
                fh.write(f"partial {name}\n")
    except OSError:
        pass


if __name__ == "__main__":
    raise SystemExit(main())
