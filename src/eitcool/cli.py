"""Command-line front end: run, validate and list the shipped scenarios.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import scenarios
from .operators import SolverError
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
    try:
        config = scenarios.load_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        for warning in scenarios.config_warnings(config):
            print(f"warning: {warning}")
        print(f"ok: scenario {config.scenario!r} validates clean")
        return EXIT_OK

    # run
    if args.output_dir:
        config.output_dir = Path(args.output_dir)
    if args.seed is not None:
        config.seed = args.seed
    try:
        manifest = scenarios.run(config)
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as err:
        print(f"output failure: {err}", file=sys.stderr)
        return EXIT_IO
    for name in sorted(manifest.outputs):
        print(f"wrote {config.output_dir / name}")
    print(f"manifest {config.output_dir / 'manifest.txt'} "
          f"({manifest.wall_time_s:.2f} s)")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
