"""Command-line entry point.

Subcommands: ``run`` (single scenario), ``sweep`` (the config's parameter
grid) and ``check`` (validate a config and print its digest).  The config
alone says what a run computes; a spectrum is ``run`` on a config with
``"analysis": "spectrum"``.  CSV goes to ``--out`` or stdout.  Exit codes:
0 success, 1 computation failure, 2 bad config or usage.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, load_config
from .errors import CapacityError, ConvergenceError
from .scenario import emit_csv, run_scenario, sweep


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mediahom",
        description="Collision-model dynamics of spin networks coupled to "
                    "ancilla baths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=False):
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel workers (default: 1)")

    add_common(sub.add_parser("run", help="run one scenario"))
    add_common(sub.add_parser("sweep", help="run the config's parameter sweep"),
               jobs=True)
    check = sub.add_parser("check", help="validate a config and exit")
    check.add_argument("--config", required=True, help="JSON scenario config")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "check":
            print(f"ok: {args.config} (digest {cfg.digest})")
            return 0
        if args.command == "run":
            table = run_scenario(cfg)
        else:
            table = sweep(cfg, jobs=args.jobs)
        emit_csv(table, sys.stdout if args.out is None else args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # ConfigError is a ValueError, so it must be caught first; any other
    # ValueError or LinAlgError is a numerical failure of the computation
    except (ConvergenceError, CapacityError, OSError, ValueError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
