"""Command-line experiment runner.

Each subcommand maps to one experiment kind; all of them read a JSON config
and write CSV (and, for heatmaps, SVG) outputs into the config's output
directory. Exit code 0 on success, 2 with a diagnostic line on contract
violations (bad configs, unreadable files) and numerical blow-ups (a
``RuntimeWarning`` or a diverged training update), 1 on unexpected errors.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace

from ._alloc import tune_malloc
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebmplan",
        description="run planning and online model-learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        cmd = sub.add_parser(kind, help=f"run a {kind} experiment")
        cmd.add_argument("--config", required=True, help="path to a JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="run only this seed (overrides the config's seed list)")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv: list[str] | None = None) -> int:
    tune_malloc()
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            config = ExperimentConfig.from_json(args.config)
            if config.kind != args.command:
                raise ValueError(
                    f"config kind {config.kind!r} does not match subcommand {args.command!r}"
                )
            # replace re-runs the load-time checks on the overridden fields
            seeds = config.seeds if args.seed is None else [args.seed]
            config = replace(config, seeds=seeds,
                             out_dir=config.out_dir if args.out is None else args.out)
            out_dir = run_experiment(config, quiet=args.quiet)
    except RuntimeWarning as exc:
        print(f"error: numerical blow-up: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"wrote results to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
