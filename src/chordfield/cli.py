"""Command-line driver for the named experiments.

Usage:

    chordfield <experiment> [--config PATH] [--seed N] [--out DIR]
               [--override key=value ...]

Exit codes, one exception family each: 0 success, 1 invariant failure
(InvariantFailure), 2 usage or configuration error (DomainError), 3 numerical
divergence (DivergenceError). The default output directory comes from the
CHORDFIELD_OUT environment variable when set; the --out flag wins over it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import EXPERIMENTS, load_config
from .errors import DivergenceError, DomainError
from .experiments import (
    EXIT_DIVERGENCE,
    EXIT_INVARIANT,
    EXIT_USAGE,
    RUNNERS,
    InvariantFailure,
)


@functools.cache  # one per process: main is called once per repetition
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordfield",
        description="Chord control-field experiments on analytic mixture flows",
    )
    sub = parser.add_subparsers(dest="experiment", metavar="experiment")
    for name in EXPERIMENTS:
        child = sub.add_parser(name, help=f"run the {name} experiment")
        child.add_argument("--config", default=None, help="JSON config file")
        child.add_argument("--seed", type=int, default=None, help="master seed")
        child.add_argument("--out", default=None, help="output directory")
        child.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="key=value",
            help="dotted-path config override (JSON-parsed value); repeatable",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    out = args.out if args.out is not None else os.environ.get("CHORDFIELD_OUT")
    try:
        cfg = load_config(
            args.experiment,
            config_path=args.config,
            seed=args.seed,
            output_dir=out,
            overrides=args.override,
        )
        code = RUNNERS[args.experiment](cfg)
    except DomainError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantFailure as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return code


if __name__ == "__main__":
    sys.exit(main())
