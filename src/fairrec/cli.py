"""Command-line entry point: ``fairrec run --config sweep.cfg [overrides]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import FairrecError
from .sweep import build_config, parse_grid, parse_number, run_sweep


def _number(kind: type):
    def parse(text: str):
        return parse_number(text, kind)

    parse.__name__ = kind.__name__  # argparse names it: "invalid int value: '1_0'"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairrec",
        description="Recommendation diversity post-processing and user-disparity sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a sweep and write results.csv plus plot data")
    run.add_argument("--config", type=Path, help="key = value config file")
    run.add_argument("--data", type=Path, help="ratings file (user item rating timestamp)")
    run.add_argument("--predictor", choices=("knn", "nmf"))
    run.add_argument("--post", choices=("none", "random", "greedy"))
    run.add_argument("--k", type=_number(int), help="recommendation list size")
    run.add_argument("--ell", type=parse_grid, metavar="L1,L2,...", help="random pool sizes")
    run.add_argument("--theta", type=parse_grid, metavar="T1,T2,...", help="greedy diversity targets")
    run.add_argument("--threshold", type=_number(float), help="greedy score threshold in [1, 5]")
    run.add_argument("--seed", type=_number(int), help="global random seed")
    run.add_argument("--out", type=Path, help="output directory")
    run.add_argument("--cache", action="store_true", default=None,
                     help="reuse (or create) a score cache in the output directory")
    run.add_argument("--per-user", action="store_true", default=None,
                     help="also write per-user satisfaction/overlap files")
    run.add_argument("--svg", action="store_true", default=None,
                     help="also render scatter plots as SVG")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:  # a bad --ell or --theta grid raises InvalidInputError from parse_args
        settings = vars(_build_parser().parse_args(argv))  # flag dests are SweepConfig fields
        del settings["command"]
        cfg = build_config(settings.pop("config"), **settings)
        run_sweep(cfg)
    except FairrecError as exc:
        print(f"fairrec: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fairrec: i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
