"""Command-line entry point: ``fairrec run --config sweep.cfg [overrides]``."""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import FairrecError
from .sweep import POSTS, PREDICTORS, build_config, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairrec",
        description="Recommendation diversity post-processing and user-disparity sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a sweep and write results.csv plus plot data")
    # values stay text: build_config reads a flag exactly as it reads a config file value
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--data", help="ratings file (user item rating timestamp)")
    run.add_argument("--predictor", help=f"score predictor: {', '.join(PREDICTORS)}")
    run.add_argument("--post", help=f"post-processor: {', '.join(POSTS)}")
    run.add_argument("--k", help="recommendation list size")
    run.add_argument("--ell", metavar="L1,L2,...", help="random pool sizes")
    run.add_argument("--theta", metavar="T1,T2,...", help="greedy diversity targets")
    run.add_argument("--threshold", help="greedy score threshold in [1, 5]")
    run.add_argument("--seed", help="global random seed")
    run.add_argument("--out", help="output directory")
    run.add_argument("--cache", action="store_true", default=None,
                     help="reuse (or create) a score cache in the output directory")
    run.add_argument("--per-user", action="store_true", default=None,
                     help="also write per-user satisfaction/overlap files")
    run.add_argument("--svg", action="store_true", default=None,
                     help="also render scatter plots as SVG")
    # not a setting: absent unless given, so every dest parse_args returns by default is a config key
    run.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                     help="log the fit's and greedy's counters and each stage's time and peak RSS to stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    settings = vars(_build_parser().parse_args(argv))  # flag dests are SweepConfig fields
    del settings["command"]
    logger = logging.getLogger("fairrec")
    handler, level = logging.StreamHandler(), logger.level  # stderr
    if settings.pop("verbose", False):
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
    try:
        for report in run_sweep(build_config(settings.pop("config"), **settings)):
            print(report.summary())
    except FairrecError as exc:
        print(f"fairrec: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fairrec: i/o error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
