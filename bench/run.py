"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 bench/run.py --workload knn-greedy --seed 1 --seconds 35 --trace 0

See bench/README.md for the workloads, the metrics and the compare command.
"""

import argparse
import json
import sys
from pathlib import Path

from fairbench.harness import HarnessError, run
from fairbench.workloads import DEFAULT_SEED, WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="how long to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="also append the result as one JSON line to this file")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), args.record)
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
