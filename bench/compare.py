"""Compare recorded runs of a parent and a change (see bench/README.md).

    python3 bench/compare.py parent.jsonl change.jsonl --claim sweep_s --workload knn-greedy

Exits 0 when the claim (if any) is met and no other metric regressed or is
unresolved, 1 otherwise.
"""

import argparse
import sys
from pathlib import Path

from fairbench.compare import compare

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="JSON lines recorded on the parent")
    parser.add_argument("change", type=Path, help="JSON lines recorded on the change")
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    parser.add_argument("--workload", help="workload the claim is made on")
    args = parser.parse_args()
    if (args.claim is None) != (args.workload is None):
        parser.error("--claim and --workload go together")
    try:
        return compare(args.parent, args.change, BENCHMARK_JSON, args.claim, args.workload)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"compare: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
