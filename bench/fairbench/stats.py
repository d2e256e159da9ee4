"""Summary statistics the benchmark reports and compares."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[int, float] | None:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Nearest-rank percentile P is the ceil(P/100 * n)-th smallest sample, so
    P qualifies when n - ceil(P * n / 100) >= beyond. Returns (P, value), or
    None when no percentile above the median qualifies.
    """
    n = len(values)
    if n <= beyond:
        return None
    pct = (100 * (n - beyond)) // n
    if pct <= 50:
        return None
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def describe(values: list[float], unit: str) -> str:
    """One line: median, quartiles, sample count and the tail percentile."""
    q1, med, q3 = quartiles(values)
    line = f"median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
    found = tail(values)
    if found is None:
        return line + f"  (no percentile above the median has {TAIL_BEYOND} samples beyond it)"
    pct, value = found
    return line + f"  p{pct} {value:.6g} {unit}"
