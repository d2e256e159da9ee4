"""Compare a parent and a change from two files of recorded runs.

Each file holds one JSON line per untraced run (``run.py --record``), made in
pairs on the same seeds, alternating which side runs first. The claimed
metric on the claimed workload must win at least nine tenths of the pairs
(ties count for neither side) and its medians must differ by more than the
parent's inter-quartile distance. Every other end-to-end metric and workload
must not be worse than the parent's median by more than the metric's bound
from BENCHMARK.json; where the runs spread wider than the bound the row is
unresolved, unless every change run beats every parent run. The share of
failed jobs may not grow. All runs must have measured for the same
``--seconds``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from . import stats

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced run records per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def claim_verdict(parent: list[float], change: list[float], better: str) -> tuple[str, str]:
    """'win' or 'not met' for the claimed metric on paired runs."""
    n = min(len(parent), len(change))
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    q1, p_med, q3 = stats.quartiles(parent)
    c_med = statistics.median(change)
    gain = p_med - c_med if better == "lower" else c_med - p_med
    detail = f"change won {wins} of {n} pairs; median gain {gain:.6g}, parent IQR {q3 - q1:.6g}"
    if n < MIN_PAIRS:
        return "not met", detail + f"; fewer than {MIN_PAIRS} pairs"
    if wins >= WIN_SHARE * n and gain > q3 - q1:
        return "win", detail
    return "not met", detail


def regression_verdict(parent: list[float], change: list[float], better: str,
                       bound: float) -> tuple[str, str]:
    """'ok', 'regression' or 'unresolved' under the metric's bound."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med if better == "lower" else p_med - c_med) / abs(p_med)
    width = max(stats.spread(parent), stats.spread(change))
    detail = f"change worse by {worse:+.2%} (bound {bound:.0%}); spread {width:.2%}"
    if all(_better(c, p, better) for c in change for p in parent):
        return "ok", detail + "; every change run beats every parent run"
    if width > bound:
        return "unresolved", detail
    if worse > bound:
        return "regression", detail
    return "ok", detail


def compare(parent_path: Path, change_path: Path, benchmark_json: Path,
            claim: str | None = None, claim_workload: str | None = None) -> int:
    spec = json.loads(Path(benchmark_json).read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if claim is not None and claim not in metrics:
        raise ValueError(f"unknown end-to-end metric {claim!r}")
    parent, change = load_runs(parent_path), load_runs(change_path)
    seconds = {r.get("seconds") for side in (parent, change)
               for runs in side.values() for r in runs}
    if len(seconds) != 1 or None in seconds:
        raise ValueError("runs must share one recorded --seconds value, found "
                         + ", ".join(sorted(map(str, seconds))))
    accepted = claim is None or claim_workload in parent
    if not accepted:
        print(f"claim not evaluated: no runs of workload {claim_workload!r}")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if [r["seed"] for r in p_runs] != [r["seed"] for r in c_runs]:
            print(f"{workload}: the two sides ran different seeds; runs must be paired")
            accepted = False
            continue
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        verdict = "regression" if c_fail > p_fail else "ok"
        accepted &= verdict == "ok"
        print(f"{workload:16} failed_share      parent {p_fail:.4f}  change {c_fail:.4f}  {verdict}")
        for name, m in metrics.items():
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            if name == claim and workload == claim_workload:
                verdict, detail = claim_verdict(p, c, m["better"])
                accepted &= verdict == "win"
                verdict = "claim " + verdict
            else:
                verdict, detail = regression_verdict(p, c, m["better"], m["bound"])
                accepted &= verdict == "ok"
            print(f"{workload:16} {name:17} parent {_quartile_text(p)}  "
                  f"change {_quartile_text(c)} {m['unit']}  {verdict}: {detail}")
    print("accepted" if accepted else "not accepted")
    return 0 if accepted else 1


def _quartile_text(values: list[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"
