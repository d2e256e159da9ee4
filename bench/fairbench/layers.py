"""fairrec's layers as the traced run sees them, and the per-layer metrics.

Layers are the package modules. The traced run wraps each public function
below under every name a fairrec module looks it up by (for example
``fairrec.sweep.predict_knn`` and ``fairrec.predictors.fit_nmf``), so the
spans are recorded from outside the package. A function that no longer
exists, or is no longer called, shows as a missing span, not a failure.
"""

from __future__ import annotations

import os
import sys

from .spans import Span, Tracer, self_times
from .workloads import WORKLOADS

MODULES = ("dataset", "predictors", "reranking", "metrics", "sweep", "cli")

FUNCTIONS = (
    "dataset.load_ratings",
    "dataset.candidate_sets",
    "predictors.predict_knn",
    "predictors.predict_nmf",
    "predictors.fit_nmf",
    "predictors.save_score_cache",
    "predictors.load_score_cache",
    "reranking.top_k",
    "reranking.random_rerank",
    "reranking.greedy_rerank",
    "metrics.disparity_report",
    "metrics.satisfaction",
    "metrics.overlap_similarity",
    "metrics.write_results_csv",
    "metrics.write_per_user_csv",
    "sweep.emit_plot_data",
    "sweep.run_sweep",
    "cli.main",
)

# functions whose calls can raise the job's peak memory
RSS_FUNCTIONS = tuple(f for f in FUNCTIONS if f.startswith(("predictors.", "reranking.")))

# functions every workload calls
COMMON_FUNCTIONS = tuple(
    f for f in FUNCTIONS if all(f in w.expected for w in WORKLOADS.values())
)

# stages every workload runs, though through different functions: the
# predictor that scores the candidates, and the re-ranker
ROLES = {
    "predictors.predict": ("predictors.predict_knn", "predictors.predict_nmf"),
    "reranking.rerank": ("reranking.random_rerank", "reranking.greedy_rerank"),
}


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_ratings(counts, args, kwargs, dataset):
    _add(counts, "ratings", dataset.n_ratings)


def _count_pairs(counts, args, kwargs, graph):
    _add(counts, "predictors.pairs_scored", sum(len(items) for items in graph.items))


def _count_cache_bytes(counts, args, kwargs, _):
    path = args[2] if len(args) > 2 else kwargs["path"]
    _add(counts, "predictors.save_score_cache.bytes", os.path.getsize(path))


def _count_greedy(counts, args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["params"]
    _add(counts, "reranking.greedy_rerank.achieved", result.achieved_increase)
    _add(counts, "reranking.greedy_rerank.theta", params.theta)


HOOKS = {
    "dataset.load_ratings": _count_ratings,
    "predictors.predict_knn": _count_pairs,
    "predictors.predict_nmf": _count_pairs,
    "predictors.save_score_cache": _count_cache_bytes,
    "reranking.greedy_rerank": _count_greedy,
}


def install(job: str) -> Tracer:
    """Wrap every FUNCTIONS entry under each name fairrec's modules bind it to."""
    tracer = Tracer(job)
    loaded = [m for name, m in sorted(sys.modules.items())
              if name == "fairrec" or name.startswith("fairrec.")]
    for qualified in FUNCTIONS:
        module_name, attr = qualified.split(".")
        original = getattr(sys.modules.get(f"fairrec.{module_name}"), attr, None)
        if original is None:
            tracer.notes.append(f"{qualified}: not found, cannot be traced")
            continue
        wrapped = tracer.wrap(qualified, original, HOOKS.get(qualified),
                              rss=qualified in RSS_FUNCTIONS)
        for module in loaded:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    return tracer


def summarize(spans: list[Span], counts: dict) -> dict[str, float]:
    """Figures of one traced job: every function, fired or not, and every role."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name, members in {**{f: (f,) for f in FUNCTIONS}, **ROLES}.items():
        mine = [(s, t) for s, t in zip(spans, selfs) if s.name in members]
        out[f"{name}.busy_s"] = sum(s.end - s.start for s, _ in mine)
        out[f"{name}.self_s"] = sum(t for _, t in mine)
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.errors"] = sum(s.error for s, _ in mine)
        out[f"{name}.rss_rise_mb"] = sum(s.rss_rise_mb for s, _ in mine)
    for m in MODULES:
        out[f"{m}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.name.startswith(m + "."))
    out["trace.self_sum_s"] = sum(selfs)
    busy = out["dataset.load_ratings.busy_s"]
    out["dataset.load_ratings.ratings_per_s"] = counts.get("ratings", 0) / busy if busy else 0.0
    for key in ("predictors.pairs_scored", "predictors.save_score_cache.bytes",
                "reranking.greedy_rerank.achieved", "reranking.greedy_rerank.theta"):
        out[key] = counts.get(key, 0)
    theta = out["reranking.greedy_rerank.theta"]
    out["reranking.greedy_rerank.achieved_per_theta"] = (
        out["reranking.greedy_rerank.achieved"] / theta if theta else 0.0
    )
    return out


def _function_units(functions, rss: bool) -> dict[str, str]:
    units: dict[str, str] = {}
    for f in functions:
        units.update({f"{f}.busy_s": "s", f"{f}.self_s": "s", f"{f}.calls": "count"})
        if rss and f in RSS_FUNCTIONS:
            units[f"{f}.rss_rise_mb"] = "MB"
    return units


def reported_metrics() -> dict[str, str]:
    """The per-layer metrics in every traced run's JSON line, name -> unit.

    Only figures that every workload produces: the module self times, the
    functions all workloads call, and the predictor and re-ranker roles. The
    one RSS rise is the predictor's: the others stay 0 on some workload.
    """
    units = {f"{m}.self_s": "s" for m in MODULES}
    units.update(_function_units(COMMON_FUNCTIONS, rss=False))
    for role in ROLES:
        units.update({f"{role}.busy_s": "s", f"{role}.self_s": "s", f"{role}.calls": "count"})
    units.update({
        "predictors.predict.rss_rise_mb": "MB",
        "dataset.load_ratings.ratings_per_s": "1/s",
        "predictors.pairs_scored": "count",
        "trace.self_sum_s": "s",
        "trace.traced_sweep_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def workload_metrics(expected: frozenset[str]) -> dict[str, str]:
    """The per-function figures of one workload: those of the functions it calls."""
    units = _function_units((f for f in FUNCTIONS if f in expected), rss=True)
    if "predictors.save_score_cache" in expected:
        units["predictors.save_score_cache.bytes"] = "bytes"
    if "reranking.greedy_rerank" in expected:
        units.update({
            "reranking.greedy_rerank.achieved": "count",
            "reranking.greedy_rerank.theta": "count",
            "reranking.greedy_rerank.achieved_per_theta": "ratio",
        })
    return units
