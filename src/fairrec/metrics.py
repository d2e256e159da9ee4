"""User-level satisfaction and overlap, their Gini disparities, aggregate diversity.

Satisfaction compares the score mass a user's served list achieves against
their best possible top-k list; overlap counts how much of the served list
is still the true top-k. The Gini coefficient of either vector across users
summarizes how unevenly the post-processing burden is spread: ``gini`` of
satisfaction is D_S and ``gini`` of overlap is D_R, which a report keeps as
``score_disparity`` and ``recommendation_disparity``. Every
reader of a list set takes the score graph and checks the lists with
``reranking._list_scores``, so a fault in a row names the user's raw id.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .dataset import RatingsDataset
from .errors import InvalidInputError, reject_rows
from .predictors import ScoreGraph
from .reranking import _list_scores


def gini(values) -> float:
    """Gini coefficient of a non-negative population.

    Equals the mean absolute difference over all ordered pairs divided by
    twice the mean, computed via the sorted closed form in O(n log n):
    sum_i (2i - n - 1) x_(i) / (n sum x). An all-zero population is defined
    as perfectly equal (0). Range is [0, 1 - 1/n].
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError("gini requires a non-empty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("gini requires finite entries")
    if np.any(x < 0):
        raise InvalidInputError("gini requires non-negative entries")
    total = float(x.sum())
    if total == 0.0:
        return 0.0
    n = x.size
    ranks = 2.0 * np.arange(1, n + 1) - n - 1
    return max(0.0, float(ranks @ np.sort(x)) / (n * total))


def satisfaction(graph: ScoreGraph, recs: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Per-user ratio of served score mass to top-k score mass, in (0, 1].

    ``recs`` and ``top`` are list sets of one shape for the graph.
    """
    achieved, best = (scores.sum(axis=1) for scores in _list_scores(graph, recs, top))
    reject_rows(best <= 0.0, graph.user_ids,
                lambda user, _: f"top-k score mass for user {user} is not positive; scores must be clamped to [1, 5]")
    return achieved / best


def overlap_similarity(graph: ScoreGraph, recs: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Per-user |served intersect top-k| / k, a multiple of 1/k in [0, 1].

    ``recs`` and ``top`` are list sets of one shape for the graph.
    """
    _list_scores(graph, recs, top)
    common = (recs[:, :, None] == top[:, None, :]).any(axis=2).sum(axis=1)
    return common / recs.shape[1]


def aggregate_diversity(graph: ScoreGraph, recs: np.ndarray) -> float:
    """Fraction of the graph's catalog recommended to at least one user.

    ``recs`` is a list set for the graph.
    """
    _list_scores(graph, recs)  # every id lies in [0, n_items), so bincount counts each item once
    return np.count_nonzero(np.bincount(recs.ravel(), minlength=graph.n_items)) / graph.n_items


@dataclass
class DisparityReport:
    """All fairness measurements for one (predictor, post-processing) run."""

    predictor: str
    post: str  # none | random | greedy
    param: int  # ell or theta; 0 for the no-post-processing baseline
    k: int
    aggregate_diversity: float
    score_disparity: float
    recommendation_disparity: float
    satisfaction: np.ndarray
    overlap: np.ndarray
    achieved: int | None = None  # greedy only: distinct items actually added

    def csv_row(self) -> str:
        return (
            f"{self.predictor},{self.post},{self.param},{self.k},"
            f"{self.aggregate_diversity:.6f},{self.score_disparity:.6f},"
            f"{self.recommendation_disparity:.6f}"
        )

    def summary(self) -> str:
        line = (
            f"{self.predictor} {self.post} param={self.param} k={self.k}: "
            f"agg_div={as_percent(self.aggregate_diversity)} "
            f"D_S={as_percent(self.score_disparity)} "
            f"D_R={as_percent(self.recommendation_disparity)}"
        )
        if self.achieved is not None:
            line += f" achieved={self.achieved}/{self.param}"
        return line


def disparity_report(
    graph: ScoreGraph,
    recs: np.ndarray,
    top: np.ndarray,
    *,
    predictor: str,
    post: str,
    param: int,
    achieved: int | None = None,
) -> DisparityReport:
    """Measure one (n_users, k) list array against its top-k reference."""
    a = satisfaction(graph, recs, top)
    sim = overlap_similarity(graph, recs, top)
    return DisparityReport(
        predictor=predictor,
        post=post,
        param=param,
        k=recs.shape[1],
        aggregate_diversity=aggregate_diversity(graph, recs),
        score_disparity=gini(a),
        recommendation_disparity=gini(sim),
        satisfaction=a,
        overlap=sim,
        achieved=achieved,
    )


RESULTS_HEADER = "predictor,post,param,k,agg_div,d_s,d_r"


def write_results_csv(reports: Iterable[DisparityReport], destination: str | Path) -> None:
    """``RESULTS_HEADER``, then one row per report (ASCII, newlines untranslated)."""
    with open(destination, "w", encoding="ascii", newline="") as handle:
        handle.writelines([RESULTS_HEADER + "\n"] + [r.csv_row() + "\n" for r in reports])


def write_per_user_csv(report: DisparityReport, destination: str | Path, dataset: RatingsDataset) -> None:
    """Per-user breakdown as ``user,satisfaction,overlap``, one row per dataset user by raw id."""
    if {len(report.satisfaction), len(report.overlap)} != {dataset.n_users}:
        raise InvalidInputError(f"a report of {len(report.satisfaction)} users for a dataset of {dataset.n_users}")
    rows = zip(dataset.user_ids.tolist(), report.satisfaction.tolist(), report.overlap.tolist())
    with open(destination, "w", encoding="ascii", newline="") as handle:
        handle.writelines(["user,satisfaction,overlap\n"] + [f"{raw},{a:.6f},{sim:.6f}\n" for raw, a, sim in rows])


def as_percent(fraction: float) -> str:
    """Human-readable percentage at two decimals; internals keep full precision."""
    return f"{100.0 * fraction:.2f}%"
