"""Benchmark workloads and the seeded ratings generator they run on.

Real MovieLens 100K data is not shipped with the repository, so every
workload runs on synthetic ratings shaped like it. The generator draws from
the same model, in the same random-stream order, as
``tests/conftest.py::synthetic_triples``: popularity-skewed items, per-item
quality and per-user bias, integer stars 1-5, every item rated at least once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Shape:
    n_users: int
    n_items: int
    min_per_user: int
    max_per_user: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    # one fairrec config per ``fairrec run`` invocation; all share one output dir
    calls: tuple[dict[str, str], ...]
    # traced functions that must fire at least once per job
    expected: frozenset[str]


ML100K = Shape(n_users=943, n_items=1682, min_per_user=20, max_per_user=192)
WIDE = Shape(n_users=2800, n_items=2500, min_per_user=20, max_per_user=230)

_ALWAYS = frozenset({
    "dataset.load_ratings", "dataset.candidate_sets", "reranking.top_k",
    "metrics.disparity_report", "metrics.satisfaction", "metrics.overlap_similarity",
    "metrics.write_results_csv", "sweep.emit_plot_data", "sweep.run_sweep", "cli.main",
})

_GREEDY = {"post": "greedy", "k": "5", "threshold": "3.5", "seed": "0"}
_NMF = {"predictor": "nmf", "nmf_epochs": "20"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="knn-greedy",
            why="the paper's main experiment at ML-100K shape: user-KNN fit then greedy "
                "re-ranking over five theta values; the KNN hot path",
            shape=ML100K,
            calls=({"predictor": "knn", **_GREEDY, "theta": "10,100,200,500,1000"},),
            expected=_ALWAYS | {"predictors.predict_knn", "reranking.greedy_rerank"},
        ),
        Workload(
            name="nmf-random-wide",
            why="3x ML-100K shape with NMF, Random over seven l values and per-user files: "
                "per-user ScoreGraph loops dominate and KNN never runs",
            shape=WIDE,
            calls=({**_NMF, "post": "random", "k": "5", "seed": "0",
                    "ell": "10,20,50,100,200,500,1000", "per_user": "true"},),
            expected=_ALWAYS | {"predictors.predict_nmf", "predictors.fit_nmf",
                                "reranking.random_rerank", "metrics.write_per_user_csv"},
        ),
        Workload(
            name="cache-resweep",
            why="two --cache greedy runs sharing one output dir: the first fits and writes "
                "the NMF score cache, the second only reads it",
            shape=ML100K,
            calls=(
                {**_NMF, **_GREEDY, "cache": "true", "theta": "10,100,200,500,1000"},
                {**_NMF, **_GREEDY, "cache": "true",
                 "theta": ",".join(str(t) for t in range(100, 1001, 100))},
            ),
            expected=_ALWAYS | {"predictors.predict_nmf", "predictors.fit_nmf",
                                "predictors.save_score_cache", "predictors.load_score_cache",
                                "reranking.greedy_rerank"},
        ),
    )
}


def synthetic_triples(shape: Shape, seed: int) -> np.ndarray:
    """(n_ratings, 3) int64 array of 1-based ``user, item, stars`` rows.

    Draws the same values as ``tests/conftest.py::synthetic_triples`` with
    the same arguments, vectorised per user.
    """
    n_users, n_items = shape.n_users, shape.n_items
    rng = np.random.default_rng(seed)
    quality = rng.normal(3.6, 0.6, n_items)
    bias = rng.normal(0.0, 0.5, n_users)
    weights = 1.0 / np.arange(1, n_items + 1) ** 0.8
    weights = weights[rng.permutation(n_items)]
    weights /= weights.sum()

    blocks = []
    for u in range(n_users):
        count = int(rng.integers(shape.min_per_user, shape.max_per_user + 1))
        items = rng.choice(n_items, size=count, replace=False, p=weights)
        noise = rng.normal(0, 0.7, count)
        stars = np.clip(np.round(quality[items] + bias[u] + noise), 1, 5)
        blocks.append(np.column_stack([np.full(count, u + 1), items + 1, stars]).astype(np.int64))
    triples = np.concatenate(blocks)

    seen = set(zip(triples[:, 0].tolist(), triples[:, 1].tolist()))
    covered = set(triples[:, 1].tolist())
    extra = []
    for i in range(1, n_items + 1):
        if i in covered:
            continue
        u = int(rng.integers(1, n_users + 1))
        while (u, i) in seen:
            u = u % n_users + 1
        stars = int(np.clip(round(quality[i - 1] + rng.normal(0, 0.7)), 1, 5))
        extra.append((u, i, stars))
        seen.add((u, i))
    if extra:
        triples = np.concatenate([triples, np.asarray(extra, dtype=np.int64)])
    return triples


def write_ratings_file(triples: np.ndarray, path: Path) -> str:
    """Write ``user<TAB>item<TAB>stars<TAB>0`` lines; return the file's SHA-256."""
    text = "".join(f"{u}\t{i}\t{r}\t0\n" for u, i, r in triples.tolist())
    data = text.encode("ascii")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
