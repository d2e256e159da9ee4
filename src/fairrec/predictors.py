"""Predicted preference scores over candidate items.

Two collaborative-filtering predictors produce a ScoreGraph: user-based
k-nearest neighbors (mean-centered cosine similarity, deviation-weighted
aggregation) and non-negative matrix factorization (multiplicative updates
on observed entries). All emitted scores are clamped to the 1-5 star range,
which keeps every weight strictly positive downstream.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import RATING_MAX, RATING_MIN, RatingsDataset, candidate_sets
from .errors import FactorizationError, InvalidInputError, check_field_types


@dataclass(frozen=True)
class KnnParams:
    """User-based KNN settings.

    n_neighbors bounds how many raters of an item are aggregated;
    min_overlap is the number of co-rated items two users need before
    their similarity counts.
    """

    n_neighbors: int = 40
    min_overlap: int = 1

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_neighbors < 1:
            raise InvalidInputError("n_neighbors must be >= 1")
        if self.min_overlap < 1:
            raise InvalidInputError("min_overlap must be >= 1")

    def tag(self) -> str:
        return f"knn(n_neighbors={self.n_neighbors},min_overlap={self.min_overlap})"


@dataclass(frozen=True)
class NmfParams:
    """Non-negative factorization settings; training runs a fixed epoch budget."""

    n_factors: int = 15
    n_epochs: int = 50
    init_seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_factors < 1:
            raise InvalidInputError("n_factors must be >= 1")
        if self.n_epochs < 0:
            raise InvalidInputError("n_epochs must be >= 0")
        if self.init_seed < 0:
            raise InvalidInputError("init_seed must be non-negative")

    def tag(self) -> str:
        return (
            f"nmf(n_factors={self.n_factors},n_epochs={self.n_epochs},"
            f"seed={self.init_seed})"
        )


@dataclass
class ScoreGraph:
    """Predicted stars for every (user, candidate item) pair.

    matrix is one dense (n_users, n_items) float64 array: a score in [1, 5]
    per candidate and NaN per rated item, so 8 * n_users * n_items bytes,
    the size of the prediction matrix both predictors build anyway. It is
    the graph's only score-sized array: n_candidates, cached on first use,
    holds one count per user, and no order of the items is cached (see
    reranking.rank_order). items yields each user's candidate ids,
    ascending; no pipeline path reads it, but the benchmark's scored-pairs
    count (bench/fairbench/layers.py::_count_pairs) iterates it. user_ids
    are the raw ids that error messages name, one per matrix row. A graph
    has at least one user. Immutable after construction.
    """

    matrix: np.ndarray
    user_ids: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.shape[0] == 0:
            raise InvalidInputError("a score graph needs at least one user")
        if len(self.user_ids) != self.matrix.shape[0]:
            raise InvalidInputError(f"{len(self.user_ids)} user ids for {self.matrix.shape[0]} score rows")

    @property
    def items(self) -> Iterator[np.ndarray]:
        return (np.flatnonzero(~np.isnan(row)) for row in self.matrix)

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_items(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def n_candidates(self) -> np.ndarray:
        return self.n_items - np.isnan(self.matrix).sum(axis=1)

    @classmethod
    def from_matrix(cls, scores: np.ndarray, dataset: RatingsDataset) -> "ScoreGraph":
        """Wrap a full prediction matrix in place: clamped to [1, 5], NaN at each rated cell."""
        np.clip(scores, RATING_MIN, RATING_MAX, out=scores)
        scores[dataset.users, dataset.items] = np.nan
        return cls(scores, dataset.user_ids)


def predict_knn(dataset: RatingsDataset, params: KnnParams = KnnParams()) -> ScoreGraph:
    """Score each user's candidates (unrated items) with user-based KNN.

    For a target (u, i) the n_neighbors raters of i most similar to u
    (mean-centered cosine; ties broken by ascending user id; pairs with
    fewer than min_overlap co-rated items are excluded) contribute their
    deviation from their own mean, weighted by similarity and normalized
    by the sum of absolute similarities. Candidates with no usable rater,
    or a zero similarity mass, fall back to the user's mean rating.
    """
    n, m = dataset.n_users, dataset.n_items
    rated_values, observed = dataset.dense_matrix()
    counts = observed.sum(axis=1)
    means = rated_values.sum(axis=1) / counts

    deviations = np.where(observed, rated_values - means[:, None], 0.0)
    norms = np.sqrt((deviations**2).sum(axis=1))
    safe_norms = np.where(norms > 0, norms, 1.0)
    sims = (deviations @ deviations.T) / np.outer(safe_norms, safe_norms)

    observed_f = observed.astype(np.float64)
    valid = observed_f @ observed_f.T >= params.min_overlap
    # each user's order of all users: descending similarity, invalid pairs
    # (keyed below -1) last, ties by ascending id; rank inverts it
    neighbours = np.argsort(-np.where(valid, sims, -2.0), axis=1, kind="stable")
    rank = np.empty(neighbours.shape, dtype=np.int32)  # n**2 memory keeps n far below 2**31
    rows = np.arange(n)[:, None]
    rank[rows, neighbours] = np.arange(n)
    sims[~valid] = 0.0
    sims_by_rank = sims[rows, neighbours].ravel()
    neighbours = neighbours.ravel()
    row_starts = rows * n

    by_item = np.lexsort((dataset.users, dataset.items))
    item_bounds = np.searchsorted(dataset.items[by_item], np.arange(m + 1))

    predictions = np.empty((n, m))
    nn = params.n_neighbors
    for i in range(m):
        raters = dataset.users[by_item[item_bounds[i] : item_bounds[i + 1]]]
        if raters.size <= nn:
            sim_block = sims[:, raters]
            numer = sim_block @ deviations[raters, i]
            denom = np.abs(sim_block).sum(axis=1)
        else:
            # ranks are unique, so the nn smallest, ascending, are exactly the
            # stable order's first nn; take keeps C order, and with it the
            # addition order of the row sums below
            top = np.partition(rank.take(raters, axis=1), nn - 1, axis=1)[:, :nn]
            flat = row_starts + np.sort(top, axis=1)
            sim_sel = sims_by_rank[flat]
            numer = (sim_sel * deviations[neighbours[flat], i]).sum(axis=1)
            denom = np.abs(sim_sel).sum(axis=1)
        safe = np.where(denom > 0, denom, 1.0)
        predictions[:, i] = np.where(denom > 0, means + numer / safe, means)

    return ScoreGraph.from_matrix(predictions, dataset)


def fit_nmf(
    dataset: RatingsDataset, params: NmfParams = NmfParams()
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Train nonnegative factors P (users) and Q (items) by multiplicative updates.

    Only observed entries enter the squared-error objective, and the loss is
    summed over them alone. Returns the factors and the loss history
    (initial loss plus one value per epoch); the loss is non-increasing
    across epochs. Raises FactorizationError if the factors stop being
    finite. Besides the dense ratings and their mask, the fit holds one
    matrix-sized buffer, observed * (P Q^T), rebuilt in place for each use.
    """
    target, observed = dataset.dense_matrix()  # target is 0 wherever observed is False

    rng = np.random.default_rng(params.init_seed)
    scale = np.sqrt(dataset.ratings.mean() / params.n_factors)
    p = rng.uniform(size=(dataset.n_users, params.n_factors)) * scale
    q = rng.uniform(size=(dataset.n_items, params.n_factors)) * scale

    eps = 1e-12
    fitted = np.empty(target.shape)
    rated = (dataset.users, dataset.items)

    def refit() -> None:
        np.matmul(p, q.T, out=fitted)
        np.multiply(fitted, observed, out=fitted)

    refit()
    losses = [float(((dataset.ratings - fitted[rated]) ** 2).sum())]  # observed cells alone
    for _ in range(params.n_epochs):
        p *= (target @ q) / (fitted @ q + eps)
        refit()
        q *= (target.T @ p) / (fitted.T @ p + eps)
        refit()
        loss = float(((dataset.ratings - fitted[rated]) ** 2).sum())
        if not np.isfinite(loss):
            raise FactorizationError("factorization diverged to non-finite values")
        losses.append(loss)
    _check_finite(p)
    _check_finite(q)
    return p, q, losses


def _check_finite(factors: np.ndarray) -> None:
    if not np.all(np.isfinite(factors)):
        raise FactorizationError("factorization produced non-finite factors")


def predict_nmf(dataset: RatingsDataset, params: NmfParams = NmfParams()) -> ScoreGraph:
    """Score each user's candidates (unrated items) with the trained factor model."""
    p, q, _ = fit_nmf(dataset, params)
    return ScoreGraph.from_matrix(p @ q.T, dataset)


def save_score_cache(graph: ScoreGraph, *, path: str | Path) -> None:
    """Write graph.matrix as one exact float64 ``.npy``; a rename makes the write all-or-nothing.

    path is keyword-only: the traced benchmark reads it from the call's keywords.
    """
    partial = Path(path).with_suffix(".partial.npy")
    np.save(partial, graph.matrix, allow_pickle=False)
    os.replace(partial, path)


def load_score_cache(path: str | Path, dataset: RatingsDataset) -> ScoreGraph:
    """Read a save_score_cache file and check its NaN cells against the dataset's rated ones."""
    try:
        with open(path, "rb") as handle:
            matrix = np.lib.format.read_array(handle, allow_pickle=False)
    except ValueError as exc:  # not .npy, truncated, empty, or an object array
        raise InvalidInputError(f"{path}: not a score cache file ({exc})") from None
    candidates = candidate_sets(dataset)
    shape = candidates.shape
    if matrix.dtype != np.float64 or matrix.shape != shape:
        raise InvalidInputError(f"{path}: holds {matrix.dtype} {matrix.shape}, not float64 {shape}")
    stale = (np.isnan(matrix) == candidates).any(axis=1)
    if stale.any():
        user = dataset.user_ids[np.argmax(stale)]
        raise InvalidInputError(f"{path}: cached items for user {user} do not match its candidates (stale cache?)")
    outside = matrix[(matrix < RATING_MIN) | (matrix > RATING_MAX)]
    if outside.size:
        raise InvalidInputError(f"{path}: cached score {outside[0]} outside [1, 5]")
    return ScoreGraph(matrix, dataset.user_ids)
