"""Predicted preference scores over candidate items.

Two collaborative-filtering predictors produce a ScoreGraph: user-based
k-nearest neighbors (mean-centered cosine similarity, deviation-weighted
aggregation) and non-negative matrix factorization (multiplicative updates
on observed entries). All emitted scores are clamped to the 1-5 star range,
which keeps every weight strictly positive downstream.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import RATING_MAX, RATING_MIN, CandidateSets, RatingsDataset
from .errors import FactorizationError, InvalidInputError


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
        if self.n_factors < 1:
            raise InvalidInputError("n_factors must be >= 1")
        if self.n_epochs < 0:
            raise InvalidInputError("n_epochs must be >= 0")

    def tag(self) -> str:
        return (
            f"nmf(n_factors={self.n_factors},n_epochs={self.n_epochs},"
            f"seed={self.init_seed})"
        )


class _Rows(Sequence):
    """Per-user candidate ids, or their scores, of a score matrix, built on access."""

    def __init__(self, matrix: np.ndarray, scores: bool):
        self._matrix, self._scores = matrix, scores

    def __len__(self) -> int:
        return len(self._matrix)

    def __getitem__(self, user: int) -> np.ndarray:
        row = self._matrix[user]
        items = np.flatnonzero(~np.isnan(row))
        return row[items] if self._scores else items


@dataclass
class ScoreGraph:
    """Predicted stars for every (user, candidate item) pair.

    matrix is one dense (n_users, n_items) float64 array: a score in [1, 5]
    per candidate and NaN per rated item, so 8 * n_users * n_items bytes,
    the size of the prediction matrix both predictors build anyway. ranked,
    computed once on first use, lists each user's items by descending score,
    ties by ascending id, NaN last. ranked_users is its column-wise mirror:
    each item's users by descending score, ties by ascending user id, NaN
    last, shape (n_items, n_users). Only Greedy reads it, so it is built on
    Greedy's first call and costs 8 * n_items * n_users bytes. items[u]
    (candidate ids, ascending) and scores[u] (aligned with them) are
    per-user views derived on access, for callers off the hot paths.
    user_ids are the raw ids that error messages name. Immutable after
    construction.
    """

    matrix: np.ndarray
    user_ids: np.ndarray
    provenance: str = ""

    @property
    def items(self) -> Sequence[np.ndarray]:
        return _Rows(self.matrix, scores=False)

    @property
    def scores(self) -> Sequence[np.ndarray]:
        return _Rows(self.matrix, scores=True)

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_items(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def ranked(self) -> np.ndarray:
        return np.argsort(-self.matrix, axis=1, kind="stable")

    @cached_property
    def ranked_users(self) -> np.ndarray:
        return np.argsort(-self.matrix.T, axis=1, kind="stable")

    @cached_property
    def n_candidates(self) -> np.ndarray:
        return self.n_items - np.isnan(self.matrix).sum(axis=1)

    def lookup(self, user: int | np.ndarray, item_ids: np.ndarray) -> np.ndarray:
        """Scores of candidate items for one user, or per row for an (n, 1) user array."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if np.any((item_ids < 0) | (item_ids >= self.n_items)):  # numpy wraps negative ids
            raise InvalidInputError(f"item id outside [0, {self.n_items})")
        found = self.matrix[user, item_ids]
        if np.isnan(found).any():
            bad_user = np.broadcast_to(user, found.shape)[np.isnan(found)][0]
            raise InvalidInputError(f"item not in candidate set of user {self.user_ids[bad_user]}")
        return found

    @classmethod
    def from_matrix(cls, scores: np.ndarray, candidates: CandidateSets, user_ids: np.ndarray,
                    provenance: str = "") -> "ScoreGraph":
        """Wrap a full prediction matrix, clamped to [1, 5] and non-candidates NaN, in place."""
        np.clip(scores, RATING_MIN, RATING_MAX, out=scores)
        np.copyto(scores, np.nan, where=~candidates.mask)
        return cls(scores, user_ids, provenance)

    @classmethod
    def from_pairs(
        cls,
        pairs_per_user: Sequence[Sequence[tuple[int, float]]],
        n_items: int,
        provenance: str = "",
    ) -> "ScoreGraph":
        """Build from unordered (item, score) pairs; order of pairs is irrelevant."""
        matrix = np.full((len(pairs_per_user), n_items), np.nan)
        for u, pairs in enumerate(pairs_per_user):
            ids = np.asarray([p[0] for p in pairs], dtype=np.int64)
            if np.any((ids < 0) | (ids >= n_items)):
                raise InvalidInputError(f"user {u}: item id outside [0, {n_items})")
            matrix[u, ids] = [p[1] for p in pairs]
        if np.count_nonzero(~np.isnan(matrix)) < sum(map(len, pairs_per_user)):
            raise InvalidInputError("duplicate item within one user's pairs, or a NaN score")
        return cls(matrix, np.arange(len(matrix)), provenance)


def predict_knn(
    dataset: RatingsDataset, candidates: CandidateSets, params: KnnParams = KnnParams()
) -> ScoreGraph:
    """Score each user's candidates with user-based KNN.

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

    return ScoreGraph.from_matrix(predictions, candidates, dataset.user_ids, params.tag())


def fit_nmf(
    dataset: RatingsDataset, params: NmfParams = NmfParams()
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Train nonnegative factors P (users) and Q (items) by multiplicative updates.

    Only observed entries enter the squared-error objective. Returns the
    factors and the loss history (initial loss plus one value per epoch);
    the loss is non-increasing across epochs. Raises FactorizationError if
    the factors stop being finite.
    """
    rated_values, observed = dataset.dense_matrix()
    mask = observed.astype(np.float64)
    target = rated_values * mask

    rng = np.random.default_rng(params.init_seed)
    scale = np.sqrt(dataset.ratings.mean() / params.n_factors)
    p = rng.uniform(size=(dataset.n_users, params.n_factors)) * scale
    q = rng.uniform(size=(dataset.n_items, params.n_factors)) * scale

    eps = 1e-12
    fitted = mask * (p @ q.T)  # from the current p and q: the loss, then the next p update
    losses = [float(((target - fitted) ** 2).sum())]
    for _ in range(params.n_epochs):
        p *= (target @ q) / (fitted @ q + eps)
        q *= (target.T @ p) / ((mask * (p @ q.T)).T @ p + eps)
        fitted = mask * (p @ q.T)
        loss = float(((target - fitted) ** 2).sum())
        if not np.isfinite(loss):
            raise FactorizationError("factorization diverged to non-finite values")
        losses.append(loss)
    _check_finite(p)
    _check_finite(q)
    return p, q, losses


def _check_finite(factors: np.ndarray) -> None:
    if not np.all(np.isfinite(factors)):
        raise FactorizationError("factorization produced non-finite factors")


def predict_nmf(
    dataset: RatingsDataset, candidates: CandidateSets, params: NmfParams = NmfParams()
) -> ScoreGraph:
    """Score each user's candidates with the trained factor model."""
    p, q, _ = fit_nmf(dataset, params)
    return ScoreGraph.from_matrix(p @ q.T, candidates, dataset.user_ids, params.tag())


def save_score_cache(graph: ScoreGraph, dataset: RatingsDataset, path: str | Path) -> None:
    """Write graph.matrix as one exact float64 ``.npy``; a rename makes the write all-or-nothing."""
    partial = Path(path).with_suffix(".partial.npy")
    np.save(partial, graph.matrix, allow_pickle=False)
    os.replace(partial, path)


def load_score_cache(
    path: str | Path,
    dataset: RatingsDataset,
    candidates: CandidateSets,
    provenance: str = "cache",
) -> ScoreGraph:
    """Read a save_score_cache file and check it against the dataset and current candidates."""
    try:
        with open(path, "rb") as handle:
            matrix = np.lib.format.read_array(handle, allow_pickle=False)
    except ValueError as exc:  # not .npy, truncated, empty, or an object array
        raise InvalidInputError(f"{path}: not a score cache file ({exc})") from None
    shape = candidates.mask.shape
    if matrix.dtype != np.float64 or matrix.shape != shape:
        raise InvalidInputError(f"{path}: holds {matrix.dtype} {matrix.shape}, not float64 {shape}")
    stale = (np.isnan(matrix) == candidates.mask).any(axis=1)
    if stale.any():
        user = dataset.user_ids[np.argmax(stale)]
        raise InvalidInputError(f"{path}: cached items for user {user} do not match its candidates (stale cache?)")
    outside = matrix[(matrix < RATING_MIN) | (matrix > RATING_MAX)]
    if outside.size:
        raise InvalidInputError(f"{path}: cached score {outside[0]} outside [1, 5]")
    return ScoreGraph(matrix, dataset.user_ids, provenance)
