"""Predicted preference scores over candidate items.

Two collaborative-filtering predictors produce a ScoreGraph: user-based
k-nearest neighbors (mean-centered cosine similarity, deviation-weighted
aggregation) and non-negative matrix factorization (multiplicative updates
on observed entries). All emitted scores are clamped to the 1-5 star range,
which keeps every weight strictly positive downstream.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import RatingsDataset, candidate_sets
from .errors import (RATING_MAX, RATING_MIN, FactorizationError, InvalidInputError, NonNegativeInt, PositiveInt,
                     check_field_types, reject_rows)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KnnParams:
    """User-based KNN settings.

    n_neighbors bounds how many raters of an item are aggregated;
    min_overlap is the number of co-rated items two users need before
    their similarity counts. Both are integers >= 1; each field's
    annotation gives its type and range, checked when the params are built.
    """

    n_neighbors: PositiveInt = 40
    min_overlap: PositiveInt = 1

    def __post_init__(self) -> None:
        check_field_types(self)


@dataclass(frozen=True)
class NmfParams:
    """Non-negative factorization settings; training runs a fixed epoch budget.

    n_factors is an integer >= 1, n_epochs and seed integers >= 0 (numpy
    seeds no generator from a negative one); each field's annotation gives
    its type and range, checked when the params are built.
    """

    n_factors: PositiveInt = 15
    n_epochs: NonNegativeInt = 50
    seed: NonNegativeInt = 0

    def __post_init__(self) -> None:
        check_field_types(self)


@dataclass(frozen=True)
class ScoreGraph:
    """Predicted stars for every (user, candidate item) pair.

    matrix is one dense (n_users, n_items) float64 array: a score in [1, 5]
    per candidate and NaN per rated item, so 8 * n_users * n_items bytes,
    the size of the prediction matrix both predictors build anyway. It is
    the graph's only score-sized array: n_candidates, cached on first use,
    holds one count per user, and no order of the items is cached (see
    reranking.top_k). items yields each user's candidate ids,
    ascending; no pipeline path reads it, but the benchmark's scored-pairs
    count (bench/fairbench/layers.py::_count_pairs) iterates it. user_ids
    are the raw ids that error messages name, one per matrix row. A graph
    has at least one user. Immutable after construction.
    """

    matrix: np.ndarray
    user_ids: np.ndarray

    def __post_init__(self) -> None:
        array = isinstance(self.matrix, np.ndarray)
        if not (array and self.matrix.ndim == 2 and self.matrix.dtype == np.float64):
            got = f"{self.matrix.dtype} of shape {self.matrix.shape}" if array else type(self.matrix).__name__
            raise InvalidInputError(f"a score graph's matrix must be a 2-D float64 array, got {got}")
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
        """Wrap a full prediction matrix in place: clamped to [1, 5], NaN at each rated cell.

        The candidate scores raised to 1 and lowered to 5 are counted and
        logged at DEBUG on this module's logger, once per fit.
        """
        scores[dataset.users, dataset.items] = np.nan  # NaN compares false: rated cells are not counted
        raised = np.count_nonzero(scores < RATING_MIN)
        lowered = np.count_nonzero(scores > RATING_MAX)
        np.clip(scores, RATING_MIN, RATING_MAX, out=scores)
        logger.debug(
            "score graph: %d of %d candidate scores raised to 1, %d lowered to 5",
            raised, scores.size - dataset.n_ratings, lowered,
        )
        return cls(scores, dataset.user_ids)


# rows per block of the fit's products. The last block of an axis takes the
# remainder, so no block is shorter unless the whole axis is: OpenBLAS sends a
# short product down its small-matrix path, which adds in another order
_BLOCK_ROWS = 384


def _workers(tasks: int) -> int:
    """One thread per CPU this process may run on, and no more threads than tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


def _blocks(n: int) -> list[slice]:
    """0..n in _BLOCK_ROWS-row slices, the last one taking the remainder."""
    count = max(1, n // _BLOCK_ROWS)
    bounds = [b * _BLOCK_ROWS for b in range(count)] + [n]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


# cells per row block of the passes that read a score-sized array a block of rows
# at a time (predict_knn's steps before its item loop, reranking's ordered
# blocks): a block's temporaries stay a few hundred KiB on each thread
_BLOCK_CELLS = 1 << 15


def _row_blocks(n_rows: int, width: int) -> list[slice]:
    """0..n_rows in slices of _BLOCK_CELLS // width rows (at least one), the last one possibly shorter."""
    step = max(1, _BLOCK_CELLS // width)
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def _index_dtype(n: int) -> type[np.signedinteger]:
    """int16 while it holds every id and rank of n users, else int32: n**2 memory keeps n far below 2**31."""
    return np.int16 if n <= 1 << 15 else np.int32


def predict_knn(dataset: RatingsDataset, params: KnnParams = KnnParams()) -> ScoreGraph:
    """Score each user's candidates (unrated items) with user-based KNN.

    For a target (u, i) the n_neighbors raters of i most similar to u
    (mean-centered cosine; ties broken by ascending user id; pairs with
    fewer than min_overlap co-rated items are excluded) contribute their
    deviation from their own mean, weighted by similarity and normalized
    by the sum of absolute similarities. Candidates with no usable rater,
    or a zero similarity mass, fall back to the user's mean rating; their
    count is logged at DEBUG.

    Besides the ratings and their mask, the fit holds the similarities
    (float64), each user's order of all users and its inverse, the ranks
    (both int16 up to 32,768 users, else int32), and until the item loop
    one bool per user pair; all of these go before the scores are clamped.
    That bool comes from one whole float32 product of the mask, whose
    counts are exact in any order; the counts and the mask's float32 copy
    are freed before the similarity product. The centring, the norms and
    the order run in blocks of user rows, so their temporaries stay small,
    and the similarity product runs whole. Row blocks, then items, run on
    one thread per CPU this process may run on. Each row and each item
    column is written by one thread with the same operations in the same
    order, so the scores do not depend on the thread count.
    """
    # imported here: runs that never score with KNN skip its start-up cost
    from concurrent.futures import ThreadPoolExecutor

    n, m = dataset.n_users, dataset.n_items
    # one score-sized array: the ratings, centred in place, then the scores
    deviations, observed = dataset.dense_matrix()
    counts = observed.sum(axis=1)
    means = deviations.sum(axis=1) / counts
    blocks = _row_blocks(n, max(n, m))
    index = _index_dtype(n)
    workers = _workers(max(len(blocks), m))
    logger.debug(
        "predict_knn order: %d user blocks of at most %d rows, %s ids, on %d threads",
        len(blocks), blocks[0].stop, np.dtype(index).name, workers,
    )

    # float32 adds the integer overlap counts exactly in any order; no count
    # exceeds m, so a larger min_overlap is read as m + 1, which float32 holds
    observed_f = observed.astype(np.float32)
    floor = min(params.min_overlap, m + 1)
    # one whole product, before the similarities exist, so its float32 counts never stack on them
    thin = observed_f @ observed_f.T < floor  # pairs below min_overlap
    del observed_f
    norms = np.empty(n)

    def centre(r: slice) -> None:
        block = deviations[r]
        block -= means[r, None]
        block[~observed[r]] = 0.0
        norms[r] = np.sqrt((block**2).sum(axis=1))

    def order(r: slice) -> None:
        block = sims[r]
        block /= np.outer(safe_norms[r], safe_norms)
        # -2.0 lies under every cosine, so thin pairs sort last until reset to 0
        np.copyto(block, -2.0, where=thin[r])
        neighbours[r] = np.argsort(-block, axis=1, kind="stable")
        np.put_along_axis(rank[r], neighbours[r], np.arange(n), axis=1)
        np.copyto(block, 0.0, where=thin[r])

    nn = params.n_neighbors
    row_starts = np.arange(n)[:, None] * n  # int64, as is all flat index arithmetic below

    def score(items: range) -> int:
        fallbacks = 0
        for i in items:
            raters = np.flatnonzero(observed[:, i])  # ascending user ids
            if raters.size <= nn:
                sim_block = sims[:, raters]
                numer = sim_block @ deviations[raters, i]
                denom = np.abs(sim_block).sum(axis=1)
            else:
                # ranks are unique, so the nn smallest, ascending, are exactly the
                # stable order's first nn; take and sort keep C order, and with it
                # the addition order of the row sums below. The sorted copy lets
                # the (n_users, raters) ranks go at once
                top = rank.take(raters, axis=1)
                top.partition(nn - 1, axis=1)
                top = np.sort(top[:, :nn], axis=1)
                chosen = neighbours.ravel()[row_starts + top]
                sim_sel = sims.ravel()[row_starts + chosen]
                numer = (sim_sel * deviations[chosen, i]).sum(axis=1)
                denom = np.abs(sim_sel).sum(axis=1)
            fallen = denom == 0
            safe = np.where(fallen, 1.0, denom)
            # column i's deviations were all read above; only this thread touches it
            deviations[:, i] = np.where(fallen, means, means + numer / safe)
            fallbacks += np.count_nonzero(fallen) - np.count_nonzero(fallen[raters])  # candidates only
        return fallbacks

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # consuming every result re-raises a worker's exception here
        list(pool.map(centre, blocks))
        safe_norms = np.where(norms > 0, norms, 1.0)
        # whole: numpy sends a @ a.T to SYRK, whose bits a row block could move
        sims = deviations @ deviations.T
        # each user's order of all users: descending similarity, thin pairs last,
        # ties by ascending id; rank inverts it
        neighbours = np.empty((n, n), dtype=index)
        rank = np.empty_like(neighbours)
        list(pool.map(order, blocks))
        del thin
        # items by stride balance the load, since popularity is not ordered by id
        fallbacks = sum(pool.map(score, [range(w, m, workers) for w in range(workers)]))
    del sims, neighbours, rank  # so the clamp's bool temporaries do not stack on the n_users**2 arrays
    logger.debug(
        "predict_knn: %d of %d candidate scores fell back to the user mean",
        fallbacks, n * m - dataset.n_ratings,
    )
    return ScoreGraph.from_matrix(deviations, dataset)


def fit_nmf(
    dataset: RatingsDataset, params: NmfParams = NmfParams()
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Train nonnegative factors P (users) and Q (items) by multiplicative updates.

    Only observed entries enter the squared-error objective, and the loss is
    summed over them alone. Returns the factors and the loss history
    (initial loss plus one value per epoch); the loss is non-increasing
    across epochs. Raises FactorizationError if the factors stop being
    finite. The fit holds the observed mask and one matrix-sized float64
    buffer, 9 * n_users * n_items bytes, and no dense copy of the ratings.
    The buffer is refitted in place to observed * (P Q^T), which is 0 off
    the observed cells, so writing the ratings into it makes the target.

    Each product runs in fixed blocks of _BLOCK_ROWS users (the refit and
    the products with Q) or items (the products with P), on one thread per
    CPU this process may run on. A block is written by one thread with the
    same operations whatever the thread count, so the factors and losses
    depend on the block size and the BLAS build and setting, never on the
    number of CPUs.
    """
    # imported here: runs that never fit NMF skip its start-up cost
    from concurrent.futures import ThreadPoolExecutor

    observed = ~candidate_sets(dataset)
    rated = (dataset.users, dataset.items)

    rng = np.random.default_rng(params.seed)
    scale = np.sqrt(dataset.ratings.mean() / params.n_factors)
    p = rng.uniform(size=(dataset.n_users, params.n_factors)) * scale
    q = rng.uniform(size=(dataset.n_items, params.n_factors)) * scale

    eps = 1e-12
    buffer = np.empty(observed.shape)
    fitted_q, target_q = np.empty_like(p), np.empty_like(p)
    fitted_p, target_p = np.empty_like(q), np.empty_like(q)
    users, items = _blocks(dataset.n_users), _blocks(dataset.n_items)
    workers = _workers(max(len(users), len(items)))
    logger.debug(
        "fit_nmf: %d user blocks and %d item blocks of at least %d rows on %d threads",
        len(users), len(items), min(_BLOCK_ROWS, dataset.n_users, dataset.n_items), workers,
    )

    def refit(r: slice) -> None:
        np.matmul(p[r], q.T, out=buffer[r])
        np.multiply(buffer[r], observed[r], out=buffer[r])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        def each(task, blocks: list[slice]) -> None:
            list(pool.map(task, blocks))  # consuming every result re-raises a worker's exception here

        def times_q(out: np.ndarray) -> np.ndarray:  # buffer @ q
            each(lambda r: np.matmul(buffer[r], q, out=out[r]), users)
            return out

        def times_p(out: np.ndarray) -> np.ndarray:  # buffer.T @ p, read through strided views
            each(lambda c: np.matmul(buffer[:, c].T, p, out=out[c]), items)
            return out

        each(refit, users)
        losses = [float(((dataset.ratings - buffer[rated]) ** 2).sum())]  # observed cells alone
        for _ in range(params.n_epochs):
            times_q(fitted_q)
            buffer[rated] = dataset.ratings  # now the target: the ratings, 0 elsewhere
            p *= times_q(target_q) / (fitted_q + eps)
            times_p(target_p)
            each(refit, users)
            q *= target_p / (times_p(fitted_p) + eps)
            each(refit, users)
            loss = float(((dataset.ratings - buffer[rated]) ** 2).sum())
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
    """Score each user's candidates (unrated items) with the trained factor model.

    The fit's first and last loss are logged at DEBUG on this module's logger.
    """
    p, q, losses = fit_nmf(dataset, params)
    logger.debug(
        "predict_nmf: squared-error loss %.6f before the fit, %.6f after %d epochs",
        losses[0], losses[-1], len(losses) - 1,
    )
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
    reject_rows(stale, dataset.user_ids,
                lambda user, _: f"{path}: cached items for user {user} do not match its candidates (stale cache?)")
    outside = matrix[(matrix < RATING_MIN) | (matrix > RATING_MAX)]
    if outside.size:
        raise InvalidInputError(f"{path}: cached score {outside[0]} outside [1, 5]")
    return ScoreGraph(matrix, dataset.user_ids)
