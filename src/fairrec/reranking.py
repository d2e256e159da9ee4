"""Top-k list construction and the two diversity post-processors.

A list set is one ``(n_users, k)`` int64 array of dense item ids, row u
holding user u's k distinct candidates; k is always its second dimension.
Each row is ordered by descending score with ties broken by ascending item
id. Top-k selects each row only to depth k and puts those k items in that
order; it equals the first k columns of ``ScoreGraph.ranked``, the full
order (one stable row-wise sort of the score matrix), which only Random
reads, computed on its first call and shared by every l.
Random draws k items uniformly from each user's top-l list using a per-user
substream of the global seed, so results do not depend on evaluation order;
sorting the drawn rank positions puts them back in list order. Greedy
introduces not-yet-recommended items with a score above a threshold, one at
a time in globally descending score order, each replacing the victim user's
lowest-ranked recommendation that at least one other user still receives;
the recommended-item pool therefore never shrinks and grows by exactly the
achieved increase. Greedy walks its moves as a heap merge of each unpooled
item's users in descending score order (``ScoreGraph.ranked_users``, one
stable column-wise sort, built on Greedy's first call and shared by every
theta and threshold). It tries the moves of one fully sorted move list in
that list's order, leaving out only those whose item is already introduced.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .dataset import RATING_MAX, RATING_MIN
from .errors import CandidateShortfallError, InvalidInputError
from .predictors import ScoreGraph


@dataclass(frozen=True)
class RandomParams:
    ell: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise InvalidInputError("ell must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")


@dataclass(frozen=True)
class GreedyParams:
    theta: int
    threshold: float = 3.5

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise InvalidInputError("theta must be >= 0")
        if not RATING_MIN <= self.threshold <= RATING_MAX:
            raise InvalidInputError("threshold must lie in [1, 5]")


@dataclass
class GreedyRerankResult:
    recommendations: np.ndarray  # (n_users, k) dense item ids
    achieved_increase: int


def _require_candidates(graph: ScoreGraph, k: int) -> None:
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if np.any(graph.n_candidates < k):
        u = np.argmax(graph.n_candidates < k)  # the first such user
        raise CandidateShortfallError(
            f"user {graph.user_ids[u]} has only {graph.n_candidates[u]} candidates, needs k={k}"
        )


def top_k(graph: ScoreGraph, k: int) -> np.ndarray:
    """The k highest-scored candidates per user, as an (n_users, k) array in list order.

    Selects only to depth k: each row is partitioned to its k-th highest
    score, and the items scored above it plus the lowest-id items tied at
    it are put in list order by a stable sort of those k columns. The
    result equals the first k columns of ``graph.ranked``, which is not
    built.
    """
    _require_candidates(graph, k)
    matrix = graph.matrix
    negated = -matrix  # NaN, the rated items, partitions last
    negated.partition(k - 1, axis=1)
    kth = -negated[:, k - 1 : k]
    del negated  # a matrix-sized copy: free it before the masks
    chosen = matrix > kth
    tied = matrix == kth
    spare = k - chosen.sum(axis=1)  # >= 1: the k-th score itself is tied
    tied &= np.cumsum(tied, axis=1, dtype=np.int32) <= spare[:, None]  # lowest-id ties
    chosen |= tied
    items = np.nonzero(chosen)[1].reshape(graph.n_users, k)  # ascending id per row
    order = np.argsort(-np.take_along_axis(matrix, items, axis=1), axis=1, kind="stable")
    return np.take_along_axis(items, order, axis=1)


def random_rerank(graph: ScoreGraph, params: RandomParams, k: int) -> np.ndarray:
    """Sample k items uniformly without replacement from each user's top-l.

    Returns an (n_users, k) array, each row in list order.

    l is truncated to the candidate count for users with fewer than l
    candidates. The draw for user u comes from the (seed, u) substream, so
    it is reproducible and independent of other users.
    """
    if params.ell < k:
        raise InvalidInputError(f"ell={params.ell} must be >= k={k}")
    _require_candidates(graph, k)
    ranks = np.empty((graph.n_users, k), dtype=np.int64)
    for u, limit in enumerate(np.minimum(params.ell, graph.n_candidates).tolist()):
        ranks[u] = np.random.default_rng([params.seed, u]).choice(limit, size=k, replace=False)
    ranks.sort(axis=1)
    return np.take_along_axis(graph.ranked, ranks, axis=1)


def greedy_rerank(graph: ScoreGraph, base: np.ndarray, params: GreedyParams) -> GreedyRerankResult:
    """Raise the number of distinct recommended items by up to theta.

    ``base`` is an (n_users, k) array of lists; the result's
    ``recommendations`` is a new array of the same shape, each row in list
    order.

    Moves are (user, item) pairs with the item outside the current pool and
    a score of at least the threshold, tried in order of descending score
    (ties: lower item id, then lower user id). A move replaces the user's
    lowest-scored list entry whose pool count is still >= 2; users without
    such an entry are skipped for that item. Stops after theta introductions
    or when no feasible move remains, reporting the achieved increase.

    The moves are walked as a merge of per-item user orders
    (``graph.ranked_users``): a heap holds each unpooled item's best untried
    user. Popping a move that finds a victim introduces its item, which is
    never pushed again; a move without a victim makes way for the item's
    next user while that user's score still reaches the threshold (NaN, last
    in the order, never does). The pool only grows by introductions, so an
    item's moves are live until it is introduced and no-ops from then on;
    the heap pops exactly the live moves of the fully sorted move list, in
    its order, and skips none that could apply.
    """
    if base.ndim != 2 or len(base) != graph.n_users:
        raise InvalidInputError("base recommendations do not match the score graph")
    k = base.shape[1]
    current_scores = graph.lookup(np.arange(graph.n_users)[:, None], base).tolist()
    counts = np.bincount(base.ravel(), minlength=graph.n_items)
    current = base.tolist()
    counts_list = counts.tolist()

    matrix, ranked_users, threshold = graph.matrix, graph.ranked_users, params.threshold
    unpooled = np.flatnonzero(counts == 0)
    best = matrix[ranked_users[unpooled, 0], unpooled]
    heap = [
        (-score, item, 0)  # 0: the item's place in its user order
        for score, item in zip(best.tolist(), unpooled.tolist())
        if score >= threshold
    ]
    heapq.heapify(heap)

    achieved = 0
    while heap and achieved < params.theta:
        neg_score, item, place = heap[0]
        user = int(ranked_users[item, place])
        # victim: lowest score, breaking ties toward the last-ranked (higher id)
        victim_pos = -1
        victim_key: tuple[float, int] | None = None
        row = current[user]
        row_scores = current_scores[user]
        for pos in range(k):
            if counts_list[row[pos]] < 2:
                continue
            key = (row_scores[pos], -row[pos])
            if victim_key is None or key < victim_key:
                victim_key = key
                victim_pos = pos
        if victim_pos < 0:
            place += 1
            score = matrix[ranked_users[item, place], item] if place < graph.n_users else np.nan
            if score >= threshold:
                heapq.heapreplace(heap, (-float(score), item, place))
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        counts_list[row[victim_pos]] -= 1
        counts_list[item] = 1
        row[victim_pos] = item
        row_scores[victim_pos] = -neg_score
        achieved += 1

    items, scores = np.asarray(current, dtype=np.int64), np.asarray(current_scores)
    lists = np.take_along_axis(items, np.lexsort((items, -scores)), axis=1)
    return GreedyRerankResult(lists, achieved_increase=achieved)
