"""Top-k list construction and the two diversity post-processors.

A list set is one ``(n_users, k)`` integer array of dense item ids, row u
holding user u's k >= 1 distinct candidates. Every reader (greedy's base
and each metric) takes the score graph and applies one check,
``_list_scores``, which also gathers the lists' scores. Each row is
ordered by descending score with ties broken by ascending item id.
``rank_order(graph, d)`` puts each row's first d items in that order
(non-candidates last), selecting only to depth d in blocks of rows of a
fixed cell count, so it builds no score-sized temporary; ``top_k`` is
``rank_order`` to depth k once every user has k candidates. A sweep
computes one order to depth max(l) and passes it to every Random call.
Random draws k items uniformly from each user's top-l list using a per-user
substream of the global seed, so results do not depend on evaluation order;
sorting the drawn rank positions puts them back in list order. Greedy
introduces not-yet-recommended items with a score above a threshold, one at
a time in globally descending score order, each replacing the last entry of
the victim user's list that another user still receives; the
recommended-item pool therefore never shrinks and grows by exactly the
achieved increase. Greedy reads only the score matrix. It walks its moves
as a heap that holds each unpooled item's best live user, found by one
argmax over the item's scores (NaN read as 0.0, below any threshold). A
user with no entry that another user still receives is dead for the rest
of the call: the counts of listed items never rise (a victim loses one, an
introduced item goes from 0 to 1 and is never introduced again), so such a
user never gets one. The walk tries exactly the live moves of one fully
sorted move list, in that list's order.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

import numpy as np

from .dataset import RATING_MAX, RATING_MIN
from .errors import CandidateShortfallError, InvalidInputError, check_field_types
from .predictors import ScoreGraph


@dataclass(frozen=True)
class RandomParams:
    ell: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.ell < 1:
            raise InvalidInputError("ell must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")


@dataclass(frozen=True)
class GreedyParams:
    theta: int
    threshold: float = 3.5

    def __post_init__(self) -> None:
        check_field_types(self)
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


# cells of the score matrix that rank_order selects from at a time: each block
# of rows is copied and masked on its own, so its working set stays a few MiB
_BLOCK_CELLS = 1 << 18


def rank_order(graph: ScoreGraph, depth: int) -> np.ndarray:
    """Each user's first ``depth`` items, as an (n_users, depth) int64 array.

    Items come by descending score, ties by ascending id, and the items
    that are not the user's candidates (NaN) last, by ascending id: the
    first ``depth`` columns of a stable row-wise sort of ``-graph.matrix``.
    Selects only to depth, one block of rows at a time: each row of a block
    copy (NaN read as -inf) is partitioned to its depth-th key, and the
    items above that key plus the lowest-id items tied at it are put in
    order by a stable sort of those ``depth`` columns.
    """
    if not 1 <= depth <= graph.n_items:
        raise InvalidInputError(f"depth must lie in [1, {graph.n_items}], got {depth}")
    order = np.empty((graph.n_users, depth), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // graph.n_items)
    for start in range(0, graph.n_users, step):
        block = np.fmax(graph.matrix[start : start + step], -np.inf)  # NaN below every score
        negated = -block
        negated.partition(depth - 1, axis=1)
        kth = -negated[:, depth - 1 : depth]
        del negated
        chosen = block > kth
        tied = block == kth
        spare = depth - chosen.sum(axis=1)  # >= 1: the depth-th key itself is tied
        tied &= np.cumsum(tied, axis=1, dtype=np.int32) <= spare[:, None]  # lowest-id ties
        chosen |= tied
        items = np.nonzero(chosen)[1].reshape(len(block), depth)  # ascending id per row
        by_key = np.argsort(-np.take_along_axis(block, items, axis=1), axis=1, kind="stable")
        order[start : start + step] = np.take_along_axis(items, by_key, axis=1)
    return order


def top_k(graph: ScoreGraph, k: int) -> np.ndarray:
    """The k highest-scored candidates per user, as an (n_users, k) array in list order.

    Raises CandidateShortfallError, naming the user, if a user has fewer than k
    candidates; the result is then ``rank_order(graph, k)``.
    """
    _require_candidates(graph, k)
    return rank_order(graph, k)


def random_rerank(graph: ScoreGraph, ranked: np.ndarray, params: RandomParams, k: int) -> np.ndarray:
    """Sample k items uniformly without replacement from each user's top-l.

    ``ranked`` is ``rank_order(graph, d)`` for some d >= min(l, n_items);
    one order to depth max(l) serves a whole l grid. Returns an
    (n_users, k) array, each row in list order.

    l is truncated to the candidate count for users with fewer than l
    candidates, so an l of at least n_items means every candidate. The draw
    for user u comes from the (seed, u) substream, so it is reproducible
    and independent of other users.
    """
    if params.ell < k:
        raise InvalidInputError(f"ell={params.ell} must be >= k={k}")
    _require_candidates(graph, k)
    depth = min(params.ell, graph.n_items)  # in Python: an l beyond int64 means every candidate
    array = isinstance(ranked, np.ndarray)
    if not (array and ranked.ndim == 2 and len(ranked) == graph.n_users and ranked.shape[1] >= depth):
        got = ranked.shape if array else type(ranked).__name__
        raise InvalidInputError(f"ranked must be ({graph.n_users}, d) with d >= {depth}, got {got}")
    ranks = np.empty((graph.n_users, k), dtype=np.int64)
    for u, limit in enumerate(np.minimum(graph.n_candidates, depth).tolist()):
        ranks[u] = np.random.default_rng([params.seed, u]).choice(limit, size=k, replace=False)
    ranks.sort(axis=1)
    return np.take_along_axis(ranked, ranks, axis=1)


def greedy_rerank(graph: ScoreGraph, base: np.ndarray, params: GreedyParams) -> GreedyRerankResult:
    """Raise the number of distinct recommended items by up to theta.

    ``base`` is a list set for the graph; the result's ``recommendations``
    is a new int64 array of the same shape, each row in list order.

    Moves are (user, item) pairs with the item outside the current pool and
    a score of at least the threshold, tried in order of descending score
    (ties: lower item id, then lower user id). Rows are kept as
    ``(-score, item)`` pairs in list order, and a move replaces the last
    entry of its user's row that another user still receives; users without
    such an entry are skipped for that item. Stops after theta introductions
    or when no feasible move remains, reporting the achieved increase.

    The moves are walked from ``graph.matrix`` alone: a heap holds
    ``(-score, item, user)`` for each unpooled item whose best live user
    still reaches the threshold, starting from one argmax per item over a
    per-call copy of the matrix with NaN read as 0.0 (argmax takes the
    lowest user id among ties). Popping a move that finds a victim
    introduces its item, which is never pushed again. A move without a
    victim marks its user dead, and the item moves on to the argmax of its
    scores over the live users, or leaves the heap once that score is below
    the threshold. A dead user stays dead: the counts of listed items never
    rise (a victim loses one, an introduced item goes from 0 to 1 once), so
    a row without an entry that another user receives never gains one. The
    heap therefore pops exactly the live moves of the fully sorted move
    list, in its order, and skips none that could apply.
    """
    [scores] = _list_scores(graph, base)
    counts = np.bincount(base.ravel(), minlength=graph.n_items)
    # each row as (-score, item) pairs in list order
    rows = [sorted(zip(neg, items)) for neg, items in zip((-scores).tolist(), base.tolist())]
    counts_list = counts.tolist()

    # (item, user) scores with NaN read as 0.0, below any threshold (thresholds lie in
    # [1, 5], so fmax, which also lifts a score below 0 to 0.0, changes no move)
    filled = np.fmax(graph.matrix.T, 0.0, order="C")
    users = filled.argmax(axis=1)  # each item's best user, the lowest id among ties
    best = filled.max(axis=1)
    start = np.flatnonzero((counts == 0) & (best >= params.threshold))
    heap = list(zip((-best[start]).tolist(), start.tolist(), users[start].tolist()))
    heapq.heapify(heap)
    live = np.ones(graph.n_users, dtype=bool)

    achieved = 0
    while heap and achieved < params.theta:
        neg_score, item, user = heap[0]
        row = rows[user]
        victim = len(row) - 1  # the last entry another user still receives
        while victim >= 0 and counts_list[row[victim][1]] < 2:
            victim -= 1
        if victim < 0:
            live[user] = False  # for good: the counts of listed items never rise
            column = np.where(live, filled[item], 0.0)
            user = int(column.argmax())
            if column[user] >= params.threshold:
                heapq.heapreplace(heap, (-float(column[user]), item, user))
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        counts_list[row[victim][1]] -= 1
        counts_list[item] = 1
        del row[victim]
        bisect.insort(row, (neg_score, item))
        achieved += 1

    lists = np.array([[item for _, item in row] for row in rows], dtype=np.int64)
    return GreedyRerankResult(lists, achieved_increase=achieved)


def _list_scores(graph: ScoreGraph, *list_sets: np.ndarray) -> list[np.ndarray]:
    """Check list sets for the graph and gather each one's (n_users, k) scores.

    A list set is a 2-D signed-integer ndarray with one row per graph user,
    k >= 1 columns, ids in [0, n_items) and, in each row, distinct
    candidates of the row's user; several list sets must share one shape.
    A fault in a row's content names the user's raw id.
    """
    gathered = []
    for lists in list_sets:
        array = isinstance(lists, np.ndarray)
        if not array or lists.dtype.kind != "i" or lists.ndim != 2 or lists.shape[1] < 1:
            got = f"{lists.dtype} of shape {lists.shape}" if array else type(lists).__name__
            raise InvalidInputError(f"lists must be 2-D integer arrays with k >= 1, got {got}")
        if len(lists) != graph.n_users:
            raise InvalidInputError(
                f"lists of shape {lists.shape} do not match the score graph's {graph.n_users} users"
            )
        if lists.shape != list_sets[0].shape:
            raise InvalidInputError(f"lists must share one shape, got {list_sets[0].shape} and {lists.shape}")
        ordered = np.sort(lists, axis=1)
        outside = (ordered[:, 0] < 0) | (ordered[:, -1] >= graph.n_items)
        _reject_rows(graph, outside, f"item ids must be non-negative and below {graph.n_items}, for user {{}}")
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        _reject_rows(graph, repeats, "list for user {} repeats an item")
        scores = np.take_along_axis(graph.matrix, lists, axis=1)
        _reject_rows(graph, np.isnan(scores).any(axis=1), "item not in candidate set of user {}")
        gathered.append(scores)
    return gathered


def _reject_rows(graph: ScoreGraph, faulty: np.ndarray, message: str) -> None:
    """Raise ``message`` naming the raw id of the first user whose row is faulty."""
    if faulty.any():
        raise InvalidInputError(message.format(graph.user_ids[np.argmax(faulty)]))
