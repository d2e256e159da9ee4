"""Top-k list construction and the two diversity post-processors.

A list set is one ``(n_users, k)`` integer array of dense item ids, row u
holding user u's k >= 1 distinct candidates. Every reader (greedy's base
and each metric) takes the score graph and applies one check,
``_list_scores``, which also gathers the lists' scores. Each row is
ordered by descending score with ties broken by ascending item id.
One blocked pass, ``_ordered_blocks``, puts each row's first d items in
that order (non-candidates last), selecting only to depth d in the row
blocks of ``predictors._row_blocks``, so it builds no score-sized temporary.
``top_k`` writes the pass to depth k into its lists once every user has k
candidates. Random serves a whole l grid from one such pass and keeps no
order: it first draws, for every l, k rank positions uniformly from each
user's top-l list, from a per-user substream of the global seed (seeded
once per call and restored before each l's draw), so results do not depend
on evaluation order or on the other l; sorting the drawn positions puts
them back in list order. Each block's order to depth max(l) is then
gathered at every l's positions and dropped. Greedy
introduces not-yet-recommended items with a score above a threshold, one at
a time in globally descending score order, each replacing the last entry of
the victim user's list that another user still receives; the
recommended-item pool therefore never shrinks and grows by exactly the
achieved increase. Greedy reads only the score matrix and copies none of
it: it walks its moves as a heap that holds each unpooled item's best live
user (NaN read as 0.0, below any threshold), found by one argmax over the
item's column, at the start and again each time that user dies. A user
with no entry that another user still receives is dead for the rest of
the call: the counts of listed items never rise (a victim loses one, an
introduced item goes from 0 to 1 and is never introduced again), so such
a user never gets one. The walk tries exactly the live moves of one fully
sorted move list, in that list's order. Theta only decides where the walk
stops, so one walk to the largest theta of a grid records what a walk to
each smaller theta does: its first theta introductions, each with its
user, its victim's base column and the new item. A cut replaces those
victims in the base lists and puts each row back in list order.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from .dataset import require_candidates
from .errors import InvalidInputError, NonNegativeInt, PositiveInt, Stars, check_field_types, check_type, reject_rows
from .predictors import ScoreGraph, _row_blocks

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RandomParams:
    """Random re-ranking settings: a non-empty grid of pool sizes l, each an integer >= 1, and a seed >= 0.

    Each field's annotation gives its type and range, checked when the
    params are built.
    """

    ell: tuple[PositiveInt, ...]
    seed: NonNegativeInt = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.ell:
            raise InvalidInputError("ell grid is empty")


@dataclass(frozen=True)
class GreedyParams:
    """Greedy re-ranking settings: the target theta, an integer >= 0, and a threshold in [1, 5].

    Each field's annotation gives its type and range, checked when the
    params are built.
    """

    theta: NonNegativeInt
    threshold: Stars = 3.5

    def __post_init__(self) -> None:
        check_field_types(self)


@dataclass(frozen=True)
class GreedyWalk:
    """The record of one greedy walk to ``theta``, from which ``cut`` reads the result at any theta up to it.

    ``threshold`` is the walk's score threshold, ``base`` holds the lists walked from and ``base_scores`` their scores.
    Row i of ``moves`` is the i-th introduction, in walk order: its user,
    the base column of its victim and the new item; ``scores[i]`` is the
    new item's score. Row i of ``counts`` holds the moves popped and the
    users marked dead after the i-th introduction (row 0: before the first),
    and its last row where the walk stopped.
    """

    theta: int
    threshold: float
    base: np.ndarray  # (n_users, k) int64
    base_scores: np.ndarray  # (n_users, k) float64
    moves: np.ndarray  # (achieved, 3) int64
    scores: np.ndarray  # (achieved,) float64
    counts: np.ndarray  # (achieved + 2, 2) int64

    def cut(self, theta: int) -> GreedyRerankResult:
        """What ``greedy_rerank`` returns from the walk's base and threshold at a theta up to the walk's.

        A walk to theta makes exactly this walk's first min(theta, achieved)
        introductions, as theta only decides where a walk stops. Each
        replaces its victim's base entry; each row is then put in list
        order. The counters, and the DEBUG line that formats them, are the
        ones that walk gives: its moves popped and users marked dead are the
        counts at its last introduction, or where this walk ran dry before
        theta, and its tied and lost swaps are read from the two scores of
        each swap. Every cut returns a new lists array.
        """
        check_type("theta", theta, "NonNegativeInt")
        if theta > self.theta:
            raise InvalidInputError(f"theta={theta} exceeds {self.theta}, the theta walked to")
        n = min(int(theta), len(self.moves))
        users, columns, items = self.moves[:n].T
        scores = self.scores[:n]
        lists, list_scores = self.base.copy(), self.base_scores.copy()
        lists[users, columns] = items
        list_scores[users, columns] = scores
        lists = np.take_along_axis(lists, np.lexsort((lists, -list_scores)), axis=1)
        victims = self.base_scores[users, columns]
        popped, dead = self.counts[min(theta, n + 1)].tolist()  # a walk that ran dry before theta stopped here
        result = GreedyRerankResult(lists, n, popped, dead, int(np.count_nonzero(victims == scores)),
                                    len(set(users[victims > scores].tolist())), self)
        logger.debug(
            "greedy_rerank: theta=%d: %d items introduced, %d moves popped, %d users marked dead, "
            "%d swaps whose victim scored the same as the new item, %d users with a swap whose victim scored higher",
            theta, result.achieved_increase, result.popped, result.dead, result.tied, result.lost,
        )
        return result


@dataclass(frozen=True)
class GreedyRerankResult:
    """Greedy's lists and achieved increase at one theta, its counters, and the walk they were cut from.

    The counters are the ones its DEBUG line formats: the moves popped off
    the heap, the users marked dead, the swaps whose victim scored the same
    as the new item, and the users with a swap whose victim scored higher.
    """

    recommendations: np.ndarray  # (n_users, k) dense item ids
    achieved_increase: int
    popped: int
    dead: int
    tied: int
    lost: int
    walk: GreedyWalk  # walk.cut gives the result at any other theta up to the walk's


def _ordered_blocks(graph: ScoreGraph, depth: int):
    """Yield ``(rows, order)`` for each block of rows, ``order`` their first ``depth`` items.

    Items come by descending score, ties by ascending id, and the items
    that are not the user's candidates (NaN) last, by ascending id: the
    first ``depth`` columns of a stable row-wise sort of the block of
    ``-graph.matrix``. Each row of a block copy (NaN read as -inf) is
    partitioned to its depth-th key, and the items above that key plus the
    lowest-id items tied at it are put in order by a stable sort of those
    ``depth`` columns. ``depth`` lies in [1, n_items]: ``top_k`` passes a k
    that every user's candidates reach, and ``random_rerank`` min(max(l),
    n_items) with every l >= k.
    """
    for rows in _row_blocks(graph.n_users, graph.n_items):
        block = np.fmax(graph.matrix[rows], -np.inf)  # NaN below every score
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
        yield rows, np.take_along_axis(items, by_key, axis=1)


def top_k(graph: ScoreGraph, k: int) -> np.ndarray:
    """The k highest-scored candidates per user, as an (n_users, k) int64 array in list order.

    Raises CandidateShortfallError, naming the user, if a user has fewer than k
    candidates. Otherwise the lists are the first k columns of a stable
    row-wise sort of ``-graph.matrix``, from one blocked pass to depth k.
    """
    require_candidates(graph.n_candidates, graph.user_ids, k)
    top = np.empty((graph.n_users, k), dtype=np.int64)
    for rows, order in _ordered_blocks(graph, k):
        top[rows] = order
    return top


def random_rerank(graph: ScoreGraph, params: RandomParams, k: int) -> list[np.ndarray]:
    """Sample k items uniformly without replacement from each user's top-l, for every l of the grid.

    Returns one (n_users, k) array per l of ``params.ell``, in grid order,
    each row in list order; a repeated l gives equal arrays.

    l is truncated to the candidate count for users with fewer than l
    candidates, so an l of at least n_items means every candidate. The draw
    for user u comes from the (seed, u) substream, so it is reproducible
    and independent of other users and of the other l: the user's
    generator is seeded once and its state restored before each l's draw.
    Every l's rank positions are drawn first; one blocked pass to depth
    min(max(l), n_items) then gathers each block's order at them, so no
    (n_users, max(l)) order is held.
    """
    require_candidates(graph.n_candidates, graph.user_ids, k)
    for ell in params.ell:
        if ell < k:
            raise InvalidInputError(f"ell={ell} must be >= k={k}")
    depths = [min(ell, graph.n_items) for ell in params.ell]  # in Python: an l beyond int64 means every candidate
    ranks = [np.empty((graph.n_users, k), dtype=np.int64) for _ in depths]
    limits = np.minimum(graph.n_candidates[:, None], depths).tolist()
    for u, user_limits in enumerate(limits):
        generator = np.random.default_rng([params.seed, u])
        seeded = generator.bit_generator.state
        for drawn, limit in zip(ranks, user_limits):
            generator.bit_generator.state = seeded
            drawn[u] = generator.choice(limit, size=k, replace=False)
    for drawn in ranks:
        drawn.sort(axis=1)
    lists = [np.empty_like(drawn) for drawn in ranks]
    for rows, order in _ordered_blocks(graph, max(depths)):
        for drawn, chosen in zip(ranks, lists):
            chosen[rows] = np.take_along_axis(order, drawn[rows], axis=1)
    return lists


def greedy_rerank(graph: ScoreGraph, base: np.ndarray, params: GreedyParams, *,
                  walk: GreedyWalk | None = None) -> GreedyRerankResult:
    """Raise the number of distinct recommended items by up to theta.

    ``base`` is a list set for the graph; the result's ``recommendations``
    is a new int64 array of the same shape, each row in list order. The
    result's ``walk`` records every introduction, so ``result.walk.cut(t)``
    gives, for any t up to theta, what a call at t returns, counter line
    included, without walking again. Passing such a ``walk`` (from this
    graph, this base and ``params.threshold``, to at least ``params.theta``)
    returns its cut at ``params.theta`` instead of walking; a walk from
    another base or threshold is an ``InvalidInputError``.

    Moves are (user, item) pairs with the item outside the current pool and
    a score of at least the threshold, tried in order of descending score
    (ties: lower item id, then lower user id). A move replaces the last
    base entry of its user's row, in list order, that another user still
    receives; users without such an entry are skipped for that item. Each
    row is kept as a stack of its base columns in list order: the victim
    scan pops for good every last entry that no other user receives, a move
    pops its victim, and an introduced item never joins a stack. Stops
    after theta introductions or when no feasible move remains, reporting
    the achieved increase.

    The moves are walked from ``graph.matrix`` alone: a heap holds
    ``(-score, item, user)`` for each unpooled item whose best live user
    still reaches the threshold, with NaN read as 0.0. An item's best user
    is the argmax of its column of the matrix over the live users, so the
    lowest user id wins ties, and no copy of the matrix is made. Popping a
    move that finds a victim introduces its item, which is never pushed
    again. A move without a victim marks its user dead (a move whose user
    is already dead finds its stack empty), and the item moves on to its
    best live user, or leaves the heap once that score is below the
    threshold. A dead user stays dead: the counts of listed items never
    rise (a victim loses one, an introduced item goes from 0 to 1 once), so
    a row without an entry that another user receives never gains one. The
    heap therefore pops exactly the live moves of the fully sorted move
    list, in its order, and skips none that could apply.

    One line is logged at DEBUG on this module's logger per call, and one
    per cut: theta, the items introduced, the moves popped, the users marked
    dead, the swaps whose victim scored the same as the new item, and the
    users with a swap whose victim scored higher, the only swap that lowers
    a list's score mass. On a top-k base every swap is one of the two: a
    victim is a base entry (an introduced item is listed once, so it is
    never a victim), and a top-k entry never scores below an item outside
    the pool.
    """
    if walk is not None:
        if walk.threshold != params.threshold or not np.array_equal(walk.base, base):
            raise InvalidInputError("walk is from another base or threshold")
        return walk.cut(params.theta)
    [scores] = _list_scores(graph, base)
    counts = np.bincount(base.ravel(), minlength=graph.n_items)
    rows = base.tolist()
    # each row's base columns in list order, so the last is the first a move may replace
    stacks = np.lexsort((base, -scores)).tolist()
    counts_list = counts.tolist()

    live = np.ones(graph.n_users, dtype=bool)

    def best(item: int) -> tuple[float, int, int]:
        """The heap entry of the item's best live user: the lowest user id keeps a tie."""
        # a dead user and NaN read as 0.0, below any threshold (thresholds lie in [1, 5], so
        # fmax, which also lifts a score below 0 to 0.0, changes no move)
        column = np.fmax(np.where(live, graph.matrix[:, item], 0.0), 0.0)
        user = int(column.argmax())
        return -float(column[user]), item, user

    heap = [move for move in map(best, np.flatnonzero(counts == 0).tolist()) if -move[0] >= params.threshold]
    heapq.heapify(heap)

    popped = dead = 0
    moves = []  # per introduction: (user, base column of its victim, item)
    counted = [(0, 0)]  # (moves popped, users marked dead) before the first introduction and after each
    while heap and len(moves) < params.theta:
        popped += 1
        _, item, user = heap[0]
        row, stack = rows[user], stacks[user]
        # pop for good each last entry no other user still receives: counts never rise
        while stack and counts_list[row[stack[-1]]] < 2:
            stack.pop()
        if not stack:  # no victim: the user is dead
            dead += bool(live[user])
            live[user] = False  # for good: the counts of listed items never rise
            move = best(item)
            if -move[0] >= params.threshold:
                heapq.heapreplace(heap, move)
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        slot = stack.pop()  # the new item joins no stack: listed once, it is never a victim
        counts_list[row[slot]] -= 1
        counts_list[item] = 1
        moves.append((user, slot, item))
        counted.append((popped, dead))

    counted.append((popped, dead))  # where the walk stopped
    moves = np.array(moves, dtype=np.int64).reshape(-1, 3)
    walk = GreedyWalk(params.theta, params.threshold, np.array(base, dtype=np.int64), scores, moves,
                      graph.matrix[moves[:, 0], moves[:, 2]], np.array(counted))
    return walk.cut(params.theta)


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
        reject_rows(outside, graph.user_ids,
                    lambda user, _: f"item ids must be non-negative and below {graph.n_items}, for user {user}")
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        reject_rows(repeats, graph.user_ids, lambda user, _: f"list for user {user} repeats an item")
        scores = np.take_along_axis(graph.matrix, lists, axis=1)
        reject_rows(np.isnan(scores).any(axis=1), graph.user_ids,
                    lambda user, _: f"item not in candidate set of user {user}")
        gathered.append(scores)
    return gathered
