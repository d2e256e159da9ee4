import logging
import re
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from fairrec import predictors, reranking
from fairrec import (
    CandidateShortfallError,
    GreedyParams,
    InvalidInputError,
    RandomParams,
    ScoreGraph,
    aggregate_diversity,
    greedy_rerank,
    parse_ratings,
    predict_knn,
    predict_nmf,
    random_rerank,
    top_k,
)

from _oracles import (
    enumerate_small_instances,
    graph_from_pairs,
    greedy_move_list,
    greedy_rescan,
    random_per_ell,
)
from conftest import synthetic_triples, triples_to_lines


def graph_of(*pairs_per_user, n_items=None):
    m = n_items or (max(i for pairs in pairs_per_user for i, _ in pairs) + 1)
    return graph_from_pairs(list(pairs_per_user), m)


# -------------------------------------------------------------- top_k ----

def test_top_k_orders_by_score():
    graph = graph_of([(0, 5.0), (1, 4.0), (2, 1.0)])
    assert top_k(graph, 2).tolist() == [[0, 1]]


def test_top_k_breaks_ties_by_item_id():
    graph = graph_of([(1, 4.0), (0, 4.0)])
    assert top_k(graph, 1).tolist() == [[0]]


def test_top_k_full_candidate_set_in_score_order():
    graph = graph_of([(0, 2.0), (1, 5.0), (2, 3.0)])
    assert top_k(graph, 3).tolist() == [[1, 2, 0]]


def test_top_k_rejects_oversized_k():
    graph = graph_of([(0, 2.0), (1, 5.0)])
    with pytest.raises(CandidateShortfallError, match="user 0"):
        top_k(graph, 3)


@pytest.mark.parametrize("call, message", [
    (lambda g: top_k(g, 2.5), "k must be an integer >= 1, got 2.5"),
    (lambda g: top_k(g, True), "k must be an integer >= 1, got True"),
    (lambda g: random_rerank(g, RandomParams(ell=(3,)), 1.5), "k must be an integer >= 1, got 1.5"),
], ids=["top_k-float", "top_k-bool", "random-float"])
def test_list_sizes_take_the_integer_rule(call, message):
    graph = graph_of([(0, 5.0), (1, 4.0), (2, 3.0)], [(0, 2.0), (2, 1.0)])
    with pytest.raises(InvalidInputError) as raised:
        call(graph)
    assert str(raised.value) == message
    assert top_k(graph, np.int64(2)).tolist() == [[0, 1], [0, 2]]


def test_top_k_invariant_under_pair_order():
    pairs = [(3, 4.0), (0, 2.5), (7, 4.0), (2, 5.0)]
    a = top_k(graph_from_pairs([pairs], 8), 3)
    b = top_k(graph_from_pairs([list(reversed(pairs))], 8), 3)
    assert a.tolist() == b.tolist() == [[2, 3, 7]]


def stable_sort_top_k(graph, k):
    """The reference: the first k columns of a full stable row-wise sort."""
    return np.argsort(-graph.matrix, axis=1, kind="stable")[:, :k]


def _tie_heavy_matrix(seed, n_users=60, n_items=40, rated_fraction=0.3):
    rng = np.random.default_rng(seed)
    matrix = np.round(rng.uniform(1, 5, (n_users, n_items)) * 2) / 2  # halves: many ties
    matrix[: n_users // 4] = 5.0  # rows scored 5.0 throughout
    matrix[rng.random(matrix.shape) < rated_fraction] = np.nan
    return matrix


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_top_k_equals_a_stable_full_sort_on_tie_heavy_graphs(seed, k):
    graph = ScoreGraph(_tie_heavy_matrix(seed), np.arange(60))
    expected = stable_sort_top_k(graph, k)
    got = top_k(graph, k)
    assert got.dtype == expected.dtype and got.flags.c_contiguous
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_top_k_takes_every_candidate_of_users_with_exactly_k(k):
    rng = np.random.default_rng(k)
    matrix = np.full((8, 10), np.nan)
    for u in range(8):
        keep = rng.choice(10, size=k, replace=False)
        matrix[u, keep] = 5.0 if u % 2 else rng.choice([1.0, 3.5, 5.0], size=k)
    graph = ScoreGraph(matrix, np.arange(8))
    top = top_k(graph, k)
    assert np.array_equal(top, stable_sort_top_k(graph, k))
    candidates = np.nonzero(~np.isnan(matrix))[1].reshape(8, k)  # ascending per row
    assert np.array_equal(np.sort(top, axis=1), candidates)


def test_top_k_equals_a_stable_full_sort_on_predicted_graphs(tie_heavy_graphs):
    for graph in tie_heavy_graphs.values():
        for k in (1, 5, 20):
            assert np.array_equal(top_k(graph, k), stable_sort_top_k(graph, k))


# --------------------------------------------------------- rank order ----
# _ordered_blocks, the one pass that puts items in rank order for top_k and random_rerank

def ordered(graph, depth):
    """The blocked pass's order to ``depth``, its blocks written into one array as top_k writes them."""
    order = np.empty((graph.n_users, depth), dtype=np.int64)
    for rows, block in reranking._ordered_blocks(graph, depth):
        assert block.dtype == np.int64
        order[rows] = block
    return order


@pytest.mark.parametrize("cells", [1, 40 * 3, 40 * 7, 1 << 20])  # 60 rows in 60, 20, 9 and 1 blocks
@pytest.mark.parametrize("seed", range(3))
def test_rank_order_equals_a_stable_full_sort_in_blocks(monkeypatch, seed, cells):
    # rated_fraction 0.9 leaves many rows with fewer candidates than the depth
    monkeypatch.setattr(predictors, "_BLOCK_CELLS", cells)
    for rated_fraction in (0.3, 0.9):
        graph = ScoreGraph(_tie_heavy_matrix(seed, rated_fraction=rated_fraction), np.arange(60))
        for depth in (1, 5, 12, 39, 40):  # 40: every item
            assert np.array_equal(ordered(graph, depth), stable_sort_top_k(graph, depth)), (rated_fraction, depth)


def test_rank_order_puts_non_candidates_last_by_ascending_id():
    # Random's rank positions beyond a user's candidates rely on this order
    graph = graph_of([(3, 2.0), (1, 5.0)], [(0, 1.0), (2, 1.0), (4, 1.0)], n_items=5)
    assert ordered(graph, 5).tolist() == [[1, 3, 0, 2, 4], [0, 2, 4, 1, 3]]


def test_rank_order_working_set_stays_below_a_fraction_of_the_matrix(monkeypatch):
    # one block of rows at a time: besides its result, the selection holds no
    # score-sized temporary, such as a negated copy or a full row sort
    monkeypatch.setattr(predictors, "_BLOCK_CELLS", 1 << 12)
    graph = ScoreGraph(_tie_heavy_matrix(5, n_users=400, n_items=300), np.arange(400))
    for depth in (5, 50):
        tracemalloc.start()
        try:
            order = ordered(graph, depth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < order.nbytes + graph.matrix.nbytes / 4, depth


# ------------------------------------------------------------- random ----

def _six_item_graph(n_users=1):
    pairs = [(i, 6.0 - i) for i in range(6)]  # scores 6..1 -> items 0..5
    return graph_from_pairs([list(pairs) for _ in range(n_users)], 6)


def test_random_with_ell_equal_k_is_top_k():
    graph = _six_item_graph(n_users=3)
    top = top_k(graph, 3)
    for seed in range(5):
        [recs] = random_rerank(graph, RandomParams(ell=(3,), seed=seed), 3)
        assert recs.tolist() == top.tolist()


def test_random_sample_is_subset_of_top_ell_and_ordered():
    graph = _six_item_graph()
    top4 = set(top_k(graph, 4)[0].tolist())
    for seed in range(10):
        [recs] = random_rerank(graph, RandomParams(ell=(4,), seed=seed), 2)
        row = recs[0].tolist()
        assert set(row) <= top4
        assert len(set(row)) == 2
        scores = graph.matrix[0, recs[0]].tolist()
        assert list(scores) == sorted(scores, reverse=True)


def test_random_is_deterministic_per_seed_and_varies_across_seeds():
    graph = _six_item_graph()
    a = random_rerank(graph, RandomParams(ell=(6,), seed=11), 2)
    b = random_rerank(graph, RandomParams(ell=(6,), seed=11), 2)
    assert np.array_equal(a, b)
    draws = {
        tuple(random_rerank(graph, RandomParams(ell=(6,), seed=s), 2)[0][0].tolist())
        for s in range(10)
    }
    assert len(draws) > 1


def test_random_users_get_independent_substreams():
    graph = _six_item_graph(n_users=2)
    differing = 0
    for seed in range(10):
        [recs] = random_rerank(graph, RandomParams(ell=(6,), seed=seed), 2)
        if recs[0].tolist() != recs[1].tolist():
            differing += 1
    assert differing > 0


def test_random_truncates_ell_to_candidate_count():
    graph = _six_item_graph()
    [recs] = random_rerank(graph, RandomParams(ell=(500,), seed=3), 4)
    assert len(set(recs[0].tolist())) == 4


def test_random_reads_an_ell_beyond_int64_as_every_candidate():
    graph = _six_item_graph(n_users=3)
    for seed in range(5):
        huge, every = random_rerank(graph, RandomParams(ell=(10**21, 6), seed=seed), 4)
        assert np.array_equal(huge, every)


def test_random_shares_one_order_to_the_deepest_ell():
    # one pass to depth max(l) draws what a per-l order to depth l would
    graph = _random_graph(8, n_users=20, n_items=40)
    grid = (3, 10, 30)
    got = random_rerank(graph, RandomParams(ell=grid, seed=2), 3)
    assert len(got) == len(grid)
    for ell, lists in zip(grid, got):
        assert np.array_equal(lists, random_per_ell(graph, ordered(graph, ell), ell, 2, 3)), ell


# grids with an l above some users' candidate counts, l = n_items (40) and
# beyond, one beyond int64, a repeated l, and l out of order
GRIDS = [(3,), (12, 3, 40), (40, 5, 12, 5), (10**21, 41, 3, 7, 3), (7, 3, 41, 12, 10**21)]


@pytest.mark.parametrize("cells", [1, 40 * 7, 1 << 20])  # 60 rows in 60, 9 and 1 blocks
@pytest.mark.parametrize("seed", range(3))
def test_random_grid_equals_the_per_ell_oracle_on_tie_heavy_graphs(monkeypatch, seed, cells):
    monkeypatch.setattr(predictors, "_BLOCK_CELLS", cells)
    for rated_fraction, k in ((0.3, 3), (0.8, 1)):  # 0.8 leaves about 8 candidates a user
        graph = ScoreGraph(_tie_heavy_matrix(seed, rated_fraction=rated_fraction), np.arange(60))
        ranked = np.argsort(-graph.matrix, axis=1, kind="stable")
        assert graph.n_candidates.min() >= k
        for grid in GRIDS:
            got = random_rerank(graph, RandomParams(ell=grid, seed=seed), k)
            assert len(got) == len(grid)
            for ell, lists in zip(grid, got):
                assert lists.dtype == np.int64 and lists.shape == (60, k)
                assert np.array_equal(lists, random_per_ell(graph, ranked, ell, seed, k)), (grid, ell)


def test_random_holds_no_order_of_the_deepest_ell(monkeypatch):
    # one block of rows at a time, each gathered at every l's draws and dropped:
    # even at max(l) = n_items the call never holds an (n_users, n_items) order
    monkeypatch.setattr(predictors, "_BLOCK_CELLS", 1 << 12)
    graph = ScoreGraph(_tie_heavy_matrix(5, n_users=400, n_items=300), np.arange(400))
    order_bytes = graph.n_users * graph.n_items * np.dtype(np.int64).itemsize
    tracemalloc.start()
    try:
        random_rerank(graph, RandomParams(ell=(5, 300, 50), seed=1), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < order_bytes / 2


def test_random_rejects_ell_below_k():
    graph = _six_item_graph()
    with pytest.raises(InvalidInputError, match=r"^ell=2 must be >= k=3$"):
        random_rerank(graph, RandomParams(ell=(6, 2), seed=0), 3)


def test_random_params_validation():
    with pytest.raises(InvalidInputError, match=r"^ell must be a tuple of integers >= 1, got \(0,\)$"):
        RandomParams(ell=(0,))
    with pytest.raises(InvalidInputError, match="^ell grid is empty$"):
        RandomParams(ell=())
    with pytest.raises(InvalidInputError):
        RandomParams(ell=(5,), seed=-1)
    graph = _six_item_graph()
    for k in (0, -1):  # checked like top_k's k, not drawn as empty or negative lists
        with pytest.raises(InvalidInputError, match=f"^k must be an integer >= 1, got {k}$"):
            random_rerank(graph, RandomParams(ell=(3,)), k)


def test_random_uniform_over_top_two():
    # k=1, ell=2: each of the top-2 items should win about half of the time
    graph = graph_of([(0, 5.0), (1, 4.0), (2, 1.0)])
    counts = {0: 0, 1: 0}
    for seed in range(10000):
        item = random_rerank(graph, RandomParams(ell=(2,), seed=seed), 1)[0][0, 0]
        counts[int(item)] += 1
    assert counts[0] + counts[1] == 10000
    assert abs(counts[0] - 5000) <= 150


def test_random_overlap_matches_hypergeometric_mean():
    # top-k is inside top-ell, so E[|sample intersect top-k|] = k^2 / ell
    rng = np.random.default_rng(42)
    n_users, n_items, k, ell = 30, 40, 4, 12
    pairs = [
        [(i, float(s)) for i, s in enumerate(rng.permutation(n_items) / 10 + 1.0)]
        for _ in range(n_users)
    ]
    graph = graph_from_pairs(pairs, n_items)
    top = top_k(graph, k)
    total = 0.0
    draws = 0
    for seed in range(200):
        [recs] = random_rerank(graph, RandomParams(ell=(ell,), seed=seed), k)
        for u in range(n_users):
            total += np.intersect1d(recs[u], top[u]).size
            draws += 1
    assert total / draws == approx(k * k / ell, abs=0.05)


# ------------------------------------------------------------- greedy ----

def _worked_example():
    graph = graph_of(
        [(0, 5.0), (1, 4.0), (2, 1.0)],
        [(0, 5.0), (1, 2.0)],
        n_items=3,
    )
    return graph, top_k(graph, 1)


def test_greedy_theta_zero_is_a_no_op():
    graph, base = _worked_example()
    result = greedy_rerank(graph, base, GreedyParams(theta=0))
    assert np.array_equal(result.recommendations, base)
    assert result.achieved_increase == 0


def test_greedy_rejects_a_base_not_shaped_one_row_per_user():
    graph, base = _worked_example()
    graph = ScoreGraph(graph.matrix, np.array([7, 9]))  # raw ids unlike the rows
    for bad, message in [
        (base[:1], "do not match the score graph"),
        (base.ravel(), "2-D integer arrays"),
        (np.array([[0, 1], [1, 1]]), "list for user 9 repeats an item"),
        (np.empty((2, 0), dtype=np.int64), "k >= 1"),
        (base.astype(np.float64), "integer arrays"),
    ]:
        with pytest.raises(InvalidInputError, match=message):
            greedy_rerank(graph, bad, GreedyParams(theta=1))


def test_greedy_worked_example_single_replacement():
    graph, base = _worked_example()
    assert base.tolist() == [[0], [0]]
    result = greedy_rerank(graph, base, GreedyParams(theta=1, threshold=3.5))
    assert result.recommendations.tolist() == [[1], [0]]
    assert result.achieved_increase == 1


def test_greedy_high_threshold_makes_no_move():
    graph, base = _worked_example()
    result = greedy_rerank(graph, base, GreedyParams(theta=1, threshold=4.5))
    assert np.array_equal(result.recommendations, base)
    assert result.achieved_increase == 0


def test_greedy_params_validation():
    with pytest.raises(InvalidInputError):
        GreedyParams(theta=-1)
    with pytest.raises(InvalidInputError):
        GreedyParams(theta=1, threshold=0.5)
    with pytest.raises(InvalidInputError):
        GreedyParams(theta=1, threshold=5.5)


_COUNTERS = re.compile(
    r"greedy_rerank: theta=(?P<theta>\d+): (?P<introduced>\d+) items introduced, (?P<popped>\d+) moves popped, "
    r"(?P<dead>\d+) users marked dead, (?P<tied>\d+) swaps whose victim scored the same as the new item, "
    r"(?P<losers>\d+) users with a swap whose victim scored higher"
)


def _logged_line(caplog, call):
    """Make the call and return its result and the one line it logs on fairrec.reranking."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fairrec.reranking"):
        result = call()
    [line] = [r.getMessage() for r in caplog.records if r.name == "fairrec.reranking"]
    return result, line


def _logged_counters(caplog, graph, base, params):
    """Call greedy; return its result and its line's counters, which must be the result's own fields."""
    result, line = _logged_line(caplog, lambda: greedy_rerank(graph, base, params))
    logged = {key: int(value) for key, value in _COUNTERS.fullmatch(line).groupdict().items()}
    assert logged == {"theta": params.theta, "introduced": result.achieved_increase, "popped": result.popped,
                      "dead": result.dead, "tied": result.tied, "losers": result.lost}
    return result, logged


def _counted_from_lists(graph, base, recs):
    """Items introduced, tied swaps and users whose sorted row of scores changed, from the lists alone.

    Per user, greedy takes victims by ascending score (the last entry another
    user receives, from a set that only shrinks) and new items by descending
    score (the heap's order), so the i-th lowest removed score was swapped
    for the i-th highest added one.
    """
    introduced = len(set(recs.ravel().tolist()) - set(base.ravel().tolist()))
    tied = losers = 0
    for u in range(graph.n_users):
        removed = sorted(graph.matrix[u, list(set(base[u].tolist()) - set(recs[u].tolist()))])
        added = sorted(graph.matrix[u, list(set(recs[u].tolist()) - set(base[u].tolist()))], reverse=True)
        assert all(victim >= new for victim, new in zip(removed, added))  # a top-k base
        tied += sum(victim == new for victim, new in zip(removed, added))
        losers += sorted(graph.matrix[u, base[u]]) != sorted(graph.matrix[u, recs[u]])
    return {"introduced": introduced, "tied": tied, "losers": losers}


@pytest.mark.parametrize("graph, k, threshold, counters", [
    # item 2 and 3 take u0's 5.0 entries, 4 takes u1's item 1 (5.0), then item 5 (4.0) u1's item 0 (5.0)
    (graph_of([(0, 5.0), (1, 5.0), (2, 5.0), (3, 5.0)], [(0, 5.0), (1, 5.0), (4, 5.0), (5, 4.0)],
              [(0, 5.0), (1, 5.0), (2, 4.0), (3, 3.0)]), 2, 3.5,
     {"introduced": 4, "popped": 4, "dead": 0, "tied": 3, "losers": 1}),
    # item 2 takes u0's item 0; item 3's best user u1 then has no victim, and at threshold 1 nor has u2
    (graph_of([(0, 5.0), (1, 4.0), (2, 5.0)], [(0, 5.0), (3, 5.0)], [(1, 5.0), (3, 2.0)]), 1, 3.5,
     {"introduced": 1, "popped": 2, "dead": 1, "tied": 1, "losers": 0}),
    (graph_of([(0, 5.0), (1, 4.0), (2, 5.0)], [(0, 5.0), (3, 5.0)], [(1, 5.0), (3, 2.0)]), 1, 1.0,
     {"introduced": 1, "popped": 3, "dead": 2, "tied": 1, "losers": 0}),
    # no user has a victim: items 2 and 3 each pop once for u0 and once for u1, each user is marked dead once
    (graph_of([(0, 5.0), (2, 5.0), (3, 5.0)], [(1, 5.0), (2, 4.0), (3, 4.0)]), 1, 3.5,
     {"introduced": 0, "popped": 4, "dead": 2, "tied": 0, "losers": 0}),
], ids=["ties-then-a-loss", "a-dead-user", "two-dead-users", "dead-users-popped-twice"])
def test_greedy_logs_its_counters_on_hand_built_graphs(caplog, graph, k, threshold, counters):
    base = top_k(graph, k)
    result, logged = _logged_counters(caplog, graph, base, GreedyParams(theta=10, threshold=threshold))
    assert logged == {"theta": 10, **counters}
    assert _counted_from_lists(graph, base, result.recommendations) == {
        key: counters[key] for key in ("introduced", "tied", "losers")
    }
    assert result.achieved_increase == counters["introduced"]


def test_greedy_counts_a_swap_that_raises_the_score_as_neither_tied_nor_lost(caplog):
    # a base that is not the top-k: the victim (2.0) scores below the new item (5.0)
    graph = graph_of([(0, 2.0), (1, 5.0)], [(0, 3.0)])
    result, logged = _logged_counters(caplog, graph, np.array([[0], [0]]), GreedyParams(theta=1))
    assert result.recommendations.tolist() == [[1], [0]]
    assert logged == {"theta": 1, "introduced": 1, "popped": 1, "dead": 0, "tied": 0, "losers": 0}


@pytest.mark.parametrize("seed", range(3))
def test_greedy_counters_equal_a_count_from_the_lists_on_tie_heavy_graphs(caplog, seed):
    matrix = _tie_heavy_matrix(seed, n_users=12)  # 40 items: room for moves, and for users without a victim
    graph = ScoreGraph(matrix, np.arange(len(matrix)))
    base = top_k(graph, 3)
    totals = dict.fromkeys(("dead", "tied", "losers"), 0)
    for theta, threshold in [(0, 3.5), (1, 3.5), (5, 4.5), (20, 1.0), (graph.n_items, 3.5), (graph.n_items, 5.0)]:
        result, logged = _logged_counters(caplog, graph, base, GreedyParams(theta=theta, threshold=threshold))
        counted = _counted_from_lists(graph, base, result.recommendations)
        assert {key: logged[key] for key in counted} == counted
        # every popped move introduces its item or finds its user without a victim
        assert logged["popped"] >= logged["introduced"] + logged["dead"]
        if theta == 0:
            assert logged["popped"] == 0
        totals = {key: totals[key] + logged[key] for key in totals}
    assert min(totals.values()) > 0  # each counter is exercised


# (introduced, popped, dead) at theta 5 and at every item, threshold 1.0; a pop
# whose user is already dead skips the victim scan, and that moves none of them
DEAD_USER_POPS = {0: [(5, 7, 1), (13, 50, 12)], 1: [(5, 19, 3), (12, 39, 12)], 2: [(5, 6, 1), (13, 44, 12)]}


@pytest.mark.parametrize("seed", DEAD_USER_POPS)
def test_greedy_pops_of_dead_users_change_no_list_and_no_counter(caplog, seed):
    # at threshold 1.0 every user runs out of victims while other items still
    # name it as their best user, so the walk pops moves of users already dead
    graph = ScoreGraph(_tie_heavy_matrix(seed, n_users=12), np.arange(12))
    base = top_k(graph, 3)
    for theta, counted in zip((5, graph.n_items), DEAD_USER_POPS[seed]):
        result, logged = _logged_counters(caplog, graph, base, GreedyParams(theta=theta, threshold=1.0))
        lists, achieved = greedy_rescan(graph, base, 3, theta, 1.0)
        assert result.recommendations.tolist() == lists
        assert result.achieved_increase == achieved
        assert (logged["introduced"], logged["popped"], logged["dead"]) == counted
    assert counted[1] > counted[0] + counted[2]  # some pops find a user already dead


def test_greedy_gives_an_item_tied_across_row_blocks_to_its_lowest_user(monkeypatch):
    # item 3 scores 5.0 for users 0 and 4 and 4.0 for user 2, so the argmax over its column
    # gives it to user 0; top_k builds the base two users per block, and every user's base
    # is item 0, so every user has a victim
    monkeypatch.setattr(predictors, "_BLOCK_CELLS", 4 * 2)
    item_3 = {0: 5.0, 2: 4.0, 4: 5.0}
    graph = graph_of(*[[(0, 5.0)] + ([(3, item_3[u])] if u in item_3 else []) for u in range(6)], n_items=4)
    base = top_k(graph, 1)
    assert base.ravel().tolist() == [0] * 6
    result = greedy_rerank(graph, base, GreedyParams(theta=1))
    assert result.recommendations.ravel().tolist() == [3, 0, 0, 0, 0, 0]
    assert (result.recommendations.tolist(), result.achieved_increase) == greedy_rescan(graph, base, 1, 1, 3.5)


def test_greedy_moves_an_item_on_past_a_dead_user_who_scored_it_inf():
    # user 0 scores item 2 inf but has no victim (no other user receives item 1), so item 2
    # moves on to user 1: a dead user's inf must read as 0.0, not as NaN, which argmax picks
    graph = graph_of([(1, 5.0), (2, np.inf)], [(0, 5.0), (2, 4.0)], [(0, 5.0)], n_items=3)
    base = np.array([[1], [0], [0]])
    result = greedy_rerank(graph, base, GreedyParams(theta=1))
    assert (result.recommendations.tolist(), result.achieved_increase, result.dead) == ([[1], [2], [0]], 1, 1)
    assert (result.recommendations.tolist(), result.achieved_increase) == greedy_rescan(graph, base, 1, 1, 3.5)


@pytest.mark.parametrize("cells", [1, 40 * 3, 40 * 7])  # 60 rows in 60, 20 and 9 blocks
@pytest.mark.parametrize("seed", range(3))
def test_greedy_in_row_blocks_equals_the_rescan_oracle_on_tie_heavy_graphs(monkeypatch, caplog, seed, cells):
    # the cells vary only top_k's row blocks, which build the base; greedy reads each
    # item's column whole. Rows 0-14 score 5.0 wherever rated, so most items' best score
    # ties among users; threshold 1.0 leaves users without a victim, whose items move on
    graph = ScoreGraph(_tie_heavy_matrix(seed), np.arange(60))
    for theta, threshold in [(5, 3.5), (graph.n_items, 3.5), (graph.n_items, 1.0), (graph.n_items, 5.0)]:
        params = GreedyParams(theta=theta, threshold=threshold)
        monkeypatch.setattr(predictors, "_BLOCK_CELLS", 1 << 20)  # one block
        _, whole = _logged_counters(caplog, graph, top_k(graph, 3), params)
        monkeypatch.setattr(predictors, "_BLOCK_CELLS", cells)
        base = top_k(graph, 3)
        result, blocked = _logged_counters(caplog, graph, base, params)
        assert blocked == whole, (theta, threshold)
        lists, achieved = greedy_rescan(graph, base, 3, theta, threshold)
        assert (result.recommendations.tolist(), result.achieved_increase) == (lists, achieved), (theta, threshold)


def test_greedy_working_set_stays_below_half_the_matrix(monkeypatch):
    # top_k builds the base one block of rows at a time, and greedy reads one column per
    # item's best user: no item-major copy of the scores (a whole matrix) is made
    monkeypatch.setattr(predictors, "_BLOCK_CELLS", 1 << 12)
    graph = ScoreGraph(_tie_heavy_matrix(5, n_users=600, n_items=400), np.arange(600))
    base = top_k(graph, 5)
    for threshold in (1.0, 3.5):
        tracemalloc.start()
        try:
            result = greedy_rerank(graph, base, GreedyParams(theta=graph.n_items, threshold=threshold))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < graph.matrix.nbytes / 2, threshold
        assert result.dead > 0 or threshold == 3.5  # at 1.0, items move on by column


def _random_graph(seed, n_users=12, n_items=30, rated_fraction=0.4):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_users):
        size = int(n_items * (1 - rated_fraction))
        items = rng.choice(n_items, size=size, replace=False)
        pairs.append([(int(i), float(rng.uniform(1, 5))) for i in items])
    return graph_from_pairs(pairs, n_items)


def test_greedy_structural_invariants():
    graph = _random_graph(3)
    k = 3
    base = top_k(graph, k)
    base_pool = set(base.ravel().tolist())
    feasible = greedy_rerank(graph, base, GreedyParams(theta=graph.n_items)).achieved_increase

    previous_agg = None
    for theta in (0, 1, 2, 5, 9, 30):
        result = greedy_rerank(graph, base, GreedyParams(theta=theta))
        recs = result.recommendations
        assert result.achieved_increase == min(theta, feasible)

        pool = set(recs.ravel().tolist())
        assert base_pool <= pool
        assert len(pool) == len(base_pool) + result.achieved_increase

        counts = np.bincount(recs.ravel(), minlength=graph.n_items)
        for item in pool - base_pool:
            assert counts[item] == 1

        for u in range(graph.n_users):
            row = recs[u]
            assert len(set(row.tolist())) == k
            assert set(row.tolist()) <= set(np.flatnonzero(~np.isnan(graph.matrix[u])).tolist())
            scores = graph.matrix[u, row].tolist()
            assert list(scores) == sorted(scores, reverse=True)
            for item in set(row.tolist()) - set(base[u].tolist()):
                assert graph.matrix[u, item] >= 3.5

        agg = aggregate_diversity(graph, recs)
        if previous_agg is not None:
            assert agg >= previous_agg
        previous_agg = agg


def test_greedy_matches_rescan_oracle_on_enumerated_instances():
    checked = 0
    for graph, k in enumerate_small_instances():
        base = top_k(graph, k)
        for threshold in (3.5, 4.5):
            for theta in (1, 2, graph.n_items):
                result = greedy_rerank(graph, base, GreedyParams(theta=theta, threshold=threshold))
                expected_lists, expected_achieved = greedy_rescan(
                    graph, base, k, theta, threshold
                )
                assert result.recommendations.tolist() == expected_lists
                assert result.achieved_increase == expected_achieved
                checked += 1
    assert checked >= 500


def test_greedy_matches_rescan_oracle_at_medium_scale():
    graph = _random_graph(21, n_users=30, n_items=60, rated_fraction=0.3)
    base = top_k(graph, 3)
    for theta in (5, 40):
        result = greedy_rerank(graph, base, GreedyParams(theta=theta, threshold=3.0))
        lists, achieved = greedy_rescan(graph, base, 3, theta, 3.0)
        assert result.recommendations.tolist() == lists
        assert result.achieved_increase == achieved


@pytest.mark.parametrize("threshold", [1.0, 3.5])
def test_greedy_from_a_base_whose_rows_are_not_in_list_order_equals_the_list_ordered_base(caplog, threshold):
    # each row's columns are rotated by 1..k-1 places, so no row is stored in
    # list order; the walk reads every row in list order whatever its columns
    graph = predict_knn(parse_ratings(triples_to_lines(synthetic_triples())))
    base = top_k(graph, 5)
    shift = np.random.default_rng(0).integers(1, 5, size=(graph.n_users, 1))
    rotated = np.take_along_axis(base, (np.arange(5) + shift) % 5, axis=1)
    assert (rotated != base).any(axis=1).all()
    achieved = greedy_rerank(graph, base, GreedyParams(theta=graph.n_items, threshold=threshold)).achieved_increase
    assert 20 < achieved < graph.n_items
    for theta in (0, 1, 5, 20, achieved, graph.n_items):
        ordered, line = _logged_line(caplog, lambda: greedy_rerank(graph, base, GreedyParams(theta, threshold)))
        mixed, mixed_line = _logged_line(caplog, lambda: greedy_rerank(graph, rotated, GreedyParams(theta, threshold)))
        assert np.array_equal(mixed.recommendations, ordered.recommendations), theta
        assert (mixed.achieved_increase, mixed_line) == (ordered.achieved_increase, line)
        lists, expected = greedy_rescan(graph, rotated, 5, theta, threshold)
        assert (mixed.recommendations.tolist(), mixed.achieved_increase) == (lists, expected), theta


def test_greedy_resumed_from_a_shorter_walk_equals_one_longer_walk():
    # the pool never shrinks and a dead user stays dead, so a walk resumed from
    # theta1's lists skips exactly the moves a walk to theta1 + theta2 had passed
    checked = 0
    for graph, k in enumerate_small_instances():
        base = top_k(graph, k)
        for threshold in (1.0, 3.5):
            for first, more in [(0, 2), (1, 1), (1, 3), (2, 2)]:
                head = greedy_rerank(graph, base, GreedyParams(theta=first, threshold=threshold))
                tail = greedy_rerank(graph, head.recommendations, GreedyParams(theta=more, threshold=threshold))
                whole = greedy_rerank(graph, base, GreedyParams(theta=first + more, threshold=threshold))
                assert tail.recommendations.tolist() == whole.recommendations.tolist()
                assert head.achieved_increase + tail.achieved_increase == whole.achieved_increase
                checked += 1
    assert checked == 960


def _cuts_equal_standalone_calls(caplog, graph, base, threshold, thetas, rescan_up_to):
    """Walk once to max(thetas); each cut must equal a call at its theta, line included, and the re-scan oracle."""
    walked = greedy_rerank(graph, base, GreedyParams(theta=max(thetas), threshold=threshold))
    for theta in thetas:
        cut, line = _logged_line(caplog, lambda: walked.walk.cut(theta))
        alone, alone_line = _logged_line(caplog, lambda: greedy_rerank(graph, base, GreedyParams(theta, threshold)))
        assert np.array_equal(cut.recommendations, alone.recommendations), theta
        assert (cut.achieved_increase, line) == (alone.achieved_increase, alone_line)
        if theta <= rescan_up_to:
            lists, achieved = greedy_rescan(graph, base, base.shape[1], theta, threshold)
            assert (cut.recommendations.tolist(), cut.achieved_increase) == (lists, achieved), theta
    return walked.achieved_increase


def test_greedy_cuts_of_one_walk_equal_calls_at_each_theta_on_enumerated_instances(caplog):
    # a walk to n_items always runs dry first (the pool already holds an item),
    # so the cuts run from 0 to past the point where it ran dry
    checked = 0
    for graph, k in enumerate_small_instances():
        base = top_k(graph, k)
        for threshold in (1.0, 3.5):
            thetas = range(graph.n_items + 1)
            achieved = _cuts_equal_standalone_calls(caplog, graph, base, threshold, thetas, graph.n_items)
            assert achieved < graph.n_items
            checked += len(thetas)
    assert checked >= 1000


@pytest.mark.parametrize("threshold", [1.0, 3.5])
@pytest.mark.parametrize("predictor", ["knn", "nmf"])
def test_greedy_cuts_of_one_walk_equal_calls_at_each_theta_on_tie_heavy_graphs(
        caplog, tie_heavy_graphs, predictor, threshold):
    # every cut is held to a call at its theta; the re-scan oracle reaches the first ten at this size
    graph = tie_heavy_graphs[predictor]
    base = top_k(graph, 5)
    achieved = greedy_rerank(graph, base, GreedyParams(theta=graph.n_items, threshold=threshold)).achieved_increase
    assert 100 < achieved < graph.n_items  # the walk runs dry before its theta
    thetas = [0, 1, 2, 10, 100, achieved, achieved + 1, graph.n_items]
    _cuts_equal_standalone_calls(caplog, graph, base, threshold, thetas, rescan_up_to=10)


def test_greedy_result_is_frozen_and_every_cut_owns_its_lists():
    graph = _random_graph(5)
    base = top_k(graph, 3)
    walked = greedy_rerank(graph, base, GreedyParams(theta=6))
    with pytest.raises(AttributeError):
        walked.achieved_increase = 0
    cuts = [walked, walked.walk.cut(6), walked.walk.cut(6), walked.walk.cut(0), walked.walk.cut(0)]
    for n, one in enumerate(cuts):
        assert not np.shares_memory(one.recommendations, base)
        assert not any(np.shares_memory(one.recommendations, other.recommendations) for other in cuts[n + 1:])
    assert np.array_equal(cuts[3].recommendations, base)
    for theta, message in [(7, "theta=7 exceeds 6, the theta walked to"), (2.5, "theta must be an integer >= 0"),
                           (-1, "theta must be an integer >= 0, got -1")]:
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            walked.walk.cut(theta)


def test_greedy_given_a_walk_returns_its_cut_and_rejects_another_base_or_threshold(caplog):
    graph = _random_graph(5)
    base = top_k(graph, 3)
    walk = greedy_rerank(graph, base, GreedyParams(theta=6, threshold=2.0)).walk
    for theta in range(7):
        given, line = _logged_line(caplog, lambda: greedy_rerank(graph, base, GreedyParams(theta, 2.0), walk=walk))
        cut, cut_line = _logged_line(caplog, lambda: walk.cut(theta))
        assert np.array_equal(given.recommendations, cut.recommendations)
        assert (given.achieved_increase, line) == (cut.achieved_increase, cut_line) and given.walk is walk
    other = base[:, ::-1].copy()
    for lists, params, message in [(base, GreedyParams(7, 2.0), "theta=7 exceeds 6, the theta walked to"),
                                   (base, GreedyParams(3, 3.5), "walk is from another base or threshold"),
                                   (other, GreedyParams(3, 2.0), "walk is from another base or threshold")]:
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            greedy_rerank(graph, lists, params, walk=walk)


def test_greedy_is_deterministic():
    graph = _random_graph(9)
    base = top_k(graph, 2)
    a = greedy_rerank(graph, base, GreedyParams(theta=7))
    b = greedy_rerank(graph, base, GreedyParams(theta=7))
    assert np.array_equal(a.recommendations, b.recommendations)
    assert a.achieved_increase == b.achieved_increase


def test_score_graph_without_users_is_rejected_before_any_rerank():
    # greedy_rerank cannot walk a graph with no users, so construction rejects it
    with pytest.raises(InvalidInputError, match="at least one user"):
        ScoreGraph(np.empty((0, 4)), np.arange(0))


def test_score_graph_needs_one_user_id_per_row():
    # error messages index user_ids by row: with one id for three rows, top_k's
    # shortfall message for the third user raised IndexError
    matrix = np.full((3, 4), 2.0)
    matrix[2, 1:] = np.nan
    for user_ids in (np.array([10]), np.arange(4)):
        with pytest.raises(InvalidInputError, match="user ids for 3 score rows"):
            ScoreGraph(matrix, user_ids)
    with pytest.raises(CandidateShortfallError, match="user 12"):
        top_k(ScoreGraph(matrix, np.array([10, 11, 12])), 2)


def test_greedy_rejects_mismatched_base():
    graph = _random_graph(1, n_users=4)
    other = _random_graph(1, n_users=5)
    base = top_k(other, 2)
    with pytest.raises(InvalidInputError):
        greedy_rerank(graph, base, GreedyParams(theta=1))


@pytest.fixture(scope="module")
def tie_heavy_graphs():
    # clamping ties 28% (KNN) and 82% (NMF) of the top-5 scores at 5.0
    triples = synthetic_triples(n_users=250, n_items=300, seed=1, min_per_user=10, max_per_user=60)
    d = parse_ratings(triples_to_lines(triples))
    return {"knn": predict_knn(d), "nmf": predict_nmf(d)}


@pytest.mark.parametrize("threshold", [1.0, 3.5, 5.0])  # 1.0: the most moves without a victim
@pytest.mark.parametrize("predictor", ["knn", "nmf"])
def test_greedy_matches_move_list_walk_on_tie_heavy_graphs(tie_heavy_graphs, predictor, threshold):
    graph = tie_heavy_graphs[predictor]
    base = top_k(graph, 5)
    for theta in (1, 10, 100, graph.n_items):
        result = greedy_rerank(graph, base, GreedyParams(theta=theta, threshold=threshold))
        lists, achieved = greedy_move_list(graph, base, 5, theta, threshold)
        assert np.array_equal(result.recommendations, lists), theta
        assert result.achieved_increase == achieved, theta


def test_greedy_calls_sharing_one_graph_equal_calls_on_fresh_graphs(tie_heavy_graphs):
    graph = tie_heavy_graphs["nmf"]
    base = top_k(graph, 5)
    for theta, threshold in [(100, 5.0), (1, 3.5), (graph.n_items, 3.5), (10, 5.0), (100, 3.5)]:
        params = GreedyParams(theta=theta, threshold=threshold)
        shared = greedy_rerank(graph, base, params)
        fresh = greedy_rerank(ScoreGraph(graph.matrix.copy(), graph.user_ids), base, params)
        assert np.array_equal(shared.recommendations, fresh.recommendations)
        assert shared.achieved_increase == fresh.achieved_increase


def test_no_reader_caches_an_order_on_the_graph():
    graph = _random_graph(4)
    top = top_k(graph, 2)
    greedy_rerank(graph, top, GreedyParams(theta=3))
    random_rerank(graph, RandomParams(ell=(5,), seed=1), 2)
    assert set(graph.__dict__) == {"matrix", "user_ids", "n_candidates"}
