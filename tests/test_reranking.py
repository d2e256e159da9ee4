import tracemalloc

import numpy as np
import pytest
from pytest import approx

from fairrec import reranking
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
    rank_order,
    top_k,
)

from _oracles import (
    enumerate_small_instances,
    graph_from_pairs,
    greedy_move_list,
    greedy_rescan,
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


# --------------------------------------------------------- rank_order ----

@pytest.mark.parametrize("cells", [1, 40 * 3, 40 * 7, 1 << 20])  # 60 rows in 60, 20, 9 and 1 blocks
@pytest.mark.parametrize("seed", range(3))
def test_rank_order_equals_a_stable_full_sort_in_blocks(monkeypatch, seed, cells):
    # rated_fraction 0.9 leaves many rows with fewer candidates than the depth
    monkeypatch.setattr(reranking, "_BLOCK_CELLS", cells)
    for rated_fraction in (0.3, 0.9):
        graph = ScoreGraph(_tie_heavy_matrix(seed, rated_fraction=rated_fraction), np.arange(60))
        for depth in (1, 5, 12, 39, 40):  # 40: every item
            got = rank_order(graph, depth)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert np.array_equal(got, stable_sort_top_k(graph, depth)), (rated_fraction, depth)


def test_rank_order_puts_non_candidates_last_by_ascending_id():
    graph = graph_of([(3, 2.0), (1, 5.0)], [(0, 1.0), (2, 1.0), (4, 1.0)], n_items=5)
    assert rank_order(graph, 5).tolist() == [[1, 3, 0, 2, 4], [0, 2, 4, 1, 3]]


def test_rank_order_rejects_a_depth_outside_the_items():
    graph = _six_item_graph()
    for depth in (0, 7):
        with pytest.raises(InvalidInputError, match=r"depth must lie in \[1, 6\]"):
            rank_order(graph, depth)


def test_rank_order_working_set_stays_below_a_fraction_of_the_matrix(monkeypatch):
    # one block of rows at a time: besides its result, the selection holds no
    # score-sized temporary, such as a negated copy or a full row sort
    monkeypatch.setattr(reranking, "_BLOCK_CELLS", 1 << 12)
    graph = ScoreGraph(_tie_heavy_matrix(5, n_users=400, n_items=300), np.arange(400))
    for depth in (5, 50):
        tracemalloc.start()
        try:
            order = rank_order(graph, depth)
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
    ranked = rank_order(graph, 3)
    for seed in range(5):
        recs = random_rerank(graph, ranked, RandomParams(ell=3, seed=seed), 3)
        assert recs.tolist() == top.tolist()


def test_random_sample_is_subset_of_top_ell_and_ordered():
    graph = _six_item_graph()
    top4 = set(top_k(graph, 4)[0].tolist())
    ranked = rank_order(graph, 4)
    for seed in range(10):
        recs = random_rerank(graph, ranked, RandomParams(ell=4, seed=seed), 2)
        row = recs[0].tolist()
        assert set(row) <= top4
        assert len(set(row)) == 2
        scores = graph.matrix[0, recs[0]].tolist()
        assert list(scores) == sorted(scores, reverse=True)


def test_random_is_deterministic_per_seed_and_varies_across_seeds():
    graph = _six_item_graph()
    ranked = rank_order(graph, 6)
    a = random_rerank(graph, ranked, RandomParams(ell=6, seed=11), 2)
    b = random_rerank(graph, ranked, RandomParams(ell=6, seed=11), 2)
    assert np.array_equal(a, b)
    draws = {
        tuple(random_rerank(graph, ranked, RandomParams(ell=6, seed=s), 2)[0].tolist())
        for s in range(10)
    }
    assert len(draws) > 1


def test_random_users_get_independent_substreams():
    graph = _six_item_graph(n_users=2)
    ranked = rank_order(graph, 6)
    differing = 0
    for seed in range(10):
        recs = random_rerank(graph, ranked, RandomParams(ell=6, seed=seed), 2)
        if recs[0].tolist() != recs[1].tolist():
            differing += 1
    assert differing > 0


def test_random_truncates_ell_to_candidate_count():
    graph = _six_item_graph()
    recs = random_rerank(graph, rank_order(graph, 6), RandomParams(ell=500, seed=3), 4)
    assert len(set(recs[0].tolist())) == 4


def test_random_reads_an_ell_beyond_int64_as_every_candidate():
    graph = _six_item_graph(n_users=3)
    ranked = rank_order(graph, 6)
    for seed in range(5):
        params = RandomParams(ell=10**21, seed=seed)
        assert np.array_equal(random_rerank(graph, ranked, params, 4),
                              random_rerank(graph, ranked, RandomParams(ell=6, seed=seed), 4))


def test_random_shares_one_order_to_the_deepest_ell():
    graph = _random_graph(8, n_users=20, n_items=40)
    deep = rank_order(graph, 30)
    for ell in (3, 10, 30):
        params = RandomParams(ell=ell, seed=2)
        assert np.array_equal(random_rerank(graph, deep, params, 3),
                              random_rerank(graph, rank_order(graph, ell), params, 3))


def test_random_rejects_an_order_of_the_wrong_shape():
    graph = _six_item_graph(n_users=2)
    params = RandomParams(ell=4, seed=0)
    for bad in (rank_order(graph, 3), rank_order(graph, 6)[:1], rank_order(graph, 6).ravel(),
                rank_order(graph, 6).tolist()):
        with pytest.raises(InvalidInputError, match=r"ranked must be \(2, d\) with d >= 4"):
            random_rerank(graph, bad, params, 2)


def test_random_rejects_ell_below_k():
    graph = _six_item_graph()
    with pytest.raises(InvalidInputError):
        random_rerank(graph, rank_order(graph, 6), RandomParams(ell=2, seed=0), 3)


def test_random_params_validation():
    with pytest.raises(InvalidInputError):
        RandomParams(ell=0)
    with pytest.raises(InvalidInputError):
        RandomParams(ell=5, seed=-1)
    graph = _six_item_graph()
    for k in (0, -1):  # checked like top_k's k, not drawn as empty or negative lists
        with pytest.raises(InvalidInputError, match="k must be >= 1"):
            random_rerank(graph, rank_order(graph, 3), RandomParams(ell=3), k)


def test_random_uniform_over_top_two():
    # k=1, ell=2: each of the top-2 items should win about half of the time
    graph = graph_of([(0, 5.0), (1, 4.0), (2, 1.0)])
    ranked = rank_order(graph, 2)
    counts = {0: 0, 1: 0}
    for seed in range(10000):
        item = random_rerank(graph, ranked, RandomParams(ell=2, seed=seed), 1)[0, 0]
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
    ranked = rank_order(graph, ell)
    total = 0.0
    draws = 0
    for seed in range(200):
        recs = random_rerank(graph, ranked, RandomParams(ell=ell, seed=seed), k)
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
    random_rerank(graph, rank_order(graph, 5), RandomParams(ell=5, seed=1), 2)
    assert set(graph.__dict__) == {"matrix", "user_ids", "n_candidates"}
