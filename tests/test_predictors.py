import concurrent.futures
import dataclasses
import io
import logging
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from fairrec import (
    CandidateShortfallError,
    FactorizationError,
    GreedyParams,
    InvalidInputError,
    KnnParams,
    NmfParams,
    RandomParams,
    ScoreGraph,
    candidate_sets,
    fit_nmf,
    greedy_rerank,
    load_score_cache,
    parse_ratings,
    predict_knn,
    predict_nmf,
    random_rerank,
    satisfaction,
    save_score_cache,
    top_k,
)
from fairrec.predictors import _check_finite, _index_dtype

from _oracles import candidate_scores
from conftest import synthetic_triples, triples_to_lines


def dataset_of(*user_ratings):
    """user_ratings[u] maps raw item id -> stars; raw user ids are 1-based."""
    lines = []
    for u, ratings in enumerate(user_ratings, start=1):
        for item, stars in ratings.items():
            lines.append(f"{u} {item} {stars} 0\n")
    return parse_ratings(lines)


def knn_score(graph, user, item):
    return graph.matrix[user, item]


# ---------------------------------------------------------------- knn ----

def test_knn_equal_mean_neighbor_copies_deviation():
    # both users average 3.0 and agree where they overlap, so the single
    # neighbor's deviation transfers whole: 3 + (5 - 3) = 5, 3 + (1 - 3) = 1
    d = dataset_of({1: 5, 2: 1}, {1: 5, 2: 1, 3: 5, 4: 1})
    graph = predict_knn(d)
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 3)) == 5.0
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 4)) == 1.0


def test_knn_zero_deviations_return_the_mean():
    d = dataset_of({1: 5, 2: 3}, {1: 5, 2: 3, 3: 4})
    graph = predict_knn(d)
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 3)) == 4.0


def test_knn_three_user_hand_instance():
    # u {a:5, b:1}, v {a:4, b:2, c:5}, w {a:1, b:5, c:1}; prediction of c for u.
    # means: 3, 11/3, 7/3. centered u=(2,-2,0), v=(1/3,-5/3,4/3), w=(-4/3,8/3,-4/3).
    # sim(u,v) = 4 / (sqrt(8) * sqrt(42)/3) = sqrt(3/7)
    # sim(u,w) = -8 / (sqrt(8) * sqrt(96)/3) = -sqrt(3)/2
    # deviations of c: +4/3 (v) and -4/3 (w), so the weighted sum factors:
    # 3 + (4/3) * (sim_v + |sim_w|) / (sim_v + |sim_w|) = 13/3
    d = dataset_of({1: 5, 2: 1}, {1: 4, 2: 2, 3: 5}, {1: 1, 2: 5, 3: 1})
    graph = predict_knn(d)
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 3)) == approx(13 / 3, abs=1e-12)


def test_knn_neighbor_cap_keeps_only_the_most_similar_rater():
    # v1 is positively similar to u, v2 negatively; with n_neighbors=1 only
    # v1 contributes: 3 + (4 - 10/3) = 11/3. With both, the hand-evaluated
    # weighted deviation applies.
    d = dataset_of({1: 5, 2: 1}, {1: 5, 2: 1, 9: 4}, {1: 1, 2: 5, 9: 1})
    item = np.searchsorted(d.item_ids, 9)

    one = predict_knn(d, KnnParams(n_neighbors=1))
    assert knn_score(one, 0, item) == approx(11 / 3, abs=1e-12)

    s1 = 6 / math.sqrt(39)  # sim(u, v1)
    s2 = math.sqrt(3) / 2  # |sim(u, v2)|
    expected = 3 + (s1 * (2 / 3) + s2 * (4 / 3)) / (s1 + s2)
    both = predict_knn(d, KnnParams(n_neighbors=2))
    assert knn_score(both, 0, item) == approx(expected, abs=1e-9)


def test_knn_equal_similarity_tie_breaks_by_ascending_user_id():
    # two raters with equal similarity to u but opposite deviations for the
    # target item; the lower dense id (lower raw id) must win
    base = {1: 5, 2: 1}
    positive = {1: 5, 2: 1, 5: 5, 6: 1}  # deviation +2 for item 5
    negative = {1: 5, 2: 1, 5: 1, 6: 5}  # deviation -2 for item 5

    d = dataset_of(base, positive, negative)
    graph = predict_knn(d, KnnParams(n_neighbors=1))
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 5)) == 5.0

    d = dataset_of(base, negative, positive)
    graph = predict_knn(d, KnnParams(n_neighbors=1))
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 5)) == 1.0


@pytest.mark.parametrize("first", [0, 1, 2])
def test_knn_boundary_tie_at_two_neighbors_keeps_the_lowest_id(first):
    # the best rater takes the first place; three raters tie exactly for the
    # second (each has centered ratings a permutation of (2,-2,2,-2,1,-1), so
    # every similarity to u is 8 / (sqrt(8) * sqrt(18))) with deviations +2,
    # -2 and +1 on item 9; the tied rater with the lowest id must win
    tied = [
        ({1: 5, 2: 1, 9: 5, 10: 1, 11: 4, 12: 2}, 2),
        ({1: 5, 2: 1, 9: 1, 10: 5, 11: 4, 12: 2}, -2),
        ({1: 5, 2: 1, 9: 4, 10: 2, 11: 5, 12: 1}, 1),
    ]
    tied = tied[first:] + tied[:first]
    best = {1: 5, 2: 1, 9: 4, 10: 2}  # similarity 8 / (sqrt(8) * sqrt(10)), deviation +1
    d = dataset_of({1: 5, 2: 1}, *(r for r, _ in tied), best)
    graph = predict_knn(d, KnnParams(n_neighbors=2))

    s_best = 8 / (math.sqrt(8) * math.sqrt(10))
    s_tied = 8 / (math.sqrt(8) * math.sqrt(18))
    expected = 3 + (s_best * 1 + s_tied * tied[0][1]) / (s_best + s_tied)
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 9)) == approx(expected, abs=1e-12)


def _predictor_messages(caplog, prefix):
    return [
        r.getMessage() for r in caplog.records
        if r.name == "fairrec.predictors" and r.getMessage().startswith(prefix)
    ]


def _fallback_messages(caplog):
    return _predictor_messages(caplog, "predict_knn:")


def test_knn_falls_back_to_user_mean_without_valid_raters(caplog):
    # v shares no rated item with u, so u's candidates keep u's mean 3.0,
    # and v's keep its own; all four candidates fall back
    d = dataset_of({1: 4, 2: 2}, {3: 5, 4: 1})
    with caplog.at_level(logging.DEBUG, logger="fairrec.predictors"):
        graph = predict_knn(d)
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 3)) == 3.0
    assert knn_score(graph, 0, np.searchsorted(d.item_ids, 4)) == 3.0
    assert _fallback_messages(caplog) == ["predict_knn: 4 of 4 candidate scores fell back to the user mean"]


def test_knn_fallback_count_skips_rated_cells(caplog):
    # w rates 1 and 2 alike, so its similarity to everyone is 0: its candidate
    # 3 falls back, and so would its two rated cells, which are not counted;
    # u's candidate 3 has v as a similar rater
    d = dataset_of({1: 4, 2: 2}, {1: 5, 2: 1, 3: 5}, {1: 3, 2: 3})
    with caplog.at_level(logging.DEBUG, logger="fairrec.predictors"):
        graph = predict_knn(d)
    item = np.searchsorted(d.item_ids, 3)
    assert knn_score(graph, 2, item) == 3.0
    assert knn_score(graph, 0, item) != 3.0
    assert _fallback_messages(caplog) == ["predict_knn: 1 of 2 candidate scores fell back to the user mean"]


def test_score_graph_logs_the_candidate_scores_it_clamps(caplog, tmp_path):
    # u (mean 4.5) has one candidate, item 3, whose one rater v (mean 13/3,
    # similarity 1 / (sqrt(0.5) * sqrt(8/3)) = 0.866) is 2/3 above its mean:
    # 5.17 is lowered to 5. u's rated item 1 scores 4.5 + 1.077 / 1.866 = 5.08,
    # above 5 too, but a rated cell is NaN and not counted
    d = dataset_of({1: 5, 2: 4}, {1: 5, 2: 3, 3: 5})
    with caplog.at_level(logging.DEBUG, logger="fairrec.predictors"):
        graph = predict_knn(d)
    assert knn_score(graph, 0, 2) == 5.0
    assert _predictor_messages(caplog, "score graph:") == [
        "score graph: 0 of 1 candidate scores raised to 1, 1 lowered to 5"
    ]

    # NMF's scores are counted alike, after the fit's blocks and loss lines; a score cache hit logs nothing
    params = NmfParams(n_factors=2, n_epochs=5)
    p, q, losses = fit_nmf(d, params)
    raw = (p @ q.T)[0, 2]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fairrec.predictors"):
        graph = predict_nmf(d, params)
        save_score_cache(graph, path=tmp_path / "scores.npy")
        load_score_cache(tmp_path / "scores.npy", d)
    assert _predictor_messages(caplog, "") == [
        "fit_nmf: 1 user blocks and 1 item blocks of at least 2 rows on 1 threads",
        f"predict_nmf: squared-error loss {losses[0]:.6f} before the fit, {losses[-1]:.6f} after 5 epochs",
        f"score graph: {int(raw < 1)} of 1 candidate scores raised to 1, {int(raw > 5)} lowered to 5",
    ]


def test_knn_min_overlap_excludes_thin_similarities():
    # u and v co-rate only item 1; with min_overlap=1 v's deviation moves the
    # prediction off u's mean, with min_overlap=2 it cannot
    d = dataset_of({1: 5, 2: 1, 3: 3}, {1: 4, 4: 5})
    item = np.searchsorted(d.item_ids, 4)
    loose = predict_knn(d, KnnParams(min_overlap=1))
    assert knn_score(loose, 0, item) != 3.0
    strict = predict_knn(d, KnnParams(min_overlap=2))
    assert knn_score(strict, 0, item) == 3.0


@pytest.mark.parametrize("min_overlap", [10**39, 10**400], ids=["beyond-float32", "beyond-float64"])
def test_knn_min_overlap_beyond_every_float_excludes_every_pair(min_overlap):
    # more co-rated items than there are items: every pair is excluded, with
    # no overflow warning or error from comparing the counts with the bound
    d = dataset_of({1: 5, 2: 1, 3: 3}, {1: 4, 4: 5}, {2: 2, 4: 1})
    expected = predict_knn(d, KnnParams(min_overlap=d.n_items + 1)).matrix
    assert np.array_equal(predict_knn(d, KnnParams(min_overlap=min_overlap)).matrix, expected, equal_nan=True)


def test_knn_params_validation():
    with pytest.raises(InvalidInputError):
        KnnParams(n_neighbors=0)
    with pytest.raises(InvalidInputError):
        KnnParams(min_overlap=0)


def test_knn_is_invariant_under_user_relabeling():
    # generic instance (no similarity ties), so renaming raw user ids must
    # permute predictions without changing them
    triples = synthetic_triples(n_users=20, n_items=25, seed=5, min_per_user=6, max_per_user=14)
    d1 = parse_ratings(triples_to_lines(triples))
    g1 = predict_knn(d1)

    rng = np.random.default_rng(0)
    new_ids = {u + 1: int(p) + 101 for u, p in enumerate(rng.permutation(d1.n_users))}
    relabeled = [(new_ids[u], i, r) for u, i, r in triples]
    d2 = parse_ratings(triples_to_lines(relabeled))
    g2 = predict_knn(d2)

    for raw_old, raw_new in new_ids.items():
        items1, scores1 = candidate_scores(g1, np.searchsorted(d1.user_ids, raw_old))
        items2, scores2 = candidate_scores(g2, np.searchsorted(d2.user_ids, raw_new))
        assert np.array_equal(items1, items2)
        assert np.allclose(scores1, scores2, atol=1e-9)


def _popular_items_lines(tie_heavy: bool) -> list[str]:
    """About 200 users on 60 items, so most items have more than 40 raters.

    The tie-heavy variant is 100 users each present twice under two ids, plus
    ten users who give every item the same stars (zero similarity to all):
    equal similarities then straddle the n_neighbors-th place. min_overlap=10
    leaves about half of all pairs invalid.
    """
    if not tie_heavy:
        triples = synthetic_triples(n_users=200, n_items=60, seed=11, min_per_user=8, max_per_user=40)
        return triples_to_lines(triples)
    triples = synthetic_triples(n_users=100, n_items=60, seed=12, min_per_user=8, max_per_user=40)
    twins = [(u + 100, i, r) for u, i, r in triples]
    flat = [(201 + u, i, 4) for u in range(10) for i in range(1 + u, 60, 3)]
    return triples_to_lines(triples + twins + flat)


@pytest.mark.parametrize("tie_heavy", [False, True])
@pytest.mark.parametrize("n_neighbors,min_overlap", [(40, 1), (5, 3), (1, 1), (100, 1), (40, 10)])
def test_knn_matches_full_sort_bit_for_bit(tie_heavy, n_neighbors, min_overlap):
    from _oracles import knn_full_sort

    d = parse_ratings(_popular_items_lines(tie_heavy))
    params = KnnParams(n_neighbors=n_neighbors, min_overlap=min_overlap)
    assert (np.bincount(d.items) > n_neighbors).sum() >= 15  # the partial-selection path
    graph = predict_knn(d, params)
    assert np.array_equal(graph.matrix, knn_full_sort(d, params), equal_nan=True)


def _scores_on_cpus(monkeypatch, predict, d, params, cpus):
    """predict's matrix when the process may run on `cpus` CPUs, and its pool sizes."""
    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        matrix = predict(d, params).matrix
    return matrix, sizes


@pytest.mark.parametrize(
    "lines,params",
    [
        (_popular_items_lines(True), KnnParams()),
        (_popular_items_lines(True), KnnParams(n_neighbors=5, min_overlap=3)),
        (_popular_items_lines(True), KnnParams(n_neighbors=1, min_overlap=10)),
        (None, KnnParams()),
    ],
    ids=["ties-40-1", "ties-5-3", "ties-1-10", "synthetic"],
)
def test_knn_scores_do_not_depend_on_the_thread_count(monkeypatch, caplog, synthetic_dataset, lines, params):
    from _oracles import knn_full_sort

    d = synthetic_dataset if lines is None else parse_ratings(lines)
    expected = knn_full_sort(d, params)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a shared write would race
    try:
        for cpus in (1, 2, 3, 7):
            with caplog.at_level(logging.DEBUG, logger="fairrec.predictors"):
                matrix, sizes = _scores_on_cpus(monkeypatch, predict_knn, d, params, cpus)
            assert sizes == [cpus]
            assert np.array_equal(matrix, expected, equal_nan=True), cpus
    finally:
        sys.setswitchinterval(interval)
    messages = _fallback_messages(caplog)
    assert len(messages) == 4 and len(set(messages)) == 1  # every worker's count is summed


def test_knn_runs_more_cpus_than_items_on_one_thread_per_item(monkeypatch):
    from _oracles import knn_full_sort

    d = dataset_of({1: 5, 2: 1}, {1: 4, 2: 2, 3: 5}, {1: 1, 2: 5, 3: 1}, {3: 2})
    assert d.n_items == 3
    matrix, sizes = _scores_on_cpus(monkeypatch, predict_knn, d, KnnParams(), 7)
    assert sizes == [3]
    assert np.array_equal(matrix, knn_full_sort(d, KnnParams()), equal_nan=True)


def test_knn_index_width_holds_every_user_id_and_rank():
    assert _index_dtype(32768) == np.int16  # ids and ranks up to 32767
    assert _index_dtype(32769) == np.int32


def test_knn_scores_do_not_depend_on_the_index_width(monkeypatch, caplog):
    # 210 users make two row blocks, the second shorter; int32 ids and ranks
    # must give the same bits as int16, which every other test here runs
    from _oracles import knn_full_sort

    d = parse_ratings(_popular_items_lines(True))
    params = KnnParams(n_neighbors=5, min_overlap=3)
    monkeypatch.setattr("fairrec.predictors._index_dtype", lambda n: np.int32)
    with caplog.at_level(logging.DEBUG, logger="fairrec.predictors"):
        matrix, sizes = _scores_on_cpus(monkeypatch, predict_knn, d, params, 2)
    assert np.array_equal(matrix, knn_full_sort(d, params), equal_nan=True)
    assert _predictor_messages(caplog, "predict_knn order:") == [
        "predict_knn order: 2 user blocks of at most 156 rows, int32 ids, on 2 threads"]


@pytest.mark.parametrize(
    "seed,n_neighbors,min_overlap",
    [(0, 40, 1), (1, 3, 1), (2, 1, 1), (3, 5, 2), (4, 2, 3)],
)
def test_knn_matches_loop_reference(seed, n_neighbors, min_overlap):
    from _oracles import knn_rescan

    triples = synthetic_triples(
        n_users=18, n_items=22, seed=seed, min_per_user=5, max_per_user=12
    )
    d = parse_ratings(triples_to_lines(triples))
    c = candidate_sets(d)
    graph = predict_knn(d, KnnParams(n_neighbors=n_neighbors, min_overlap=min_overlap))
    expected = knn_rescan(d, c, n_neighbors, min_overlap)
    for u in range(d.n_users):
        items, scores = candidate_scores(graph, u)
        for item, score in zip(items.tolist(), scores.tolist()):
            assert score == approx(expected[(u, item)], abs=1e-9), (u, item)


@pytest.mark.parametrize("predict", [predict_knn, predict_nmf])
def test_predictions_cover_candidates_within_range(synthetic_dataset, predict):
    c = candidate_sets(synthetic_dataset)
    graph = predict(synthetic_dataset)
    assert graph.n_users == synthetic_dataset.n_users
    assert [items.tolist() for items in graph.items] == [np.flatnonzero(row).tolist() for row in c]
    assert np.array_equal(np.isnan(graph.matrix), ~c)
    assert np.all(graph.matrix[c] >= 1.0)
    assert np.all(graph.matrix[c] <= 5.0)


def test_score_graph_fields_cannot_be_reassigned():
    graph = ScoreGraph(np.array([[np.nan, 4.0, 3.0, 2.0, 1.0]] * 2), np.array([5, 7]))
    assert graph.n_candidates.tolist() == [4, 4]  # cached on first read
    for field in dataclasses.fields(graph):  # a new matrix would leave that count stale
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(graph, field.name, getattr(graph, field.name))


@pytest.mark.parametrize("matrix, got", [
    (np.full(3, 2.0), "float64 of shape (3,)"),
    (np.full((2, 3, 1), 2.0), "float64 of shape (2, 3, 1)"),
    (np.full((2, 3), 2.0, dtype=object), "object of shape (2, 3)"),
    (np.full((2, 3), 2), "int64 of shape (2, 3)"),
    ([[2.0, 3.0], [4.0, 5.0]], "list"),
], ids=["1-D", "3-D", "object", "int", "list"])
def test_score_graph_needs_a_2d_float_matrix(matrix, got):
    with pytest.raises(InvalidInputError) as raised:
        ScoreGraph(matrix, np.arange(2))
    assert str(raised.value) == f"a score graph's matrix must be a 2-D float array, got {got}"


# ---------------------------------------------------------------- nmf ----

def _rank_one_dataset():
    # ratings r_ui = a_u * b_i with a = (1, 2), b = (1, 2, 2, 1)
    return dataset_of({1: 1, 2: 2, 3: 2, 4: 1}, {1: 2, 2: 4, 3: 4, 4: 2})


def test_nmf_reconstructs_a_rank_one_matrix():
    d = _rank_one_dataset()
    p, q, losses = fit_nmf(d, NmfParams(n_factors=2, n_epochs=2000, init_seed=1))
    dense, observed = d.dense_matrix()
    errors = np.abs((p @ q.T) - dense)[observed]
    assert errors.max() <= 1e-2
    assert losses[-1] < losses[0]


def test_nmf_is_deterministic_for_a_seed(synthetic_dataset):
    params = NmfParams(n_factors=5, n_epochs=15, init_seed=3)
    a = predict_nmf(synthetic_dataset, params)
    b = predict_nmf(synthetic_dataset, params)
    assert np.array_equal(a.matrix, b.matrix, equal_nan=True)


def test_nmf_loss_is_non_increasing_every_epoch(synthetic_dataset):
    _, _, losses = fit_nmf(synthetic_dataset, NmfParams(n_factors=6, n_epochs=30, init_seed=2))
    assert len(losses) == 31
    for before, after in zip(losses, losses[1:]):
        assert after <= before * (1 + 1e-9) + 1e-12


def test_nmf_factors_stay_nonnegative_after_every_epoch():
    d = _rank_one_dataset()
    for epochs in range(1, 9):
        p, q, _ = fit_nmf(d, NmfParams(n_factors=3, n_epochs=epochs, init_seed=4))
        assert np.all(p >= 0)
        assert np.all(q >= 0)


def _three_product_loop(d, params):
    """The literal updates, forming mask * (P Q^T) afresh for each use, as whole-matrix products.

    Returns P, Q, the losses summed over the observed entries alone, and the
    same losses summed over the whole masked matrix.
    """
    rated_values, observed = d.dense_matrix()
    mask = observed.astype(np.float64)
    target = rated_values * mask
    rng = np.random.default_rng(params.init_seed)
    scale = np.sqrt(d.ratings.mean() / params.n_factors)
    p = rng.uniform(size=(d.n_users, params.n_factors)) * scale
    q = rng.uniform(size=(d.n_items, params.n_factors)) * scale
    losses = [float(((d.ratings - (p @ q.T)[d.users, d.items]) ** 2).sum())]
    dense_losses = [float(((target - mask * (p @ q.T)) ** 2).sum())]
    for _ in range(params.n_epochs):
        p *= (target @ q) / ((mask * (p @ q.T)) @ q + 1e-12)
        q *= (target.T @ p) / ((mask * (p @ q.T)).T @ p + 1e-12)
        losses.append(float(((d.ratings - (p @ q.T)[d.users, d.items]) ** 2).sum()))
        dense_losses.append(float(((target - mask * (p @ q.T)) ** 2).sum()))
    return p, q, losses, dense_losses


def _multi_block_dataset():
    # 800 users and 900 items make two 384-row blocks on each axis, the last one longer
    return parse_ratings(triples_to_lines(synthetic_triples(n_users=800, n_items=900)))


def test_fit_nmf_equals_the_three_product_loop_exactly(synthetic_dataset):
    # 60 users and 80 items are one block, so every product is the whole-matrix one
    params = NmfParams(n_factors=5, n_epochs=12, init_seed=3)
    d = synthetic_dataset
    p, q, losses, dense_losses = _three_product_loop(d, params)

    got_p, got_q, got_losses = fit_nmf(d, params)
    assert np.array_equal(got_p, p)
    assert np.array_equal(got_q, q)
    assert got_losses == losses
    # the same objective as the masked sum over the whole matrix, up to summation order
    assert got_losses == approx(dense_losses, rel=1e-12, abs=0)


def test_fit_nmf_matches_the_three_product_loop_over_many_blocks():
    # a wrong slice or a skipped block moves P and Q far beyond the last bits
    # that blocked products may change
    params = NmfParams(n_factors=5, n_epochs=6, init_seed=3)
    d = _multi_block_dataset()
    p, q, losses, _ = _three_product_loop(d, params)
    got_p, got_q, got_losses = fit_nmf(d, params)
    assert got_p == approx(p, rel=1e-12, abs=0)
    assert got_q == approx(q, rel=1e-12, abs=0)
    assert got_losses == approx(losses, rel=1e-12, abs=0)
    assert all(after <= before for before, after in zip(got_losses, got_losses[1:]))


def test_nmf_scores_do_not_depend_on_the_thread_count(monkeypatch, caplog):
    d = _multi_block_dataset()
    params = NmfParams(n_factors=5, n_epochs=3, init_seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a shared write would race
    try:
        matrices = []
        for cpus in (1, 2, 3, 7):
            with caplog.at_level(logging.DEBUG, logger="fairrec.predictors"):
                matrix, sizes = _scores_on_cpus(monkeypatch, predict_nmf, d, params, cpus)
            assert sizes == [min(cpus, 2)]
            matrices.append(matrix)
    finally:
        sys.setswitchinterval(interval)
    for cpus, matrix in zip((2, 3, 7), matrices[1:]):
        assert np.array_equal(matrix, matrices[0], equal_nan=True), cpus
    assert _predictor_messages(caplog, "fit_nmf:") == [
        f"fit_nmf: 2 user blocks and 2 item blocks of at least 384 rows on {threads} threads"
        for threads in (1, 2, 2, 2)
    ]


def _fit_nmf_peaks():
    """fit_nmf's traced peak over its matrix's bytes, at one block and at two blocks per axis."""
    peaks = []
    for n_users, n_items in ((300, 400), (800, 900)):
        d = parse_ratings(triples_to_lines(synthetic_triples(n_users=n_users, n_items=n_items)))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            fit_nmf(d, NmfParams(n_factors=5, n_epochs=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak / (d.n_users * d.n_items * 8))
    return peaks


def test_fit_nmf_peak_memory_stays_below_four_matrices():
    # the dense ratings and the loop's matrix-sized temporaries fit in four
    # matrices; a float64 copy of the mask and a copy of the ratings do not
    assert max(_fit_nmf_peaks()) < 4


def test_fit_nmf_peak_memory_stays_below_one_and_a_half_matrices():
    # the mask (1/8 matrix) and the one buffer, refitted and overwritten by the
    # ratings in place, fit in 1.5 matrices; a dense float64 target does not,
    # nor, over two item blocks, a copy of a block's strided columns
    assert max(_fit_nmf_peaks()) < 1.5


def _predict_knn_peak(n_users, n_items):
    """predict_knn's traced peak in bytes, and the dataset's shape."""
    d = parse_ratings(triples_to_lines(synthetic_triples(n_users=n_users, n_items=n_items)))
    tracemalloc.start()
    try:
        predict_knn(d, KnnParams(n_neighbors=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, d.n_users, d.n_items


def test_predict_knn_peak_memory_stays_below_two_and_a_half_matrices():
    # the ratings, centred in place and overwritten by the scores, their mask and
    # the one matrix-sized temporary, the mask's float32 copy, fit in 2.5 matrices;
    # a second copy of the deviations or a separate prediction matrix does not.
    # At this shape the n_users**2 arrays are small beside them
    peak, n, m = _predict_knn_peak(200, 2000)
    assert peak < 2.5 * n * m * 8


def test_predict_knn_peak_memory_stays_below_eighteen_bytes_per_user_pair():
    # beside the ratings and their mask (9 bytes a cell), the similarities (8),
    # the int16 order and ranks (2 each) and the thin-pair bool (1) fit in 18
    # bytes a user pair; an n_users**2 temporary of the argsort's float64 key
    # or int64 order, or of the overlap counts, does not
    peak, n, m = _predict_knn_peak(1500, 200)
    assert peak < 9 * n * m + 18 * n * n


def test_predict_knn_releases_its_user_pair_arrays_before_the_clamp(monkeypatch):
    # when the scores reach from_matrix only the scores (8 bytes a cell), the
    # mask (1) and per-user vectors are held; the similarities, order and ranks
    # (12 bytes a user pair) are gone, so the clamp's bool temporaries do not
    # stack on them. At 600 users and 80 items one int16 user-pair array
    # alone (2 bytes a pair) is larger than the bound
    d = parse_ratings(triples_to_lines(synthetic_triples(n_users=600, n_items=80)))
    clamp = ScoreGraph.from_matrix.__func__
    held = []

    def spy(cls, scores, dataset):
        held.append(tracemalloc.get_traced_memory()[0])
        return clamp(cls, scores, dataset)

    monkeypatch.setattr(ScoreGraph, "from_matrix", classmethod(spy))
    tracemalloc.start()
    try:
        predict_knn(d, KnnParams(n_neighbors=5))
    finally:
        tracemalloc.stop()
    n, m = d.n_users, d.n_items
    assert len(held) == 1
    assert held[0] < 9 * n * m + n * n


def test_nmf_params_validation():
    with pytest.raises(InvalidInputError):
        NmfParams(n_factors=0)
    with pytest.raises(InvalidInputError):
        NmfParams(n_epochs=-1)


def test_check_finite_raises_on_nan():
    with pytest.raises(FactorizationError):
        _check_finite(np.array([1.0, np.nan]))
    with pytest.raises(FactorizationError):
        _check_finite(np.array([np.inf]))


def _nmf_reference(ratings, observed, n_factors, n_epochs, seed, mean_rating):
    """Loop-based multiplicative updates, independent of the library path."""
    n, m = len(ratings), len(ratings[0])
    rng = np.random.default_rng(seed)
    scale = math.sqrt(mean_rating / n_factors)
    p = [[v * scale for v in row] for row in rng.uniform(size=(n, n_factors)).tolist()]
    q = [[v * scale for v in row] for row in rng.uniform(size=(m, n_factors)).tolist()]
    eps = 1e-12

    def product(u, i, pm, qm):
        return sum(pm[u][t] * qm[i][t] for t in range(n_factors))

    for _ in range(n_epochs):
        new_p = [row[:] for row in p]
        for u in range(n):
            for t in range(n_factors):
                num = sum(ratings[u][i] * q[i][t] for i in range(m) if observed[u][i])
                den = sum(product(u, i, p, q) * q[i][t] for i in range(m) if observed[u][i])
                new_p[u][t] = p[u][t] * num / (den + eps)
        p = new_p
        new_q = [row[:] for row in q]
        for i in range(m):
            for t in range(n_factors):
                num = sum(ratings[u][i] * p[u][t] for u in range(n) if observed[u][i])
                den = sum(product(u, i, p, q) * p[u][t] for u in range(n) if observed[u][i])
                new_q[i][t] = q[i][t] * num / (den + eps)
        q = new_q
    return p, q


def test_nmf_hidden_entry_matches_reference_implementation():
    # 4x4 rank-one table with the (4, 4) entry held out
    values = np.outer([1, 2, 1, 2], [1, 1, 2, 2])
    lines = []
    for u in range(4):
        for i in range(4):
            if (u, i) != (3, 3):
                lines.append(f"{u + 1} {i + 1} {values[u, i]} 0\n")
    d = parse_ratings(lines)
    c = candidate_sets(d)
    assert np.flatnonzero(c[3]).tolist() == [3]

    params = NmfParams(n_factors=2, n_epochs=300, init_seed=6)
    graph = predict_nmf(d, params)
    predicted = graph.matrix[3, 3]
    assert 1.0 <= predicted <= 5.0

    dense, observed = d.dense_matrix()
    p_ref, q_ref = _nmf_reference(
        dense.tolist(),
        observed.tolist(),
        params.n_factors,
        params.n_epochs,
        params.init_seed,
        float(d.ratings.mean()),
    )
    reference = min(5.0, max(1.0, sum(p_ref[3][t] * q_ref[3][t] for t in range(2))))
    assert predicted == approx(reference, abs=1.0)


# -------------------------------------------------------------- graph ----

def _three_user_graph():
    # raw items 1..4 are dense 0..3; the users' candidates are {2, 3}, {3} and {0, 1, 2}
    return predict_knn(dataset_of({1: 5, 2: 1}, {1: 5, 2: 1, 3: 5}, {4: 2}))


def _read_lists(graph, lists):
    """The two readers that check a list set against a score graph, one call each."""
    return [
        lambda: satisfaction(graph, lists, lists),
        lambda: greedy_rerank(graph, lists, GreedyParams(theta=1)),
    ]


def test_lists_with_rated_or_out_of_range_items_are_rejected():
    graph = _three_user_graph()
    valid = np.array([[2], [3], [0]])
    assert satisfaction(graph, valid, valid).tolist() == [1.0, 1.0, 1.0]
    # dense item 0 is rated by raw user 1; numpy would wrap -1 to the last item
    for item, message in ((0, "candidate set of user 1"), (-1, "non-negative and below 4"), (4, "below 4")):
        lists = valid.copy()
        lists[0, 0] = item
        for read in _read_lists(graph, lists):
            with pytest.raises(InvalidInputError, match=message):
                read()


def test_lists_without_one_row_per_user_are_rejected():
    graph = _three_user_graph()
    valid = np.array([[2], [3], [0]])
    # np.take_along_axis would broadcast a one-row list set to every user
    for lists in (valid[:1], valid[:2], np.vstack([valid, [[1]]])):
        for read in _read_lists(graph, lists):
            with pytest.raises(InvalidInputError, match="do not match the score graph's 3 users"):
                read()


def test_errors_name_raw_user_ids():
    # raw user ids 101 and 205 map to dense 0 and 1; 205 rated all but one item
    lines = ["101 1 5 0\n", "101 2 3 0\n"]
    lines += [f"205 {i} {1 + i % 5} 0\n" for i in range(1, 5)]
    d = parse_ratings(lines)
    graph = predict_knn(d)
    assert graph.user_ids.tolist() == [101, 205]
    lists = np.array([[2], [0]])  # dense item 0 is raw item 1, rated by both users
    for read in _read_lists(graph, lists):
        with pytest.raises(InvalidInputError, match="user 205"):
            read()
    with pytest.raises(CandidateShortfallError, match="user 205"):
        top_k(graph, 2)
    with pytest.raises(CandidateShortfallError, match="user 205"):
        random_rerank(graph, RandomParams(ell=(3,)), 2)

    zero = ScoreGraph(np.zeros((2, 4)), d.user_ids)
    lists = np.array([[0], [0]])
    with pytest.raises(InvalidInputError, match="user 101"):
        satisfaction(zero, lists, lists)


# -------------------------------------------------------------- cache ----

def test_score_cache_round_trip(tmp_path, synthetic_dataset):
    graph = predict_knn(synthetic_dataset)
    path = tmp_path / "scores.npy"
    save_score_cache(graph, path=path)

    assert [p.name for p in tmp_path.iterdir()] == ["scores.npy"]  # no partial file left
    loaded = load_score_cache(path, synthetic_dataset)
    assert loaded.matrix.dtype == np.float64
    assert np.array_equal(loaded.matrix, graph.matrix, equal_nan=True)
    assert np.array_equal(loaded.user_ids, synthetic_dataset.user_ids)


def test_score_cache_rejects_stale_candidates(tmp_path):
    triples = synthetic_triples()
    before = parse_ratings(triples_to_lines(triples))
    path = tmp_path / "scores.npy"
    save_score_cache(predict_knn(before), path=path)

    # the cache was written before user 0 rated one more, existing item
    unrated = np.setdiff1d(np.arange(before.n_items), before.items[before.users == 0])
    raw_user, raw_item = before.user_ids[0], before.item_ids[unrated[0]]
    after = parse_ratings(triples_to_lines(triples + [(raw_user, raw_item, 4)]))
    assert (after.n_users, after.n_items) == (before.n_users, before.n_items)
    with pytest.raises(InvalidInputError, match=f"user {raw_user} do not match"):
        load_score_cache(path, after)


def test_score_cache_rejects_foreign_header(tmp_path, synthetic_dataset):
    path = tmp_path / "bogus.npy"
    path.write_text("user,item,score\n1,2,3.000000\n")
    with pytest.raises(InvalidInputError, match="not a score cache file"):
        load_score_cache(path, synthetic_dataset)


def _npy(array):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=True)
    return buffer.getvalue()


def _npz(array):
    buffer = io.BytesIO()
    np.savez(buffer, scores=array)
    return buffer.getvalue()


def _scored(matrix, value):
    matrix = matrix.copy()
    matrix[2, 0] = value  # item 0 is a candidate of raw user 103
    return matrix


@pytest.mark.parametrize(
    "contents, message",
    [
        pytest.param(lambda m: _npy(m)[:-8], "not a score cache file", id="truncated"),
        pytest.param(lambda m: _npy(m)[:20], "not a score cache file", id="header-only"),
        pytest.param(lambda m: b"", "not a score cache file", id="empty"),
        pytest.param(_npz, "not a score cache file", id="npz"),
        pytest.param(lambda m: _npy(np.array([m], dtype=object)), "not a score cache file",
                     id="object"),
        pytest.param(lambda m: _npy(m.astype(np.float32)), "holds float32", id="float32"),
        pytest.param(lambda m: _npy(m[:-1]), r"\(4, 7\), not float64 \(5, 7\)", id="short-rows"),
        pytest.param(lambda m: _npy(m[:, :-1]), r"\(5, 6\), not", id="short-columns"),
        pytest.param(lambda m: _npy(m.ravel()), r"\(35,\), not", id="flat"),
        pytest.param(lambda m: _npy(_scored(m, 5.5)), r"5.5 outside \[1, 5\]", id="above-5"),
        pytest.param(lambda m: _npy(_scored(m, 0.0)), r"0.0 outside \[1, 5\]", id="below-1"),
        pytest.param(lambda m: _npy(_scored(m, np.inf)), r"inf outside \[1, 5\]", id="inf"),
    ],
)
def test_score_cache_rejects_malformed_files(tmp_path, contents, message):
    d = parse_ratings([f"{101 + u} {i} {1 + (u + i) % 5} 0\n" for u in range(5) for i in range(u, u + 3)])
    graph = ScoreGraph.from_matrix(np.full((d.n_users, d.n_items), 3.0), d)
    path = tmp_path / "scores.npy"
    path.write_bytes(contents(graph.matrix))
    with pytest.raises(InvalidInputError, match=message):
        load_score_cache(path, d)
