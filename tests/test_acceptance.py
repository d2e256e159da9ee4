"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that evaluate
behaviour on MovieLens 100K skip with instructions when the dataset is not
available; everything else is self-contained. Criteria 3-5 also run, with
the same thresholds, on synthetic ratings of MovieLens 100K's shape:
criteria 3 and 4 with both predictors, criterion 5 with KNN as the paper's
experiment states it.
"""

import logging
import time

import numpy as np
import pytest
from pytest import approx

from fairrec import (
    GreedyParams,
    RandomParams,
    SweepConfig,
    candidate_sets,
    disparity_report,
    gini,
    greedy_rerank,
    load_ratings,
    overlap_similarity,
    predict_knn,
    predict_nmf,
    random_rerank,
    run_sweep,
    satisfaction,
    top_k,
)

from fairrec.dataset import require_candidates

from _oracles import enumerate_small_instances, gini_pairwise, graph_from_pairs, greedy_rescan
from conftest import ml100k_path, require_ml100k, synthetic_triples, triples_to_lines


def _announce(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def ml_knn():
    """MovieLens KNN scores shared by criteria 3-4."""
    path = require_ml100k()
    dataset = load_ratings(path)
    require_candidates(candidate_sets(dataset).sum(axis=1), dataset.user_ids, 5)  # every user can fill a list of 5
    return predict_knn(dataset)


def test_criterion_1_baseline_identity(tmp_path):
    data = require_ml100k()
    start = time.monotonic()
    for predictor in ("knn", "nmf"):
        cfg = SweepConfig(
            data=data, predictor=predictor, post="none", k=5,
            out=tmp_path / predictor,
        )
        report = run_sweep(cfg)[0]
        assert report.score_disparity == 0.0
        assert report.recommendation_disparity == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _announce(1, "baseline disparity is exactly zero", f"{elapsed:.1f}s for both predictors")


def test_criterion_2_gini_oracle():
    rng = np.random.default_rng(20240)
    scales = (1e-6, 3.0, 1e6)
    for trial in range(1000):
        n = int(rng.integers(1, 2001))
        kind = trial % 4
        if kind == 0:
            x = rng.uniform(0.0, 100.0, n)
        elif kind == 1:
            x = rng.exponential(5.0, n)
        elif kind == 2:
            x = rng.integers(0, 10, n).astype(float)
        else:
            x = rng.uniform(0.0, 1.0, n)
            x[rng.uniform(size=n) < 0.3] = 0.0
        if x.sum() == 0.0:
            x[0] = 1.0  # keep the literal double sum well-defined
        g = gini(x)
        assert g == approx(gini_pairwise(x), abs=1e-9)
        assert gini(rng.permutation(x)) == approx(g, abs=1e-12)
        for c in scales:
            assert gini(c * x) == approx(g, abs=1e-12)
    _announce(2, "sorted-form gini matches the pairwise double sum", "1000 vectors")


def test_criterion_3_random_expectation(ml_knn):
    graph = ml_knn
    top = top_k(graph, 5)
    total = 0.0
    count = 0
    for seed in range(20):
        [recs] = random_rerank(graph, RandomParams(ell=(50,), seed=seed), 5)
        sims = overlap_similarity(graph, recs, top)
        total += float(sims.sum())
        count += sims.size
    mean = total / count
    assert mean == approx(0.10, abs=0.02)
    _announce(3, "mean overlap equals k/l", f"mean={mean:.4f} over 20 seeds")


def test_criterion_4_greedy_structure(ml_knn):
    graph = ml_knn
    top5 = top_k(graph, 5)
    base_pool = np.unique(top5).size
    feasible = greedy_rerank(
        graph, top5, GreedyParams(theta=graph.n_items)
    ).achieved_increase

    aggs, d_s, d_r = [], [], []
    for theta in (10, 100, 200, 500, 1000):
        result = greedy_rerank(graph, top5, GreedyParams(theta=theta))
        assert result.achieved_increase == min(theta, feasible)
        assert np.unique(result.recommendations).size == base_pool + result.achieved_increase
        report = disparity_report(
            graph, result.recommendations, top5,
            predictor="knn", post="greedy", param=theta,
        )
        aggs.append(report.aggregate_diversity)
        d_s.append(report.score_disparity)
        d_r.append(report.recommendation_disparity)
    assert aggs == sorted(aggs)
    assert d_s == sorted(d_s)
    assert d_r == sorted(d_r)
    _announce(4, "greedy increases are exact and disparities monotone", f"feasible={feasible}")


def test_criterion_5_diversity_disparity_trend(tmp_path):
    data = require_ml100k()
    start = time.monotonic()
    cfg = SweepConfig(
        data=data, predictor="knn", post="greedy", k=5,
        out=tmp_path / "sweep",
    )
    reports = run_sweep(cfg)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0

    baseline = reports[0]
    endpoint = reports[-1]
    assert endpoint.param == 1000
    assert baseline.aggregate_diversity <= 0.05
    assert endpoint.aggregate_diversity >= 0.40
    assert endpoint.recommendation_disparity >= 0.08
    assert endpoint.score_disparity >= 0.01
    _announce(
        5,
        "diversity/disparity trend reproduced",
        f"agg {baseline.aggregate_diversity:.3f}->{endpoint.aggregate_diversity:.3f}, "
        f"D_S={endpoint.score_disparity:.3f}, D_R={endpoint.recommendation_disparity:.3f}, "
        f"{elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def synthetic_ratings():
    """ML-100K-shaped synthetic ratings, for criteria 3-5 without MovieLens."""
    dataset = load_ratings(triples_to_lines(synthetic_triples(943, 1682, 1, 20, 192)))
    require_candidates(candidate_sets(dataset).sum(axis=1), dataset.user_ids, 5)  # every user can fill a list of 5
    return dataset


@pytest.fixture(scope="module")
def synthetic_knn(synthetic_ratings):
    return predict_knn(synthetic_ratings)


@pytest.fixture(scope="module")
def synthetic_nmf(synthetic_ratings):
    return predict_nmf(synthetic_ratings)


@pytest.fixture(params=["knn", "nmf"])
def synthetic_graph(request):
    """(predictor, scores) of the synthetic ratings, once per predictor."""
    return request.param, request.getfixturevalue(f"synthetic_{request.param}")


def test_criterion_3_random_expectation_synthetic(synthetic_graph):
    predictor, graph = synthetic_graph
    top = top_k(graph, 5)
    sims = [
        overlap_similarity(graph, random_rerank(graph, RandomParams(ell=(50,), seed=seed), 5)[0], top)
        for seed in range(20)
    ]
    mean = float(np.concatenate(sims).mean())
    assert mean == approx(0.10, abs=0.02)
    _announce(3, "mean overlap equals k/l", f"synthetic {predictor}, mean={mean:.4f} over 20 seeds")


def test_random_overlap_depends_only_on_drawn_ranks(synthetic_knn, synthetic_nmf):
    # overlap counts drawn rank positions below k, whatever the scores behind them
    params = RandomParams(ell=(50,), seed=3)
    knn, nmf = (
        overlap_similarity(graph, random_rerank(graph, params, 5)[0], top_k(graph, 5))
        for graph in (synthetic_knn, synthetic_nmf)
    )
    assert np.array_equal(knn, nmf)


def test_criterion_4_greedy_structure_synthetic(synthetic_graph):
    predictor, graph = synthetic_graph
    top5 = top_k(graph, 5)
    base_pool = np.unique(top5).size
    feasible = greedy_rerank(graph, top5, GreedyParams(theta=graph.n_items)).achieved_increase
    reports = []
    for theta in (10, 100, 200, 500, 1000):
        result = greedy_rerank(graph, top5, GreedyParams(theta=theta))
        assert result.achieved_increase == min(theta, feasible)
        assert np.unique(result.recommendations).size == base_pool + result.achieved_increase
        reports.append(disparity_report(graph, result.recommendations, top5,
                                        predictor=predictor, post="greedy", param=theta))
    for metric in ("aggregate_diversity", "score_disparity", "recommendation_disparity"):
        values = [getattr(r, metric) for r in reports]
        assert values == sorted(values), metric
    _announce(4, "greedy increases are exact and disparities monotone",
              f"synthetic {predictor}, feasible={feasible}")


def test_criterion_5_diversity_disparity_trend_synthetic(synthetic_knn):
    graph = synthetic_knn
    top = top_k(graph, 5)
    baseline = disparity_report(graph, top, top, predictor="knn", post="none", param=0)
    result = greedy_rerank(graph, top, GreedyParams(theta=1000))
    endpoint = disparity_report(graph, result.recommendations, top,
                                predictor="knn", post="greedy", param=1000)
    assert baseline.aggregate_diversity <= 0.05
    assert endpoint.aggregate_diversity >= 0.40
    assert endpoint.recommendation_disparity >= 0.08
    assert endpoint.score_disparity >= 0.01
    _announce(
        5,
        "diversity/disparity trend reproduced",
        f"synthetic, agg {baseline.aggregate_diversity:.3f}->{endpoint.aggregate_diversity:.3f}, "
        f"D_S={endpoint.score_disparity:.3f}, D_R={endpoint.recommendation_disparity:.3f}",
    )


def test_greedy_counters_on_the_ml100k_shaped_knn_scores(synthetic_knn, caplog):
    # the benchmark's knn-greedy ratings at seed 1: 2,869 of the 4,056 pops find a
    # user already dead, and each of them skips the victim scan. One walk to 1000
    # logs that line, and its cut at 500 logs the line a walk to 500 logs (README)
    with caplog.at_level(logging.DEBUG, logger="fairrec.reranking"):
        greedy_rerank(synthetic_knn, top_k(synthetic_knn, 5), GreedyParams(theta=1000)).walk.cut(500)
    lines = [r.getMessage() for r in caplog.records if r.name == "fairrec.reranking"]
    assert lines == [
        "greedy_rerank: theta=1000: 1000 items introduced, 4056 moves popped, 187 users marked dead, "
        "335 swaps whose victim scored the same as the new item, 173 users with a swap whose victim scored higher",
        "greedy_rerank: theta=500: 500 items introduced, 1971 moves popped, 90 users marked dead, "
        "335 swaps whose victim scored the same as the new item, 57 users with a swap whose victim scored higher",
    ]


def test_criterion_6_small_instance_oracle():
    checked = 0
    for graph, k in enumerate_small_instances():
        base = top_k(graph, k)
        for threshold in (3.5, 4.5):
            for theta in (1, 2, graph.n_items):
                result = greedy_rerank(graph, base, GreedyParams(theta=theta, threshold=threshold))
                lists, achieved = greedy_rescan(graph, base, k, theta, threshold)
                assert result.recommendations.tolist() == lists
                assert result.achieved_increase == achieved
                checked += 1
    assert checked >= 500

    # hand-worked satisfaction and overlap values
    graph = graph_from_pairs([[(0, 5.0), (1, 4.0), (2, 3.0), (3, 1.0)]], 4)
    top2 = top_k(graph, 2)
    served = np.array([[1, 2]])
    assert satisfaction(graph, served, top2)[0] == approx(7 / 9, abs=1e-12)
    assert overlap_similarity(graph, served, top2)[0] == approx(0.5, abs=1e-12)
    top1 = top_k(graph, 1)
    served1 = np.array([[3]])
    assert satisfaction(graph, served1, top1)[0] == approx(0.2, abs=1e-12)

    # hand-worked greedy replacement
    wg = graph_from_pairs([[(0, 5.0), (1, 4.0), (2, 1.0)], [(0, 5.0), (1, 2.0)]], 3)
    base = top_k(wg, 1)
    moved = greedy_rerank(wg, base, GreedyParams(theta=1, threshold=3.5))
    assert moved.recommendations.tolist() == [[1], [0]]
    assert moved.achieved_increase == 1
    blocked = greedy_rerank(wg, base, GreedyParams(theta=1, threshold=4.5))
    assert blocked.achieved_increase == 0
    _announce(6, "greedy matches exhaustive re-scan", f"{checked} instances")


def test_criterion_7_determinism(tmp_path):
    data = ml100k_path()
    label = "movielens"
    if data is None:
        data = tmp_path / "ratings.data"
        data.write_text("".join(triples_to_lines(synthetic_triples())), encoding="ascii")
        label = "synthetic"

    blobs = []
    for run_name in ("first", "second"):
        out = tmp_path / run_name
        cfg = SweepConfig(
            data=data, predictor="knn", post="random", k=5, seed=17,
            ell=(10, 50), out=out, svg=True,
        )
        run_sweep(cfg)
        blobs.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        )
    assert blobs[0].keys() == blobs[1].keys()
    for file_name in blobs[0]:
        assert blobs[0][file_name] == blobs[1][file_name], (
            f"{file_name} differs between identical runs"
        )
    _announce(7, "byte-identical outputs for identical configs", label)
