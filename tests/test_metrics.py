
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pytest import approx

from fairrec import (
    DisparityReport,
    GreedyParams,
    InvalidInputError,
    ScoreGraph,
    aggregate_diversity,
    disparity_report,
    gini,
    greedy_rerank,
    overlap_similarity,
    load_ratings,
    satisfaction,
    top_k,
)
from fairrec.metrics import RESULTS_HEADER, as_percent, write_per_user_csv, write_results_csv

from _oracles import gini_pairwise, gini_pairwise_loops, graph_from_pairs


# ---------------------------------------------------------------- gini ----

def test_gini_all_equal_is_zero():
    assert gini([3.7] * 50) == approx(0.0, abs=1e-12)
    assert gini(np.ones(943)) == 0.0


def test_gini_two_point_extremes():
    # double sum: |0-1| + |1-0| = 2, denominator 2 * 2 * 1
    assert gini([0.0, 1.0]) == approx(0.5, abs=1e-12)
    assert gini([1.0, 0.0]) == approx(0.5, abs=1e-12)


def test_gini_one_two_three_four():
    # double sum: 20, denominator 2 * 4 * 10
    assert gini([1, 2, 3, 4]) == approx(0.25, abs=1e-12)


def test_gini_single_element_and_all_zero():
    assert gini([4.2]) == 0.0
    assert gini([0.0, 0.0, 0.0]) == 0.0


def test_gini_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        gini([])
    with pytest.raises(InvalidInputError):
        gini([1.0, -0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gini_rejects_non_finite_entries(bad):
    # NaN and inf sums used to read as an all-zero, perfectly equal population
    with pytest.raises(InvalidInputError, match="finite"):
        gini([bad, 1.0])


def test_gini_matches_literal_loops_on_tiny_vectors():
    for x in ([1.0, 0.5], [2, 2, 2], [0, 1, 5], [1, 2, 3, 4, 10]):
        assert gini(x) == approx(gini_pairwise_loops(x), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    )
)
def test_gini_matches_pairwise_double_sum(xs):
    assume(sum(xs) > 0)
    assert gini(xs) == approx(gini_pairwise(xs), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=100,
    ),
    st.sampled_from([1e-6, 0.5, 3.0, 1e6]),
)
def test_gini_scale_and_permutation_invariance(xs, c):
    assume(sum(xs) > 0)
    g = gini(xs)
    assert gini([c * x for x in xs]) == approx(g, abs=1e-12)
    rng = np.random.default_rng(0)
    assert gini(rng.permutation(xs)) == approx(g, abs=1e-12)
    assert 0.0 <= g <= 1.0 - 1.0 / len(xs) + 1e-12


def test_gini_positive_when_unequal():
    assert gini([1.0, 2.0]) > 0.0
    assert gini([0.0, 0.0, 5.0]) > 0.0


# ------------------------------------------------------- satisfaction ----

def _single_user_graph():
    # items a..d = 0..3 with scores 5, 4, 3, 1
    return graph_from_pairs([[(0, 5.0), (1, 4.0), (2, 3.0), (3, 1.0)]], 4)


def test_satisfaction_hand_values():
    graph = _single_user_graph()
    top = top_k(graph, 2)
    assert top.tolist() == [[0, 1]]
    served = np.array([[1, 2]])
    # (4 + 3) / (5 + 4)
    assert satisfaction(graph, served, top)[0] == approx(7 / 9, abs=1e-12)


def test_satisfaction_k1_hand_value():
    graph = _single_user_graph()
    top = top_k(graph, 1)
    served = np.array([[3]])
    assert satisfaction(graph, served, top)[0] == approx(0.2, abs=1e-12)


def test_satisfaction_of_top_list_is_exactly_one():
    graph = _single_user_graph()
    top = top_k(graph, 2)
    a = satisfaction(graph, top, top)
    assert a.tolist() == [1.0]
    assert gini(a) == 0.0


def test_satisfaction_rejects_mismatched_inputs():
    graph = _single_user_graph()
    top = top_k(graph, 2)
    with pytest.raises(InvalidInputError):
        satisfaction(graph, np.array([[0]]), top)
    with pytest.raises(InvalidInputError):
        satisfaction(graph, np.array([[0, 1], [0, 1]]), top)


MISSHAPEN = {  # (served, top-k) for one user and three items
    "width": (np.array([[0, 1]]), np.array([[0, 1, 2]])),  # widths differ
    "rank": (np.array([0, 1]), np.array([0, 1])),  # not 2-D
    "empty": (np.empty((1, 0), dtype=np.int64), np.empty((1, 0), dtype=np.int64)),  # k = 0
    "repeat": (np.array([[0, 0]]), np.array([[0, 1]])),  # a row repeats an item
    "float": (np.array([[0.9, 1.2]]), np.array([[0, 1]])),  # would truncate to items 0 and 1
    "1-D": (np.array([0, 1]), np.array([[0, 1]])),
    "3-D": (np.array([[[0, 1]]]), np.array([[0, 1]])),
    "negative": (np.array([[-1, 0]]), np.array([[0, 1]])),  # numpy would wrap -1 to item 2
}


@pytest.mark.parametrize("case", MISSHAPEN)
def test_misshapen_lists_are_rejected(case):
    recs, top = MISSHAPEN[case]
    graph = graph_from_pairs([[(0, 5.0), (1, 4.0), (2, 3.0)]], 3)
    with pytest.raises(InvalidInputError):
        satisfaction(graph, recs, top)
    with pytest.raises(InvalidInputError):
        overlap_similarity(graph, recs, top)
    with pytest.raises(InvalidInputError):
        disparity_report(graph, recs, top, predictor="knn", post="none", param=0)
    if case != "width":  # the served lists alone are no list set
        with pytest.raises(InvalidInputError):
            aggregate_diversity(graph, recs)


LIST_FAULTS = {  # (lists, message) on a graph of raw users 7 and 9; user 9 rated item 3
    "out of catalog": ([[0, 1], [1, 4]], "item ids must be non-negative and below 4, for user 9"),
    "non-candidate": ([[0, 1], [1, 3]], "item not in candidate set of user 9"),
    "repeated item": ([[0, 1], [1, 1]], "list for user 9 repeats an item"),
    "row count": ([[0, 1]], "lists of shape (1, 2) do not match the score graph's 2 users"),
}


@pytest.mark.parametrize("case", LIST_FAULTS)
def test_every_list_reader_raises_one_message_per_fault(case):
    graph = ScoreGraph(np.array([[5.0, 4.0, 3.0, 2.0], [5.0, 4.0, 3.0, np.nan]]), np.array([7, 9]))
    lists, message = np.array(LIST_FAULTS[case][0]), LIST_FAULTS[case][1]
    top = top_k(graph, 2)
    readers = {
        "greedy base": lambda: greedy_rerank(graph, lists, GreedyParams(theta=1)),
        "satisfaction": lambda: satisfaction(graph, lists, top),
        "overlap": lambda: overlap_similarity(graph, lists, top),
        "aggregate diversity": lambda: aggregate_diversity(graph, lists),
    }
    for reader, read in readers.items():
        with pytest.raises(InvalidInputError) as raised:
            read()
        assert str(raised.value) == message, reader


def test_satisfaction_rejects_nonpositive_top_mass():
    # a foreign graph with zero scores bypasses the clamping contract
    graph = graph_from_pairs([[(0, 0.0), (1, 0.0)]], 2)
    lists = np.array([[0]])
    with pytest.raises(InvalidInputError):
        satisfaction(graph, lists, lists)


def test_score_disparity_hand_value():
    # D_S is the Gini of satisfactions. Double sum: |1 - 0.5| * 2 = 1, denominator 2 * 2 * 1.5
    assert gini([1.0, 0.5]) == approx(1 / 6, abs=1e-12)


def test_satisfaction_bounded_for_both_post_processors():
    from fairrec import GreedyParams, RandomParams, greedy_rerank, random_rerank

    rng = np.random.default_rng(6)
    pairs = [
        [(int(i), float(rng.uniform(1, 5))) for i in rng.choice(50, size=30, replace=False)]
        for _ in range(15)
    ]
    graph = graph_from_pairs(pairs, 50)
    top = top_k(graph, 4)
    served_sets = [
        random_rerank(graph, RandomParams(ell=(12,), seed=s), 4)[0] for s in range(3)
    ] + [greedy_rerank(graph, top, GreedyParams(theta=t, threshold=3.0)).recommendations
         for t in (3, 10)]
    for served in served_sets:
        a = satisfaction(graph, served, top)
        assert np.all(a > 0.0)
        assert np.all(a <= 1.0 + 1e-12)


@pytest.mark.parametrize("k", [3, 8, 17])
def test_satisfaction_and_overlap_equal_a_per_user_loop(k):
    # the whole-matrix gathers must reproduce the per-user arithmetic exactly,
    # including k >= 8, where numpy's pairwise summation starts to unroll
    from fairrec import RandomParams, random_rerank

    rng = np.random.default_rng(k)
    pairs = [
        [(int(i), float(rng.uniform(1, 5))) for i in rng.choice(60, size=45, replace=False)]
        for _ in range(20)
    ]
    graph = graph_from_pairs(pairs, 60)
    top = top_k(graph, k)
    [served] = random_rerank(graph, RandomParams(ell=(30,), seed=k), k)
    sat = [
        float(graph.matrix[u, served[u]].sum()) / float(graph.matrix[u, top[u]].sum())
        for u in range(graph.n_users)
    ]
    common = [len(set(served[u].tolist()) & set(top[u].tolist())) for u in range(20)]
    assert satisfaction(graph, served, top).tolist() == sat
    assert overlap_similarity(graph, served, top).tolist() == [c / k for c in common]


# ------------------------------------------------------------ overlap ----

def _open_graph(n_users, n_items):
    """A graph whose every item is a candidate of every user, all scored 3.0."""
    return ScoreGraph(np.full((n_users, n_items), 3.0), np.arange(n_users))


def test_overlap_identical_and_disjoint():
    top = np.array([[0, 1]])
    graph = _open_graph(1, 4)
    assert overlap_similarity(graph, top, top)[0] == 1.0
    other = np.array([[2, 3]])
    assert overlap_similarity(graph, other, top)[0] == 0.0


def test_overlap_two_of_five():
    top = np.array([[0, 1, 2, 3, 4]])
    served = np.array([[3, 4, 5, 6, 7]])
    assert overlap_similarity(_open_graph(1, 8), served, top)[0] == approx(0.4, abs=1e-12)


def test_overlap_is_set_based():
    top = np.array([[0, 1, 2]])
    served = np.array([[2, 0, 1]])
    assert overlap_similarity(_open_graph(1, 3), served, top)[0] == 1.0


def test_overlap_one_iff_same_set():
    top = np.array([[0, 1], [0, 1]])
    served = np.array([[1, 0], [1, 2]])
    sims = overlap_similarity(_open_graph(2, 3), served, top)
    assert (sims[0] == 1.0) == (set(served[0]) == set(top[0]))
    assert (sims[1] == 1.0) == (set(served[1]) == set(top[1]))


# ------------------------------------------------- aggregate diversity ----

def test_aggregate_diversity_shared_and_full():
    shared = np.array([[0, 1], [0, 1], [1, 0]])
    assert aggregate_diversity(_open_graph(3, 10), shared) == approx(0.2, abs=1e-12)
    full = np.array([[0, 1], [2, 3]])
    assert aggregate_diversity(_open_graph(2, 4), full) == 1.0


def test_aggregate_diversity_monotone_under_pool_growth():
    base = np.array([[0, 1], [0, 1]])
    grown = np.array([[0, 2], [0, 1]])
    graph = _open_graph(2, 5)
    assert aggregate_diversity(graph, grown) >= aggregate_diversity(graph, base)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([np.int16, np.int32, np.int64]))
def test_aggregate_diversity_counts_the_distinct_listed_items(data, dtype):
    n_items = data.draw(st.integers(1, 2000), label="n_items")
    k = data.draw(st.integers(1, min(n_items, 12)), label="k")
    n_users = data.draw(st.integers(1, 8), label="n_users")
    row = st.lists(st.integers(0, n_items - 1), min_size=k, max_size=k, unique=True)
    recs = np.array(data.draw(st.lists(row, min_size=n_users, max_size=n_users), label="lists"), dtype=dtype)
    graph = _open_graph(n_users, n_items)
    assert aggregate_diversity(graph, recs) == np.unique(recs).size / graph.n_items


def test_aggregate_diversity_rejects_bad_catalog():
    with pytest.raises(InvalidInputError):
        aggregate_diversity(_open_graph(1, 0), np.array([[0]]))
    for lists in (np.array([[0], [5]]), np.array([[0], [1]]), np.array([[-1]])):
        with pytest.raises(InvalidInputError):
            aggregate_diversity(_open_graph(len(lists), 1), lists)


# ------------------------------------------------------------- report ----

def test_disparity_report_fields_and_csv_row():
    graph = graph_from_pairs(
        [[(0, 5.0), (1, 4.0), (2, 3.0)], [(0, 5.0), (1, 2.0), (2, 1.0)]], 3
    )
    top = top_k(graph, 2)
    report = disparity_report(graph, top, top, predictor="knn", post="none", param=0)
    assert report.k == 2
    assert report.score_disparity == 0.0
    assert report.recommendation_disparity == 0.0
    assert 0.0 <= report.aggregate_diversity <= 1.0
    assert report.satisfaction.shape == (2,)
    assert report.csv_row() == "knn,none,0,2,0.666667,0.000000,0.000000"


def test_write_results_csv_header(tmp_path):
    graph = graph_from_pairs([[(0, 5.0), (1, 4.0)]], 2)
    top = top_k(graph, 1)
    report = disparity_report(graph, top, top, predictor="nmf", post="none", param=0)
    write_results_csv([report], tmp_path / "results.csv")
    lines = (tmp_path / "results.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == RESULTS_HEADER
    assert lines[1].startswith("nmf,none,0,1,")


def test_write_per_user_csv_needs_one_row_per_dataset_user(tmp_path):
    graph = graph_from_pairs([[(0, 5.0), (1, 4.0)]] * 3, 2)
    top = top_k(graph, 1)
    report = disparity_report(graph, top, top, predictor="knn", post="none", param=0)
    destination = tmp_path / "per_user.csv"
    two_users = load_ratings(["7 1 5 0\n", "8 2 4 0\n"])
    with pytest.raises(InvalidInputError, match="a report of 3 users for a dataset of 2"):
        write_per_user_csv(report, destination, two_users)
    assert not destination.exists()
    write_per_user_csv(report, destination, load_ratings(["7 1 5 0\n", "8 2 4 0\n", "9 1 3 0\n"]))
    assert destination.read_text(encoding="ascii").splitlines()[1:] == [
        "7,1.000000,1.000000",
        "8,1.000000,1.000000",
        "9,1.000000,1.000000",
    ]


def test_as_percent_two_decimals():
    assert as_percent(0.605) == "60.50%"
    assert as_percent(0.0001) == "0.01%"
