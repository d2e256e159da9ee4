import dataclasses
import inspect

import pytest

import fairrec
from fairrec import (
    InvalidInputError,
    GreedyParams,
    GreedyRerankResult,
    KnnParams,
    NmfParams,
    RandomParams,
    RatingsDataset,
    ScoreGraph,
    save_score_cache,
)


def _names(owner) -> set[str]:
    names = set(dir(owner))
    if dataclasses.is_dataclass(owner):
        names |= {f.name for f in dataclasses.fields(owner)}
    return names


def test_every_exported_name_resolves():
    assert len(set(fairrec.__all__)) == len(fairrec.__all__)
    for name in fairrec.__all__:
        assert getattr(fairrec, name) is not None, name


# names no pipeline path, CLI flag or benchmark hook read, removed from the API
REMOVED = {
    fairrec: {"CandidateSets", "write_ratings", "RecommendationSet"},
    fairrec.dataset: {"CandidateSets", "write_ratings", "_write_lines"},
    fairrec.predictors: {"_Rows"},
    fairrec.reranking: {"RecommendationSet", "_check_lists"},
    fairrec.metrics: {"RecommendationSet", "_write_lines", "_check_aligned", "_check_lists"},
    ScoreGraph: {"from_pairs", "scores", "provenance", "lookup", "ranked_users", "ranked"},
    RatingsDataset: {"rated_items", "user_index", "item_index"},
    RandomParams: {"tag"},
    GreedyParams: {"tag"},
}


@pytest.mark.parametrize("owner", REMOVED, ids=lambda owner: owner.__name__)
def test_removed_names_are_gone(owner):
    assert not REMOVED[owner] & _names(owner)


def test_names_the_benchmark_hooks_read_remain():
    # the traced benchmark counts ratings, scored pairs, cache bytes and greedy's increase
    assert {"n_ratings"} <= _names(RatingsDataset)
    assert {"items"} <= _names(ScoreGraph)
    assert {"achieved_increase"} <= _names(GreedyRerankResult)
    assert list(inspect.signature(save_score_cache).parameters) == ["graph", "path"]
    assert {"tag"} <= _names(KnnParams) & _names(NmfParams)  # they key the score cache


@pytest.mark.parametrize("make, message", [
    (lambda: GreedyParams(theta=2.5), "theta must be an integer, got 2.5"),
    (lambda: GreedyParams(theta=True), "theta must be an integer, got True"),  # not one move
    (lambda: GreedyParams(theta=1, threshold="4"), "threshold must be a number, got '4'"),
    (lambda: RandomParams(ell=2.5), "ell must be an integer, got 2.5"),
    (lambda: RandomParams(ell=5, seed=1.0), "seed must be an integer, got 1.0"),
    (lambda: KnnParams(n_neighbors=2.5), "n_neighbors must be an integer, got 2.5"),
    (lambda: KnnParams(min_overlap=1.5), "min_overlap must be an integer, got 1.5"),
    (lambda: NmfParams(n_factors=2.5), "n_factors must be an integer, got 2.5"),
    (lambda: NmfParams(n_epochs=1.5), "n_epochs must be an integer, got 1.5"),
    (lambda: NmfParams(init_seed=-1), "init_seed must be non-negative"),  # numpy refuses it at fit
])
def test_params_reject_a_value_of_the_wrong_type_naming_the_field(make, message):
    with pytest.raises(InvalidInputError) as raised:
        make()
    assert str(raised.value) == message
