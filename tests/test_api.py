import dataclasses
import inspect

import pytest

import fairrec
from fairrec import (
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
    fairrec.reranking: {"RecommendationSet"},
    fairrec.metrics: {"RecommendationSet", "_write_lines"},
    ScoreGraph: {"from_pairs", "scores", "provenance"},
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
    assert list(inspect.signature(save_score_cache).parameters) == ["graph", "dataset", "path"]
    assert {"tag"} <= _names(KnnParams) & _names(NmfParams)  # they key the score cache
