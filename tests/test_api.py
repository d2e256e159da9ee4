import dataclasses
import inspect

import numpy as np
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
from fairrec.errors import FIELD_KINDS
from fairrec.sweep import SweepConfig


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
    fairrec: {"CandidateSets", "write_ratings", "RecommendationSet", "rank_order", "score_disparity",
              "recommendation_disparity"},
    fairrec.dataset: {"CandidateSets", "write_ratings", "_write_lines"},
    fairrec.predictors: {"_Rows", "_KNN_BLOCK_CELLS"},
    fairrec.reranking: {"RecommendationSet", "_check_lists", "_reject_rows", "_require_candidates", "rank_order",
                        "_BLOCK_CELLS"},
    fairrec.sweep: {"_has_type_of", "_KINDS", "parse_grid", "_BOOLEANS", "_QUOTED", "_predictor"},
    SweepConfig: {"validate"},
    fairrec.metrics: {"RecommendationSet", "_write_lines", "_check_aligned", "_check_lists", "score_disparity",
                      "recommendation_disparity"},
    ScoreGraph: {"from_pairs", "scores", "provenance", "lookup", "ranked_users", "ranked"},
    RatingsDataset: {"rated_items", "user_index", "item_index"},
    RandomParams: {"tag"},
    GreedyParams: {"tag"},
    KnnParams: {"tag"},  # the score cache's key reads the params' fields
    NmfParams: {"tag", "init_seed"},
}


@pytest.mark.parametrize("owner", REMOVED, ids=lambda owner: owner.__name__)
def test_removed_names_are_gone(owner):
    assert not REMOVED[owner] & _names(owner)


def test_names_the_benchmark_hooks_read_remain():
    # the traced benchmark counts ratings, scored pairs, cache bytes and greedy's increase
    assert {"n_ratings"} <= _names(RatingsDataset)
    assert {"items"} <= _names(ScoreGraph)
    assert {"achieved_increase"} <= _names(GreedyRerankResult)
    # the greedy hook reads params positionally or by keyword, one scalar theta per call;
    # a walk to cut from is passed by keyword only, so it never takes params' place
    greedy = inspect.signature(fairrec.greedy_rerank).parameters
    assert list(greedy) == ["graph", "base", "params", "walk"]
    assert (greedy["walk"].kind, greedy["walk"].default) == (inspect.Parameter.KEYWORD_ONLY, None)
    assert {f.name: f.type for f in dataclasses.fields(GreedyParams)}["theta"] == "NonNegativeInt"
    assert list(inspect.signature(save_score_cache).parameters) == ["graph", "path"]


@pytest.mark.parametrize("make, message", [
    (lambda: GreedyParams(theta=2.5), "theta must be an integer >= 0, got 2.5"),
    (lambda: GreedyParams(theta=True), "theta must be an integer >= 0, got True"),  # not one move
    (lambda: GreedyParams(theta=1, threshold="4"), "threshold must be a number in [1, 5], got '4'"),
    (lambda: RandomParams(ell=(5, 2.5)), "ell must be a tuple of integers >= 1, got (5, 2.5)"),
    (lambda: RandomParams(ell=(5,), seed=1.0), "seed must be an integer >= 0, got 1.0"),
    (lambda: KnnParams(n_neighbors=2.5), "n_neighbors must be an integer >= 1, got 2.5"),
    (lambda: KnnParams(min_overlap=1.5), "min_overlap must be an integer >= 1, got 1.5"),
    (lambda: NmfParams(n_factors=2.5), "n_factors must be an integer >= 1, got 2.5"),
    (lambda: NmfParams(n_epochs=1.5), "n_epochs must be an integer >= 0, got 1.5"),
    # numpy refuses it at fit; an id of its own, as the default one begins like RandomParams' seed case's
    pytest.param(lambda: NmfParams(seed=-1), "seed must be an integer >= 0, got -1", id="NmfParams-seed=-1"),
])
def test_params_reject_a_value_of_the_wrong_type_naming_the_field(make, message):
    with pytest.raises(InvalidInputError) as raised:
        make()
    assert str(raised.value) == message


# the five settings classes, each with the arguments that make it valid
SETTINGS = [(KnnParams, {}), (NmfParams, {}), (RandomParams, {"ell": (5,)}), (GreedyParams, {"theta": 1}),
            (SweepConfig, {})]
NOUNS = {"PositiveInt": "an integer >= 1", "NonNegativeInt": "an integer >= 0", "Stars": "a number in [1, 5]",
         "str": "a string", "Path": "a path", "tuple[PositiveInt, ...]": "a tuple of integers >= 1",
         "tuple[NonNegativeInt, ...]": "a tuple of integers >= 0"}
INTEGERS = {"PositiveInt", "NonNegativeInt", "tuple[PositiveInt, ...]", "tuple[NonNegativeInt, ...]"}


def test_every_field_kind_is_the_annotation_of_a_setting():
    # a row no settings field carries, nor k (PositiveInt), is dead
    annotations = {field.type for cls, _ in SETTINGS for field in dataclasses.fields(cls)}
    assert set(FIELD_KINDS) == annotations | {"PositiveInt"}


@pytest.mark.parametrize("value", [np.int64, np.float64, True], ids=["np.int64", "np.float64", "True"])
def test_one_type_rule_for_every_settings_class(value):
    # numpy integers stand wherever an int does and numpy floats wherever a float
    # does; a bool stands for nothing but a bool, and every class says so alike
    for cls, valid in SETTINGS:
        default = cls(**valid)
        for field in dataclasses.fields(cls):
            old = getattr(default, field.name)
            if value is True and field.type != "bool":
                with pytest.raises(InvalidInputError) as raised:
                    cls(**{**valid, field.name: True})
                assert str(raised.value) == f"{field.name} must be {NOUNS[field.type]}, got True"
            elif value is np.int64 and field.type in INTEGERS:
                new = tuple(map(value, old)) if isinstance(old, tuple) else value(old)
                assert cls(**{**valid, field.name: new}) == default
            elif value is np.float64 and field.type == "Stars":
                assert cls(**{**valid, field.name: value(old)}) == default
