"""Collaborative filtering, diversity re-ranking, and user-disparity metrics."""

from .dataset import RatingsDataset, candidate_sets, load_ratings
from .errors import (
    CandidateShortfallError,
    DuplicateRatingError,
    FairrecError,
    FactorizationError,
    InvalidInputError,
    RatingParseError,
    RatingRangeError,
)
from .metrics import (
    DisparityReport,
    aggregate_diversity,
    disparity_report,
    gini,
    overlap_similarity,
    satisfaction,
)
from .predictors import (
    KnnParams,
    NmfParams,
    ScoreGraph,
    fit_nmf,
    load_score_cache,
    predict_knn,
    predict_nmf,
    save_score_cache,
)
from .reranking import (
    GreedyParams,
    GreedyRerankResult,
    GreedyWalk,
    RandomParams,
    greedy_rerank,
    random_rerank,
    top_k,
)
from .sweep import SweepConfig, build_config, emit_plot_data, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CandidateShortfallError",
    "DisparityReport",
    "DuplicateRatingError",
    "FairrecError",
    "FactorizationError",
    "GreedyParams",
    "GreedyRerankResult",
    "GreedyWalk",
    "InvalidInputError",
    "KnnParams",
    "NmfParams",
    "RandomParams",
    "RatingParseError",
    "RatingRangeError",
    "RatingsDataset",
    "ScoreGraph",
    "SweepConfig",
    "aggregate_diversity",
    "build_config",
    "candidate_sets",
    "disparity_report",
    "emit_plot_data",
    "fit_nmf",
    "gini",
    "greedy_rerank",
    "load_ratings",
    "load_score_cache",
    "overlap_similarity",
    "predict_knn",
    "predict_nmf",
    "random_rerank",
    "run_sweep",
    "satisfaction",
    "save_score_cache",
    "top_k",
]
