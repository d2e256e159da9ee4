import os
from pathlib import Path

import numpy as np
import pytest

from fairrec import load_ratings

ML100K_ENV = "FAIRREC_ML100K"
ML100K_CANDIDATE_PATHS = (
    Path("data/ml-100k/u.data"),
    Path("ml-100k/u.data"),
    Path("u.data"),
    Path.home() / "ml-100k" / "u.data",
)


def ml100k_path() -> Path | None:
    env = os.environ.get(ML100K_ENV)
    if env:
        p = Path(env)
        if p.is_file():
            return p
    root = Path(__file__).resolve().parent.parent
    for rel in ML100K_CANDIDATE_PATHS:
        p = rel if rel.is_absolute() else root / rel
        if p.is_file():
            return p
    return None


def require_ml100k() -> Path:
    path = ml100k_path()
    if path is None:
        pytest.skip(
            "MovieLens 100K u.data not found: set FAIRREC_ML100K or place the "
            "file at data/ml-100k/u.data (download ml-100k.zip from "
            "grouplens.org/datasets/movielens)"
        )
    return path


def synthetic_triples(
    n_users: int = 60,
    n_items: int = 80,
    seed: int = 7,
    min_per_user: int = 10,
    max_per_user: int = 28,
) -> list[tuple[int, int, int]]:
    """Plausible integer ratings: popularity-skewed items, user/item biases.

    Raw ids are 1-based. Every user and every item ends up with at least
    one rating; no (user, item) pair repeats.
    """
    rng = np.random.default_rng(seed)
    quality = rng.normal(3.6, 0.6, n_items)
    bias = rng.normal(0.0, 0.5, n_users)
    weights = 1.0 / np.arange(1, n_items + 1) ** 0.8
    weights = weights[rng.permutation(n_items)]
    weights /= weights.sum()

    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u in range(n_users):
        count = int(rng.integers(min_per_user, max_per_user + 1))
        items = rng.choice(n_items, size=count, replace=False, p=weights)
        for i in items:
            rating = int(np.clip(round(quality[i] + bias[u] + rng.normal(0, 0.7)), 1, 5))
            triples.append((u + 1, int(i) + 1, rating))
            seen.add((u + 1, int(i) + 1))
    covered = {i for _, i, _ in triples}
    for i in range(1, n_items + 1):
        if i in covered:
            continue
        u = int(rng.integers(1, n_users + 1))
        while (u, i) in seen:
            u = u % n_users + 1
        rating = int(np.clip(round(quality[i - 1] + rng.normal(0, 0.7)), 1, 5))
        triples.append((u, i, rating))
        seen.add((u, i))
    return triples


def triples_to_lines(triples) -> list[str]:
    return [f"{u}\t{i}\t{r}\t0\n" for u, i, r in triples]


@pytest.fixture(scope="session")
def synthetic_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "ratings.data"
    path.write_text("".join(triples_to_lines(synthetic_triples())), encoding="ascii")
    return path


@pytest.fixture(scope="session")
def synthetic_dataset(synthetic_file):
    return load_ratings(synthetic_file)
