"""MovieLens-format ratings: parsing, the rating matrix, the candidate mask.

The input format is one rating per line, ``user item rating timestamp``,
separated by tabs or single spaces. Timestamps are discarded. Raw file ids
are remapped to dense 0-based ids (assigned in ascending raw-id order, so
the mapping does not depend on line order); downstream code works with
dense ids only, and reports translate back through ``user_ids`` and
``item_ids``. A user's candidates are the items they have not rated, held
for all users as one (n_users, n_items) bool mask.

A file of plain lines (four unsigned integers each, nothing else) is parsed
in one vectorised pass; any other file, and any other source, goes through
a line loop that gives identical arrays and names the line of an error.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    CandidateShortfallError,
    DuplicateRatingError,
    RatingParseError,
    RatingRangeError,
)

RATING_MIN = 1.0
RATING_MAX = 5.0
_ID_MIN, _ID_MAX = -(2**63), 2**63 - 1  # raw ids are stored as int64
_PLAIN_BYTES = b"0123456789 \t\n"
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1


@dataclass
class RatingsDataset:
    """Sparse user-item rating matrix with the dense -> raw id arrays.

    Immutable after construction and safe to share across threads. Every
    user and every item carries at least one rating, because ids exist only
    through observed ratings.
    """

    users: np.ndarray  # dense user id per rating
    items: np.ndarray  # dense item id per rating
    ratings: np.ndarray  # stars in [1, 5], float64
    user_ids: np.ndarray  # dense -> raw
    item_ids: np.ndarray  # dense -> raw

    @property
    def n_users(self) -> int:
        return self.user_ids.size

    @property
    def n_items(self) -> int:
        return self.item_ids.size

    @property
    def n_ratings(self) -> int:
        return self.ratings.size

    def fingerprint(self) -> str:
        """SHA-256 (hex) of the shape, the ratings in file order and the raw id arrays."""
        digest = hashlib.sha256(f"{self.n_users},{self.n_items}".encode())
        for array in (self.users, self.items, self.ratings, self.user_ids, self.item_ids):
            digest.update(array.tobytes())
        return digest.hexdigest()

    def dense_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (ratings, observed-mask) as dense (n_users, n_items) arrays."""
        r = np.zeros((self.n_users, self.n_items))
        r[self.users, self.items] = self.ratings
        mask = np.zeros((self.n_users, self.n_items), dtype=bool)
        mask[self.users, self.items] = True
        return r, mask


def _iter_lines(source: str | Path | IO[str] | Iterable[str]) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            yield from handle
    else:  # files are decoded as ASCII; other lines are checked here
        for line_no, line in enumerate(source, start=1):
            if not line.isascii():  # int() reads non-ASCII digits such as '١'
                raise RatingParseError(f"line {line_no}: not ASCII text")
            yield line


def parse_ratings(source: str | Path | IO[str] | Iterable[str]) -> RatingsDataset:
    """Parse ``user item rating timestamp`` lines into a RatingsDataset.

    Accepts a path, an open text stream, or any iterable of lines. Raises
    RatingParseError for malformed lines, RatingRangeError for ratings
    outside 1-5, and DuplicateRatingError for repeated (user, item) pairs.

    A file is first read whole and parsed in one vectorised pass
    (``_parse_plain``). Any file that pass does not accept, and every other
    source, goes through the line loop, the only code that names a faulty
    line; both give identical arrays.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            dataset = _parse_plain(handle.read())
        if dataset is not None:
            return dataset
    return _parse_lines(source)


def _parse_plain(data: bytes) -> RatingsDataset | None:
    """Parse a file of plain ratings lines at once, or return None.

    Accepts only data made of digits, spaces, tabs and newlines that ends in
    a newline, has exactly four digit runs on every line and no run longer
    than 18 digits (so each fits in int64), with every rating in 1-5 and no
    repeated (user, item) pair. Anything else, blank lines included, is
    left to the line loop.
    """
    if not data.endswith(b"\n") or data.translate(None, _PLAIN_BYTES):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(chars == ord("\n"))
    # digits sort above the three separators; edges alternate run start, run end
    edges = np.flatnonzero(np.diff(chars >= ord("0"), prepend=False))
    starts, ends = edges[0::2], edges[1::2]
    if (
        starts.size != 4 * newlines.size
        or np.any(starts[3::4] > newlines)  # line j's 4th run starts before its newline
        or np.any(starts[4::4] < newlines[:-1])  # line j+1's 1st run starts after it
        or np.max(ends - starts) > _MAX_DIGITS
    ):
        return None
    fields = np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, 4)
    stars = fields[:, 2]
    if stars.min() < RATING_MIN or stars.max() > RATING_MAX:
        return None
    user_ids, users = np.unique(fields[:, 0], return_inverse=True)
    item_ids, items = np.unique(fields[:, 1], return_inverse=True)
    pairs = np.sort(users * item_ids.size + items)
    if np.any(pairs[1:] == pairs[:-1]):
        return None
    return RatingsDataset(
        users=users,
        items=items,
        ratings=stars.astype(np.float64),
        user_ids=user_ids,
        item_ids=item_ids,
    )


def _parse_lines(source: str | Path | IO[str] | Iterable[str]) -> RatingsDataset:
    raw_users: list[int] = []
    raw_items: list[int] = []
    values: list[float] = []
    seen: set[tuple[int, int]] = set()

    try:
        for line_no, line in enumerate(_iter_lines(source), start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 4:
                raise RatingParseError(
                    f"line {line_no}: expected 4 fields (user item rating timestamp), "
                    f"got {len(fields)}"
                )
            if "_" in line and "_" in "".join(fields[:3]):  # int() accepts digit separators
                raise RatingParseError(f"line {line_no}: '_' in the user, item or rating field")
            try:
                user = int(fields[0])
                item = int(fields[1])
            except ValueError:
                raise RatingParseError(
                    f"line {line_no}: non-numeric user or item id"
                ) from None
            if not (_ID_MIN <= user <= _ID_MAX and _ID_MIN <= item <= _ID_MAX):
                raise RatingParseError(f"line {line_no}: user or item id outside the int64 range")
            try:
                rating = int(fields[2])
            except ValueError:
                raise RatingParseError(
                    f"line {line_no}: rating must be an integer, got {fields[2]!r}"
                ) from None
            if not RATING_MIN <= rating <= RATING_MAX:
                raise RatingRangeError(
                    f"line {line_no}: rating {rating} outside [1, 5]"
                )
            if (user, item) in seen:
                raise DuplicateRatingError(
                    f"line {line_no}: duplicate rating for user {user}, item {item}"
                )
            seen.add((user, item))
            raw_users.append(user)
            raw_items.append(item)
            values.append(float(rating))
    except UnicodeDecodeError as exc:
        raise RatingParseError(f"ratings source is not ASCII text: {exc}") from None

    if not values:
        raise RatingParseError("no ratings found in source")

    raw_u = np.asarray(raw_users, dtype=np.int64)
    raw_i = np.asarray(raw_items, dtype=np.int64)
    user_ids = np.unique(raw_u)
    item_ids = np.unique(raw_i)

    return RatingsDataset(
        users=np.searchsorted(user_ids, raw_u),
        items=np.searchsorted(item_ids, raw_i),
        ratings=np.asarray(values),
        user_ids=user_ids,
        item_ids=item_ids,
    )


def load_ratings(path: str | Path) -> RatingsDataset:
    """Parse a ratings file from disk."""
    return parse_ratings(Path(path))


def candidate_sets(dataset: RatingsDataset, min_size: int | None = None) -> np.ndarray:
    """The (n_users, n_items) bool mask of unrated items: row u is user u's candidates.

    If min_size is given, reject any user with fewer candidates than that
    (the recommendation list size k cannot be met for them).
    """
    mask = np.ones((dataset.n_users, dataset.n_items), dtype=bool)
    mask[dataset.users, dataset.items] = False
    sizes = mask.sum(axis=1)
    if min_size is not None and np.any(sizes < min_size):
        u = np.argmax(sizes < min_size)  # the first such user
        raise CandidateShortfallError(
            f"user {dataset.user_ids[u]} has only {sizes[u]} unrated items, "
            f"fewer than the requested list size {min_size}"
        )
    return mask
