"""MovieLens-format ratings: parsing, the rating matrix, the candidate mask.

The input format is one rating per line, ``user item rating timestamp``,
separated by tabs or single spaces. Timestamps are discarded. Raw file ids
are remapped to dense 0-based ids (assigned in ascending raw-id order, so
the mapping does not depend on line order); downstream code works with
dense ids only, and reports translate back through ``user_ids`` and
``item_ids``. A user's candidates are the items they have not rated, held
for all users as one (n_users, n_items) bool mask.

A file of plain lines (four unsigned integers below 10**18 each, nothing
else) is split in one vectorised pass, any other source by a line loop that
names a faulty line and reads each field with ``parse_number``, the one rule
for what text is an integer; one checker then checks the ratings and pairs
of both and maps the ids.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import (RATING_MAX, RATING_MIN, CandidateShortfallError, DuplicateRatingError, RatingParseError,
                     RatingRangeError, check_type, parse_number, reject_rows)

_ID_MIN, _ID_MAX = -(2**63), 2**63 - 1  # raw ids are stored as int64
_PLAIN_BYTES = b"0123456789 \t\n"


@dataclass(frozen=True)
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


def parse_ratings(source: str | Path | IO[str] | Iterable[str]) -> RatingsDataset:
    """Parse ``user item rating timestamp`` lines into a RatingsDataset.

    Accepts a path, an open text stream, or any iterable of lines. Raises
    RatingParseError for malformed lines, RatingRangeError for ratings
    outside 1-5, and DuplicateRatingError for repeated (user, item) pairs.

    A file is first read whole and split in one vectorised pass
    (``_parse_plain``); any other file, split into lines as
    ``open(path, encoding="ascii")`` would split it, and every other source go
    through the line loop, which names the line of a non-ASCII byte in a file
    as it does in a list of lines. One checker then takes either's fields, so
    every format fault is found before any bad rating or repeated pair.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            data = handle.read()
        fields = _parse_plain(data)
        if fields is not None:  # a plain file has no blank lines: row r is line r + 1
            return _checked(fields[:, 0], fields[:, 1], fields[:, 2], range(1, len(fields) + 1))
        # one decode; a non-ASCII byte stays a non-ASCII character, so the loop names its line
        source = io.StringIO(data.decode("ascii", errors="surrogateescape"), newline=None)
    return _checked(*_parse_lines(source))


def _parse_plain(data: bytes) -> np.ndarray | None:
    """The (n, 4) int64 fields of a file of plain ratings lines, or None.

    Accepts only data made of digits, spaces, tabs and newlines that ends in
    a newline, has exactly four numbers on every line and no number of
    10**18 or more. Each newline gets a -1 sentinel before it; with no '-'
    in the data the sentinels are the only negative values, so there are
    four numbers per line exactly when there are five values per line and
    every fifth is -1. fromstring clamps a number past int64 to 2**63 - 1,
    which the bound rejects. Anything else, blank lines included, is left
    to the line loop.
    """
    if not data.endswith(b"\n") or data.translate(None, _PLAIN_BYTES):
        return None
    marked = data.replace(b"\n", b" -1\n")
    values = np.fromstring(marked, dtype=np.int64, sep=" ")
    n_lines = (len(marked) - len(data)) // 3  # each newline grew by " -1"
    if values.size != 5 * n_lines or np.any(values[4::5] != -1) or values.max() >= 10**18:
        return None
    # a copy, so the (n, 5) array is freed before the checker allocates
    # (about 2 MB less peak RSS on the cache-resweep benchmark)
    return np.ascontiguousarray(values.reshape(-1, 5)[:, :4])


def _parse_lines(source: IO[str] | Iterable[str]) -> list[tuple[int, ...]]:
    """Raw users, items, ratings (ints of any size) and line numbers, as four tuples."""
    rows: list[tuple[int, int, int, int]] = []
    try:
        for line_no, line in enumerate(source, start=1):
            if not line.isascii():  # also covers the timestamp, which is never read
                raise RatingParseError(f"line {line_no}: not ASCII text")
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 4:
                raise RatingParseError(
                    f"line {line_no}: expected 4 fields (user item rating timestamp), "
                    f"got {len(fields)}"
                )
            try:
                user = parse_number(fields[0])
                item = parse_number(fields[1])
            except ValueError:
                raise RatingParseError(
                    f"line {line_no}: non-numeric user or item id"
                ) from None
            if not (_ID_MIN <= user <= _ID_MAX and _ID_MIN <= item <= _ID_MAX):
                raise RatingParseError(f"line {line_no}: user or item id outside the int64 range")
            try:
                rating = parse_number(fields[2])
            except ValueError:
                raise RatingParseError(
                    f"line {line_no}: rating must be an integer, got {fields[2]!r}"
                ) from None
            rows.append((user, item, rating, line_no))
    except UnicodeDecodeError as exc:
        raise RatingParseError(f"ratings source is not ASCII text: {exc}") from None
    return list(zip(*rows)) or [()] * 4


def _checked(raw_users, raw_items, stars, line_nos) -> RatingsDataset:
    """Name the first row with a rating outside 1-5 or an earlier row's pair, else map the ids."""
    if len(stars) == 0:
        raise RatingParseError("no ratings found in source")
    values = np.asarray(stars)  # float64 or object dtype if a rating overflows int64
    user_ids, users = np.unique(np.asarray(raw_users, dtype=np.int64), return_inverse=True)
    item_ids, items = np.unique(np.asarray(raw_items, dtype=np.int64), return_inverse=True)
    keys = users * item_ids.size + items
    faulty = (values < RATING_MIN) | (values > RATING_MAX)
    pairs = np.sort(keys)
    if faulty.any() or np.any(pairs[1:] == pairs[:-1]):
        order = np.argsort(keys, kind="stable")  # a repeat sorts after its pair's first row
        later = order[1:]
        faulty[later[keys[later] == keys[order[:-1]]]] = True
        row = np.argmax(faulty)
        if not RATING_MIN <= values[row] <= RATING_MAX:
            raise RatingRangeError(f"line {line_nos[row]}: rating {stars[row]} outside [1, 5]")
        raise DuplicateRatingError(
            f"line {line_nos[row]}: duplicate rating for user {raw_users[row]}, "
            f"item {raw_items[row]}"
        )
    return RatingsDataset(
        users=users,
        items=items,
        ratings=values.astype(np.float64),
        user_ids=user_ids,
        item_ids=item_ids,
    )


def load_ratings(path: str | Path) -> RatingsDataset:
    """Parse a ratings file from disk."""
    return parse_ratings(Path(path))


def candidate_sets(dataset: RatingsDataset, min_size: int | None = None) -> np.ndarray:
    """The (n_users, n_items) bool mask of unrated items: row u is user u's candidates.

    If min_size is given, it is a list size k for ``require_candidates``.
    """
    mask = np.ones((dataset.n_users, dataset.n_items), dtype=bool)
    mask[dataset.users, dataset.items] = False
    if min_size is not None:
        require_candidates(mask.sum(axis=1), dataset.user_ids, min_size)
    return mask


def require_candidates(n_candidates: np.ndarray, user_ids: np.ndarray, k: int) -> None:
    """Reject a list size k that is not an integer >= 1 or that some user cannot fill.

    ``n_candidates`` holds each user's candidate count; the first user with
    fewer than k is named by raw id, with a CandidateShortfallError.
    """
    check_type("k", k, "PositiveInt")
    reject_rows(n_candidates < k, user_ids, error=CandidateShortfallError,
                message=lambda user, row: f"user {user} has only {n_candidates[row]} candidates, needs k={k}")
