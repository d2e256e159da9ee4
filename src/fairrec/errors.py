"""Exception types shared across the package, and the input checks every module shares.

``FIELD_KINDS`` holds, for each annotation of a settings field, the one
rule for its type and range and the one reader of its text.
``check_type`` applies the rule: ``check_field_types`` to each field of
``SweepConfig`` and of the four parameter classes, and the list functions to
``k``. The sweep reads every config file value, flag and
string keyword with the reader; ``parse_number`` is the one rule for what
text is a number, shared with the ratings parser. ``reject_rows`` is the one
place that names a flagged row by its raw user id.
"""

import dataclasses
from numbers import Integral, Real
from pathlib import Path


class FairrecError(Exception):
    """Base class for all errors raised by fairrec."""


class RatingParseError(FairrecError):
    """A ratings line is malformed (wrong field count or non-numeric field)."""


class RatingRangeError(FairrecError):
    """A rating value lies outside the 1-5 star scale."""


class DuplicateRatingError(FairrecError):
    """The same (user, item) pair appears more than once."""


class CandidateShortfallError(FairrecError):
    """A user has fewer candidate items than the requested list size."""


class InvalidInputError(FairrecError):
    """An argument violates a documented precondition."""


class FactorizationError(FairrecError):
    """Matrix factorization produced non-finite factors."""


RATING_MIN = 1.0
RATING_MAX = 5.0

# aliases that carry a range: type checkers read them as int and float, and
# FIELD_KINDS checks the range too
PositiveInt = int
NonNegativeInt = int
Stars = float  # a score on the 1-5 star scale


def _integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def parse_number(text: str, kind: type = int):
    """kind(text), for ASCII text without '_' only.

    int and float alone also read digit separators and non-ASCII digits, so
    '1_0', '٣' and '３.5' would silently stand for 10, 3 and 3.5.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")
    return kind(text)


def _path(text: str) -> Path:
    if not text.strip():  # Path("") is the working directory
        raise ValueError(f"blank path: {text!r}")
    return Path(text)


def _grid(kind: str, noun: str):
    """The row of a tuple of values of the kind, read from comma-separated integers."""
    return (lambda v: isinstance(v, tuple) and all(map(FIELD_KINDS[kind][0], v)), noun,
            lambda text: tuple(parse_number(part) for part in text.split(",") if part.strip()))


_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
             **dict.fromkeys(("false", "0", "no", "off"), False)}

# each field annotation of the settings classes, as source text (their modules
# postpone annotations): whether a value has it, its noun in messages, and the
# reader of its text (a config file value, a flag or a string keyword), which
# raises KeyError or ValueError on text that is not one
FIELD_KINDS = {
    "PositiveInt": (lambda v: _integer(v) and v >= 1, "an integer >= 1", parse_number),
    "NonNegativeInt": (lambda v: _integer(v) and v >= 0, "an integer >= 0", parse_number),
    "Stars": (lambda v: _number(v) and RATING_MIN <= v <= RATING_MAX, f"a number in [{RATING_MIN:g}, {RATING_MAX:g}]",
              lambda text: parse_number(text, float)),
    "bool": (lambda v: isinstance(v, bool), "a boolean", lambda text: _BOOLEANS[text.strip().lower()]),
    "str": (lambda v: isinstance(v, str), "a string", str),
    "Path": (lambda v: isinstance(v, Path), "a path", _path),
    "tuple[PositiveInt, ...]": _grid("PositiveInt", "a tuple of integers >= 1"),
    "tuple[NonNegativeInt, ...]": _grid("NonNegativeInt", "a tuple of integers >= 0"),
}


def check_type(name: str, value, annotation: str) -> None:
    """Reject a value that does not have the annotated type and range, naming it.

    An integer is a Python or numpy integer and a number any real number,
    numpy's included; a bool is neither, so ``theta=True`` does not stand
    for one move. Every rejection reads ``<name> must be <kind>, got <value>``.
    """
    holds, noun, _ = FIELD_KINDS[annotation]
    if not holds(value):
        raise InvalidInputError(f"{name} must be {noun}, got {value!r}")


def check_field_types(settings) -> None:
    """Apply ``check_type`` to each field of a settings dataclass, with the field's annotation."""
    for field in dataclasses.fields(settings):
        check_type(field.name, getattr(settings, field.name), field.type)


def reject_rows(flagged, user_ids, message, error: type = InvalidInputError) -> None:
    """Raise ``error(message(user, row))`` for the first flagged row, if any.

    ``flagged`` is a bool array with one entry per row and ``user`` is the
    row's raw id from ``user_ids``, so every such message names a file id.
    """
    if flagged.any():
        row = flagged.argmax()
        raise error(message(user_ids[row], row))
