"""Exception types shared across the package, and the input checks every module shares.

``check_type`` is the one rule for a setting's type and range:
``check_field_types`` applies it to each field of ``SweepConfig`` and of the
four parameter classes, reading both from the field's annotation, and the
list functions apply it to ``k`` and ``depth``. ``reject_rows`` is the one
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


def _grid(kind: str):
    """A test for a tuple of values of the kind."""
    return lambda v: isinstance(v, tuple) and all(map(FIELD_KINDS[kind][0], v))


# each field annotation of the settings classes, as source text (their modules
# postpone annotations): whether a value has it, and its noun in messages
FIELD_KINDS = {
    "int": (_integer, "an integer"),
    "PositiveInt": (lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    "NonNegativeInt": (lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    "float": (_number, "a number"),
    "Stars": (lambda v: _number(v) and RATING_MIN <= v <= RATING_MAX, f"a number in [{RATING_MIN:g}, {RATING_MAX:g}]"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "Path": (lambda v: isinstance(v, Path), "a path"),
    "tuple[PositiveInt, ...]": (_grid("PositiveInt"), "a tuple of integers >= 1"),
    "tuple[NonNegativeInt, ...]": (_grid("NonNegativeInt"), "a tuple of integers >= 0"),
}


def check_type(name: str, value, annotation: str = "int") -> None:
    """Reject a value that does not have the annotated type and range, naming it.

    An integer is a Python or numpy integer and a number any real number,
    numpy's included; a bool is neither, so ``theta=True`` does not stand
    for one move. Every rejection reads ``<name> must be <kind>, got <value>``.
    """
    holds, noun = FIELD_KINDS[annotation]
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
