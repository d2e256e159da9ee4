"""Exception types shared across the package, and the field-type check of the parameter classes."""

import dataclasses
from numbers import Integral, Real


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


def check_field_types(params) -> None:
    """Reject a parameter dataclass field whose value does not have the field's type.

    An ``int`` field takes an integer, a ``float`` field any real number; a
    bool is neither, so ``theta=True`` does not stand for one move.
    """
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        kind, noun = (Real, "a number") if field.type in ("float", float) else (Integral, "an integer")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidInputError(f"{field.name} must be {noun}, got {value!r}")
