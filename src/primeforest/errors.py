"""Exception types shared across the package, and the integer check at
its entry points."""

import operator


class DomainError(ValueError):
    """Base class for all input/invariant violations raised by this package."""


class SiblingCollision(DomainError):
    """Two sibling vertices would carry the same label."""


class MisplacedInverse(DomainError):
    """An inverted prime label appears below depth 1."""


class InverseLabelPresent(DomainError):
    """Integer evaluation was asked of a tree carrying inverted labels."""


class ZeroInput(DomainError):
    """Zero cannot be encoded; only positive naturals/rationals have trees."""


class SizeOverBudget(DomainError):
    """A request would exceed a size cap; ``requested`` and ``cap`` hold
    the two sizes when the raiser knows them."""

    def __init__(self, message, requested=None, cap=None):
        super().__init__(message)
        self.requested = requested
        self.cap = cap


class NotPrime(DomainError):
    """A prime argument was required."""


class ParseError(DomainError):
    """Malformed tree text."""


def as_integer(value):
    """value as an int, for anything operator.index takes (not a float or a
    string); DomainError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"not an integer: {value!r}") from None
