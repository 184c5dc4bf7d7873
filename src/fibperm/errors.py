"""Exception hierarchy for the fibperm package.

Two top-level branches matter to callers:

* ``SizeLimitError`` -- the request is well-formed but exceeds a hard
  enumeration cap (the CLI maps it to exit code 3);
* ``DomainError`` -- the input itself is invalid: an unknown class,
  variant, statistic or identity, not a permutation, not in the class, a
  malformed or excluded tiling, and so on (CLI exit code 4).  It is also a
  ``ValueError``, so callers that catch ``ValueError`` still catch it.

Everything derives from ``FibpermError`` so library users can catch the
whole family at once.  The CLI catches only these two branches, so any
other exception is a fault in fibperm, not bad input.
"""

from __future__ import annotations

__all__ = [
    "FibpermError",
    "SizeLimitError",
    "DomainError",
    "DuplicateValueError",
    "OutOfRangeValueError",
    "MalformedTilingError",
    "NotFibonacciError",
    "NotInClassError",
    "InvalidDecompositionError",
    "ExcludedTilingError",
    "NotEvaluableError",
    "UnsupportedLengthError",
    "UnknownIdentityError",
    "shorten",
]


def shorten(text: str, limit: int = 20) -> str:
    """The first ``limit`` characters of ``text``, followed by "..." when
    it is longer: how an error message quotes a value the user gave, so
    the message stays short at any input length."""
    return text[:limit] + ("..." if len(text) > limit else "")


class FibpermError(Exception):
    """Base class for all package-specific errors."""


class SizeLimitError(FibpermError):
    """The requested size exceeds a hard enumeration cap."""


class DomainError(FibpermError, ValueError):
    """The input is outside the operation's domain."""


class DuplicateValueError(DomainError):
    """A candidate permutation repeats a value."""


class OutOfRangeValueError(DomainError):
    """A candidate permutation's values are not exactly 1..n."""


class MalformedTilingError(DomainError):
    """A tiling word contains characters other than 'm' and 'd', or is empty."""


class NotFibonacciError(DomainError):
    """The permutation is not a Fibonacci permutation."""


class NotInClassError(DomainError):
    """The permutation does not belong to the named avoidance class."""


class InvalidDecompositionError(DomainError):
    """A decomposition record violates its structural invariants."""


class ExcludedTilingError(DomainError):
    """The tiling word is the one word of its length outside the bijection's image."""


class NotEvaluableError(DomainError):
    """A formula instance calls for a negative exponent and has no value."""


class UnsupportedLengthError(DomainError):
    """The operation is undefined at this length (for example n = 0 counts)."""


class UnknownIdentityError(DomainError):
    """No identity with the requested id is registered."""
