"""Exception hierarchy for the fibperm package: only the types that
something tells apart.

* ``FibpermError`` -- the root, so library users can catch every error;
* ``SizeLimitError`` -- a well-formed request past a hard enumeration cap
  (CLI exit code 3);
* ``DomainError`` -- invalid input: an unknown class, variant, statistic
  or identity, not a permutation, a malformed tiling, an unsupported
  length, and so on (CLI exit code 4).  It is also a ``ValueError``;
* ``NotEvaluableError`` -- a ``DomainError`` that ``verify`` reports as
  the ``not-evaluable`` status instead of a failure;
* ``NotInClassError`` -- a ``DomainError`` by which ``structure-oracle``
  tells that ``decompose`` rejected a permutation;
* ``ExcludedTilingError`` -- a ``DomainError`` by which
  ``bijection-image`` tells that the excluded word does not decode.

The CLI catches only ``SizeLimitError`` and ``DomainError``, so any other
exception is a fault in fibperm, not bad input.
"""

from __future__ import annotations

__all__ = [
    "FibpermError",
    "SizeLimitError",
    "DomainError",
    "NotEvaluableError",
    "NotInClassError",
    "ExcludedTilingError",
    "shorten",
    "check_choice",
]


def shorten(text: str, limit: int = 20) -> str:
    """The first ``limit`` characters of ``text``, followed by "..." when
    it is longer: how an error message quotes a value the user gave, so
    the message stays short at any input length."""
    return text[:limit] + ("..." if len(text) > limit else "")


def check_choice(kind: str, value: str, choices: tuple[str, ...]) -> str:
    """Return *value* if it is one of *choices*, else raise DomainError
    naming the *kind* of choice, the value quoted short, and the choices."""
    if value not in choices:
        raise DomainError(f"unknown {kind} {shorten(value)!r}; expected one of {choices}")
    return value


class FibpermError(Exception):
    """Base class for all package-specific errors."""


class SizeLimitError(FibpermError):
    """The requested size exceeds a hard enumeration cap."""


class DomainError(FibpermError, ValueError):
    """The input is outside the operation's domain."""


class NotEvaluableError(DomainError):
    """A formula instance calls for a negative exponent and has no value."""


class NotInClassError(DomainError):
    """The permutation does not belong to the named avoidance class.

    Raised as ``NotInClassError(perm, reason)``, it reads ``(v1, ..., v8,
    ...) of length n reason``: at most the first 8 values, so the message
    stays short at any length.  The text is built only when read, because
    ``structure-oracle`` rejects thousands of permutations and reads none.
    Raised with one argument, it reads as that argument.
    """

    def __str__(self) -> str:
        if len(self.args) != 2:
            return super().__str__()
        perm, reason = self.args
        shown = ", ".join(map(str, perm[:8])) + (", ..." if len(perm) > 8 else "")
        return f"({shown}) of length {len(perm)} {reason}"


class ExcludedTilingError(DomainError):
    """The tiling word is the one word of its length outside the bijection's image."""
