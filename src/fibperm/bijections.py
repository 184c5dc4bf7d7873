"""Length-preserving bijections onto strip tilings, shifted up one cell.

The length-n members of each class biject with the tilings of an
(n+1)-cell strip minus a single excluded word:

* ``phi`` (A-type classes): Fibonacci members map to ``m`` + their own
  tiling word; members with a core map to ``d`` + the word of the member
  with its smallest core value deleted.  The excluded word is ``d`` followed
  by monominoes only.
* ``rho`` (B-type classes): a member with pre-part length l maps to
  ``m``^(l-1) + ``d`` + the tiling word of its top part.  The excluded word
  is the all-monomino tiling.

Both directions validate their input: permutations must belong to the class
and words must lie in the image.
"""

from __future__ import annotations

from typing import Sequence

from .classes import CLASS_IDS, class_spec, decompose
from .errors import DomainError, ExcludedTilingError, shorten
from .fib import parse_tiling, perm_to_tiling, tiling_cells, tiling_to_perm
from .perms import Perm

__all__ = ["phi", "phi_inverse", "rho", "rho_inverse", "tiling_bijection",
           "bijection_domain"]


def tiling_bijection(class_id: str):
    """Name, forward map and inverse map of the class's bijection: phi on
    the A-type classes, rho on the B-type ones.

    >>> tiling_bijection("B2")[0]
    'rho'
    """
    if class_spec(class_id).kind == "A":
        return "phi", phi, phi_inverse
    return "rho", rho, rho_inverse


def bijection_domain(name: str) -> tuple[str, ...]:
    """The classes the bijection *name* is defined on.

    >>> bijection_domain("phi")
    ('A1', 'A2')
    """
    return tuple(c for c in CLASS_IDS if tiling_bijection(c)[0] == name)


def _check_domain(name: str, class_id: str) -> None:
    if class_id not in CLASS_IDS or tiling_bijection(class_id)[0] != name:
        domain = bijection_domain(name)
        raise DomainError(f"{name} is defined on {domain}; got {shorten(class_id)!r}")


def _excluded(name: str, word: str) -> ExcludedTilingError:
    """The error for the one word outside *name*'s image; it shows at most
    the first 8 tiles, so its message stays short at any length."""
    return ExcludedTilingError(
        f"{shorten(word, 8)!r} of {tiling_cells(word)} cells is the one word of its size "
        f"outside the image of {name}"
    )


def phi(class_id: str, perm: Sequence[int]) -> str:
    """Tiling word of an A-type member (one more cell than the member is long).

    >>> phi("A1", (2, 1, 4, 3, 5, 6))
    'mddmm'
    >>> phi("A1", (1, 4, 3, 2, 6, 5))
    'dmdd'
    """
    _check_domain("phi", class_id)
    dec = decompose(class_id, perm)
    if not dec.head_length:
        return "m" + perm_to_tiling(dec.tail)
    # deleting the smallest core value leaves an increasing run, a domino,
    # then the tail: m^(head_length - 3) d <tail word>
    return "d" + "m" * (dec.head_length - 3) + "d" + perm_to_tiling(dec.tail)


def phi_inverse(class_id: str, word: str) -> Perm:
    """Member an (n+1)-cell word encodes; the all-m-after-d word is excluded.

    >>> phi_inverse("A2", "dmdd")
    (1, 4, 2, 3, 6, 5)
    """
    _check_domain("phi", class_id)
    w = parse_tiling(word)
    head, rest = w[0], w[1:]
    if head == "m":
        return tiling_to_perm(rest)
    if "d" not in rest:
        raise _excluded("phi", w)
    i = rest.index("d")  # monominoes before the first domino: the prefix
    return class_spec(class_id).build(i + 3, tiling_to_perm(rest[i + 1 :]))


def rho(class_id: str, perm: Sequence[int]) -> str:
    """Tiling word of a B-type member (one more cell than the member is long).

    >>> rho("B1", (3, 2, 1, 5, 4, 6, 7))
    'mmddmm'
    >>> rho("B2", (2, 3, 1))
    'mmd'
    """
    _check_domain("rho", class_id)
    dec = decompose(class_id, perm)
    return "m" * (dec.head_length - 1) + "d" + perm_to_tiling(dec.tail)


def rho_inverse(class_id: str, word: str) -> Perm:
    """Member an (n+1)-cell word encodes; the all-monomino word is excluded.

    >>> rho_inverse("B1", "mmd")
    (3, 2, 1)
    >>> rho_inverse("B1", "mmddmm")
    (3, 2, 1, 5, 4, 6, 7)
    """
    _check_domain("rho", class_id)
    w = parse_tiling(word)
    if "d" not in w:
        raise _excluded("rho", w)
    k = w.index("d")
    return class_spec(class_id).build(k + 1, tiling_to_perm(w[k + 1 :]))
