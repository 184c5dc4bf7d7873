"""Fibonacci permutations and their tiling words.

A Fibonacci permutation reads left to right as a chain of blocks, each block
either a single value equal to its position (a monomino, ``m``) or a descent
pair of consecutive values (a domino, ``d``).  The length-n Fibonacci
permutations therefore biject with tilings of an n-cell strip by monominoes
and dominoes, written here as words over ``{m, d}``; there are F(n) of them
under the convention F(0) = F(1) = 1.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DomainError, SizeLimitError
from .perms import Perm

# The length-n Fibonacci permutations are exactly Av_n of these patterns.
FIBONACCI_PATTERNS = frozenset({(2, 3, 1), (3, 1, 2), (3, 2, 1)})

# tilings() caches every level it builds and fib_permutations returns F(n)
# fresh tuples, so both stop here; callers needing counts use fib_number.
TILINGS_MAX_CELLS = 27

__all__ = [
    "FIBONACCI_PATTERNS",
    "TILINGS_MAX_CELLS",
    "fib_number",
    "is_fibonacci",
    "tilings",
    "fib_permutations",
    "extend_fibonacci",
    "parse_tiling",
    "tiling_cells",
    "tiling_to_perm",
    "perm_to_tiling",
    "fib_stat",
]


def fib_number(n: int) -> int:
    """F(n) with F(0) = F(1) = 1.

    >>> [fib_number(n) for n in range(8)]
    [1, 1, 2, 3, 5, 8, 13, 21]
    """
    if n < 0:
        raise DomainError(f"F({n}) is not defined here")
    # Fast doubling (Knuth, TAOCP vol. 1, 1.2.8) on the standard numbers
    # f(0) = 0, f(1) = 1, where F(n) = f(n + 1): from (f(k), f(k + 1)),
    # f(2k) = f(k) (2 f(k + 1) - f(k)) and f(2k + 1) = f(k)^2 + f(k + 1)^2.
    a, b = 0, 1
    for bit in bin(n + 1)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def is_fibonacci(perm: Sequence[int]) -> bool:
    """Whether *perm* splits into blocks of 'value in place' singletons and
    descent pairs of consecutive values.

    >>> is_fibonacci((2, 1, 3, 5, 4, 6, 7))
    True
    >>> is_fibonacci((3, 2, 1))
    False
    """
    return fib_stat(perm) == len(perm)


@lru_cache(maxsize=None)
def _tilings(cells: int) -> tuple[str, ...]:
    if cells == 0:
        return ("",)
    if cells == 1:
        return ("m",)
    return tuple("m" + rest for rest in _tilings(cells - 1)) + tuple(
        "d" + rest for rest in _tilings(cells - 2)
    )


def _check_cells(cells: int) -> None:
    if cells < 0:
        raise DomainError(f"a strip cannot have {cells} cells")
    if cells > TILINGS_MAX_CELLS:
        raise SizeLimitError(
            f"tiling enumeration is capped at {TILINGS_MAX_CELLS} cells; got {cells}"
        )


def tilings(cells: int) -> list[str]:
    """All tilings of an n-cell strip, ordered so that the corresponding
    permutations come out lexicographically.

    >>> tilings(3)
    ['mmm', 'md', 'dm']
    >>> [len(tilings(c)) for c in range(7)]
    [1, 1, 2, 3, 5, 8, 13]
    """
    _check_cells(cells)
    return list(_tilings(cells))


def extend_fibonacci(out: list[Perm], prefix: Perm, n: int) -> list[Perm]:
    """Append to *out* and return it: every length-n permutation that is
    *prefix* (on 1..len(prefix)) then a Fibonacci permutation of the values
    above, lexicographically.  The values above are cut at their middle, so
    each result is one concatenation of a left part and a right part.

    >>> extend_fibonacci([], (2, 1), 5)
    [(2, 1, 3, 4, 5), (2, 1, 3, 5, 4), (2, 1, 4, 3, 5)]
    """
    out.extend(_fibonacci(prefix, len(prefix) + 1, n))
    return out


# A middle cut's product: every left part followed by every right part.
Product = tuple[Sequence[Perm], Sequence[Perm]]


def _fibonacci(prefix: Perm, lo: int, hi: int) -> list[Perm]:
    """*prefix* followed by each Fibonacci permutation of the values lo..hi,
    lexicographically: the middle cut's products, flattened."""
    if lo >= hi:  # one member: the base case's product, flattened
        return [prefix + tuple(range(lo, hi + 1))]
    return _flatten(_fibonacci_products(prefix, lo, hi))


def _fibonacci_products(prefix: Perm, lo: int, hi: int) -> list[Product]:
    """The middle cut's two products for *prefix* followed by each Fibonacci
    permutation of the values lo..hi.

    Cut the values lo..hi at mid: no block crosses the cut, or the domino
    (mid+1, mid) does.  So each member is a left part, *prefix* then the
    blocks below the cut, followed by a Fibonacci right part of the values
    above it: the left parts on lo..mid with the right parts on mid+1..hi,
    and the left parts ending in (mid+1, mid) with the right parts on
    mid+2..hi.  Below the prefix and the domino, both parts are Fibonacci
    permutations of one value range, so both come from
    ``_fibonacci_block``, one shared tuple per range: the right parts as
    they are, the left parts as fresh lists of *prefix*, a block's
    permutation and the domino if it crosses.
    """
    if lo >= hi:
        return [([prefix + tuple(range(lo, hi + 1))], ((),))]
    mid = (lo + hi) // 2
    return [
        ([prefix + a for a in _fibonacci_block(lo, mid)], _fibonacci_block(mid + 1, hi)),
        ([prefix + a + (mid + 1, mid) for a in _fibonacci_block(lo, mid - 1)],
         _fibonacci_block(mid + 2, hi)),
    ]


@lru_cache(maxsize=None)
def _fibonacci_block(lo: int, hi: int) -> tuple[Perm, ...]:
    # The Fibonacci permutations of the values lo..hi, built once per
    # process.  Blocks are the left and right parts' ranges, the sides of
    # middle cuts below a range inside 1..27, so the cache holds at most
    # 280 of them (28 empty), fewer than the 378 ranges inside 1..27.  Up
    # to n = 26 each is at most 13 values, F(13) = 377 tuples;
    # fib_permutations(27) adds the left block 1..14.  The top-level ranges
    # of fib_permutations and generate are never cached and come back as
    # fresh lists.
    return tuple(_fibonacci((), lo, hi))


def _left_parts(products: Iterable[Product]) -> list[tuple[Perm, Sequence[Perm]]]:
    # Each left part with its right parts, the left parts sorted.  When no
    # left part is a prefix of another, this orders the members
    # lexicographically; the middle cut's left parts differ by position mid
    # at the latest.
    lefts = [(a, rights) for lefts, rights in products for a in lefts]
    lefts.sort(key=itemgetter(0))
    return lefts


def _flatten(products: Iterable[Product]) -> list[Perm]:
    # Each left part followed by each of its right parts, lexicographically
    # when no left part is a prefix of another.
    return [a + b for a, rights in _left_parts(products) for b in rights]


def fib_permutations(n: int) -> list[Perm]:
    """All Fibonacci permutations of length n, lexicographically.

    >>> fib_permutations(3)
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    """
    _check_cells(n)
    return extend_fibonacci([], (), n)


def parse_tiling(text: str) -> str:
    """Validate a tiling word.

    >>> parse_tiling("mdm")
    'mdm'
    """
    if not text:
        raise DomainError("a tiling word must be nonempty")
    for ch in text:
        if ch not in "md":
            raise DomainError(f"bad tile {ch!r}; expected 'm' or 'd'")
    return text


def tiling_cells(word: str) -> int:
    """Number of strip cells the word covers.

    >>> tiling_cells("mdm")
    4
    """
    return len(word) + word.count("d")


def tiling_to_perm(word: str) -> Perm:
    """The Fibonacci permutation whose block structure matches *word*.

    >>> tiling_to_perm("dmdmm")
    (2, 1, 3, 5, 4, 6, 7)
    """
    out: list[int] = []
    v = 1
    for ch in word:
        if ch == "m":
            out.append(v)
            v += 1
        elif ch == "d":
            out.extend((v + 1, v))
            v += 2
        else:
            raise DomainError(f"bad tile {ch!r}; expected 'm' or 'd'")
    return tuple(out)


def perm_to_tiling(perm: Sequence[int]) -> str:
    """Inverse of :func:`tiling_to_perm`.

    >>> perm_to_tiling((1, 3, 2, 4, 5, 7, 6))
    'mdmmd'
    """
    if not is_fibonacci(perm):
        raise DomainError(f"{perm} is not a Fibonacci permutation")
    # at position i sits a monomino i, a domino's top i+1 or its skipped bottom
    return "".join("m" if v == i else "d" for i, v in enumerate(perm, 1) if v >= i)


def fib_stat(perm: Sequence[int]) -> int:
    """Length of the longest suffix that occupies the top values and, once
    shifted down, is itself a Fibonacci permutation (0 when none is).

    >>> fib_stat((2, 3, 4, 1, 6, 5, 7))
    3
    >>> fib_stat((1, 2, 5, 3, 4, 6, 7))
    2
    >>> fib_stat((3, 2, 1))
    0
    """
    # A Fibonacci suffix on the top values splits, read from the right, into
    # blocks in exactly one way.  While the scan has consumed such a suffix,
    # the p entries left hold the values 1..p, so the next block is a
    # monomino when perm[p-1] == p and a domino when perm[p-2:p] == (p, p-1).
    # Every Fibonacci suffix is therefore a stage of this scan, and the
    # longest one ends where the scan stops.
    p = len(perm)
    while p:
        if perm[p - 1] == p:
            p -= 1
        elif p >= 2 and perm[p - 1] == p - 1 and perm[p - 2] == p:
            p -= 2
        else:
            break
    return len(perm) - p
