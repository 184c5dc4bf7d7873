"""Permutations as plain tuples.

A permutation of length n is a ``tuple[int, ...]`` holding each of 1..n
exactly once; the empty tuple is the unique permutation of length 0.  This
module supplies validation, classical pattern containment, direct and skew
sums, inversion counting, and a generating-tree avoidance oracle used as the
ground truth by everything downstream: the avoiders of length n are the
avoiders of length n - 1 with the value n inserted somewhere, kept when they
still contain no pattern (West 1995).  A parent already avoids every
pattern, so a child can contain one only through the inserted n, which can
play only the pattern's maximum: the tree tests just those occurrences.  It
tests candidates with the same search as ``contains_pattern``, so it shares
no code with the structural generators.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError, SizeLimitError, shorten

Perm = tuple[int, ...]
PatternSet = frozenset[Perm]

# Hard cap for the generating-tree oracle; larger boards go through the
# structural generators instead.
BRUTE_FORCE_MAX_N = 13
# Most candidates one tree level may test.  A pattern set that few
# permutations contain (say one long pattern) grows a level towards n!, so
# such a level raises SizeLimitError instead of running for minutes.
BRUTE_FORCE_MAX_CANDIDATES = 10**6

__all__ = [
    "Perm",
    "PatternSet",
    "BRUTE_FORCE_MAX_N",
    "BRUTE_FORCE_MAX_CANDIDATES",
    "make_permutation",
    "make_pattern_set",
    "standardize",
    "contains_pattern",
    "direct_sum",
    "skew_sum",
    "inversions",
    "brute_force_av",
    "format_permutation",
    "parse_permutation",
]


def make_permutation(values: Iterable[int]) -> Perm:
    """Validate that *values* is a permutation of 1..n and return it as a tuple.

    >>> make_permutation([2, 1, 3])
    (2, 1, 3)
    >>> make_permutation(())
    ()
    """
    perm = tuple(values)
    n = len(perm)
    seen = [False] * (n + 1)
    for v in perm:
        if not 1 <= v <= n:
            raise DomainError(f"value {shorten(str(v))} outside 1..{n}")
        if seen[v]:
            raise DomainError(f"value {v} appears twice")
        seen[v] = True
    return perm


def make_pattern_set(patterns: Iterable[Sequence[int]]) -> PatternSet:
    """Validate a collection of patterns (permutations of length >= 3).

    >>> sorted(make_pattern_set([(2, 3, 1), (3, 1, 2)]))
    [(2, 3, 1), (3, 1, 2)]
    """
    out = frozenset(make_permutation(p) for p in patterns)
    if not out:
        raise DomainError("a pattern set must be nonempty")
    for p in out:
        if len(p) < 3:
            raise DomainError(f"pattern {p} shorter than 3")
    return out


def standardize(values: Sequence[int]) -> Perm:
    """Rank distinct integers into the order-isomorphic permutation.

    >>> standardize((4, 7, 5))
    (1, 3, 2)
    >>> standardize((9, 2))
    (2, 1)
    """
    ranks = {v: i + 1 for i, v in enumerate(sorted(values))}
    if len(ranks) != len(values):
        raise DomainError("values to standardize must be distinct")
    return tuple(ranks[v] for v in values)


@lru_cache(maxsize=None)
def _tightest_neighbours(pattern: Perm) -> tuple[tuple[int, int, int, int], ...]:
    # For each pattern index t: indices (< t) of the already-matched entries
    # giving the tightest value bounds below and above pattern[t]; -1 when
    # unbounded on that side.  Checking only these two bounds is equivalent
    # to checking order-isomorphism against all earlier entries.  Each index
    # comes with a gap: the pattern values strictly between pattern[t] and
    # that neighbour (or 0, or k + 1) need as many distinct values of perm
    # between their matches, which prunes candidates that leave too little
    # room.
    bounds = []
    for t, val in enumerate(pattern):
        lo_idx = hi_idx = -1
        lo_val, hi_val = 0, len(pattern) + 1
        for s in range(t):
            if lo_val < pattern[s] < val:
                lo_val, lo_idx = pattern[s], s
            elif val < pattern[s] < hi_val:
                hi_val, hi_idx = pattern[s], s
        bounds.append((lo_idx, val - lo_val - 1, hi_idx, hi_val - val - 1))
    return tuple(bounds)


def contains_pattern(perm: Sequence[int], pattern: Perm) -> bool:
    """Whether *perm* has a subsequence order-isomorphic to *pattern*.

    >>> contains_pattern((1, 5, 3, 2, 4), (1, 3, 2))
    True
    >>> contains_pattern((1, 4, 3, 2, 6, 5), (2, 3, 1))
    False
    """
    return _occurs(perm, tuple(pattern), None)


def _occurs(perm: Sequence[int], pattern: Perm, pin: int | None) -> bool:
    # Backtracking search for an occurrence of *pattern* in *perm*; with
    # *pin* an index, only the occurrences whose maximum is perm[pin].
    k = len(pattern)
    n = len(perm)
    last_start = n - k  # leave room for the remaining pattern entries
    if last_start < 0:
        return False
    top = -1
    if pin is not None:
        top = pattern.index(k)
        if not top <= pin <= last_start + top:
            return False  # too few entries on one side of the pin
        # entry t < top lies at least top - t places before the pin; the
        # entries after the maximum lie after it, as each starts past the last
        before_pin = pin - top
    bounds = _tightest_neighbours(pattern)
    match = [0] * k

    def extend(t: int, start: int) -> bool:
        if t == k:
            return True
        lo_idx, lo_gap, hi_idx, hi_gap = bounds[t]
        lo_val = (match[lo_idx] if lo_idx >= 0 else 0) + lo_gap
        hi_val = (match[hi_idx] if hi_idx >= 0 else n + 1) - hi_gap
        if t > top:
            stop = last_start + t + 1
        elif t < top:
            stop = before_pin + t + 1
        else:
            start, stop = pin, pin + 1
        for i in range(start, stop):
            if lo_val < perm[i] < hi_val:
                match[t] = perm[i]
                if extend(t + 1, i + 1):
                    return True
        return False

    return extend(0, 0)


def direct_sum(alpha: Sequence[int], beta: Sequence[int]) -> Perm:
    """Place *beta*, shifted up, after *alpha*.

    >>> direct_sum((1, 3, 2), (3, 1, 2))
    (1, 3, 2, 6, 4, 5)
    """
    m = len(alpha)
    return tuple(alpha) + tuple(b + m for b in beta)


def skew_sum(alpha: Sequence[int], beta: Sequence[int]) -> Perm:
    """Place *alpha*, shifted up, before *beta*.

    >>> skew_sum((1, 3, 2), (3, 1, 2))
    (4, 6, 5, 3, 1, 2)
    """
    n = len(beta)
    return tuple(a + n for a in alpha) + tuple(beta)


def inversions(perm: Sequence[int]) -> int:
    """Number of pairs i < j with perm[i] > perm[j].

    >>> inversions((1, 5, 3, 2, 4))
    4
    >>> inversions(())
    0
    """
    # Right to left, each value inverts with the smaller values already
    # seen; bit v of ``seen`` is set once v has been passed.
    seen = 0
    total = 0
    for v in reversed(perm):
        bit = 1 << v
        total += (seen & (bit - 1)).bit_count()
        seen |= bit
    return total


@lru_cache(maxsize=None)
def _brute_force_av(n: int, patterns: tuple[Perm, ...]) -> tuple[Perm, ...]:
    if n == 0:
        return ((),)
    # Deleting the maximum from an avoider leaves an avoider, so every
    # length-n avoider is a length-(n-1) avoider with n inserted somewhere.
    parents = _brute_force_av(n - 1, patterns)
    if len(parents) * n > BRUTE_FORCE_MAX_CANDIDATES:
        raise SizeLimitError(
            f"the avoidance tree would test {len(parents) * n} candidates at"
            f" n = {n}; the bound is {BRUTE_FORCE_MAX_CANDIDATES}"
        )
    children = []
    for parent in parents:
        for i in range(n):
            child = parent[:i] + (n,) + parent[i:]
            # the parent avoids every pattern, so an occurrence in the
            # child must use n, at index i, as the pattern's maximum
            if not any(_occurs(child, pat, i) for pat in patterns):
                children.append(child)
    children.sort()
    return tuple(children)


def brute_force_av(n: int, patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """All length-n permutations avoiding every pattern, in lexicographic order.

    Grows a generating tree one length at a time, so n is capped at
    ``BRUTE_FORCE_MAX_N`` and each level at ``BRUTE_FORCE_MAX_CANDIDATES``
    candidates.

    >>> brute_force_av(3, [(2, 3, 1), (3, 1, 2), (3, 2, 1)])
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    >>> len(brute_force_av(4, [(2, 3, 1), (3, 1, 2)]))
    8
    """
    if n < 0:
        raise DomainError(f"length {n} is negative")
    if n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(
            f"brute force is capped at n = {BRUTE_FORCE_MAX_N}; got {n}"
        )
    # shortest patterns first: they are the cheapest to rule out
    order = tuple(sorted(make_pattern_set(patterns), key=lambda p: (len(p), p)))
    try:
        return list(_brute_force_av(n, order))
    except SizeLimitError:
        # the levels built before the bound was hit can hold 9! permutations
        _brute_force_av.cache_clear()
        raise


def format_permutation(perm: Sequence[int]) -> str:
    """Space-separated one-line notation.

    >>> format_permutation((2, 1, 3))
    '2 1 3'
    """
    return " ".join(str(v) for v in perm)


def parse_permutation(text: str) -> Perm:
    """Parse space-separated one-line notation; a single run of digits is
    accepted as the compact form (only unambiguous for n <= 9).

    >>> parse_permutation("2 1 3")
    (2, 1, 3)
    >>> parse_permutation("213")
    (2, 1, 3)
    """
    tokens = text.split()
    if len(tokens) == 1 and len(tokens[0]) > 1 and tokens[0].isdecimal():
        tokens = list(tokens[0])
    return make_permutation([_parse_value(tok) for tok in tokens])


def _parse_value(token: str) -> int:
    # int() rejects non-decimal text and, past the interpreter's digit
    # limit, decimal text too; either way name the token, shortened
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"{shorten(token)!r} is not a permutation value") from None
