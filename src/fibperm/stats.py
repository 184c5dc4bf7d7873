"""Statistics over the classes: inversions, the Fibonacci-suffix statistic,
and their joint distribution, as closed forms and as folds of the enumerated G_n.

The closed forms use the convention that a binomial coefficient with its
lower index outside 0..upper is 0.  Where the literature's stated form and
the enumeration disagree, the formula takes a ``variant`` (see
``corrections``): ``"paper"`` evaluates the form as stated, ``"corrected"``
the repaired one.  They differ in the statistic's distribution (the stated
F(k) has no impossible band) and in the B2 joint distribution's binomial.
``distribution_formula`` returns a dict of the nonzero values in key order,
the shape ``distribution_oracle`` returns, so the two compare with ``==``.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Callable, Union

from .classes import check_class_id, class_spec
from .corrections import VARIANTS, applied, check_variant
from .errors import DomainError, SizeLimitError, check_choice
from .fib import fib_number
from .genfun import genfun_oracle

STATS = ("inv", "fib", "joint")
# the most cells a closed-form joint distribution may hold, counted before
# any is evaluated: the stated B2 form is nonzero on about n**3 / 2 of them
_MAX_CELLS = 500_000

__all__ = [
    "STATS",
    "VARIANTS",
    "binomial",
    "check_variant",
    "check_stat",
    "fib_inv_count",
    "inv_distribution_formula",
    "fib_distribution_formula",
    "fib_distribution_stated",
    "joint_distribution_formula",
    "distribution_formula",
    "distribution_oracle",
]


def binomial(a: int, b: int) -> int:
    """C(a, b), with 0 whenever b is outside 0..a.

    >>> binomial(4, 2)
    6
    >>> binomial(2, 5)
    0
    >>> binomial(-1, 0)
    0
    """
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def check_stat(stat: str) -> str:
    """Return *stat* if known, else raise DomainError.

    >>> check_stat("inv")
    'inv'
    """
    return check_choice("statistic", stat, STATS)


def _check_length(n: int) -> None:
    if n < 1:
        raise DomainError(f"the closed forms need n >= 1; got {n}")


def fib_inv_count(n: int, k: int) -> int:
    """Number of length-n Fibonacci permutations with k inversions: each of
    the k dominoes contributes one inversion, so this is C(n-k, k).

    >>> fib_inv_count(4, 1)
    3
    >>> fib_inv_count(5, 2)
    3
    """
    if n < 0:
        raise DomainError(f"length {n} is negative")
    return binomial(n - k, k)


def inv_distribution_formula(class_id: str, n: int, k: int) -> int:
    """Closed form for the number of length-n members with k inversions.

    A member is ``head(h)``, carrying ``tail_q_exponent(h)`` inversions,
    then a Fibonacci tail with one per domino.  Every A-type core carries
    the same e, so those terms sum (hockey stick) to C(n-k+e-2, k-e+1).

    >>> inv_distribution_formula("A1", 4, 3)
    2
    >>> inv_distribution_formula("A2", 5, 2)
    6
    >>> inv_distribution_formula("B2", 5, 3)
    2
    """
    return _inv_row(class_id, n, k, k).get(k, 0)


def _inv_row(class_id: str, n: int, lo: int, hi: int) -> dict[int, int]:
    # The nonzero values of the inversion closed form for k in lo..hi, in key
    # order, validated once; each binomial runs over its own support.  A B-type
    # head(h) with d tail dominoes adds C(n-h-d, d) at k = e(h) + d; e(h) never
    # decreases in h, so the heads stop at the first exponent past hi.
    spec = class_spec(class_id)
    _check_length(n)
    if spec.kind == "A":
        e = spec.tail_q_exponent(n)  # the core's inversions, whatever n
        cells = {k: fib_inv_count(n, k) for k in range(max(lo, 0), min(hi, n // 2) + 1)}
        for k in range(max(lo, e), min(hi, (n - 3) // 2 + e) + 1):
            cells[k] = cells.get(k, 0) + binomial(n - k + e - 2, k - e + 1)
        return cells
    row: Counter[int] = Counter()
    for h in range(1, n + 1):
        e, rest = spec.tail_q_exponent(h), n - h
        if e > hi:
            break
        for d in range(max(lo - e, 0), min(hi - e, rest // 2) + 1):
            row[e + d] += comb(rest - d, d)
    return dict(sorted(row.items()))


def fib_distribution_formula(class_id: str, n: int, k: int) -> int:
    """Number of length-n members whose Fibonacci-suffix statistic is k:
    F(n) at k = n, F(k) for 0 <= k <= n-3, and 0 in the impossible band
    k in {n-2, n-1} (and outside 0..n).

    >>> fib_distribution_formula("A1", 7, 3)
    3
    >>> fib_distribution_formula("A1", 4, 2)
    0
    >>> fib_distribution_formula("B1", 5, 5)
    8
    """
    check_class_id(class_id)
    _check_length(n)
    if k == n:
        return fib_number(n)
    if k < 0 or k > n or k >= n - 2:
        return 0
    return fib_number(k)


def fib_distribution_stated(n: int, k: int) -> int:
    """The Fibonacci-statistic distribution as originally stated: F(k) for
    every 0 <= k <= n, with no impossible band.  This is the 'paper' variant
    of :func:`fib_distribution_formula`.

    >>> fib_distribution_stated(1, 0)
    1
    >>> fib_distribution_formula("A1", 1, 0)
    0
    """
    _check_length(n)
    if 0 <= k <= n:
        return fib_number(k)
    return 0


def joint_distribution_formula(
    class_id: str, n: int, k: int, j: int, variant: str = "corrected"
) -> int:
    """Number of length-n members with Fibonacci-suffix statistic k and j
    inversions.  Below the impossible band a member is an exceptional head
    of length n - k carrying e = tail_q_exponent(n - k) inversions, then a
    Fibonacci tail with j - e dominoes, so the count is C(k-j+e, j-e).  Only
    the stated B2 binomial differs from that.

    >>> joint_distribution_formula("A1", 6, 3, 3)
    1
    >>> joint_distribution_formula("A1", 4, 4, 1)
    3
    >>> joint_distribution_formula("B2", 5, 2, 3, variant="paper")
    3
    >>> joint_distribution_formula("B2", 5, 2, 3, variant="corrected")
    1
    """
    keys, cell = _joint_row(class_id, n, k, j, j, applied(variant, "joint-dist", class_id))
    return cell(j) if keys else 0


def _joint_row(
    class_id: str, n: int, k: int, lo: int, hi: int, fixes: frozenset[str]
) -> tuple[range, Callable[[int], int]]:
    # The joint closed form at statistic k, validated once: the j in lo..hi where
    # it is nonzero, and the form in j: the Fibonacci-tail row C(k-d, d), d = j - e,
    # shifted by the head's exponent e (0 at k = n).  The stated B2 form starts at n-k-1.
    spec = class_spec(class_id)
    _check_length(n)
    if k < 0 or k > n or n - 2 <= k < n:
        return range(0), lambda j: 0
    if k < n and class_id == "B2" and "joint-dist.b2-binomial" not in fixes:
        js = range(max(lo, n - k - 1), hi + 1)
        return js, lambda j: binomial(2 * k + j + 1 - n, j + k + 1 - n)
    e = spec.tail_q_exponent(n - k) if k < n else 0
    return range(max(lo, e), min(hi, e + k // 2) + 1), lambda j: fib_inv_count(k, j - e)


DistKey = Union[int, tuple[int, int]]


def distribution_formula(
    class_id: str, n: int, stat: str, variant: str = "corrected", inv_margin: int = 0
) -> dict[DistKey, int]:
    """Closed-form distribution as its nonzero values in key order, keyed
    like the oracle.  Inversion counts run over 0..C(n,2)+inv_margin and
    the statistic over 0..n.  The 'paper' variant evaluates the stated
    forms: F(k) with no impossible band for the statistic, and the stated
    B2 joint binomial.  An unknown class, statistic, variant or a length
    n < 1 raises DomainError; a joint distribution of more than 500,000
    cells raises SizeLimitError before any cell is evaluated.

    >>> distribution_formula("A1", 4, "inv")
    {0: 1, 1: 3, 2: 1, 3: 2}
    >>> distribution_formula("B1", 1, "fib", "paper")
    {0: 1, 1: 1}
    """
    check_class_id(class_id)
    check_stat(stat)
    fixes = applied(variant, f"{stat}-dist", class_id)
    _check_length(n)
    top = comb(n, 2) + inv_margin
    if stat == "inv":
        return _inv_row(class_id, n, 0, top)
    if stat == "fib" and "fib-dist.impossible-band" not in fixes:
        cells = ((k, fib_distribution_stated(n, k)) for k in range(0, n + 1))
    elif stat == "fib":
        cells = ((k, fib_distribution_formula(class_id, n, k)) for k in range(0, n + 1))
    else:
        rows = [_joint_row(class_id, n, k, 0, top, fixes) for k in range(0, n + 1)]
        size = sum(len(keys) for keys, _ in rows)
        if size > _MAX_CELLS:
            raise SizeLimitError(f"closed forms are capped at {_MAX_CELLS} cells; got {size}")
        return {(k, j): cell(j) for k, (keys, cell) in enumerate(rows) for j in keys}
    return {key: value for key, value in cells if value}


def distribution_oracle(class_id: str, n: int, stat: str) -> dict[DistKey, int]:
    """Enumerated distribution over the length-n members, folded from the
    cached G_n; joint keys are its (fib, inv) exponents.  Keys come out sorted.

    >>> distribution_oracle("A1", 4, "inv")
    {0: 1, 1: 3, 2: 1, 3: 2}
    >>> distribution_oracle("A1", 1, "fib")
    {1: 1}
    >>> distribution_oracle("B2", 3, "inv")
    {0: 1, 1: 2, 2: 1}
    """
    check_stat(stat)
    terms = genfun_oracle(class_id, n).terms()
    if stat == "joint":
        return dict(terms)
    counter: Counter[int] = Counter()
    for (k, j), c in terms:
        counter[j if stat == "inv" else k] += c
    return dict(sorted(counter.items()))
