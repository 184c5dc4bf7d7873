"""Two-variable generating polynomials G_n(v, q) = sum over length-n
members of v^(Fibonacci-suffix statistic) * q^(inversions).

``Poly`` is a sparse exact-integer polynomial in v and q.  G_n comes three
ways: ``genfun_oracle`` enumerates members, ``genfun_closed`` evaluates the
summation formula (paper or corrected variant), and ``genfun_recurrence``
iterates the two-step recurrence.  ``genfun_addition`` evaluates the
length-splitting formulas for G_{m+n} from data at m and n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from math import comb
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Union

from .classes import ClassSpec, _head_products, class_spec
from .corrections import applied
from .errors import DomainError, NotEvaluableError
from .fib import Product, _fibonacci_products, fib_stat
from .perms import Perm, inversions

__all__ = [
    "Poly",
    "ZERO",
    "ONE",
    "V",
    "Q",
    "fib_poly",
    "genfun_oracle",
    "genfun_closed",
    "genfun_recurrence",
    "genfun_addition",
]


Exponents = tuple[int, int]


class Poly:
    """Polynomial in v and q with exact integer coefficients.

    >>> p = Poly.monomial(2, 1, 0) + Poly.monomial(1, 0, 3)
    >>> str(p)
    '1*q^3 + 2*v'
    >>> p.evaluate(1, 1)
    3
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Exponents, int]] = None):
        terms = terms or {}
        for v_exp, q_exp in terms:
            if v_exp < 0 or q_exp < 0:
                raise DomainError(f"negative exponent in v^{v_exp}*q^{q_exp}")
        self._terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def monomial(cls, coeff: int, v_exp: int, q_exp: int) -> "Poly":
        return cls({(v_exp, q_exp): coeff})

    @classmethod
    def _of(cls, terms: Mapping[Exponents, int]) -> "Poly":
        # the constructor for terms built from valid polynomials: it drops
        # zero coefficients but skips the exponent check
        poly = cls.__new__(cls)
        poly._terms = {e: c for e, c in terms.items() if c}
        return poly

    def _shift(self, dv: int, dq: int) -> "Poly":
        # self * v^dv q^dq, without a product's double loop; a negative
        # exponent in the result raises as Poly.monomial does
        shifted = {(a + dv, b + dq): c for (a, b), c in self._terms.items()}
        return Poly(shifted) if dv < 0 or dq < 0 else Poly._of(shifted)

    def terms(self) -> tuple[tuple[Exponents, int], ...]:
        """Terms as ((v_exp, q_exp), coeff), sorted by exponents."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, v_exp: int, q_exp: int) -> int:
        return self._terms.get((v_exp, q_exp), 0)

    def evaluate(self, v: int, q: int) -> int:
        return sum(c * v**a * q**b for (a, b), c in self._terms.items())

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            data[e] = data.get(e, 0) + c
        return Poly._of(data)

    def __neg__(self) -> "Poly":
        return Poly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, int):
            return Poly._of({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        data: dict[Exponents, int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                e = (a1 + a2, b1 + b2)
                data[e] = data.get(e, 0) + c1 * c2
        return Poly._of(data)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            _term_str(v_exp, q_exp, coeff)
            for (v_exp, q_exp), coeff in self.terms()
        )

    def __repr__(self) -> str:
        return f"<Poly {self}>"


def _term_str(v_exp: int, q_exp: int, coeff: int) -> str:
    parts = [str(coeff)]
    if v_exp == 1:
        parts.append("v")
    elif v_exp > 1:
        parts.append(f"v^{v_exp}")
    if q_exp == 1:
        parts.append("q")
    elif q_exp > 1:
        parts.append(f"q^{q_exp}")
    return "*".join(parts)


ZERO = Poly()
ONE = Poly.monomial(1, 0, 0)
V = Poly.monomial(1, 1, 0)
Q = Poly.monomial(1, 0, 1)


@lru_cache(maxsize=None)
def fib_poly(n: int) -> Poly:
    """Inversion polynomial of the Fibonacci permutations,
    F_n(q) = sum_k C(n-k, k) q^k; satisfies F_n = F_{n-1} + q F_{n-2}.

    >>> str(fib_poly(3))
    '1 + 2*q'
    >>> fib_poly(6) == fib_poly(5) + Q * fib_poly(4)
    True
    """
    if n < 0:
        raise DomainError(f"F_{n}(q) is not defined here")
    return Poly({(0, k): comb(n - k, k) for k in range(n // 2 + 1)})


@lru_cache(maxsize=None)
def genfun_oracle(class_id: str, n: int) -> Poly:
    """G_n by enumerating the members as the middle cut's products and
    folding them with ``_fold``.

    The F(n) Fibonacci permutations belong to every class, so their fold is
    cached once per length and shared by the four classes; each class folds
    only its head products, the rest of ``generate(class_id, n)``.

    >>> str(genfun_oracle("A1", 3))
    '1*q^3 + 1*v^3 + 2*v^3*q'
    >>> str(genfun_oracle("B2", 3))
    '1*q^2 + 1*v^3 + 2*v^3*q'
    """
    # the head products validate the class and the length, as generate does
    return _fold(_head_products(class_id, n)) + _fibonacci_fold(n)


@lru_cache(maxsize=None)
def _fibonacci_fold(n: int) -> Poly:
    return _fold(_fibonacci_products((), 1, n))


def _fold(products: Iterable[Product]) -> Poly:
    """Sum of v^fib_stat(p) q^inv(p) over the members p = a + b of
    *products*, for every left part a and right part b of a product, with
    both statistics read from the two parts.  Every member is a
    permutation of 1..n, so the left parts of one product share a length h.

    Each x in a has x - 1 smaller values; C(h, 2) of those pairs lie inside
    a, and the rest are entries of b after x, each an inversion.  So
    inv(p) = inv(a) + inv(b) + sum(a) - h(h+1)/2.

    ``fib_stat`` scans p from the right, and while it is inside b its steps
    depend on b alone: they are the steps of the scan over b shifted down
    by h.  That scan ends in one of three ways:

    * it stops inside b, and fib_stat(p) is its length;
    * it reaches the cut, and the scan of p goes on as fib_stat(a);
    * it stops with one entry left and b[0] = h.  If a[-1] = h + 1, the
      domino (h+1, h) crosses the cut, and the scan of p goes on with
      2 + fib_stat(a[:-1]); otherwise it stops there too.

    The cut is positional, so this holds for every permutation of 1..n, and
    no member is built: each left part is measured once, the right parts
    of a product are tallied by (fib, inv, way), and each pair of a left
    part's way and a right tally adds the product of their counts.  A
    right tally depends only on h and the right parts, so ``_right_tally``
    keeps it by that content: the blocks of right parts that
    ``fib._fibonacci_block`` shares between heads, classes and lengths are
    tallied once each.
    """
    total: dict[Exponents, int] = {}
    for lefts, rights in products:
        h = len(lefts[0])
        right_tally = _right_tally(h, tuple(rights))
        for ways, left_count in _tally(map(_left_ways, lefts)).items():
            for (fib, inv, way), right_count in right_tally:
                a_fib, a_inv = ways[way]
                key = a_fib + fib, a_inv + inv
                total[key] = total.get(key, 0) + left_count * right_count
    return Poly._of(total)


# The oracles' right parts are fib's blocks, one per value range lo..hi
# inside 1..27 (378 ranges, and the empty part at 28 values of h), so the
# bound holds them all; it keeps other products from growing it without end.
@lru_cache(maxsize=512)
def _right_tally(h: int, rights: tuple[Perm, ...]) -> tuple[tuple[tuple[int, int, int], int], ...]:
    return tuple(_tally(_right_stats(b, h) for b in rights).items())


def _tally(items: Iterable[Hashable]) -> dict[Hashable, int]:
    # Counter's constructor costs more than this on the many products with
    # one left or right part
    counts: dict[Hashable, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def _left_ways(a: Perm) -> tuple[Exponents, Exponents, Exponents]:
    # the (fib, inv) a left part adds after a right part whose scan ends in
    # way 0 (inside b), 1 (at the cut) or 2 (one entry short, b[0] = h)
    h = len(a)
    inv = inversions(a) + sum(a) - h * (h + 1) // 2
    straddle = 2 + fib_stat(a[:-1]) if a and a[-1] == h + 1 else 0
    return (0, inv), (fib_stat(a), inv), (straddle, inv)


def _right_stats(b: Perm, h: int) -> tuple[int, int, int]:
    fib = fib_stat(tuple([v - h for v in b]))
    if fib == len(b):
        way = 1
    elif fib == len(b) - 1 and b[0] == h:
        way = 2
    else:
        way = 0
    return fib, inversions(b), way


def genfun_closed(class_id: str, n: int, variant: str = "corrected") -> Poly:
    """G_n by the summation formula v^n F_n(q) + sum_{j=0}^{n-3} q^e(j) v^j
    F_j(q), defined for n >= 3.  The corrected exponent e(j) is the tail
    q-exponent at n - j, the length of the j-th summand's exceptional head;
    the paper variant takes it at j, which differs for B1 and B2.  A variant
    calling for a negative exponent raises NotEvaluableError.

    >>> genfun_closed("A1", 4) == genfun_oracle("A1", 4)
    True
    >>> str(genfun_closed("B2", 3))
    '1*q^2 + 1*v^3 + 2*v^3*q'
    """
    spec = class_spec(class_id)
    fixes = applied(variant, "gf-closed", class_id)
    if n < 3:
        raise DomainError(f"the summation formula needs n >= 3; got {n}")
    terms = dict(fib_poly(n)._shift(n, 0)._terms)
    for j in range(n - 2):
        q_exp = spec.tail_q_exponent(j if "gf-closed.head-length" not in fixes else n - j)
        if q_exp < 0:
            raise NotEvaluableError(
                f"{class_id} {variant} summation at n = {n}: "
                f"the j = {j} term calls for q^{q_exp}"
            )
        for e, c in fib_poly(j)._shift(j, q_exp)._terms.items():
            terms[e] = terms.get(e, 0) + c
    return Poly._of(terms)


def genfun_recurrence(class_id: str, n: int) -> Poly:
    """G_n by iterating G_k = q^(tail exponent) + v G_{k-1} + q v^2 G_{k-2}
    from the bases G_1 = v and G_2 = v^2 + q v^2 (recurrence valid from
    n = 3 up): the n-th level of ``_recurrence_levels``, the one pass that
    ``verify`` also walks.

    >>> genfun_recurrence("B1", 4) == genfun_oracle("B1", 4)
    True
    """
    spec = class_spec(class_id)
    if n < 1:
        raise DomainError(f"the recurrence starts at n = 1; got {n}")
    return next(islice(_recurrence_levels(spec), n - 1, None))


def _recurrence_levels(spec: ClassSpec) -> Iterator[Poly]:
    # G_1, G_2, G_3, ... without end, holding only the last two levels
    g_prev, g_cur = V, V * V + Q * V * V
    yield g_prev
    for k in count(3):
        yield g_cur
        head = ONE._shift(0, spec.tail_q_exponent(k))
        g_prev, g_cur = g_cur, head + g_cur._shift(1, 0) + g_prev._shift(2, 1)


def genfun_addition(
    class_id: str, m: int, n: int, variant: str = "corrected"
) -> Poly:
    """G_{m+n} assembled from shorter data, per the length-splitting
    formulas (defined for m, n >= 2).  Building blocks G_m, G_{m-1}, G_n
    come from the enumeration oracle so that only the formula's shape is
    under test.  With e the tail q-exponent, A1, A2 and B2 share one form:

        v^n G_m F_n + q v^(n+1) G_{m-1} F_{n-1} + q^e(m+1) v^(n-1) F_{n-1}
          + q^e(m+2) v^(n-2) F_{n-2} + q^(e(m+n)-e(n)) (G_n - v^n F_n)

    A head of length m + l crossing the cut takes e(m+l) - e(l) inversions
    from its first m entries: 0 for A1 and A2 and m for B2, whatever l is.
    For B1 that shift, C(m, 2) + ml, grows with l, so B1 sums its crossing
    heads one length at a time; its stated form is its own.  The stated
    forms take v^(n+2) in the straddling term.

    >>> genfun_addition("A1", 2, 2) == genfun_oracle("A1", 4)
    True
    """
    spec = class_spec(class_id)
    e = spec.tail_q_exponent
    fixes = applied(variant, "gf-addition", class_id)
    if m < 2 or n < 2:
        raise DomainError(f"the addition formulas need m, n >= 2; got ({m}, {n})")
    straddle_v = n + 2 if "gf-addition.straddle" not in fixes else n + 1
    total = (genfun_oracle(class_id, m) * fib_poly(n))._shift(n, 0)
    total = total + (genfun_oracle(class_id, m - 1) * fib_poly(n - 1))._shift(straddle_v, 1)
    if class_id == "B1":
        if "gf-addition.b1-pre-part" not in fixes:
            tail = ZERO
            for i in range(n + 1):
                tail = tail + fib_poly(i)._shift(i, comb(i, 2) + i * m)
            return total + tail._shift(comb(m, 2), 0)
        for i in range(n):
            total = total + fib_poly(i)._shift(i, e(m + n - i))
        return total
    total = total + fib_poly(n - 1)._shift(n - 1, e(m + 1))
    if spec.kind == "A" or "gf-addition.b2-missing-term" in fixes:  # stated B2 lacks it
        total = total + fib_poly(n - 2)._shift(n - 2, e(m + 2))
    rest = genfun_oracle(class_id, n) - fib_poly(n)._shift(n, 0)
    return total + rest._shift(0, e(m + n) - e(n))
