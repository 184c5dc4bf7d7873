"""The four Fibonacci-counted avoidance classes and their structure.

Each class is named by an id:

* ``A1`` avoids 231, 312, 4321, 21543
* ``A2`` avoids 231, 321, 4123, 21534
* ``B1`` avoids 231, 312, 1432
* ``B2`` avoids 312, 321, 1342

All four contain F(n+1) - 1 permutations of length n >= 1.  Every member is
an exceptional head on the values 1..l followed by a Fibonacci permutation
of the top values:

* A-type heads are empty (the member is a Fibonacci permutation), or an
  increasing prefix then a block on the next three consecutive values
  (descending for A1, top-bottom-middle for A2);
* B-type heads are the pre-part, ending at the value 1: 1, or 2 1, or for
  l >= 3 the values 1..l descending (B1) or 2 3 .. l then 1 (B2).

``decompose``/``compose`` convert between members and these
``Decomposition`` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .errors import DomainError, NotInClassError, SizeLimitError, check_choice, shorten
from .fib import (
    Product,
    _fibonacci_products,
    _flatten,
    fib_number,
    fib_stat,
    is_fibonacci,
)
from .perms import Perm, PatternSet, direct_sum, make_pattern_set, make_permutation

# Structural generation is linear per member but the member lists themselves
# get large; past this the closed-form count is the supported interface.
GENERATE_MAX_N = 26


@dataclass(frozen=True)
class ClassSpec:
    """Every fact that sets one class apart from the other three.

    ``kind`` is ``"A"`` or ``"B"``.  ``shape(l)`` is the exceptional block:
    for A-type classes the core on the values {l, l+1, l+2}, for B-type
    classes the pre-part on the values 1..l.  ``tail_q_exponent(n)`` is the
    inversion count of the exceptional length-n member, ``head(n)``: the one
    member the two-step construction of G_n does not reach.
    """

    class_id: str
    patterns: PatternSet
    kind: str
    shape: Callable[[int], Perm]
    tail_q_exponent: Callable[[int], int]

    def head(self, length: int) -> Perm:
        """The exceptional block on the values 1..length: nothing or an
        increasing prefix then the core (A-type), or the whole pre-part
        (B-type)."""
        if self.kind == "B":
            return self.shape(length)
        if not length:
            return ()
        return tuple(range(1, length - 2)) + self.shape(length - 2)

    def build(self, head_length: int, tail: Perm) -> Perm:
        """The member made of ``head(head_length)`` followed by the
        Fibonacci permutation *tail* shifted onto the top values."""
        return direct_sum(self.head(head_length), tail)


def _patterns(words: str) -> PatternSet:
    # "231 312" -> {(2, 3, 1), (3, 1, 2)}; no pattern here exceeds 9 values
    return make_pattern_set(tuple(map(int, word)) for word in words.split())


# class id, avoided patterns, kind, shape, tail q-exponent
CLASS_SPECS: dict[str, ClassSpec] = {
    spec.class_id: spec
    for spec in (
        ClassSpec("A1", _patterns("231 312 4321 21543"), "A",
                  lambda low: (low + 2, low + 1, low), lambda n: 3),
        ClassSpec("A2", _patterns("231 321 4123 21534"), "A",
                  lambda low: (low + 2, low, low + 1), lambda n: 2),
        ClassSpec("B1", _patterns("231 312 1432"), "B",
                  lambda length: tuple(range(length, 0, -1)), lambda n: comb(n, 2)),
        ClassSpec("B2", _patterns("312 321 1342"), "B",
                  lambda length: tuple(range(2, length + 1)) + (1,), lambda n: n - 1),
    )
}
CLASS_IDS = tuple(CLASS_SPECS)
A_CLASSES = tuple(c for c, spec in CLASS_SPECS.items() if spec.kind == "A")
B_CLASSES = tuple(c for c, spec in CLASS_SPECS.items() if spec.kind == "B")

__all__ = [
    "CLASS_IDS",
    "A_CLASSES",
    "B_CLASSES",
    "CLASS_SPECS",
    "GENERATE_MAX_N",
    "ClassSpec",
    "Decomposition",
    "check_class_id",
    "class_spec",
    "patterns_of",
    "count",
    "generate",
    "decompose",
    "compose",
]


def check_class_id(class_id: str) -> str:
    """Return *class_id* if known, else raise DomainError.

    >>> check_class_id("B2")
    'B2'
    """
    return check_choice("class", class_id, CLASS_IDS)


def class_spec(class_id: str) -> ClassSpec:
    """The table row of a known class.

    >>> class_spec("B2").shape(4)
    (2, 3, 4, 1)
    """
    return CLASS_SPECS[check_class_id(class_id)]


def patterns_of(class_id: str) -> PatternSet:
    """The avoided patterns defining the class.

    >>> sorted(patterns_of("B1"))
    [(1, 4, 3, 2), (2, 3, 1), (3, 1, 2)]
    """
    return class_spec(class_id).patterns


def count(class_id: str, n: int) -> int:
    """Closed-form member count F(n+1) - 1, defined for n >= 1.

    >>> [count("A1", n) for n in range(1, 7)]
    [1, 2, 4, 7, 12, 20]
    >>> count("B2", 10)
    143
    """
    check_class_id(class_id)
    if n < 1:
        raise DomainError(f"the count formula needs n >= 1; got {n}")
    return fib_number(n + 1) - 1


@dataclass(frozen=True)
class Decomposition:
    """Shape record of a member: ``spec.head(head_length)`` followed by the
    Fibonacci permutation ``tail`` shifted onto the top values.

    ``head_length`` is 0 (a Fibonacci member) or at least 3 for A-type
    classes, and at least 1 for B-type classes.
    """

    head_length: int
    tail: Perm


def generate(class_id: str, n: int) -> list[Perm]:
    """All members of length n, lexicographically: the Fibonacci
    permutations, which belong to every class, and the head members, both
    as the middle cut's products, flattened.

    >>> [" ".join(map(str, p)) for p in generate("B2", 3)]
    ['1 2 3', '1 3 2', '2 1 3', '2 3 1']
    >>> len(generate("A1", 4))
    7
    """
    return _flatten(_member_products(class_id, n))


def _member_products(class_id: str, n: int) -> list[Product]:
    """Every member of length n as the middle cut's products, no left part
    a prefix of another, so that sorting the left parts orders the members
    lexicographically.  ``generate`` flattens these products and
    ``cli.cmd_enumerate`` renders them.

    For the B classes these are the Fibonacci products then the head
    products: Fibonacci members start 1 or 2 1, B pre-parts 3, 4, ... or
    2 3 1, 2 3 4 1, ...  An A head of length k+3 starts 1..k then its core,
    so the Fibonacci members are cut after the run 1..k they start with: the
    identity, then for each k <= n-2 the members whose run is exactly k,
    which start 1..k, k+2, k+1.  Left parts of different groups then differ
    at position k+1 or k+2.
    """
    heads = _head_products(class_id, n)  # first: it validates class_id and n
    if class_spec(class_id).kind == "B":
        return _fibonacci_products((), 1, n) + heads
    products: list[Product] = [([tuple(range(1, n + 1))], ((),))]
    for k in range(n - 2, -1, -1):
        products += _fibonacci_products(tuple(range(1, k + 1)) + (k + 2, k + 1), k + 3, n)
    return products + heads


def _head_products(class_id: str, n: int) -> list[Product]:
    """The members of length n that are not Fibonacci permutations, as the
    middle cut's products: each head of length 3..n, then its Fibonacci
    tails, head by head.

    Every such head contains 231, 312 or 321, so no Fibonacci permutation is
    among them.  Each left part starts with its head, and two heads differ
    within the shorter one, so no left part is a prefix of another.
    ``_member_products`` lists them after the Fibonacci products and
    ``genfun.genfun_oracle`` folds them.
    """
    spec = class_spec(class_id)
    if n < 0:
        raise DomainError(f"length {n} is negative")
    if n > GENERATE_MAX_N:
        raise SizeLimitError(f"generation is capped at n = {GENERATE_MAX_N}; "
                             f"got {shorten(str(n))}")
    products: list[Product] = []
    for head_length in range(3, n + 1):
        products += _fibonacci_products(spec.head(head_length), head_length + 1, n)
    return products


def decompose(class_id: str, perm: Sequence[int]) -> Decomposition:
    """Parse a member into its shape record; non-members raise
    NotInClassError.

    This is the structure theorem read as an O(n) membership test: a
    permutation is a member exactly when it is ``spec.head(l)`` followed by
    a Fibonacci permutation of the top values.  That tail is a stage of
    ``fib_stat``'s scan, which the A-type core stops, so an A-type head is
    what ``fib_stat`` leaves; a B-type head ends at the value 1.  No pattern
    is tested here; the avoided patterns serve only the ``brute_force_av``
    oracle, which checks this parse.

    >>> decompose("A1", (1, 4, 3, 2, 6, 5))
    Decomposition(head_length=4, tail=(2, 1))
    >>> decompose("A1", (2, 1, 3))
    Decomposition(head_length=0, tail=(2, 1, 3))
    >>> decompose("B1", (3, 2, 1, 5, 4, 6, 7))
    Decomposition(head_length=3, tail=(2, 1, 3, 4))
    """
    return _decompose(class_spec(class_id), make_permutation(perm))


def _decompose(spec: ClassSpec, p: Perm) -> Decomposition:
    # decompose's parse of a permutation already known to be valid
    fib_len = fib_stat(p)
    if spec.kind == "A":
        head_length = len(p) - fib_len
    elif not p:
        raise DomainError("the empty permutation has no pre-part")
    else:
        head_length = p.index(1) + 1
    if len(p) - head_length > fib_len or p[:head_length] != spec.head(head_length):
        raise NotInClassError(p, f"does not fit the {spec.class_id} shape")
    return Decomposition(head_length, tuple(v - head_length for v in p[head_length:]))


def compose(class_id: str, decomposition: Decomposition) -> Perm:
    """Rebuild the member a shape record describes.

    >>> compose("A2", Decomposition(head_length=4, tail=()))
    (1, 4, 2, 3)
    >>> compose("B1", Decomposition(head_length=3, tail=(2, 1, 3, 4)))
    (3, 2, 1, 5, 4, 6, 7)
    """
    spec = class_spec(class_id)
    head_length = decomposition.head_length
    tail = make_permutation(decomposition.tail)
    if not is_fibonacci(tail):
        raise DomainError(f"tail {tail} is not a Fibonacci permutation")
    # an A-type head is empty or ends in the three-value core; a B-type head
    # holds at least the value 1
    valid = (head_length == 0 or head_length >= 3) if spec.kind == "A" else head_length >= 1
    if not valid:
        raise DomainError(f"{class_id} has no head of length {head_length}")
    return spec.build(head_length, tail)
