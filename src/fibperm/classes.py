"""The four Fibonacci-counted avoidance classes and their structure.

Each class is named by an id:

* ``A1`` avoids 231, 312, 4321, 21543
* ``A2`` avoids 231, 321, 4123, 21534
* ``B1`` avoids 231, 312, 1432
* ``B2`` avoids 312, 321, 1342

All four contain F(n+1) - 1 permutations of length n >= 1.  Members split
into a Fibonacci part plus one exceptional shape:

* A-type members are either Fibonacci permutations, or an increasing prefix,
  then a block on the next three consecutive values (descending for A1,
  top-bottom-middle for A2), then a Fibonacci tail on the top values;
* B-type members are either Fibonacci permutations, or a pre-part of length
  l >= 3 holding the values 1..l (descending for B1; 2 3 .. l then 1 for
  B2) followed by a Fibonacci permutation of the top values.

``decompose``/``compose`` convert between members and these shape records.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .errors import (
    InvalidDecompositionError,
    NotInClassError,
    SizeLimitError,
    UnsupportedLengthError,
)
from .fib import fib_number, fib_permutations, is_fibonacci
from .perms import (
    Perm,
    PatternSet,
    make_pattern_set,
    make_permutation,
    standardize,
)

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
        """The exceptional block on the values 1..length: an increasing
        prefix then the core (A-type), or the whole pre-part (B-type)."""
        if self.kind == "A":
            return tuple(range(1, length - 2)) + self.shape(length - 2)
        return self.shape(length)

    def build(self, head_length: int, tail: Perm) -> Perm:
        """The member made of ``head(head_length)`` followed by the
        Fibonacci permutation *tail* shifted onto the top values."""
        return self.head(head_length) + tuple(v + head_length for v in tail)


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
    "ADecomposition",
    "BDecomposition",
    "ClassSpec",
    "check_class_id",
    "class_spec",
    "patterns_of",
    "count",
    "generate",
    "decompose",
    "compose",
]


def check_class_id(class_id: str) -> str:
    """Return *class_id* if known, else raise ValueError.

    >>> check_class_id("B2")
    'B2'
    """
    if class_id not in CLASS_SPECS:
        raise ValueError(f"unknown class {class_id!r}; expected one of {CLASS_IDS}")
    return class_id


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
        raise UnsupportedLengthError(f"the count formula needs n >= 1; got {n}")
    return fib_number(n + 1) - 1


@dataclass(frozen=True)
class ADecomposition:
    """Shape record for A-type members.

    Fibonacci members have ``core_present=False``, ``incr_len=0`` and are
    stored whole in ``tau``; the rest carry an increasing prefix of length
    ``incr_len``, the three-value core, and the standardized Fibonacci tail.
    """

    incr_len: int
    core_present: bool
    tau: Perm


@dataclass(frozen=True)
class BDecomposition:
    """Shape record for B-type members: pre-part length and the standardized
    Fibonacci permutation sitting on the top values."""

    pre_len: int
    sigma: Perm


def generate(class_id: str, n: int) -> list[Perm]:
    """All members of length n, lexicographically.

    >>> [" ".join(map(str, p)) for p in generate("B2", 3)]
    ['1 2 3', '1 3 2', '2 1 3', '2 3 1']
    >>> len(generate("A1", 4))
    7
    """
    spec = class_spec(class_id)
    if n < 0:
        raise UnsupportedLengthError(f"length {n} is negative")
    if n > GENERATE_MAX_N:
        raise SizeLimitError(f"generation is capped at n = {GENERATE_MAX_N}; got {n}")
    members: list[Perm] = list(fib_permutations(n))
    for head_length in range(3, n + 1):
        head = spec.head(head_length)
        for tail in fib_permutations(n - head_length):
            members.append(head + tuple(v + head_length for v in tail))
    members.sort()
    return members


def _not_in_class(p: Perm, reason: str) -> NotInClassError:
    """The error for a non-member; it shows at most the first 8 values, so
    its message stays short at any length."""
    shown = ", ".join(map(str, p[:8])) + (", ..." if len(p) > 8 else "")
    return NotInClassError(f"({shown}) of length {len(p)} {reason}")


def decompose(class_id: str, perm: Sequence[int]):
    """Parse a member into its shape record (ADecomposition or
    BDecomposition); non-members raise NotInClassError.

    This is the structure theorem read as an O(n) membership test: a
    permutation is a member exactly when it is a Fibonacci permutation
    (A-type) or ``spec.head(l)`` followed by a Fibonacci permutation of the
    top values.  No pattern is tested here; the avoided patterns serve only
    the ``brute_force_av`` oracle, which checks this parse.

    >>> decompose("A1", (1, 4, 3, 2, 6, 5))
    ADecomposition(incr_len=1, core_present=True, tau=(2, 1))
    >>> decompose("B1", (3, 2, 1, 5, 4, 6, 7))
    BDecomposition(pre_len=3, sigma=(2, 1, 3, 4))
    """
    spec = class_spec(class_id)
    p = make_permutation(perm)
    if spec.kind == "A":
        if is_fibonacci(p):
            return ADecomposition(incr_len=0, core_present=False, tau=p)
        # the core is the first window of three consecutive values in shape
        windows = (p[j : j + 3] for j in range(len(p) - 2))
        core_at = next((j for j, w in enumerate(windows) if w == spec.shape(min(w))), None)
        if core_at is None:
            raise _not_in_class(p, f"has no {class_id} core")
        head_length = core_at + 3
    elif not p:
        raise UnsupportedLengthError("the empty permutation has no pre-part")
    else:
        head_length = p.index(1) + 1
    tail = standardize(p[head_length:])
    if p[:head_length] != spec.head(head_length) or not is_fibonacci(tail):
        raise _not_in_class(p, f"does not fit the {class_id} shape")
    if spec.kind == "A":
        return ADecomposition(incr_len=core_at, core_present=True, tau=tail)
    return BDecomposition(pre_len=head_length, sigma=tail)


def compose(class_id: str, decomposition) -> Perm:
    """Rebuild the member a shape record describes.

    >>> compose("A2", ADecomposition(incr_len=1, core_present=True, tau=()))
    (1, 4, 2, 3)
    >>> compose("B1", BDecomposition(pre_len=3, sigma=(2, 1, 3, 4)))
    (3, 2, 1, 5, 4, 6, 7)
    """
    spec = class_spec(class_id)
    if spec.kind == "A":
        if not isinstance(decomposition, ADecomposition):
            raise InvalidDecompositionError(
                f"{class_id} needs an ADecomposition, got {type(decomposition).__name__}"
            )
        tail = make_permutation(decomposition.tau)
        if not is_fibonacci(tail):
            raise InvalidDecompositionError(f"tau {tail} is not a Fibonacci permutation")
        if not decomposition.core_present:
            if decomposition.incr_len != 0:
                raise InvalidDecompositionError(
                    "a coreless record is all tau; incr_len must be 0"
                )
            return tail
        if decomposition.incr_len < 0:
            raise InvalidDecompositionError(f"incr_len {decomposition.incr_len} is negative")
        return spec.build(decomposition.incr_len + 3, tail)
    if not isinstance(decomposition, BDecomposition):
        raise InvalidDecompositionError(
            f"{class_id} needs a BDecomposition, got {type(decomposition).__name__}"
        )
    tail = make_permutation(decomposition.sigma)
    if not is_fibonacci(tail):
        raise InvalidDecompositionError(f"sigma {tail} is not a Fibonacci permutation")
    if decomposition.pre_len < 1:
        raise InvalidDecompositionError(f"pre_len {decomposition.pre_len} must be at least 1")
    return spec.build(decomposition.pre_len, tail)
