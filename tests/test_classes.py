import pickle
from itertools import permutations

import pytest

from fibperm.classes import (
    A_CLASSES,
    B_CLASSES,
    CLASS_IDS,
    CLASS_SPECS,
    Decomposition,
    _member_products,
    compose,
    count,
    decompose,
    generate,
    patterns_of,
)
from fibperm.errors import DomainError, NotInClassError, SizeLimitError
from fibperm.fib import fib_number
from fibperm.perms import brute_force_av, inversions


class TestPatterns:
    def test_sets(self):
        assert patterns_of("A1") == frozenset(
            {(2, 3, 1), (3, 1, 2), (4, 3, 2, 1), (2, 1, 5, 4, 3)}
        )
        assert patterns_of("A2") == frozenset(
            {(2, 3, 1), (3, 2, 1), (4, 1, 2, 3), (2, 1, 5, 3, 4)}
        )
        assert patterns_of("B1") == frozenset(
            {(2, 3, 1), (3, 1, 2), (1, 4, 3, 2)}
        )
        assert patterns_of("B2") == frozenset(
            {(3, 1, 2), (3, 2, 1), (1, 3, 4, 2)}
        )

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            patterns_of("C1")
        with pytest.raises(ValueError):
            count("a1", 3)


class TestClassSpecs:
    def test_derived_id_tuples(self):
        assert CLASS_IDS == ("A1", "A2", "B1", "B2")
        assert A_CLASSES == ("A1", "A2")
        assert B_CLASSES == ("B1", "B2")

    def test_exceptional_member_carries_the_tail_exponent(self):
        # the exceptional length-n member, built from the shape alone: an
        # increasing prefix then the core (A), or the full pre-part (B)
        for class_id, spec in CLASS_SPECS.items():
            for n in range(3, 13):
                if spec.kind == "A":
                    member = tuple(range(1, n - 2)) + spec.shape(n - 2)
                else:
                    member = spec.shape(n)
                assert member == spec.head(n), (class_id, n)
                assert member in generate(class_id, n), (class_id, n)
                assert inversions(member) == spec.tail_q_exponent(n), (class_id, n)


class TestCount:
    def test_frozen_values(self):
        for cls in CLASS_IDS:
            assert [count(cls, n) for n in range(1, 7)] == [1, 2, 4, 7, 12, 20]
        assert count("B2", 10) == 143

    def test_closed_form(self):
        for cls in CLASS_IDS:
            for n in range(1, 31):
                assert count(cls, n) == fib_number(n + 1) - 1

    def test_domain(self):
        with pytest.raises(DomainError, match="^the count formula needs n >= 1; got 0$"):
            count("A1", 0)
        with pytest.raises(DomainError, match="^the count formula needs n >= 1; got -3$"):
            count("A1", -3)


class TestGenerate:
    def test_frozen_small(self):
        assert generate("B2", 3) == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (2, 3, 1),
        ]
        assert generate("A1", 3) == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (3, 2, 1),
        ]
        assert generate("A1", 0) == [()]

    def test_sizes_match_count(self):
        for cls in CLASS_IDS:
            for n in range(1, 21):
                assert len(generate(cls, n)) == count(cls, n)

    def test_sorted_and_distinct(self):
        # no list is sorted as a whole: one sort of the left parts orders
        # every member, so check every length up to n = 22
        for cls in CLASS_IDS:
            for n in range(0, 23):
                members = generate(cls, n)
                assert all(a < b for a, b in zip(members, members[1:])), (cls, n)

    def test_member_products_left_parts_are_prefix_free(self):
        # if a left part is a prefix of another, or equals it, it is a
        # prefix of the next one in sorted order, so adjacent pairs suffice
        for cls in CLASS_IDS:
            for n in range(0, 23):
                lefts = sorted(a for lefts, _ in _member_products(cls, n) for a in lefts)
                for a, b in zip(lefts, lefts[1:]):
                    assert b[:len(a)] != a, (cls, n, a, b)

    def test_matches_brute_force(self):
        for cls in CLASS_IDS:
            pats = patterns_of(cls)
            for n in range(0, 14):
                assert generate(cls, n) == brute_force_av(n, pats), (cls, n)

    def test_limits(self):
        with pytest.raises(SizeLimitError):
            generate("A1", 27)
        with pytest.raises(DomainError, match="^length -1 is negative$"):
            generate("A1", -1)


class TestDecompose:
    def test_frozen_a_examples(self):
        assert decompose("A1", (1, 4, 3, 2, 6, 5)) == Decomposition(
            head_length=4, tail=(2, 1)
        )
        assert decompose("A2", (1, 4, 2, 3, 6, 5)) == Decomposition(
            head_length=4, tail=(2, 1)
        )
        assert decompose("A1", (2, 1, 4, 3, 5, 6)) == Decomposition(
            head_length=0, tail=(2, 1, 4, 3, 5, 6)
        )
        assert decompose("A1", ()) == Decomposition(head_length=0, tail=())

    def test_frozen_b_examples(self):
        assert decompose("B1", (3, 2, 1, 5, 4, 6, 7)) == Decomposition(
            head_length=3, tail=(2, 1, 3, 4)
        )
        assert decompose("B2", (2, 3, 1, 5, 4)) == Decomposition(
            head_length=3, tail=(2, 1)
        )
        assert decompose("B1", (1, 2, 3)) == Decomposition(
            head_length=1, tail=(1, 2)
        )

    def test_round_trip_all_members(self):
        for cls in CLASS_IDS:
            lo = 0 if cls in A_CLASSES else 1
            for n in range(lo, 8):
                for perm in generate(cls, n):
                    assert compose(cls, decompose(cls, perm)) == perm, (cls, perm)

    def test_rejects_non_members(self):
        with pytest.raises(NotInClassError) as caught:
            decompose("A1", (2, 3, 1))
        assert str(caught.value) == "(2, 3, 1) of length 3 does not fit the A1 shape"
        # past 8 values the message shows the first 8 and then ", ..."
        with pytest.raises(NotInClassError) as caught:
            decompose("A1", (2, 3, 1) + tuple(range(4, 13)))
        assert str(caught.value) == (
            "(2, 3, 1, 4, 5, 6, 7, 8, ...) of length 12 does not fit the A1 shape"
        )
        # pickled and loaded again, as between processes, it reads the same
        assert str(pickle.loads(pickle.dumps(caught.value))) == str(caught.value)
        with pytest.raises(NotInClassError):
            decompose("B2", (3, 1, 2))
        with pytest.raises(NotInClassError):
            decompose("A1", (4, 3, 2, 1))

    def test_rejects_exactly_the_non_avoiders(self):
        # decompose tests no pattern: the shape parse alone must agree with
        # the avoidance oracle on every permutation
        for cls in CLASS_IDS:
            for n in range(1, 8):
                members = set(brute_force_av(n, patterns_of(cls)))
                for perm in permutations(range(1, n + 1)):
                    try:
                        decompose(cls, perm)
                        accepted = True
                    except NotInClassError:
                        accepted = False
                    assert accepted == (perm in members), (cls, perm)

    def test_error_built_from_one_message(self):
        # verify's fault-injection tests raise it this way and read it back
        exc = NotInClassError("nope")
        assert str(exc) == "nope"
        assert str(pickle.loads(pickle.dumps(exc))) == "nope"

    def test_empty_b_is_out_of_scope(self):
        with pytest.raises(DomainError, match="^the empty permutation has no pre-part$"):
            decompose("B1", ())


class TestCompose:
    def test_frozen_examples(self):
        assert compose(
            "A1", Decomposition(head_length=4, tail=(2, 1))
        ) == (1, 4, 3, 2, 6, 5)
        assert compose("B2", Decomposition(head_length=4, tail=(1, 2))) == (
            2, 3, 4, 1, 5, 6,
        )

    def test_invalid_fields(self):
        # an A-type head is empty or ends in the three-value core
        for head_length in (1, 2):
            with pytest.raises(DomainError, match=f"^A1 has no head of length {head_length}$"):
                compose("A1", Decomposition(head_length=head_length, tail=()))
        # the tail must be a Fibonacci permutation
        with pytest.raises(DomainError, match=r"^tail \(3, 2, 1\) is not a Fibonacci permutation$"):
            compose("A1", Decomposition(head_length=3, tail=(3, 2, 1)))
        with pytest.raises(DomainError, match=r"^tail \(2, 3, 1\) is not a Fibonacci permutation$"):
            compose("B1", Decomposition(head_length=3, tail=(2, 3, 1)))
        with pytest.raises(DomainError, match="^B1 has no head of length 0$"):
            compose("B1", Decomposition(head_length=0, tail=(1,)))

    def test_image_is_exactly_the_class(self):
        # composing every (pre-part length, Fibonacci suffix) record of
        # total length n yields each class member exactly once
        from fibperm.fib import tiling_to_perm, tilings

        for cls in B_CLASSES:
            for n in range(1, 8):
                built = []
                for head_length in range(1, n + 1):
                    for word in tilings(n - head_length):
                        tail = tiling_to_perm(word)
                        built.append(compose(cls, Decomposition(head_length, tail)))
                assert sorted(built) == generate(cls, n), (cls, n)
                assert len(built) == len(set(built))
