from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibperm import fib
from fibperm.classes import CLASS_IDS, CLASS_SPECS, generate
from fibperm.errors import DomainError, SizeLimitError
from fibperm.fib import (
    FIBONACCI_PATTERNS,
    extend_fibonacci,
    fib_number,
    fib_permutations,
    fib_stat,
    is_fibonacci,
    parse_tiling,
    perm_to_tiling,
    tiling_cells,
    tiling_to_perm,
    tilings,
)
from helpers import (
    naive_avoids_all,
    naive_fib_number,
    naive_fib_stat,
    permutations_up_to,
)


class TestFibNumber:
    def test_frozen_values(self):
        assert [fib_number(n) for n in range(11)] == [
            1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
        ]

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match=r"^F\(-1\) is not defined here$"):
            fib_number(-1)

    def test_matches_naive(self):
        for n in range(3001):
            assert fib_number(n) == naive_fib_number(n), n


class TestIsFibonacci:
    def test_examples(self):
        assert is_fibonacci(())
        assert is_fibonacci((1,))
        assert is_fibonacci((2, 1, 3, 5, 4, 6, 7))
        assert is_fibonacci((1, 3, 2, 4, 6, 5, 7, 9, 8, 10))
        assert not is_fibonacci((3, 2, 1))
        assert not is_fibonacci((2, 3, 1))
        assert not is_fibonacci((1, 4, 2, 3))

    def test_matches_avoidance_definition(self):
        for n in range(7):
            for p in permutations(range(1, n + 1)):
                assert is_fibonacci(p) == naive_avoids_all(p, FIBONACCI_PATTERNS), p

    def test_counts_are_fibonacci(self):
        for n in range(8):
            members = [
                p for p in permutations(range(1, n + 1)) if is_fibonacci(p)
            ]
            assert len(members) == fib_number(n)


class TestTilings:
    def test_frozen_order(self):
        assert tilings(0) == [""]
        assert tilings(1) == ["m"]
        assert tilings(3) == ["mmm", "md", "dm"]
        assert tilings(4) == ["mmmm", "mmd", "mdm", "dmm", "dd"]

    def test_counts(self):
        for cells in range(12):
            assert len(tilings(cells)) == fib_number(cells)

    def test_limits(self):
        with pytest.raises(DomainError, match="^a strip cannot have -1 cells$"):
            tilings(-1)
        with pytest.raises(SizeLimitError):
            tilings(28)
        with pytest.raises(DomainError, match="^a strip cannot have -1 cells$"):
            fib_permutations(-1)
        with pytest.raises(SizeLimitError):
            fib_permutations(28)

    def test_cells_measure(self):
        assert tiling_cells("mmm") == 3
        assert tiling_cells("md") == 3
        assert tiling_cells("dd") == 4

    def test_parse(self):
        assert parse_tiling("mdm") == "mdm"
        with pytest.raises(DomainError, match="^a tiling word must be nonempty$"):
            parse_tiling("")
        with pytest.raises(DomainError, match="^bad tile 'x'; expected 'm' or 'd'$"):
            parse_tiling("mxd")


class TestTilingPermCorrespondence:
    def test_frozen_examples(self):
        assert tiling_to_perm("dmdmm") == (2, 1, 3, 5, 4, 6, 7)
        assert tiling_to_perm("m") == (1,)
        assert tiling_to_perm("") == ()
        assert perm_to_tiling((1, 3, 2, 4, 5, 7, 6)) == "mdmmd"
        assert perm_to_tiling(()) == ""

    def test_round_trip_exhaustive(self):
        for cells in range(11):
            for word in tilings(cells):
                assert perm_to_tiling(tiling_to_perm(word)) == word

    def test_order_is_lexicographic_on_permutations(self):
        # the monomino-first recursion enumerates tilings so that the
        # decoded permutations come out in increasing lexicographic order
        for cells in range(2, 11):
            decoded = [tiling_to_perm(w) for w in tilings(cells)]
            assert decoded == sorted(decoded)

    def test_prefix_recursion_matches_decoded_words(self):
        # fib_permutations and tilings are built independently
        for n in range(21):
            assert fib_permutations(n) == [tiling_to_perm(w) for w in tilings(n)], n

    def test_head_extensions_match_decoded_words(self):
        # every head a class has, extended by the recursion, against the
        # head followed by each decoded word shifted above it
        for spec in CLASS_SPECS.values():
            first = 3 if spec.kind == "A" else 1
            for n in range(first, 17):
                for length in range(first, n + 1):
                    head = spec.head(length)
                    expected = [head + tuple(v + length for v in tiling_to_perm(w))
                                for w in tilings(n - length)]
                    assert extend_fibonacci([], head, n) == expected, (spec.class_id, n, length)

    def test_products_flatten_to_decoded_words(self):
        # the middle cut's products for every head a class has and for the
        # empty one, flattened here without fib's sort: each left part of a
        # product followed by each of its right parts, each member once
        for n in range(17):
            heads = {()} | {spec.head(length) for spec in CLASS_SPECS.values()
                            for length in range(3 if spec.kind == "A" else 1, n + 1)}
            for head in heads:
                expected = [head + tuple(v + len(head) for v in tiling_to_perm(w))
                            for w in tilings(n - len(head))]
                products = fib._fibonacci_products(head, len(head) + 1, n)
                flat = [a + b for lefts, rights in products for a in lefts for b in rights]
                assert sorted(flat) == expected, (head, n)

    def test_generation_builds_no_words(self):
        fib._tilings.cache_clear()
        for n in range(12):
            fib_permutations(n)
            for cls in CLASS_IDS:
                generate(cls, n)
        assert fib._tilings.cache_info().currsize == 0

    def test_non_fibonacci_rejected(self):
        with pytest.raises(DomainError, match=r"^\(2, 3, 1\) is not a Fibonacci permutation$"):
            perm_to_tiling((2, 3, 1))
        with pytest.raises(DomainError, match=r"^\(3, 2, 1\) is not a Fibonacci permutation$"):
            perm_to_tiling((3, 2, 1))


class TestFibStat:
    def test_frozen_examples(self):
        assert fib_stat((2, 3, 4, 1, 6, 5, 7)) == 3
        assert fib_stat((1, 2, 5, 3, 4, 6, 7)) == 2
        assert fib_stat((3, 2, 1)) == 0
        assert fib_stat(()) == 0
        assert fib_stat((1,)) == 1

    def test_full_on_fibonacci_members(self):
        for cells in range(9):
            for word in tilings(cells):
                perm = tiling_to_perm(word)
                assert fib_stat(perm) == len(perm)

    @given(permutations_up_to(9))
    def test_matches_naive(self, perm):
        assert fib_stat(perm) == naive_fib_stat(perm)
