import random
import time
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibperm.errors import DomainError, SizeLimitError
from fibperm.classes import CLASS_IDS, patterns_of
from fibperm.fib import FIBONACCI_PATTERNS
from fibperm.perms import (
    BRUTE_FORCE_MAX_CANDIDATES,
    BRUTE_FORCE_MAX_N,
    _brute_force_av,
    _occurs,
    brute_force_av,
    contains_pattern,
    direct_sum,
    format_permutation,
    inversions,
    make_pattern_set,
    make_permutation,
    parse_permutation,
    skew_sum,
    standardize,
)
from helpers import (
    naive_brute_force_av,
    naive_contains,
    naive_inversions,
    naive_occurrence_maxima,
    naive_pattern_masks,
    permutations_up_to,
)

ALL_LEN3 = [tuple(p) for p in permutations((1, 2, 3))]
ALL_LEN4 = [tuple(p) for p in permutations((1, 2, 3, 4))]


class TestMakePermutation:
    def test_accepts_valid(self):
        assert make_permutation([3, 1, 2]) == (3, 1, 2)
        assert make_permutation(()) == ()

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError, match="^value 1 appears twice$"):
            make_permutation((1, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError, match=r"^value 0 outside 1\.\.2$"):
            make_permutation((0, 1))
        with pytest.raises(DomainError, match=r"^value 3 outside 1\.\.2$"):
            make_permutation((1, 3))


class TestStandardize:
    def test_examples(self):
        assert standardize((4, 9, 2)) == (2, 3, 1)
        assert standardize(()) == ()
        assert standardize((7,)) == (1,)

    def test_rejects_repeats(self):
        with pytest.raises(DomainError, match="^values to standardize must be distinct$"):
            standardize((5, 5))

    @given(permutations_up_to(7))
    def test_fixes_permutations(self, perm):
        assert standardize(perm) == perm


class TestSums:
    def test_direct_sum(self):
        assert direct_sum((1, 3, 2), (3, 1, 2)) == (1, 3, 2, 6, 4, 5)
        assert direct_sum((), (2, 1)) == (2, 1)

    def test_skew_sum(self):
        assert skew_sum((1, 3, 2), (3, 1, 2)) == (4, 6, 5, 3, 1, 2)
        assert skew_sum((1,), ()) == (1,)

    @given(permutations_up_to(5), permutations_up_to(5))
    def test_inversions_add_up(self, a, b):
        assert inversions(direct_sum(a, b)) == inversions(a) + inversions(b)
        assert inversions(skew_sum(a, b)) == (
            inversions(a) + inversions(b) + len(a) * len(b)
        )


class TestInversions:
    def test_examples(self):
        assert inversions(()) == 0
        assert inversions((1, 2, 3)) == 0
        assert inversions((3, 2, 1)) == 3
        assert inversions((1, 5, 3, 2, 4)) == 4

    def test_reverse_identity_is_maximal(self):
        n = 8
        assert inversions(tuple(range(n, 0, -1))) == n * (n - 1) // 2

    @given(permutations_up_to(9))
    def test_matches_naive(self, perm):
        assert inversions(perm) == naive_inversions(perm)


class TestContainment:
    def test_examples(self):
        assert contains_pattern((2, 3, 1), (2, 3, 1))
        assert contains_pattern((4, 3, 2, 1), (3, 2, 1))
        assert not contains_pattern((1, 2, 3), (2, 1))
        assert contains_pattern((3, 5, 1, 4, 2), (2, 3, 1))
        assert not contains_pattern((2, 1, 3, 5, 4), (3, 1, 2))

    def test_short_perm_cannot_contain(self):
        assert not contains_pattern((1, 2), (1, 2, 3))

    @given(permutations_up_to(7), st.sampled_from(ALL_LEN3 + ALL_LEN4))
    def test_matches_naive(self, perm, pattern):
        assert contains_pattern(perm, pattern) == naive_contains(perm, pattern)

    def test_class_patterns_exhaustively(self):
        """Exhaustive over a range chosen for suite time: every permutation
        of length <= 6 against the 9 class and Fibonacci patterns (7,866
        pairs), and every permutation of length 7 against the two length-5
        patterns (10,080 pairs), which the sampled test above never draws."""
        patterns = sorted(
            FIBONACCI_PATTERNS.union(*(patterns_of(cls) for cls in CLASS_IDS))
        )
        assert len(patterns) == 9
        for n in range(8):
            checked = patterns if n <= 6 else [p for p in patterns if len(p) == 5]
            for perm in permutations(range(1, n + 1)):
                for pattern in checked:
                    assert contains_pattern(perm, pattern) == naive_contains(
                        perm, pattern
                    ), (perm, pattern)


def assert_pins_exact(perm, patterns):
    # pinned at i, the search finds an occurrence exactly when one has its
    # maximum at index i, so some pin finds one exactly when the unpinned
    # search does
    maxima = naive_occurrence_maxima(perm, {len(p) for p in patterns})
    for pattern in patterns:
        hits = {i for i in range(len(perm)) if _occurs(perm, pattern, i)}
        assert hits == maxima.get(pattern, set()), (perm, pattern)
        assert contains_pattern(perm, pattern) == bool(hits), (perm, pattern)


class TestPinnedSearch:
    def test_exhaustive_up_to_length_7(self):
        """Every permutation of length <= 7 against every pattern of length
        3 and 4: 177,420 pairs, each pin checked."""
        for n in range(8):
            for perm in permutations(range(1, n + 1)):
                assert_pins_exact(perm, ALL_LEN3 + ALL_LEN4)

    def test_sampled_length_5(self):
        """A seeded sample of 10 length-5 patterns against 400 seeded
        permutations of length 8."""
        rng = random.Random(5)
        patterns = rng.sample(list(permutations(range(1, 6))), 10)
        for _ in range(400):
            assert_pins_exact(tuple(rng.sample(range(1, 9), 8)), patterns)


def _random_pattern_set(rng):
    lengths = [rng.randint(3, 5) for _ in range(rng.randint(1, 3))]
    return {tuple(rng.sample(range(1, k + 1), k)) for k in lengths}


class TestBruteForce:
    def test_frozen_small(self):
        assert brute_force_av(3, {(2, 3, 1), (3, 1, 2), (3, 2, 1)}) == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
        ]
        assert brute_force_av(0, {(2, 3, 1)}) == [()]

    def test_lex_sorted(self):
        members = brute_force_av(5, {(2, 3, 1), (3, 1, 2)})
        assert members == sorted(members)
        assert len(members) == 16  # 2^{5-1}

    @pytest.mark.parametrize(
        "patterns",
        [patterns_of(cls) for cls in CLASS_IDS]
        + [FIBONACCI_PATTERNS, {(1, 2, 3)}, {(1, 3, 2)}, {(2, 1, 3), (1, 3, 2, 4)}],
        ids=list(CLASS_IDS) + ["fibonacci", "123", "132", "213-1324"],
    )
    def test_tree_matches_factorial_filter(self, patterns):
        for n in range(9):
            assert brute_force_av(n, patterns) == naive_brute_force_av(n, patterns), n

    def test_tree_matches_factorial_filter_on_random_sets(self):
        """30 seeded random pattern sets of lengths 3-5, and sets whose
        patterns have their maximum first (321, 312) or last (123, 213),
        where the tree's pin falls on the first or the last pattern entry;
        n <= 8."""
        rng = random.Random(27)
        first, last = [(3, 2, 1), (3, 1, 2)], [(1, 2, 3), (2, 1, 3)]
        pattern_sets = [set(first), set(last)] + [{p} for p in first + last]
        pattern_sets += [_random_pattern_set(rng) for _ in range(30)]
        pool = sorted(set().union(*pattern_sets))
        masks = naive_pattern_masks(8, pool)
        for patterns in pattern_sets:
            wanted = sum(1 << pool.index(p) for p in patterns)
            for n in range(9):
                expected = [
                    p for p in permutations(range(1, n + 1)) if not masks[p] & wanted
                ]
                assert brute_force_av(n, patterns) == expected, (sorted(patterns), n)

    def test_limits(self):
        with pytest.raises(DomainError, match="^length -1 is negative$"):
            brute_force_av(-1, {(2, 3, 1)})
        start = time.monotonic()
        with pytest.raises(SizeLimitError, match="capped"):
            brute_force_av(BRUTE_FORCE_MAX_N + 1, {(2, 3, 1)})
        # no permutation of length <= 10 contains 11 10 ... 1, so level 10
        # would test 9! * 10 candidates
        _brute_force_av.cache_clear()
        with pytest.raises(SizeLimitError, match=str(BRUTE_FORCE_MAX_CANDIDATES)):
            brute_force_av(10, {tuple(range(11, 0, -1))})
        assert time.monotonic() - start < 5.0
        # the levels built before the bound was hit (all 9! permutations of
        # length 9 among them) are not kept
        assert _brute_force_av.cache_info().currsize == 0

    def test_pattern_set_validation(self):
        with pytest.raises(DomainError, match="^a pattern set must be nonempty$"):
            make_pattern_set([])
        with pytest.raises(DomainError, match=r"^pattern \(2, 1\) shorter than 3$"):
            make_pattern_set([(2, 1)])


class TestTextForms:
    def test_format(self):
        assert format_permutation((3, 1, 2)) == "3 1 2"
        assert format_permutation(()) == ""

    def test_parse_spaced(self):
        assert parse_permutation("3 1 2") == (3, 1, 2)
        assert parse_permutation("10 1 2 3 4 5 6 7 8 9") == (
            10, 1, 2, 3, 4, 5, 6, 7, 8, 9,
        )

    def test_parse_compact(self):
        assert parse_permutation("4321") == (4, 3, 2, 1)
        assert parse_permutation("1") == (1,)

    def test_parse_rejects_bad_input(self):
        with pytest.raises(DomainError, match="^value 1 appears twice$"):
            parse_permutation("1 1")
        with pytest.raises(DomainError, match=r"^value 0 outside 1\.\.2$"):
            parse_permutation("0 1")
        with pytest.raises(ValueError):
            parse_permutation("a b")

    def test_parse_names_a_bad_token(self):
        # no int() message reaches the caller: the token is shown, shortened
        for text, shown in (
            ("1 a 2", "'a'"),
            ("1²", "'1²'"),
            ("1 " + "9" * 5000, "'" + "9" * 20 + "...'"),
        ):
            with pytest.raises(DomainError) as info:
                parse_permutation(text)
            assert str(info.value) == f"{shown} is not a permutation value"

    @given(permutations_up_to(8))
    def test_round_trip(self, perm):
        if perm:
            assert parse_permutation(format_permutation(perm)) == perm
