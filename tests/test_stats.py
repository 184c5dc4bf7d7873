import time
from collections import Counter
from math import comb

import pytest

from fibperm import stats
from fibperm.classes import B_CLASSES, CLASS_IDS, class_spec, count, generate, patterns_of
from fibperm.errors import DomainError, SizeLimitError
from fibperm.fib import fib_number, tiling_to_perm, tilings
from fibperm.perms import brute_force_av, inversions
from fibperm.stats import (
    VARIANTS,
    binomial,
    distribution_formula,
    distribution_oracle,
    fib_distribution_formula,
    fib_distribution_stated,
    fib_inv_count,
    inv_distribution_formula,
    joint_distribution_formula,
)

from helpers import naive_fib_stat, naive_inversions


def assert_nonzero_row(row, keys, cell):
    """*row* holds the nonzero values of *cell* over *keys*, in key order:
    every cell it lacks evaluates to 0 through the one-cell formula."""
    assert list(row) == [key for key in keys if key in row]
    assert 0 not in row.values()
    for key in keys:
        assert row.get(key, 0) == cell(key), key


class TestBinomial:
    def test_out_of_range_is_zero(self):
        assert binomial(-1, 0) == 0
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(5, 2) == 10


class TestFibInvCount:
    def test_frozen_row(self):
        assert [fib_inv_count(6, k) for k in range(5)] == [1, 5, 6, 1, 0]

    def test_row_sums_to_fibonacci(self):
        for n in range(0, 25):
            assert sum(fib_inv_count(n, k) for k in range(n + 1)) == fib_number(n)

    def test_matches_enumeration(self):
        # inversion distribution over the Fibonacci permutations themselves
        for n in range(0, 13):
            tally = Counter(
                inversions(tiling_to_perm(w)) for w in tilings(n)
            )
            for k in range(n + 2):
                assert fib_inv_count(n, k) == tally.get(k, 0), (n, k)


class TestOracle:
    def test_totals(self):
        for cls in CLASS_IDS:
            for n in range(1, 9):
                for stat in ("inv", "fib", "joint"):
                    dist = distribution_oracle(cls, n, stat)
                    assert sum(dist.values()) == count(cls, n), (cls, n, stat)

    def test_joint_marginals(self):
        for cls in CLASS_IDS:
            for n in range(1, 8):
                joint = distribution_oracle(cls, n, "joint")
                inv_marginal: Counter = Counter()
                fib_marginal: Counter = Counter()
                for (k, j), c in joint.items():
                    fib_marginal[k] += c
                    inv_marginal[j] += c
                assert dict(fib_marginal) == distribution_oracle(cls, n, "fib")
                assert dict(inv_marginal) == distribution_oracle(cls, n, "inv")

    def test_matches_naive_tabulation(self):
        # the oracle folds G_n, which generate, fib_stat and inversions
        # build; this tally shares no code with any of them
        for cls in CLASS_IDS:
            for n in range(1, 9):
                members = brute_force_av(n, patterns_of(cls))
                pairs = [(naive_fib_stat(p), naive_inversions(p)) for p in members]
                want = {
                    "inv": Counter(j for _, j in pairs),
                    "fib": Counter(k for k, _ in pairs),
                    "joint": Counter(pairs),
                }
                for stat, tally in want.items():
                    got = distribution_oracle(cls, n, stat)
                    assert got == dict(tally), (cls, n, stat)
                    assert list(got) == sorted(got), (cls, n, stat)

    def test_validation(self):
        with pytest.raises(ValueError):
            distribution_oracle("A1", 3, "desc")
        with pytest.raises(ValueError):
            distribution_oracle("Z9", 3, "inv")


class TestInvDistribution:
    def test_matches_oracle(self):
        for cls in CLASS_IDS:
            for n in range(1, 9):
                oracle = distribution_oracle(cls, n, "inv")
                for k in range(comb(n, 2) + 3):
                    assert inv_distribution_formula(cls, n, k) == oracle.get(
                        k, 0
                    ), (cls, n, k)

    def test_negative_k_is_zero(self):
        for cls in CLASS_IDS:
            assert inv_distribution_formula(cls, 5, -1) == 0

    def test_b_row_matches_the_per_head_sum(self):
        # the row adds each head's tail terms where they fall; summed per k
        # instead, head(h) carries e(h) inversions and its Fibonacci tail one
        # per domino, so k inversions leave k - e(h) dominoes for n - h cells
        for cls in B_CLASSES:
            exponent = class_spec(cls).tail_q_exponent
            for n in range(1, 41):
                row = distribution_formula(cls, n, "inv", inv_margin=2)
                keys = range(comb(n, 2) + 3)
                assert_nonzero_row(row, keys, lambda k: inv_distribution_formula(cls, n, k))
                for k in keys:
                    assert row.get(k, 0) == sum(
                        binomial(n - h - (k - exponent(h)), k - exponent(h))
                        for h in range(1, n + 1)
                    ), (cls, n, k)

    def test_b_one_cell_call_reads_only_its_heads(self):
        # head(h) carries e(h) inversions, C(h, 2) for B1 and h - 1 for B2,
        # so k = 3 leaves d = 3 - e(h) dominoes for the n - h tail cells
        n = 10**5
        heads = {"B1": ((1, 3), (2, 2), (3, 0)), "B2": ((1, 3), (2, 2), (3, 1), (4, 0))}
        for cls, pairs in heads.items():
            start = time.perf_counter()
            got = inv_distribution_formula(cls, n, 3)
            assert time.perf_counter() - start < 1, cls
            assert got == sum(comb(n - h - d, d) for h, d in pairs), cls

    def test_b_head_exponents_never_decrease(self):
        # why the B-type row may stop at the first head past its top key
        for cls in B_CLASSES:
            exponent = class_spec(cls).tail_q_exponent
            assert all(exponent(h) <= exponent(h + 1) for h in range(1, 2000)), cls


class TestFibDistribution:
    def test_corrected_matches_oracle(self):
        # the distribution does not depend on the class
        for cls in CLASS_IDS:
            for n in range(1, 9):
                oracle = distribution_oracle(cls, n, "fib")
                for k in range(-1, n + 2):
                    assert fib_distribution_formula(cls, n, k) == oracle.get(
                        k, 0
                    ), (cls, n, k)

    def test_stated_form_differs_inside_the_gap(self):
        # as stated the count is F(k) for every 0 <= k <= n, which is wrong
        # exactly on the two top values below k = n
        assert fib_distribution_stated(1, 0) == 1
        assert fib_distribution_formula("A1", 1, 0) == 0
        for n in range(3, 9):
            assert fib_distribution_stated(n, n - 1) == fib_number(n - 1) != 0
            assert fib_distribution_formula("A1", n, n - 1) == 0
            assert fib_distribution_stated(n, n - 2) == fib_number(n - 2) != 0
            assert fib_distribution_formula("A1", n, n - 2) == 0
            # and agrees everywhere else
            for k in range(0, n - 2):
                assert fib_distribution_stated(n, k) == fib_distribution_formula(
                    "A1", n, k
                )
            assert fib_distribution_stated(n, n) == fib_distribution_formula(
                "A1", n, n
            ) == fib_number(n)
            # and is 0 outside 0 <= k <= n
            assert fib_distribution_stated(n, -1) == fib_distribution_stated(n, n + 1) == 0


class TestJointDistribution:
    def test_corrected_matches_oracle(self):
        for cls in CLASS_IDS:
            for n in range(1, 8):
                oracle = distribution_oracle(cls, n, "joint")
                for k in range(0, n + 1):
                    for j in range(0, comb(n, 2) + 3):
                        assert joint_distribution_formula(
                            cls, n, k, j, "corrected"
                        ) == oracle.get((k, j), 0), (cls, n, k, j)

    def test_paper_matches_corrected_except_b2(self):
        for cls in ("A1", "A2", "B1"):
            for n in range(1, 8):
                for k in range(0, n + 1):
                    for j in range(0, comb(n, 2) + 3):
                        assert joint_distribution_formula(
                            cls, n, k, j, "paper"
                        ) == joint_distribution_formula(cls, n, k, j, "corrected")

    def test_b2_paper_counterexample(self):
        # showcased discrepancy: the stated form gives 3 where only one
        # member of length 5 has fib statistic 2 and three inversions
        oracle = distribution_oracle("B2", 5, "joint")
        assert joint_distribution_formula("B2", 5, 2, 3, "paper") == 3
        assert joint_distribution_formula("B2", 5, 2, 3, "corrected") == 1
        assert oracle.get((2, 3), 0) == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            joint_distribution_formula("B2", 5, 2, 3, "wrong")
        # zero for negative k or j, past k = n and inside the band
        # n - 2 <= k < n, whatever the class and variant
        for cls in CLASS_IDS:
            for variant in VARIANTS:
                for n in range(1, 13):
                    band = range(max(n - 2, 0), n)
                    cells = [(-1, 0), (0, -1), (n, -1), (n + 1, 0)]
                    cells += [(k, j) for k in band for j in range(comb(n, 2) + 3)]
                    for k, j in cells:
                        assert joint_distribution_formula(cls, n, k, j, variant) == 0, (
                            cls, variant, n, k, j
                        )


class TestDistributionFormula:
    def test_domain_and_margin(self):
        for margin in (0, 2):
            assert_nonzero_row(
                distribution_formula("A1", 5, "inv", inv_margin=margin),
                range(comb(5, 2) + margin + 1),
                lambda k: inv_distribution_formula("A1", 5, k),
            )
        assert_nonzero_row(
            distribution_formula("B1", 4, "fib"), range(5),
            lambda k: fib_distribution_formula("B1", 4, k),
        )

    def test_variant_dispatch(self):
        for cls in CLASS_IDS:
            for n in range(1, 8):
                assert_nonzero_row(
                    distribution_formula(cls, n, "fib", "corrected"), range(n + 1),
                    lambda k: fib_distribution_formula(cls, n, k),
                )
                assert_nonzero_row(
                    distribution_formula(cls, n, "fib", "paper"), range(n + 1),
                    lambda k: fib_distribution_stated(n, k),
                )
                assert_nonzero_row(
                    distribution_formula(cls, n, "joint", "paper"),
                    [(k, j) for k in range(n + 1) for j in range(comb(n, 2) + 1)],
                    lambda key: joint_distribution_formula(cls, n, *key, "paper"),
                )

    def test_joint_rows_match_single_cells(self):
        for cls in CLASS_IDS:
            for variant in VARIANTS:
                for n in range(1, 13):
                    assert_nonzero_row(
                        distribution_formula(cls, n, "joint", variant, inv_margin=2),
                        [(k, j) for k in range(n + 1) for j in range(comb(n, 2) + 3)],
                        lambda key: joint_distribution_formula(cls, n, *key, variant),
                    )

    def test_short_lengths_refused(self):
        for n in (-1, 0):
            for stat in ("inv", "fib", "joint"):
                for variant in VARIANTS:
                    with pytest.raises(
                        DomainError, match=f"the closed forms need n >= 1; got {n}$"
                    ):
                        distribution_formula("A1", n, stat, variant)

    def test_unknown_class_refused_at_the_call(self):
        # the stated fib form takes no class, so nothing downstream checks it
        for stat in ("inv", "fib", "joint"):
            for variant in VARIANTS:
                with pytest.raises(DomainError, match="unknown class 'Z9'"):
                    distribution_formula("Z9", 3, stat, variant)

    def test_rows_follow_their_binomials(self):
        # every cell of every row against its closed form written out here,
        # so a support bound that drops a nonzero cell fails even where no
        # oracle reaches: e is the head's exponent for a head of length l
        head_exponent = {
            "A1": lambda l: 3, "A2": lambda l: 2,
            "B1": lambda l: comb(l, 2), "B2": lambda l: l - 1,
        }
        for cls in CLASS_IDS:
            e_of = head_exponent[cls]
            for n in range(1, 31):
                keys = range(comb(n, 2) + 3)
                if cls in ("A1", "A2"):
                    e = e_of(n)
                    inv = distribution_formula(cls, n, "inv", inv_margin=2)
                    for k in keys:
                        want = binomial(n - k, k)
                        if k >= e:
                            want += binomial(n - k + e - 2, k - e + 1)
                        assert inv.get(k, 0) == want, (cls, n, k)
                for variant in VARIANTS:
                    joint = distribution_formula(cls, n, "joint", variant, inv_margin=2)
                    assert set(joint) <= {(k, j) for k in range(n + 1) for j in keys}
                    assert 0 not in joint.values()
                    for k in range(n + 1):
                        for j in keys:
                            if k == n:
                                want = binomial(n - j, j)
                            elif k >= n - 2:
                                want = 0
                            elif cls == "B2" and variant == "paper":
                                want = binomial(2 * k + j + 1 - n, j + k + 1 - n)
                            else:
                                e = e_of(n - k)
                                want = binomial(k - j + e, j - e)
                            assert joint.get((k, j), 0) == want, (cls, variant, n, k, j)

    def test_cell_cap_is_checked_before_any_cell(self, monkeypatch):
        # the stated B2 joint form is nonzero on (n-2)(n-1)^2/2 + n//2 + 1 cells
        n = 6
        size = (n - 2) * (n - 1) ** 2 // 2 + n // 2 + 1
        monkeypatch.setattr(stats, "_MAX_CELLS", size)
        assert len(distribution_formula("B2", n, "joint", "paper")) == size
        monkeypatch.setattr(stats, "_MAX_CELLS", size - 1)
        monkeypatch.setattr(stats, "binomial", None)  # no cell may be evaluated
        monkeypatch.setattr(stats, "fib_inv_count", None)
        with pytest.raises(SizeLimitError, match=f"capped at {size - 1} cells; got {size}$"):
            distribution_formula("B2", n, "joint", "paper")

    def test_stated_b2_joint_form_reaches_past_c_n_2(self):
        # why the CLI cut at C(n,2) and the verify margin stay separate
        beyond = []
        for n in range(1, 7):
            row = distribution_formula("B2", n, "joint", "paper", 2)
            assert_nonzero_row(
                row,
                [(k, j) for k in range(n + 1) for j in range(comb(n, 2) + 3)],
                lambda key: joint_distribution_formula("B2", n, *key, "paper"),
            )
            beyond += [(n, key) for key in row if key[1] > comb(n, 2)]
        assert (3, (0, 4)) in beyond
