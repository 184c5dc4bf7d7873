from collections import Counter
from itertools import permutations
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fibperm.classes import CLASS_IDS, class_spec, count, generate
from fibperm.errors import DomainError, NotEvaluableError
from fibperm.fib import (
    fib_number,
    fib_permutations,
    fib_stat,
    is_fibonacci,
    tiling_cells,
    tiling_to_perm,
)
from fibperm.genfun import (
    ONE,
    Q,
    V,
    ZERO,
    Poly,
    _fold,
    _recurrence_levels,
    fib_poly,
    genfun_addition,
    genfun_closed,
    genfun_oracle,
    genfun_recurrence,
)
from fibperm.perms import inversions

from helpers import naive_fib_stat, naive_inversions, permutations_up_to


def small_polys():
    term = st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.integers(-5, 5)
    )
    return st.lists(term, max_size=6).map(
        lambda ts: sum(
            (Poly.monomial(c, v, q) for v, q, c in ts), start=ZERO
        )
    )


@st.composite
def fibonacci_tailed(draw, max_n=26):
    """A permutation of 1..n, n <= max_n: a random head on 1..m followed by
    a Fibonacci permutation of m+1..n.  Its Fibonacci suffix is long, so
    the oracle's scan of the right half often reaches the cut or stops one
    short of it beside a domino that crosses it, which a random
    permutation rarely does."""
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, n))
    head = draw(st.permutations(range(1, m + 1)))
    word = ""
    while tiling_cells(word) < n - m:
        fits = tiling_cells(word) + 2 <= n - m
        word += "d" if fits and draw(st.booleans()) else "m"
    return tuple(head) + tuple(v + m for v in tiling_to_perm(word))


class TestPoly:
    def test_construction_and_identity(self):
        assert Poly() == ZERO
        assert Poly.monomial(1, 0, 0) == ONE
        assert Poly.monomial(0, 3, 2) == ZERO  # zero coefficients vanish
        assert V == Poly.monomial(1, 1, 0)
        assert Q == Poly.monomial(1, 0, 1)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            Poly.monomial(1, -1, 0)
        with pytest.raises(ValueError):
            Poly.monomial(1, 0, -2)

    def test_canonical_text(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(V) == "1*v"
        assert str(3 * V * V + Q) == "1*q + 3*v^2"
        assert str(fib_poly(3)) == "1 + 2*q"

    def test_terms_sorted(self):
        poly = Q * Q + V + ONE
        assert poly.terms() == (((0, 0), 1), ((0, 2), 1), ((1, 0), 1))

    def test_evaluate(self):
        poly = 2 * V * Q + V * V
        assert poly.evaluate(1, 1) == 3
        assert poly.evaluate(2, 3) == 16
        assert ZERO.evaluate(5, 5) == 0

    def test_coefficient(self):
        poly = 2 * V * Q + V * V
        assert poly.coefficient(1, 1) == 2
        assert poly.coefficient(0, 0) == 0

    @given(small_polys(), small_polys(), small_polys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a) == ZERO
        assert a * ONE == a and a * ZERO == ZERO

    @given(small_polys(), small_polys(), st.integers(0, 3), st.integers(0, 3))
    def test_evaluate_is_ring_homomorphism(self, a, b, v, q):
        assert (a + b).evaluate(v, q) == a.evaluate(v, q) + b.evaluate(v, q)
        assert (a * b).evaluate(v, q) == a.evaluate(v, q) * b.evaluate(v, q)

    @given(small_polys(), st.integers(0, 5), st.integers(0, 5))
    def test_shift_is_a_monomial_product(self, p, dv, dq):
        assert p._shift(dv, dq) == p * Poly.monomial(1, dv, dq)

    @given(small_polys().filter(lambda p: p != ZERO), st.booleans(), st.integers(1, 3))
    def test_shift_below_zero_is_refused(self, p, in_v, below):
        # shifting the lowest exponent of v (or of q) below 0
        low = min(e[0 if in_v else 1] for e, _ in p.terms())
        shift = (-low - below, 0) if in_v else (0, -low - below)
        with pytest.raises(DomainError, match=r"^negative exponent in v\^-?\d+\*q\^-?\d+$"):
            p._shift(*shift)

    @given(small_polys(), small_polys())
    def test_cancellation_leaves_no_terms(self, a, b):
        # the results of + and - keep no zero coefficient, so a sum that
        # cancels is ZERO term for term
        for zero in (a - a, (a + b) - b - a, a + (-a), a * 0, (a + b) * 0):
            assert zero.terms() == () and zero == ZERO
        assert (a + b - b).terms() == a.terms()


class TestFibPoly:
    def test_frozen(self):
        assert str(fib_poly(0)) == "1"
        assert str(fib_poly(6)) == "1 + 5*q + 6*q^2 + 1*q^3"

    def test_specializes_to_fibonacci(self):
        for n in range(0, 20):
            assert fib_poly(n).evaluate(1, 1) == fib_number(n)

    def test_two_term_recurrence(self):
        # appending a monomino leaves inversions unchanged; a domino on
        # the last two values adds exactly one
        for n in range(2, 15):
            assert fib_poly(n) == fib_poly(n - 1) + Q * fib_poly(n - 2)


class TestOracle:
    def test_frozen_small(self):
        assert str(genfun_oracle("A1", 3)) == "1*q^3 + 1*v^3 + 2*v^3*q"
        assert str(genfun_oracle("B2", 3)) == "1*q^2 + 1*v^3 + 2*v^3*q"
        assert str(genfun_oracle("A1", 1)) == "1*v"
        assert str(genfun_oracle("A1", 2)) == "1*v^2 + 1*v^2*q"

    def test_counting_specialization(self):
        for cls in CLASS_IDS:
            for n in range(1, 13):
                assert genfun_oracle(cls, n).evaluate(1, 1) == count(cls, n)

    def test_equals_direct_fold(self):
        # the oracle reads both statistics from the middle cut's left and
        # right parts; this fold scans each whole member
        for cls in CLASS_IDS:
            for n in range(0, 21):
                direct = Poly(Counter(
                    (fib_stat(p), inversions(p)) for p in generate(cls, n)
                ))
                assert genfun_oracle(cls, n) == direct, (cls, n)

    def test_fold_equals_naive_fold_on_every_short_permutation(self):
        # every permutation of length <= 8, cut at every h, in one stream of
        # whole products: the left parts on one set of values times all
        # their right parts.  Up to length 7 at every cut, and at h = n // 2
        # for length 8, also one member at a time as a one-left product and
        # in one stream of multi-right products grouped by left part.
        for n in range(0, 9):
            perms = list(permutations(range(1, n + 1)))
            stats = [(naive_fib_stat(p), naive_inversions(p)) for p in perms]
            folded = Poly(Counter(stats))
            for h in range(n + 1):
                by_values: dict = {}
                for p in perms:
                    lefts, rights = by_values.setdefault(frozenset(p[:h]), ({}, {}))
                    lefts[p[:h]] = rights[p[h:]] = None
                assert _fold([(list(lefts), list(rights))
                              for lefts, rights in by_values.values()]) == folded, (n, h)
                if n == 8 and h != n // 2:
                    continue
                by_left: dict = {}
                for p, pair in zip(perms, stats):
                    by_left.setdefault(p[:h], []).append(p[h:])
                    assert _fold([([p[:h]], [p[h:]])]) == Poly({pair: 1}), (p, h)
                assert _fold([([a], rights) for a, rights in by_left.items()]) == folded, (n, h)

    @given(fibonacci_tailed())
    @example((1, 3, 2, 4))  # the domino (3, 2) crosses the cut at h = 2
    @example((2, 1, 4, 3))  # the scan of b = (4, 3) reaches the cut at h = 2
    @example((3, 1, 2, 4))  # b[0] = h at h = 2, but a[-1] is not h + 1
    def test_fold_on_long_fibonacci_suffixes(self, p):
        pair = (fib_stat(p), naive_inversions(p))
        for h in range(len(p) + 1):
            assert _fold([([p[:h]], [p[h:]])]) == Poly({pair: 1}), h

    @given(permutations_up_to(26))
    def test_cut_identity(self, p):
        # inv(p) = inv(a) + inv(b) + sum(a) - h(h+1)/2 for a = p[:h],
        # b = p[h:], at every cut h
        for h in range(len(p) + 1):
            a, b = p[:h], p[h:]
            assert naive_inversions(p) == (
                naive_inversions(a) + naive_inversions(b) + sum(a) - h * (h + 1) // 2
            ), (p, h)


class TestCacheSafety:
    """The fold keeps each right tally by the right parts' content, and fib
    shares blocks of right parts between calls; with both caches warm, other
    parts and fresh member lists must come out as if nothing were cached."""

    @pytest.fixture(autouse=True)
    def warm(self):
        for cls in CLASS_IDS:
            for n in range(19):
                genfun_oracle(cls, n)

    def test_fold_tells_apart_right_parts_of_one_h_and_length(self):
        # for each cut h of 1..n, n <= 6: left parts on the bottom or top h
        # values, and right parts on the rest, as every permutation, the
        # Fibonacci ones (in a list, as a cached block would hold them), the
        # others and the Fibonacci ones reversed; every kind shares h and
        # its length with the others
        for n in range(2, 7):
            for h in range(1, n):
                for low in (1, n - h + 1):
                    values = range(low, low + h)
                    rest = [v for v in range(1, n + 1) if v not in values]
                    lefts = list(permutations(values))
                    every = list(permutations(rest))
                    fib = [b for b in every if is_fibonacci([rest.index(v) + 1 for v in b])]
                    others = [b for b in every if b not in fib]
                    for rights in (every, fib, others, fib[::-1]):
                        naive = Poly(Counter(
                            (naive_fib_stat(a + b), naive_inversions(a + b))
                            for a in lefts for b in rights
                        ))
                        assert _fold([(lefts, rights)]) == naive, (n, h, low, rights)

    def test_fibonacci_lists_are_fresh(self):
        first = fib_permutations(12)
        second = fib_permutations(12)
        assert first is not second and first == second
        expected = list(second)
        first.clear()
        second[0] = ()
        assert fib_permutations(12) == expected
        for cls in CLASS_IDS:
            members = generate(cls, 12)
            members.append(())
            assert generate(cls, 12) == members[:-1]


class TestClosedForm:
    def test_corrected_matches_oracle(self):
        for cls in CLASS_IDS:
            for n in range(3, 11):
                assert genfun_closed(cls, n, "corrected") == genfun_oracle(
                    cls, n
                ), (cls, n)

    def test_paper_a_classes_match(self):
        for cls in ("A1", "A2"):
            for n in range(3, 11):
                assert genfun_closed(cls, n, "paper") == genfun_oracle(cls, n)

    def test_paper_b1_first_mismatch_is_constant_term(self):
        stated = genfun_closed("B1", 3, "paper")
        truth = genfun_oracle("B1", 3)
        assert stated.coefficient(0, 0) == 1
        assert truth.coefficient(0, 0) == 0

    def test_paper_b2_not_evaluable(self):
        for n in range(3, 7):
            with pytest.raises(NotEvaluableError, match="j = 0"):
                genfun_closed("B2", n, "paper")

    def test_domain(self):
        with pytest.raises(DomainError, match="^the summation formula needs n >= 3; got 2$"):
            genfun_closed("A1", 2, "corrected")
        with pytest.raises(ValueError):
            genfun_closed("A1", 4, "folklore")


class TestRecurrence:
    def test_bases(self):
        for cls in CLASS_IDS:
            assert genfun_recurrence(cls, 1) == genfun_oracle(cls, 1)
            assert genfun_recurrence(cls, 2) == genfun_oracle(cls, 2)

    def test_matches_oracle(self):
        for cls in CLASS_IDS:
            for n in range(3, 13):
                assert genfun_recurrence(cls, n) == genfun_oracle(cls, n), (cls, n)

    def test_counting_specialization(self):
        for cls in CLASS_IDS:
            for n in range(1, 13):
                assert genfun_recurrence(cls, n).evaluate(1, 1) == count(cls, n)

    def test_one_pass_equals_the_per_n_loop(self):
        # the loop genfun_recurrence ran for each n before the single pass,
        # from the bases, with public V and Q products only
        def per_n(cls, n):
            e = class_spec(cls).tail_q_exponent
            g_prev, g_cur = V, V * V + Q * V * V
            if n == 1:
                return g_prev
            for k in range(3, n + 1):
                g_prev, g_cur = g_cur, Poly.monomial(1, 0, e(k)) + V * g_cur + Q * V * V * g_prev
            return g_cur

        for cls in CLASS_IDS:
            levels = _recurrence_levels(class_spec(cls))
            for n, level in zip(range(1, 41), levels):
                expected = per_n(cls, n)
                assert level == expected, (cls, n)
                assert genfun_recurrence(cls, n) == expected, (cls, n)

    def test_domain(self):
        for n in (0, -1):
            with pytest.raises(DomainError, match=f"^the recurrence starts at n = 1; got {n}$"):
                genfun_recurrence("A1", n)
        with pytest.raises(DomainError, match="^unknown class"):
            genfun_recurrence("Z9", 0)


class TestAddition:
    def test_corrected_matches_oracle(self):
        for cls in CLASS_IDS:
            for m in range(2, 7):
                for n in range(2, 7):
                    assert genfun_addition(cls, m, n, "corrected") == genfun_oracle(
                        cls, m + n
                    ), (cls, m, n)

    def test_paper_first_mismatches(self):
        # stated forms all fail already at m = n = 2
        truth = {cls: genfun_oracle(cls, 4) for cls in CLASS_IDS}
        for cls in ("A1", "A2"):
            stated = genfun_addition(cls, 2, 2, "paper")
            assert stated.coefficient(4, 1) == 2
            assert truth[cls].coefficient(4, 1) == 3
        # the stated B forms each drop a member with fib statistic zero
        stated_b1 = genfun_addition("B1", 2, 2, "paper")
        assert stated_b1.coefficient(0, 6) == 0
        assert truth["B1"].coefficient(0, 6) == 1
        stated_b2 = genfun_addition("B2", 2, 2, "paper")
        assert stated_b2.coefficient(0, 3) == 0
        assert truth["B2"].coefficient(0, 3) == 1

    def test_stated_forms_at_every_small_split(self):
        # each class's stated form, written out with its head exponents as
        # literals (q^3 for A1, q^2 for A2, q^C(l, 2) for B1, q^(l-1) for
        # B2); a verify report stops at its first mismatch, so only this
        # pins the stated forms past (m, n) = (2, 2)
        def q(exp):
            return Poly.monomial(1, 0, exp)

        def v(exp):
            return Poly.monomial(1, exp, 0)

        def stated(cls, m, n):
            g_m, g_m1, g_n = (genfun_oracle(cls, k) for k in (m, m - 1, n))
            f = fib_poly
            total = v(n) * g_m * f(n) + Q * v(n + 2) * g_m1 * f(n - 1)
            rest = g_n - v(n) * f(n)
            if cls in ("A1", "A2"):
                core = 3 if cls == "A1" else 2
                return total + q(core) * (v(n - 1) * f(n - 1) + v(n - 2) * f(n - 2)) + rest
            if cls == "B1":
                for i in range(n + 1):
                    total = total + v(comb(m, 2) + i) * f(i) * q(comb(i, 2) + i * m)
                return total
            return total + q((m + 1) - 1) * (v(n - 1) * f(n - 1) + rest)

        for cls in CLASS_IDS:
            for m in range(2, 9):
                for n in range(2, 9):
                    assert genfun_addition(cls, m, n, "paper") == stated(cls, m, n), (cls, m, n)

    def test_domain(self):
        with pytest.raises(DomainError, match=r"^the addition formulas need m, n >= 2; got \(1, 2\)$"):
            genfun_addition("A1", 1, 2, "corrected")
        with pytest.raises(DomainError, match=r"^the addition formulas need m, n >= 2; got \(2, 1\)$"):
            genfun_addition("A1", 2, 1, "corrected")
