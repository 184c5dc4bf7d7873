import ast
import dataclasses
import json
import re
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from fibperm import bijections, classes, corrections, verify
from fibperm.classes import CLASS_IDS, CLASS_SPECS
from fibperm.cli import main
from fibperm.errors import DomainError, NotInClassError
from fibperm.fib import fib_stat
from fibperm.perms import BRUTE_FORCE_MAX_N
from fibperm.stats import binomial, inv_distribution_formula, joint_distribution_formula
from fibperm.verify import (
    CORRECTIONS,
    IDENTITY_IDS,
    check_identity,
    render_markdown,
    render_text,
    run_verification,
    to_json_doc,
)

# (identity, class) -> expected first mismatch of the paper variant at the
# default parameter sizes; every other unit passes as stated
EXPECTED_PAPER_FAILURES = {
    ("eq1", None): {"parameters": {"n": 1}, "lhs": 1, "rhs": 2},
    ("fib-dist", "A1"): {"parameters": {"n": 1, "k": 0}, "lhs": 0, "rhs": 1},
    ("fib-dist", "A2"): {"parameters": {"n": 1, "k": 0}, "lhs": 0, "rhs": 1},
    ("fib-dist", "B1"): {"parameters": {"n": 1, "k": 0}, "lhs": 0, "rhs": 1},
    ("fib-dist", "B2"): {"parameters": {"n": 1, "k": 0}, "lhs": 0, "rhs": 1},
    ("joint-dist", "B2"): {
        "parameters": {"n": 3, "k": 0, "j": 3},
        "lhs": 0,
        "rhs": 1,
    },
    ("gf-closed", "B1"): {
        "parameters": {"n": 3},
        "exponent": {"v": 0, "q": 0},
        "lhs": 0,
        "rhs": 1,
    },
    ("gf-recurrence", "A1"): {
        "parameters": {"n": 2},
        "exponent": {"v": 0, "q": 3},
        "lhs": 0,
        "rhs": 1,
    },
    ("gf-recurrence", "A2"): {
        "parameters": {"n": 2},
        "exponent": {"v": 0, "q": 2},
        "lhs": 0,
        "rhs": 1,
    },
    ("gf-recurrence", "B1"): {
        "parameters": {"n": 2},
        "exponent": {"v": 0, "q": 1},
        "lhs": 0,
        "rhs": 1,
    },
    ("gf-recurrence", "B2"): {
        "parameters": {"n": 2},
        "exponent": {"v": 0, "q": 1},
        "lhs": 0,
        "rhs": 1,
    },
    ("gf-addition", "A1"): {
        "parameters": {"m": 2, "n": 2},
        "exponent": {"v": 4, "q": 1},
        "lhs": 3,
        "rhs": 2,
    },
    ("gf-addition", "A2"): {
        "parameters": {"m": 2, "n": 2},
        "exponent": {"v": 4, "q": 1},
        "lhs": 3,
        "rhs": 2,
    },
    ("gf-addition", "B1"): {
        "parameters": {"m": 2, "n": 2},
        "exponent": {"v": 0, "q": 6},
        "lhs": 1,
        "rhs": 0,
    },
    ("gf-addition", "B2"): {
        "parameters": {"m": 2, "n": 2},
        "exponent": {"v": 0, "q": 3},
        "lhs": 1,
        "rhs": 0,
    },
}
NOT_EVALUABLE_PAPER_UNITS = {("gf-closed", "B2")}


@pytest.fixture(scope="module")
def full_run():
    return run_verification(None, n_max=7)


class TestCheckIdentity:
    def test_eq1_both_variants(self):
        paper = check_identity("eq1", "paper", n_max=6)
        assert paper.status == "fail"
        assert paper.first_mismatch == {"parameters": {"n": 1}, "lhs": 1, "rhs": 2}
        corrected = check_identity("eq1", "corrected", n_max=6)
        assert corrected.status == "pass"
        assert corrected.first_mismatch is None

    def test_per_class_needs_class(self):
        with pytest.raises(ValueError):
            check_identity("counts", "paper")
        with pytest.raises(ValueError):
            check_identity("eq1", "paper", class_id="A1")

    def test_unknown_identity(self):
        with pytest.raises(DomainError, match="^unknown identity 'gf-product'; expected one of "):
            check_identity("gf-product", "paper")
        with pytest.raises(DomainError, match="^unknown identity 'gf-product'; expected one of "):
            run_verification(["gf-product"], n_max=3)

    def test_gf_addition_stops_at_the_real_bound(self, monkeypatch):
        # m, n >= 2 and m + n <= 26 leave m <= 24 whatever --m-max says.  The
        # G_n oracle is stubbed: a real run builds G_26, about 9 s per class.
        visited = []
        monkeypatch.setattr(verify, "genfun_oracle", lambda class_id, n: n)

        def addition(class_id, m, n, variant):
            visited.append((m, n))
            return m + n

        monkeypatch.setattr(verify, "genfun_addition", addition)
        report = check_identity(
            "gf-addition", "corrected", class_id="A1", n_max=9, m_max=10**9
        )
        assert report.status == "pass"
        assert report.parameter_range == "2 <= m <= 24, 2 <= n <= 9, m+n <= 26"
        assert visited == [
            (m, n) for m in range(2, 25) for n in range(2, 10) if m + n <= 26
        ]
        report = check_identity("gf-addition", "corrected", class_id="A1", n_max=3000)
        assert report.parameter_range == "2 <= m <= 24, 2 <= n <= 24, m+n <= 26"

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            check_identity("eq1", "folk")


class TestCounts:
    def test_generate_runs_only_in_the_brute_force_range(self, monkeypatch):
        # past it, the cached G_n oracle counts the members without building them
        lengths = []
        real = verify.generate

        def recording(class_id, n):
            lengths.append(n)
            return real(class_id, n)

        monkeypatch.setattr(verify, "generate", recording)
        report = check_identity("counts", "corrected", n_max=20, class_id="B1")
        assert report.status == "pass"
        assert lengths == list(range(1, BRUTE_FORCE_MAX_N + 1))
        assert report.notes == (
            "count == members enumerated: |generate| to n = 13, G_n(1, 1) past it; "
            "brute-force cross-check to n = 13"
        )

    def test_a_wrong_count_past_the_brute_force_range_fails(self, monkeypatch):
        real = verify.count
        monkeypatch.setattr(verify, "count", lambda class_id, n: real(class_id, n) + (n == 20))
        report = check_identity("counts", "corrected", n_max=20, class_id="A2")
        assert report.status == "fail"
        assert report.first_mismatch == {
            "parameters": {"n": 20}, "lhs": real("A2", 20), "rhs": real("A2", 20) + 1,
        }
        assert report.notes == "closed-form count disagrees with G_n(1, 1)"


class TestHockeyStick:
    def test_running_sums_match_a_direct_resummation(self):
        n_scalar = 60
        bounds = verify._bounds("hockey-stick", None, "corrected", n_scalar, None)
        assert bounds.n_scalar == n_scalar
        expected = [
            ({"n": n, "r": r}, sum(comb(i, r) for i in range(r, n + 1)),
             comb(n + 1, r + 1), "")
            for n in range(n_scalar + 1)
            for r in range(n + 1)
        ]
        for n in range(1, n_scalar + 1):
            for k in range(n + 1):
                for class_id in ("A1", "A2"):
                    e = CLASS_SPECS[class_id].tail_q_exponent(n)
                    tail_sum = binomial(n - k, k) + sum(
                        binomial(t - (k - e), k - e) for t in range(n - 2)
                    )
                    expected.append((
                        {"n": n, "k": k}, tail_sum,
                        inv_distribution_formula(class_id, n, k),
                        f"{class_id} tail sum does not collapse to the closed form",
                    ))
        assert list(verify._hockey_stick_cases(None, "corrected", bounds)) == expected

    def test_n_max_200_is_quick(self, capsys):
        start = time.monotonic()
        code = main(["verify", "--identity", "hockey-stick", "--n-max", "200"])
        elapsed = time.monotonic() - start
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


class TestDifference:
    def test_member_lists_show_their_first_differing_entries(self, monkeypatch):
        # A1 built with A2's core: at n = 3 the generator's last member is
        # 3 1 2 where the pattern oracle's is 3 2 1
        a1 = dataclasses.replace(CLASS_SPECS["A1"], shape=CLASS_SPECS["A2"].shape)
        monkeypatch.setitem(classes.CLASS_SPECS, "A1", a1)
        report = check_identity("counts", "corrected", n_max=6, class_id="A1")
        assert verify._found(report) == "first mismatch n=3: lhs (3, 2, 1), rhs (3, 1, 2)"

    def test_list_end_and_set_sides(self):
        assert verify._difference([(1,), (2, 1)], [(1,)]) == (None, (2, 1), None)
        assert verify._difference({"dm", "md", "mmm"}, {"dd", "md"}) == (None, "dm", "dd")
        assert verify._difference({"m"}, {"d", "m"}) == (None, None, "d")


class TestDistRows:
    # The *-dist families compare each length's row whole and name the
    # smallest key where the two rows differ.  One closed-form value of A1
    # at n = 5 is moved by one, at a key where it is nonzero, where it is
    # zero inside 0..C(5, 2), or on the margin past C(5, 2).
    N_MAX, N = 7, 5

    def keys(self, n, stat):
        """Every key of the closed form's range at length n, in order."""
        inv_keys = range(comb(n, 2) + verify._INV_MARGIN + 1)
        if stat == "inv":
            return list(inv_keys)
        return [(k, j) for k in range(n + 1) for j in inv_keys]

    def target(self, stat, place):
        row = verify.distribution_formula(
            "A1", self.N, stat, "corrected", inv_margin=verify._INV_MARGIN
        )
        top = comb(self.N, 2)
        keys = {"nonzero": [], "zero": [], "margin": []}
        for key in self.keys(self.N, stat):
            # a key the row lacks evaluates to 0 through the one-cell formula
            cell = (inv_distribution_formula("A1", self.N, key) if stat == "inv"
                    else joint_distribution_formula("A1", self.N, *key))
            assert row.get(key, 0) == cell, key
            j = key if stat == "inv" else key[1]
            keys["margin" if j > top else "nonzero" if key in row else "zero"].append(key)
        return keys[place][-1]

    def key_walk(self, formula, stat):
        """Where a walk over every key of every row first meets a
        mismatch, and the mismatch it reports there."""
        for n in range(1, self.N_MAX + 1):
            oracle = verify.distribution_oracle("A1", n, stat)
            row = formula("A1", n, stat, "corrected", verify._INV_MARGIN)
            for key in self.keys(n, stat):
                if oracle.get(key, 0) != row.get(key, 0):
                    k, j = (key, None) if stat == "inv" else key
                    parameters = {"n": n, "k": k} if j is None else {"n": n, "k": k, "j": j}
                    return (n, key), {
                        "parameters": parameters, "lhs": oracle.get(key, 0),
                        "rhs": row.get(key, 0),
                    }
        return None, None

    @pytest.mark.parametrize("stat", ["inv", "joint"])
    @pytest.mark.parametrize("place", ["nonzero", "zero", "margin"])
    def test_first_mismatch_is_the_key_walks(self, stat, place, monkeypatch):
        formula = verify.distribution_formula
        target = (self.N, self.target(stat, place))

        def patched(class_id, n, stat, variant, inv_margin):
            row = formula(class_id, n, stat, variant, inv_margin)
            if n == target[0]:
                row[target[1]] = row.get(target[1], 0) + 1
            return dict(sorted(row.items()))

        monkeypatch.setattr(verify, "distribution_formula", patched)
        found, expected = self.key_walk(patched, stat)
        assert found == target
        report = check_identity(f"{stat}-dist", "corrected", class_id="A1", n_max=self.N_MAX)
        assert report.status == "fail"
        assert report.first_mismatch == expected

    @pytest.mark.parametrize("stat", ["inv", "joint"])
    def test_an_oracle_key_past_the_formula_range_fails(self, stat, monkeypatch):
        # the enumerated row has mass where the closed form has no key at all
        oracle = verify.distribution_oracle
        past = comb(self.N, 2) + verify._INV_MARGIN + 1
        key = past if stat == "inv" else (self.N, past)

        def patched(class_id, n, stat):
            row = oracle(class_id, n, stat)
            return {**row, key: 1} if n == self.N else row

        monkeypatch.setattr(verify, "distribution_oracle", patched)
        report = check_identity(f"{stat}-dist", "corrected", class_id="A1", n_max=self.N_MAX)
        cell = {"k": key} if stat == "inv" else {"k": key[0], "j": key[1]}
        assert report.status == "fail"
        assert report.first_mismatch == {"parameters": {"n": self.N, **cell}, "lhs": 1, "rhs": 0}


class TestStructureOracle:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        # the one-pass check is cached per (class, length); these tests
        # patch what it calls
        verify._structure_disagreement.cache_clear()
        yield
        verify._structure_disagreement.cache_clear()

    def test_catches_decompose_accepting_a_boundary_nonmember(self, monkeypatch):
        # Not in A1 (it contains 4321), and one inserted value away from the
        # member 3 2 1 5 4 7 6; a 1-in-97 sample of all 8! permutations skips it.
        bad = (4, 3, 2, 1, 6, 5, 8, 7)
        real = verify._decompose

        def lenient(spec, perm):
            return None if perm == bad else real(spec, perm)

        monkeypatch.setattr(verify, "_decompose", lenient)
        report = check_identity("structure-oracle", "corrected", class_id="A1", n_max=8)
        assert report.status == "fail"
        assert report.notes == f"non-member {bad} was not rejected by decompose"

    def test_catches_a_fault_in_the_shape_parse(self, monkeypatch):
        # decompose tests no pattern, so a tail check that wrongly reads a
        # Fibonacci suffix of length 3 lets the B1 non-member 1 3 4 2 (head 1,
        # tail 2 3 1) through
        monkeypatch.setattr(
            "fibperm.classes.fib_stat",
            lambda p: 3 if tuple(p) == (1, 3, 4, 2) else fib_stat(p),
        )
        report = check_identity("structure-oracle", "corrected", class_id="B1", n_max=6)
        assert report.status == "fail"
        assert report.notes == "non-member (1, 3, 4, 2) was not rejected by decompose"

    @staticmethod
    def reject_1432(monkeypatch):
        real = verify._decompose

        def strict(spec, perm):
            if perm == (1, 4, 3, 2):
                raise NotInClassError("nope")
            return real(spec, perm)

        monkeypatch.setattr(verify, "_decompose", strict)

    def test_catches_decompose_rejecting_a_member(self, monkeypatch):
        self.reject_1432(monkeypatch)
        report = check_identity("structure-oracle", "corrected", class_id="A1", n_max=6)
        assert report.status == "fail"
        note = "member (1, 4, 3, 2) was rejected by decompose"
        assert report.first_mismatch == {"parameters": {"n": 4}, "lhs": None, "rhs": note}
        assert report.notes == note

    def test_every_report_names_the_permutation(self, monkeypatch, capsys):
        # the text and markdown reports show a failing unit's first mismatch,
        # not its note, so the mismatch itself carries the permutation
        self.reject_1432(monkeypatch)
        found = "first mismatch n=4: lhs None, rhs member (1, 4, 3, 2) was rejected"
        assert main(["verify", "--identity", "structure-oracle", "--n-max", "6"]) == 1
        assert capsys.readouterr().out.count(found) == 2  # both A1 variants
        result = run_verification(["structure-oracle"], n_max=6)
        assert found in render_markdown(result)

    def test_catches_a_failed_round_trip(self, monkeypatch):
        real = verify.compose

        def reversing(class_id, decomposition):
            rebuilt = real(class_id, decomposition)
            return rebuilt[::-1] if decomposition.head_length == 4 else rebuilt

        monkeypatch.setattr(verify, "compose", reversing)
        report = check_identity("structure-oracle", "corrected", class_id="A1", n_max=6)
        assert report.status == "fail"
        assert report.notes == "decompose/compose round-trip failed on (1, 4, 3, 2)"


class TestBijectionImage:
    def test_catches_the_excluded_word_decoding(self, monkeypatch):
        real = bijections.phi_inverse

        def leaky(class_id, word):
            return (1,) if word == "d" else real(class_id, word)

        monkeypatch.setattr(bijections, "phi_inverse", leaky)
        report = check_identity("bijection-image", "corrected", class_id="A1", n_max=3)
        assert report.status == "fail"
        assert report.first_mismatch == {"parameters": {"n": 1}, "lhs": 0, "rhs": 1}
        assert report.notes == "excluded word 'd' unexpectedly decoded"


class TestLibraryRefusal:
    def test_is_a_failing_unit_not_bad_input(self, monkeypatch, capsys):
        # phi parses each member with decompose; a refusal there is a fault
        # in the library under test, so verify reports it and exits 1
        real = bijections.decompose

        def strict(class_id, perm):
            if perm == (1, 4, 3, 2):
                raise NotInClassError("nope")
            return real(class_id, perm)

        monkeypatch.setattr(bijections, "decompose", strict)
        code = main(["verify", "--identity", "bijection-image", "--n-max", "6",
                     "--variants", "corrected", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        doc = json.loads(captured.out)
        failing = [r for r in doc["reports"] if r["status"] != "pass"]
        assert failing == [{
            "identity": "bijection-image",
            "class": "A1",
            "variant": "corrected",
            "parameter_range": "1 <= n <= 6",
            "status": "fail",
            "first_mismatch": None,
            "notes": "NotInClassError: nope",
        }]


class TestFullRun:
    def test_unit_inventory(self, full_run):
        units = full_run.units()
        # 9 per-class families x 4 classes + 4 global families
        assert len(units) == 40
        for key, by_variant in units.items():
            assert set(by_variant) == {"paper", "corrected"}, key

    def test_every_corrected_unit_passes(self, full_run):
        for key, by_variant in full_run.units().items():
            assert by_variant["corrected"].status == "pass", key

    def test_paper_failures_match_fingerprints(self, full_run):
        for key, by_variant in full_run.units().items():
            report = by_variant["paper"]
            if key in NOT_EVALUABLE_PAPER_UNITS:
                assert report.status == "not-evaluable", key
                assert "q^-1" in report.notes
            elif key in EXPECTED_PAPER_FAILURES:
                assert report.status == "fail", key
                assert report.first_mismatch == EXPECTED_PAPER_FAILURES[key], key
            else:
                assert report.status == "pass", key

    def test_resolved_and_registry(self, full_run):
        assert full_run.resolved
        assert full_run.unresolved_units() == []
        assert full_run.registry_problems() == []

    def test_reports_follow_family_order_once_each(self):
        result = run_verification(["eq1", "a_n-recurrence", "eq1"], n_max=3)
        assert [(r.identity_id, r.variant) for r in result.reports] == [
            ("a_n-recurrence", "paper"),
            ("a_n-recurrence", "corrected"),
            ("eq1", "paper"),
            ("eq1", "corrected"),
        ]
        assert list(result.units()) == [("a_n-recurrence", None), ("eq1", None)]

    def test_paper_only_is_unresolved(self):
        result = run_verification(None, n_max=5, variants=("paper",))
        assert not result.resolved
        expected = set(EXPECTED_PAPER_FAILURES) | NOT_EVALUABLE_PAPER_UNITS
        assert set(result.unresolved_units()) == expected

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_max": 0}, "n_max must be >= 1; got 0"),
            ({"n_max": -10**30}, "n_max must be >= 1; got -1000000000000000000..."),
            ({"m_max": 0}, "m_max must be >= 1; got 0"),
            ({"identity_ids": []}, "no identity to check; pass None for all of them"),
        ],
    )
    def test_empty_lists_and_bounds_below_1_are_refused(self, monkeypatch, kwargs, message):
        # refused before any unit runs: no unit at all, or enumerated ranges
        # such as 1 <= n <= 0, would report resolved; m_max < 1 as in the CLI
        def no_unit(*args, **kwargs):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(verify, "check_identity", no_unit)
        pattern = "^" + re.escape(message) + "$"
        with pytest.raises(DomainError, match=pattern):
            run_verification(**kwargs)
        if "identity_ids" not in kwargs:
            with pytest.raises(DomainError, match=pattern):
                check_identity("eq1", "corrected", **kwargs)


class TestVariantBlind:
    FAMILIES = [f for f in verify.FAMILIES if f.variant_blind]

    def test_the_blind_families(self):
        assert [f.identity_id for f in self.FAMILIES] == [
            "counts", "a_n-recurrence", "hockey-stick", "fib-inv",
            "bijection-image", "structure-oracle",
        ]

    def test_each_unit_reports_the_same_under_both_variants(self):
        # no correction, so the same bounds; and the same report, but for
        # its variant, when each variant is evaluated
        for family in self.FAMILIES:
            identity_id = family.identity_id
            assert not [c for c in CORRECTIONS if c.identity_id == identity_id]
            for class_id in CLASS_IDS if family.per_class else (None,):
                bounds = [verify._bounds(identity_id, class_id, variant, 9, None)
                          for variant in ("paper", "corrected")]
                assert bounds[0] == bounds[1], (identity_id, class_id)
                paper, corrected = (
                    check_identity(identity_id, variant, n_max=6, class_id=class_id)
                    for variant in ("paper", "corrected")
                )
                assert dataclasses.replace(paper, variant="corrected") == corrected

    @pytest.mark.parametrize("variants", [("paper", "corrected"), ("corrected",)])
    def test_run_evaluates_a_blind_unit_once(self, variants, monkeypatch):
        evaluated = Counter()
        real = verify.check_identity

        def counting(identity_id, variant, **kwargs):
            evaluated[identity_id, kwargs["class_id"], variant] += 1
            return real(identity_id, variant, **kwargs)

        monkeypatch.setattr(verify, "check_identity", counting)
        result = run_verification(["eq1", "bijection-image"], n_max=5, variants=variants)
        first = variants[0]
        assert evaluated == Counter(
            [("eq1", None, v) for v in variants]
            + [("bijection-image", c, first) for c in CLASS_IDS]
        )
        assert [(r.identity_id, r.class_id, r.variant) for r in result.reports] == [
            (identity_id, class_id, variant)
            for identity_id, class_ids in (("eq1", (None,)), ("bijection-image", CLASS_IDS))
            for class_id in class_ids
            for variant in variants
        ]
        for report in result.reports:
            assert report == real(report.identity_id, report.variant, n_max=5,
                                  class_id=report.class_id)


class TestRegistry:
    def test_every_entry_names_a_known_identity(self):
        per_class = {f.identity_id: f.per_class for f in verify.FAMILIES}
        for corr in CORRECTIONS:
            assert corr.identity_id in IDENTITY_IDS
            assert corr.change and corr.reason and corr.counterexample
            if corr.class_id is not None:
                # a class-specific repair sits on a per-class family
                assert per_class[corr.identity_id], corr
                assert corr.class_id in CLASS_IDS, corr

    def test_each_fix_is_needed_and_the_registry_passes(self, monkeypatch):
        # every corrected unit passes with the registry as given, and stops
        # passing when any one change id is dropped from any one entry, so a
        # compound entry's changes are checked one at a time
        per_class = {f.identity_id: f.per_class for f in verify.FAMILIES}
        registry = corrections.CORRECTIONS
        ablated = []

        def status(identity_id, class_id):
            return check_identity(
                identity_id, "corrected", n_max=8, m_max=8, class_id=class_id
            ).status

        for index, corr in enumerate(registry):
            if not per_class[corr.identity_id]:
                covered = (None,)
            else:
                covered = CLASS_IDS if corr.class_id is None else (corr.class_id,)
            for cls in covered:
                assert status(corr.identity_id, cls) == "pass", (corr.identity_id, cls)
                for fix in corr.fixes:
                    patched = list(registry)
                    patched[index] = dataclasses.replace(
                        corr, fixes=tuple(f for f in corr.fixes if f != fix)
                    )
                    with monkeypatch.context() as m:
                        m.setattr(corrections, "CORRECTIONS", tuple(patched))
                        assert status(corr.identity_id, cls) != "pass", (cls, fix)
                    ablated.append((index, cls, fix))
        assert len(ablated) == 18
        assert {fix for _, _, fix in ablated} == {f for c in registry for f in c.fixes}

    def test_each_fix_id_is_tested_by_one_formula_branch(self):
        # outside the registry, each change id is one string constant (the
        # branch that makes the change), and no string that reads like a
        # change id of an identity is missing from the registry
        registered = [fix for corr in corrections.CORRECTIONS for fix in corr.fixes]
        assert all(corr.fixes for corr in corrections.CORRECTIONS)
        package = Path(corrections.__file__).parent
        strings = Counter(
            node.value
            for path in sorted(package.glob("*.py"))
            if path.name != "corrections.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
        for fix in set(registered):
            assert strings[fix] == 1, fix
        prefixes = tuple(f"{identity_id}." for identity_id in IDENTITY_IDS)
        stray = {text for text in strings if text.startswith(prefixes)} - set(registered)
        assert not stray

    def test_b2_joint_counterexample_is_recorded(self):
        entries = [
            c
            for c in CORRECTIONS
            if c.identity_id == "joint-dist" and c.class_id == "B2"
        ]
        assert len(entries) == 1
        text = entries[0].counterexample
        assert "(5, 2, 3)" in text and "= 3" in text and "exactly 1" in text


class TestRendering:
    def test_text_output(self, full_run):
        text = render_text(full_run)
        assert "overall: PASS" in text
        assert "units: 40; resolved: 40; unresolved: 0" in text
        assert text.count("\n") > 40

    def test_markdown_output(self, full_run):
        md = render_markdown(full_run)
        assert "# Identity verification" in md
        assert "## Deviations" in md
        assert "## Corrections registry" in md
        assert "Stamp" not in md
        stamped = render_markdown(full_run, stamp="2026-01-01T00:00:00+00:00")
        assert "2026-01-01T00:00:00+00:00" in stamped

    def test_json_document(self, full_run):
        doc = to_json_doc(full_run)
        json.dumps(doc)  # must be serializable
        assert doc["resolved"] is True
        assert doc["parameters"]["n_max"] == 7
        assert len(doc["reports"]) == 80
        assert len(doc["corrections"]) == len(CORRECTIONS)

    def test_registry_problem_is_reported(self):
        # eq1 passes as stated, so the unit resolves, but its registered
        # correction fails: the run is unresolved through the registry alone
        mismatch = {"parameters": {"n": 0}, "lhs": 1, "rhs": 2}
        reports = tuple(
            verify.IdentityReport("eq1", None, variant, "0 <= n <= 3", status, found, "")
            for variant, status, found in (("paper", "pass", None),
                                           ("corrected", "fail", mismatch))
        )
        result = verify.VerificationResult(
            n_max=3, m_max=None, variants=("paper", "corrected"), reports=reports
        )
        assert result.unresolved_units() == []
        problem = "registry problem: correction for eq1 did not validate: corrected variant fail"
        text = render_text(result)
        assert f"\n  {problem}\n" in text
        assert "overall: FAIL" in text
        assert f"\n- {problem}\n" in render_markdown(result)
        assert to_json_doc(result)["resolved"] is False
