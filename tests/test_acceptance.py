"""Acceptance suite.

One test per acceptance criterion, each emitting a single
``[criterion N] PASS/FAIL`` line (visible with ``pytest -v`` through the
test outcome, and on captured stdout).  All comparisons are exact integer
comparisons; the stated runtime ceilings are asserted where given.
"""

import json
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

from fibperm.bijections import phi, phi_inverse, rho, rho_inverse
from fibperm.classes import (
    A_CLASSES,
    B_CLASSES,
    CLASS_IDS,
    count,
    generate,
    patterns_of,
)
from fibperm.cli import main
from fibperm.errors import NotEvaluableError
from fibperm.fib import fib_number, tiling_to_perm, tilings
from fibperm.genfun import (
    genfun_addition,
    genfun_closed,
    genfun_oracle,
    genfun_recurrence,
)
from fibperm.perms import brute_force_av, inversions
from fibperm.stats import (
    distribution_oracle,
    fib_distribution_formula,
    fib_inv_count,
    inv_distribution_formula,
    joint_distribution_formula,
)
from fibperm.verify import CORRECTIONS, check_identity

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL - {description}")
        raise
    print(f"[criterion {num}] PASS - {description}")


def test_criterion_1_counts():
    with criterion(1, "counts match the closed form for 1 <= n <= 24"):
        start = time.monotonic()
        for cls in CLASS_IDS:
            for n in range(1, 25):
                expected = fib_number(n + 1) - 1
                assert count(cls, n) == expected, (cls, n)
                assert len(generate(cls, n)) == expected, (cls, n)
            assert [count(cls, n) for n in range(1, 7)] == [1, 2, 4, 7, 12, 20]
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "structural generation equals brute force for n <= 13"):
        start = time.monotonic()
        for cls in CLASS_IDS:
            pats = patterns_of(cls)
            for n in range(0, 14):
                assert set(generate(cls, n)) == set(
                    brute_force_av(n, pats)
                ), (cls, n)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_3_bijections():
    with criterion(3, "tiling bijections round-trip with the expected image"):
        # worked examples, byte-exact
        assert phi("A1", (2, 1, 4, 3, 5, 6)) == "mddmm"
        assert phi("A1", (1, 4, 3, 2, 6, 5)) == "dmdd"
        assert rho("B1", (3, 2, 1, 5, 4, 6, 7)) == "mmddmm"
        assert rho("B1", (1, 2, 3, 5, 4, 7, 6)) == "dmmdd"
        for n in range(1, 13):
            all_words = set(tilings(n + 1))
            for cls in A_CLASSES:
                words = set()
                for perm in generate(cls, n):
                    word = phi(cls, perm)
                    assert phi_inverse(cls, word) == perm, (cls, perm)
                    words.add(word)
                assert words == all_words - {"d" + "m" * (n - 1)}, (cls, n)
            for cls in B_CLASSES:
                words = set()
                for perm in generate(cls, n):
                    word = rho(cls, perm)
                    assert rho_inverse(cls, word) == perm, (cls, perm)
                    words.add(word)
                assert words == all_words - {"m" * (n + 1)}, (cls, n)


def test_criterion_4_statistic_distributions():
    with criterion(4, "statistic closed forms match oracle tabulations"):
        # inversion distribution, every k, all classes, n <= 10
        for cls in CLASS_IDS:
            for n in range(1, 11):
                oracle = distribution_oracle(cls, n, "inv")
                for k in range(0, comb(n, 2) + 3):
                    assert inv_distribution_formula(cls, n, k) == oracle.get(
                        k, 0
                    ), (cls, n, k)
        # inversion counts over the plain Fibonacci members, n <= 12
        for n in range(0, 13):
            tally = {}
            for word in tilings(n):
                j = inversions(tiling_to_perm(word))
                tally[j] = tally.get(j, 0) + 1
            for k in range(0, n + 2):
                assert fib_inv_count(n, k) == tally.get(k, 0), (n, k)
        # fib distribution (domain-corrected) and joint distribution
        # (corrected B2 variant), n <= 9
        for cls in CLASS_IDS:
            for n in range(1, 10):
                fib_oracle = distribution_oracle(cls, n, "fib")
                for k in range(0, n + 1):
                    assert fib_distribution_formula(cls, n, k) == fib_oracle.get(
                        k, 0
                    ), (cls, n, k)
                joint_oracle = distribution_oracle(cls, n, "joint")
                for k in range(0, n + 1):
                    for j in range(0, comb(n, 2) + 1):
                        assert joint_distribution_formula(
                            cls, n, k, j, "corrected"
                        ) == joint_oracle.get((k, j), 0), (cls, n, k, j)
        # the stated B2 joint form misfires at (5, 2, 3): detected...
        assert joint_distribution_formula("B2", 5, 2, 3, "paper") == 3
        assert distribution_oracle("B2", 5, "joint").get((2, 3)) == 1
        report = check_identity("joint-dist", "paper", n_max=9, class_id="B2")
        assert report.status == "fail"
        # ...and reported with the showcased counterexample
        registry_entry = next(
            c
            for c in CORRECTIONS
            if c.identity_id == "joint-dist" and c.class_id == "B2"
        )
        assert "(5, 2, 3)" in registry_entry.counterexample


def test_criterion_5_generating_functions():
    with criterion(5, "generating-function identities behave as recorded"):
        for cls in CLASS_IDS:
            # recurrence vs oracle, 3 <= n <= 12
            for n in range(3, 13):
                assert genfun_recurrence(cls, n) == genfun_oracle(cls, n), (cls, n)
            # counting specialization, n <= 12
            for n in range(1, 13):
                assert genfun_oracle(cls, n).evaluate(1, 1) == count(cls, n)
        # closed form: paper variant sound for A1/A2, broken for B1/B2
        for cls in ("A1", "A2"):
            for n in range(3, 11):
                assert genfun_closed(cls, n, "paper") == genfun_oracle(cls, n)
        stated_b1 = genfun_closed("B1", 3, "paper")
        assert stated_b1.coefficient(0, 0) == 1
        assert genfun_oracle("B1", 3).coefficient(0, 0) == 0
        try:
            genfun_closed("B2", 3, "paper")
            raise AssertionError("B2 stated closed form should not evaluate")
        except NotEvaluableError as exc:
            assert "j = 0" in str(exc)
        for cls in CLASS_IDS:
            for n in range(3, 11):
                assert genfun_closed(cls, n, "corrected") == genfun_oracle(
                    cls, n
                ), (cls, n)
        # addition formulas over 2 <= m, n <= 8: per-class pass/fail
        addition_outcomes = {}
        for cls in CLASS_IDS:
            stated_ok = True
            for m in range(2, 9):
                for n in range(2, 9):
                    truth = genfun_oracle(cls, m + n)
                    if genfun_addition(cls, m, n, "paper") != truth:
                        stated_ok = False
                    assert genfun_addition(cls, m, n, "corrected") == truth, (
                        cls, m, n,
                    )
            addition_outcomes[cls] = stated_ok
        assert addition_outcomes == {
            "A1": False, "A2": False, "B1": False, "B2": False,
        }
        # every registered correction re-validated through the engine
        for corr in CORRECTIONS:
            if corr.class_id is not None:
                classes = (corr.class_id,)
            elif corr.identity_id == "eq1":
                classes = (None,)
            else:
                classes = CLASS_IDS
            for cls in classes:
                report = check_identity(
                    corr.identity_id, "corrected", n_max=8, m_max=8, class_id=cls
                )
                assert report.status == "pass", (corr.identity_id, cls)


def test_criterion_6_scalar_identities():
    with criterion(6, "scalar identities hold to n = 30"):
        # counting recurrence a_n = a_{n-1} + a_{n-2} + 1 for 2 <= n <= 30;
        # the n = 2 instance reads a_0 off the closed form, F(1) - 1 = 0
        for cls in CLASS_IDS:
            assert count(cls, 2) == count(cls, 1) + (fib_number(1) - 1) + 1
            for n in range(3, 31):
                assert count(cls, n) == count(cls, n - 1) + count(cls, n - 2) + 1
        report = check_identity("a_n-recurrence", "paper", n_max=30)
        assert report.status == "pass"
        # corrected partial-sum identity
        for n in range(0, 31):
            assert sum(fib_number(k) for k in range(n + 1)) == fib_number(n + 2) - 1
        assert check_identity("eq1", "corrected", n_max=30).status == "pass"
        assert check_identity("eq1", "paper", n_max=30).status == "fail"
        # hockey-stick identity for r < n <= 30
        for variant in ("paper", "corrected"):
            assert check_identity("hockey-stick", variant, n_max=30).status == "pass"


def test_criterion_7_cli(tmp_path, capsys):
    with criterion(7, "CLI goldens exist and full verification resolves"):
        # at least one golden file per subcommand
        goldens = {p.name for p in GOLDEN_DIR.iterdir()}
        for prefix in (
            "count", "enumerate", "dist", "genfun", "map", "fib", "verify",
        ):
            assert any(g.startswith(prefix) for g in goldens), prefix
        # the full identity run: single-threaded, < 5 minutes, exit 0
        report_path = tmp_path / "report.md"
        start = time.monotonic()
        code = main([
            "verify", "--identity", "all", "--n-max", "9",
            "--report", str(report_path),
        ])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        assert "overall: PASS" in out
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert doc["resolved"] is True
        # the named families must carry a stated-variant deviation with a
        # concrete counterexample plus a passing corrected variant
        by_unit = {}
        for rep in doc["reports"]:
            by_unit.setdefault((rep["identity"], rep["class"]), {})[
                rep["variant"]
            ] = rep
        required = [
            ("eq1", None),
            ("fib-dist", "A1"),
            ("fib-dist", "A2"),
            ("fib-dist", "B1"),
            ("fib-dist", "B2"),
            ("joint-dist", "B2"),
            ("gf-closed", "B1"),
            ("gf-closed", "B2"),
            ("gf-recurrence", "A1"),
            ("gf-recurrence", "A2"),
            ("gf-recurrence", "B1"),
            ("gf-recurrence", "B2"),
        ]
        correction_keys = {(c.identity_id, c.class_id) for c in CORRECTIONS}
        for key in required:
            unit = by_unit[key]
            stated, corrected = unit["paper"], unit["corrected"]
            assert stated["status"] in ("fail", "not-evaluable"), key
            has_counterexample = stated["first_mismatch"] is not None or (
                stated["status"] == "not-evaluable" and stated["notes"]
            )
            assert has_counterexample, key
            assert corrected["status"] == "pass", key
            identity, cls = key
            assert (identity, cls) in correction_keys or (
                identity, None,
            ) in correction_keys, key
        # and the markdown report records each deviation
        md = report_path.read_text(encoding="utf-8")
        assert "## Deviations" in md
        for name in ("eq1", "fib-dist", "joint-dist", "gf-closed", "gf-recurrence"):
            assert name in md, name
