import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibperm import cli
from fibperm.bijections import phi
from fibperm.classes import (
    CLASS_IDS,
    GENERATE_MAX_N,
    check_class_id,
    class_spec,
    generate,
    patterns_of,
)
from fibperm.cli import ARGV_MAX, COUNT_MAX_N, FIB_MAX_N, FORMULA_MAX_N, main
from fibperm.errors import DomainError
from fibperm.fib import fib_number, tiling_cells
from fibperm.genfun import Poly
from fibperm.perms import brute_force_av, format_permutation
from fibperm.stats import STATS, VARIANTS, check_stat, check_variant
from fibperm.verify import IDENTITY_IDS, check_identity

from helpers import naive_fib_number, permutations_up_to

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "count.txt": ["count", "--class", "A1", "--n-max", "10"],
    "count.json": ["count", "--class", "B2", "--n-max", "5", "--format", "json"],
    "enumerate.txt": ["enumerate", "--class", "B1", "--n", "4"],
    "enumerate.json": ["enumerate", "--class", "A2", "--n", "3", "--format", "json"],
    "dist_inv_oracle.txt": ["dist", "--class", "A1", "--n", "6", "--stat", "inv"],
    "dist_fib_formula_paper.txt": [
        "dist", "--class", "B2", "--n", "6", "--stat", "fib",
        "--source", "formula", "--variant", "paper",
    ],
    "dist_joint_formula.json": [
        "dist", "--class", "B2", "--n", "5", "--stat", "joint",
        "--source", "formula", "--format", "json",
    ],
    "genfun_oracle.txt": ["genfun", "--class", "A1", "--n", "5"],
    "genfun_closed.json": [
        "genfun", "--class", "B2", "--n", "5", "--method", "closed",
        "--format", "json",
    ],
    "map_phi_forward.txt": [
        "map", "--bijection", "phi", "--class", "A1", "--perm", "1 4 3 2 6 5",
    ],
    "map_rho_inverse.json": [
        "map", "--bijection", "rho", "--class", "B2", "--inverse",
        "--tiling", "mmddm", "--format", "json",
    ],
    "fib.txt": ["fib", "--n", "12"],
    "verify_eq1.txt": ["verify", "--identity", "eq1", "--n-max", "6"],
    "verify_joint.json": [
        "verify", "--identity", "joint-dist", "--n-max", "5",
        "--format", "json",
    ],
    "verify_all.json": ["verify", "--n-max", "6", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, capsys):
    code = main(GOLDEN_CASES[name])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert captured.out == expected


# verify runs whose stdout is the .txt golden, whose --report markdown is the
# .md golden and whose report twin is the named JSON golden
VERIFY_REPORT_CASES = {
    "verify_n6": (["verify", "--n-max", "6"], 0, "verify_all.json"),
    "verify_n6_paper": (
        ["verify", "--n-max", "6", "--variants", "paper"], 1, "verify_n6_paper.json",
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_REPORT_CASES))
def test_golden_verify_report(name, tmp_path, capsys):
    argv, expected_code, twin = VERIFY_REPORT_CASES[name]
    target = tmp_path / "report.md"
    assert main(argv + ["--report", str(target)]) == expected_code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    for path, golden in ((target, f"{name}.md"), (tmp_path / "report.json", twin)):
        assert path.read_text(encoding="utf-8") == (
            GOLDEN_DIR / golden
        ).read_text(encoding="utf-8")


def test_golden_dist_formula_all(capsys):
    # every class x stat x variant of the closed forms at n = 5, one block each
    blocks = []
    for class_id in CLASS_IDS:
        for stat in STATS:
            for variant in VARIANTS:
                code = main(["dist", "--class", class_id, "--n", "5", "--stat", stat,
                             "--source", "formula", "--variant", variant])
                assert code == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                blocks.append(f"== {class_id} {stat} {variant}\n{captured.out}")
    expected = (GOLDEN_DIR / "dist_formula_all.txt").read_text(encoding="utf-8")
    assert "".join(blocks) == expected


def assert_same_output(got: str, want: str) -> None:
    """Exact equality of two outputs of up to a megabyte.  A mismatch names
    the first differing line, or the two lengths when one output is a prefix
    of the other, instead of leaving pytest to diff the whole strings."""
    if got == want:
        return
    pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    for number, (got_line, want_line) in enumerate(pairs, 1):
        if got_line != want_line:
            raise AssertionError(f"line {number}: got {got_line!r}, want {want_line!r}")
    raise AssertionError(f"one output is a prefix of the other: got {len(got)} "
                         f"characters, want {len(want)}")


class TestJsonWriter:
    """JSON output is what ``json.dumps(payload, indent=2)`` writes, also where
    ``enumerate`` prints its member rows in blocks."""

    def test_every_enumerate_payload(self, capsys):
        for class_id in CLASS_IDS:
            for n in range(13):
                assert main(["enumerate", "--class", class_id, "--n", str(n),
                             "--format", "json"]) == 0
                payload = {"class": class_id, "n": n, "members": generate(class_id, n)}
                assert_same_output(capsys.readouterr().out, json.dumps(payload, indent=2) + "\n")

    def test_fib_past_the_digit_limit(self, capsys):
        assert main(["fib", "--n", "25000", "--format", "json"]) == 0
        out = capsys.readouterr().out
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = json.dumps({"n": 25000, "fib": fib_number(25000)}, indent=2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(want) > 4300
        assert out == want + "\n"


def test_every_enumerate_text(capsys):
    for class_id in CLASS_IDS:
        for n in range(13):
            assert main(["enumerate", "--class", class_id, "--n", str(n)]) == 0
            want = "".join(format_permutation(p) + "\n" for p in generate(class_id, n))
            assert_same_output(capsys.readouterr().out, want)


def test_enumerate_past_one_text_block(capsys):
    # 10,945 members: text prints them in three blocks
    members = generate("A1", 20)
    assert len(members) > 2 * cli._BLOCK
    assert main(["enumerate", "--class", "A1", "--n", "20"]) == 0
    want = "".join(format_permutation(p) + "\n" for p in members)
    assert_same_output(capsys.readouterr().out, want)
    assert main(["enumerate", "--class", "A1", "--n", "20", "--format", "json"]) == 0
    payload = {"class": "A1", "n": 20, "members": members}
    assert_same_output(capsys.readouterr().out, json.dumps(payload, indent=2) + "\n")


def test_enumerate_equals_the_sorted_pattern_avoiders(capsys):
    # the rows as the pattern oracle gives them, sorted here, written with
    # format_permutation and json.dumps: nothing shared with the renderer
    for class_id in CLASS_IDS:
        for n in range(10):
            members = sorted(brute_force_av(n, patterns_of(class_id)))
            assert main(["enumerate", "--class", class_id, "--n", str(n)]) == 0
            want = "".join(format_permutation(p) + "\n" for p in members)
            assert_same_output(capsys.readouterr().out, want)
            assert main(["enumerate", "--class", class_id, "--n", str(n),
                         "--format", "json"]) == 0
            payload = {"class": class_id, "n": n, "members": members}
            assert_same_output(capsys.readouterr().out, json.dumps(payload, indent=2) + "\n")


# Start a command, its stdout to a file, and print its exit code and the
# peak RSS that os.wait4 reports for it.  Linux counts in a child's peak the
# memory it held before exec, which for a child forked from pytest is
# pytest's own, so this small interpreter starts the command.
_PEAK_RSS = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    proc = subprocess.Popen(sys.argv[2:], stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for the child's peak RSS")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_at_the_cap_stays_small(fmt, tmp_path):
    # the rows are rendered from the middle cut's products, so the largest
    # enumerate never holds its 196,417 members; the list alone took 100 MiB
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out_path = tmp_path / "out"
    argv = [sys.executable, "-m", "fibperm.cli", "enumerate", "--class", "A1",
            "--n", str(GENERATE_MAX_N), "--format", fmt]
    result = subprocess.run([sys.executable, "-c", _PEAK_RSS, str(out_path), *argv],
                            capture_output=True, env=env, check=True, timeout=120)
    code, peak = map(int, result.stdout.split())
    assert code == 0
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak_mib = peak / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mib < 40, peak_mib
    # a text row is a line; a JSON row opens with the line "    ["
    with open(out_path, "rb") as lines:
        rows = sum(1 for line in lines if fmt == "text" or line == b"    [\n")
    assert rows == fib_number(GENERATE_MAX_N + 1) - 1


@pytest.mark.parametrize("block", [1, 3])
def test_enumerate_block_seams(block, monkeypatch, capsys):
    # every row is a block, or a block ends mid-list and one ends short
    monkeypatch.setattr(cli, "_BLOCK", block)
    for class_id in CLASS_IDS:
        for n in range(9):
            members = generate(class_id, n)
            assert main(["enumerate", "--class", class_id, "--n", str(n)]) == 0
            want = "".join(format_permutation(p) + "\n" for p in members)
            assert_same_output(capsys.readouterr().out, want)
            assert main(["enumerate", "--class", class_id, "--n", str(n),
                         "--format", "json"]) == 0
            payload = {"class": class_id, "n": n, "members": members}
            assert_same_output(capsys.readouterr().out, json.dumps(payload, indent=2) + "\n")


class TestExactIntegers:
    """Big integers print in full, past the interpreter's int-to-str digit
    limit (4,300 digits by default), which ``main`` leaves as it found it."""

    def test_fib_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["fib", "--n", "30000"]) == 0
        text = capsys.readouterr().out
        assert main(["fib", "--n", "30000", "--format", "json"]) == 0
        doc = capsys.readouterr().out
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)  # for this test's own conversions
        try:
            want = naive_fib_number(30000)
            assert len(str(want)) > 4300
            assert text == f"{want}\n"
            assert json.loads(doc) == {"n": 30000, "fib": want}
        finally:
            sys.set_int_max_str_digits(limit)

    def test_count_under_a_lowered_limit(self, capsys):
        # F(4001) has 836 digits, more than the lowest settable limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["count", "--class", "B1", "--n-max", "4000",
                         "--format", "json"]) == 0
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[-1] == {"n": 4000, "count": naive_fib_number(4001) - 1}


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["fib", "--n", "3"]) == 0
        capsys.readouterr()

    def test_verification_failure_is_1(self, capsys):
        code = main(["verify", "--identity", "eq1", "--n-max", "5",
                     "--variants", "paper"])
        assert code == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_usage_errors_are_2(self, capsys):
        assert main(["count", "--class", "Z9", "--n-max", "3"]) == 2
        assert main(["count", "--n-max", "3"]) == 2
        assert main(["count", "--class", "A1", "--n-max", "0"]) == 2
        assert main(["nonsense"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_bijection_pairing_is_2(self, capsys):
        code = main(["map", "--bijection", "phi", "--class", "B1",
                     "--perm", "1"])
        assert code == 2
        assert "applies to A1/A2" in capsys.readouterr().err
        code = main(["map", "--bijection", "rho", "--class", "B1"])
        assert code == 2
        assert "--perm" in capsys.readouterr().err
        code = main(["map", "--bijection", "rho", "--class", "B1",
                     "--perm", "1", "--tiling", "d"])
        assert code == 2
        capsys.readouterr()

    def test_size_limits_are_3(self, capsys):
        for argv in (
            ["enumerate", "--class", "A1", "--n", "99"],
            ["fib", "--n", str(FIB_MAX_N + 1)],
            ["count", "--class", "A1", "--n-max", str(COUNT_MAX_N + 1)],
        ):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error:" in captured.err

    def test_domain_errors_are_4(self, capsys):
        assert main(["map", "--bijection", "phi", "--class", "A1",
                     "--perm", "2 3 1"]) == 4
        assert main(["map", "--bijection", "rho", "--class", "B2",
                     "--inverse", "--tiling", "mmm"]) == 4
        assert main(["map", "--bijection", "rho", "--class", "B2",
                     "--inverse", "--tiling", "mxm"]) == 4
        assert main(["genfun", "--class", "B2", "--n", "3",
                     "--method", "closed", "--variant", "paper"]) == 4
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("fibperm ")


class TestLongMembers:
    # decompose is a linear shape parse, so map takes members far past any
    # enumerable length
    N = 10**5

    @pytest.mark.parametrize(
        "class_id, bijection, head_length",
        [("A1", "phi", N - 2), ("B1", "rho", N // 2)],
        ids=["A1-core-near-the-end", "B1-long-pre-part"],
    )
    def test_map_round_trips_in_linear_time(
        self, class_id, bijection, head_length, capsys
    ):
        # the tail is dominoes 2 1 4 3 ..., a Fibonacci permutation
        tail_length = self.N - head_length
        tail = tuple(v + (1 if v % 2 else -1) for v in range(1, tail_length + 1))
        member = class_spec(class_id).build(head_length, tail)
        text = format_permutation(member)
        start = time.monotonic()
        code = main(["map", "--bijection", bijection, "--class", class_id,
                     "--perm", text])
        elapsed = time.monotonic() - start
        word = capsys.readouterr().out.strip()
        assert code == 0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        assert tiling_cells(word) == self.N + 1
        assert main(["map", "--bijection", bijection, "--class", class_id,
                     "--inverse", "--tiling", word]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_non_member_error_stays_short(self, capsys):
        perm = "2 3 1 " + " ".join(map(str, range(4, self.N + 1)))
        assert main(["map", "--bijection", "phi", "--class", "A1", "--perm", perm]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: (2, 3, 1, 4, 5, 6, 7, 8, ...) of length {self.N}"
            " does not fit the A1 shape\n"
        )
        assert main(["map", "--bijection", "phi", "--class", "A1", "--perm", "2 3 1"]) == 4
        assert capsys.readouterr().err == (
            "error: (2, 3, 1) of length 3 does not fit the A1 shape\n"
        )



_N = 10**5
# argv, exit code: every bad input of the table ends in one short stderr line
_ERROR_CASES = {
    "excluded-phi-word": (
        ["map", "--bijection", "phi", "--class", "A1", "--inverse",
         "--tiling", "d" + "m" * _N], 4),
    "excluded-rho-word": (
        ["map", "--bijection", "rho", "--class", "B1", "--inverse",
         "--tiling", "m" * (_N + 1)], 4),
    "perm-letter": (["map", "--bijection", "phi", "--class", "A1", "--perm", "1 a 2"], 4),
    "perm-superscript": (["map", "--bijection", "phi", "--class", "A1", "--perm", "1²"], 4),
    "perm-past-digit-limit": (
        ["map", "--bijection", "phi", "--class", "A1", "--perm", "1 " + "9" * 5000], 4),
    "long-non-member": (
        ["map", "--bijection", "rho", "--class", "B2",
         "--perm", " ".join(map(str, range(_N, 0, -1)))], 4),
    "report-in-missing-dir": (
        ["verify", "--identity", "counts", "--n-max", "3",
         "--report", os.path.join("no-such-dir", "r.md")], 4),
    "paper-form-not-evaluable": (
        ["genfun", "--class", "B2", "--n", "3", "--method", "closed",
         "--variant", "paper"], 4),
    "fib-past-cap": (["fib", "--n", str(FIB_MAX_N + 1)], 3),
    "genfun-closed-past-cap": (
        ["genfun", "--class", "A1", "--n", str(FORMULA_MAX_N + 1), "--method", "closed"], 3),
    "genfun-recurrence-past-cap": (
        ["genfun", "--class", "B1", "--n", str(FORMULA_MAX_N + 1),
         "--method", "recurrence"], 3),
    "dist-formula-past-cap": (
        ["dist", "--class", "A1", "--n", str(FORMULA_MAX_N + 1), "--stat", "joint",
         "--source", "formula"], 3),
    "dist-formula-past-cell-cap": (
        ["dist", "--class", "B2", "--n", str(FORMULA_MAX_N), "--stat", "joint",
         "--source", "formula", "--variant", "paper", "--format", "json"], 3),
    "verify-past-cap": (["verify", "--n-max", str(FORMULA_MAX_N + 1)], 3),
    "fib-4000-digits-past-cap": (["fib", "--n", "9" * 4000], 3),
    "fib-letters": (["fib", "--n", "x" * _N], 2),
    "fib-past-digit-limit": (["fib", "--n", "9" * 5000], 2),
    "fib-long-negative": (["fib", "--n", "-" + "9" * 1000], 2),
    "long-class": (["count", "--class", "x" * _N, "--n-max", "3"], 2),
    "long-command": (["x" * _N], 2),
    "long-unrecognized-argument": (["fib", "--n", "3", "y" * _N], 2),
    "bijection-off-domain": (["map", "--bijection", "phi", "--class", "B1", "--perm", "1"], 2),
    "unknown-class": (["count", "--class", "Z9", "--n-max", "3"], 2),
    "many-unrecognized-arguments": (["fib", "--n", "3"] + ["z"] * 60, 2),
    "argv-past-cap": (["count", "--class", "A1", "--n-max", "3"]
                      + ["--format", "text"] * 5000, 2),
}


@pytest.mark.parametrize("name", sorted(_ERROR_CASES))
def test_error_is_one_short_line(name, tmp_path, monkeypatch, capsys):
    # the deterministic forerunner of a generated-argv fuzz of main
    argv, expected = _ERROR_CASES[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.encode()) < 300
    if not (expected == 2 and captured.err.startswith("usage: ")):
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


_COUNT_USAGE = (
    "usage: fibperm count [-h] --class {A1,A2,B1,B2} --n-max N_MAX\n"
    "                     [--format {text,json}]\n"
)
_FIB_USAGE = "usage: fibperm fib [-h] --n N [--format {text,json}]\n"
_MAIN_USAGE = (
    "usage: fibperm [-h] [--version]\n"
    "               {count,enumerate,dist,genfun,map,fib,verify} ...\n"
)
_CLASS_CHOICE = "fibperm count: error: argument --class: invalid choice: {} " \
    "(choose from 'A1', 'A2', 'B1', 'B2')\n"
# argv, exit code, all of stderr: a value of up to 20 characters is shown
# whole, a longer one by its first 20 and "..."; the last rows pin the
# refusals a subcommand raises for main to print
_MESSAGES = {
    "class-20": (["count", "--class", "x" * 20, "--n-max", "3"], 2,
                 _COUNT_USAGE + _CLASS_CHOICE.format(repr("x" * 20))),
    "class-21": (["count", "--class", "x" * 21, "--n-max", "3"], 2,
                 _COUNT_USAGE + _CLASS_CHOICE.format(repr("x" * 20 + "..."))),
    "n-max-zero": (["count", "--class", "A1", "--n-max", "0"], 2,
                   _COUNT_USAGE + "fibperm count: error: argument --n-max: "
                   "'0' is not a positive integer\n"),
    "n-letters": (["fib", "--n", "abc"], 2,
                  _FIB_USAGE + "fibperm fib: error: argument --n: "
                  "invalid _nonneg_int value: 'abc'\n"),
    "n-negative": (["fib", "--n", "-1"], 2,
                   _FIB_USAGE + "fibperm fib: error: argument --n: '-1' is negative\n"),
    "n-long-negative": (["fib", "--n", "-" + "9" * 1000], 2,
                        _FIB_USAGE + "fibperm fib: error: argument --n: "
                        "'-9999999999999999999...' is negative\n"),
    "unrecognized": (["fib", "--n", "3", "extra"], 2,
                     _MAIN_USAGE + "fibperm: error: unrecognized arguments: extra\n"),
    "unrecognized-8": (["fib", "--n", "3"] + list("abcdefgh"), 2,
                       _MAIN_USAGE + "fibperm: error: unrecognized arguments: "
                       "a b c d e f g h\n"),
    "unrecognized-9": (["fib", "--n", "3"] + list("abcdefghi"), 2,
                       _MAIN_USAGE + "fibperm: error: unrecognized arguments: "
                       "a b c d e f g h ... (1 more)\n"),
    "argv-past-cap": (["fib", "--n=3"] + ["--format", "text"] * 31 + ["x"], 2,
                      "error: at most 64 arguments; got 65\n"),
    "cap": (["fib", "--n", str(FIB_MAX_N + 1)], 3,
            "error: --n is capped at 100000; got 100001\n"),
    "cap-20-digits": (["fib", "--n", "9" * 20], 3,
                      "error: --n is capped at 100000; got 99999999999999999999\n"),
    "cap-21-digits": (["fib", "--n", "9" * 21], 3,
                      "error: --n is capped at 100000; got 99999999999999999999... "
                      "(21 digits)\n"),
    "formula-cap": (["dist", "--class", "B2", "--n", "201", "--stat", "inv",
                     "--source", "formula"], 3,
                    "error: --n is capped at 200; got 201\n"),
    "formula-cell-cap": (["dist", "--class", "B2", "--n", "200", "--stat", "joint",
                          "--source", "formula", "--variant", "paper"], 3,
                         "error: closed forms are capped at 500000 cells; got 3920600\n"),
    "oracle-cap": (["genfun", "--class", "B2", "--n", "27"], 3,
                   "error: generation is capped at n = 26; got 27\n"),
    "inverse-map-with-perm": (["map", "--bijection", "rho", "--class", "B1",
                               "--inverse", "--perm", "1"], 2,
                              "error: --inverse needs --tiling (and no --perm)\n"),
    "forward-map-with-tiling": (["map", "--bijection", "rho", "--class", "B1",
                                 "--perm", "1", "--tiling", "d"], 2,
                                "error: forward mapping needs --perm (and no --tiling)\n"),
    "perm-value-4000-digits": (["map", "--bijection", "phi", "--class", "A1",
                                "--perm", "1 " + "9" * 4000], 4,
                               "error: value 99999999999999999999... outside 1..2\n"),
    "report-in-missing-dir": (["verify", "--identity", "eq1", "--n-max", "3",
                               "--report", "no-such-dir/r.md"], 4,
                              "error: cannot write report no-such-dir/r.md: "
                              "No such file or directory\n"),
}


@pytest.mark.parametrize("name", sorted(_MESSAGES))
def test_message_shows_value_shortened(name, tmp_path, monkeypatch, capsys):
    argv, expected, err = _MESSAGES[name]
    monkeypatch.chdir(tmp_path)  # where a relative --report path points
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    assert main(argv) == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_formula_cap_admits_its_edge(capsys):
    # the cheapest formula-only command at the cap; genfun --method
    # recurrence takes about a second there
    assert main(["genfun", "--class", "A1", "--n", str(FORMULA_MAX_N),
                 "--method", "closed", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == FORMULA_MAX_N


def test_every_dist_formula_at_the_cap_answers_or_is_refused_at_once(capsys):
    # the stated B2 joint form is the one that passes the closed forms' cell
    # cap there, and is refused before any cell is evaluated
    for class_id in CLASS_IDS:
        for stat in STATS:
            for variant in VARIANTS:
                argv = ["dist", "--class", class_id, "--n", str(FORMULA_MAX_N),
                        "--stat", stat, "--source", "formula", "--variant", variant]
                refused = (class_id, stat, variant) == ("B2", "joint", "paper")
                start = time.perf_counter()
                assert main(argv) == (3 if refused else 0), argv
                assert time.perf_counter() - start < 1, argv
                assert bool(capsys.readouterr().out) != refused, argv


def test_genfun_recurrence_matches_oracle(capsys):
    argv = ["genfun", "--class", "B1", "--n", "7"]
    assert main(argv + ["--method", "oracle"]) == 0
    oracle = capsys.readouterr().out
    assert main(argv + ["--method", "recurrence"]) == 0
    assert capsys.readouterr().out == oracle
    assert main(argv + ["--method", "recurrence", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["method"], doc["variant"]) == ("recurrence", None)


@pytest.mark.parametrize(
    "fmt, first_line", [("text", b"1 2 3 "), ("json", b"{\n")], ids=["text", "json"]
)
def test_closed_stdout_exits_4_silently(fmt, first_line):
    # the member list (304 KB as text) is more than a pipe holds, so the
    # writer is still printing its blocks of members when the reader closes
    # its end
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibperm.cli", "enumerate", "--class", "A1", "--n", "18",
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(first_line)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (4, b"")


def test_argv_cap(capsys):
    # the longest accepted command line runs; a longer one is refused before
    # argparse, whose option parsing is quadratic in the number of tokens
    argv = ["fib", "--n=3"] + ["--format", "text"] * 31
    assert len(argv) == ARGV_MAX
    assert main(argv) == 0
    assert capsys.readouterr().out == "3\n"
    start = time.monotonic()
    assert main(argv + ["--format", "text"] * 4968) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 0.1, f"took {elapsed:.2f}s"
    assert capsys.readouterr().err == "error: at most 64 arguments; got 10000\n"


def test_main_builds_one_parser(monkeypatch, capsys):
    builds = []

    def counted_build(build=cli.build_parser):
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted_build)
    for argv in (["fib", "--n", "3"], ["nonsense"], ["count", "--class", "A1",
                 "--n-max", "3", "--format", "json"], ["fib", "--n", "3"]):
        main(argv)
    capsys.readouterr()
    assert len(builds) == 1


def test_reused_parser_keeps_every_output(monkeypatch, capsys):
    # one parser serves refusals and early exits, then every golden command
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    usage_error = ["count", "--class", "Z9", "--n-max", "3"]
    assert main(usage_error) == 2
    first_usage_error = capsys.readouterr().err
    for argv, code in (
        (["--version"], 0),
        (["fib", "--help"], 0),
        (["fib", "--n", str(FIB_MAX_N + 1)], 3),
        (["map", "--bijection", "phi", "--class", "A1", "--perm", "2 3 1"], 4),
    ):
        assert main(argv) == code
    capsys.readouterr()
    for name, argv in sorted(GOLDEN_CASES.items()):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert main(usage_error) == 2
    assert capsys.readouterr().err == first_usage_error


def test_rejected_names_are_domain_errors():
    # main maps only DomainError, SizeLimitError and its own usage error to
    # exit codes; any other exception is a fault and must not read as bad input
    for call in (
        lambda: check_class_id("C1"),
        lambda: check_variant("folk"),
        lambda: check_stat("desc"),
        lambda: phi("B1", (1,)),
        lambda: Poly.monomial(1, -1, 0),
        lambda: check_identity("counts", "paper"),
        lambda: check_identity("eq1", "paper", class_id="A1"),
    ):
        with pytest.raises(DomainError):
            call()


def test_unknown_names_are_quoted_short():
    # each check quotes the name it refuses through errors.shorten, so a
    # short name shows whole and a long one keeps the message short
    for check in (
        check_class_id,
        check_variant,
        check_stat,
        lambda name: check_identity(name, "paper"),
    ):
        with pytest.raises(DomainError, match="^unknown [a-z]+ 'C1'; expected one of "):
            check("C1")
        with pytest.raises(DomainError) as refused:
            check("x" * 100_000)
        assert len(str(refused.value)) < 300, str(refused.value)[:40]
    # a bijection's domain check quotes the class it refuses the same way
    with pytest.raises(DomainError, match=r"^phi is defined on \('A1', 'A2'\); got 'C1'$"):
        phi("C1", (1,))
    with pytest.raises(DomainError) as refused:
        phi("x" * 5000, (1,))
    assert len(str(refused.value)) < 300, str(refused.value)[:40]


def test_long_choice_list_leaves_a_usage_error(capsys):
    # argparse lists every choice of an invalid one; where that line would
    # reach _ERROR_BYTES, the list goes and the refusal stays
    parser = cli._Parser(prog="throwaway")
    parser.add_argument("--pick", choices=[f"a-rather-long-choice-{i:02d}" for i in range(40)])
    with pytest.raises(SystemExit) as exited:
        parser.parse_args(["--pick", "bogus"])
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert err == "throwaway: error: argument --pick: invalid choice: 'bogus'\n"
    short = cli._Parser(prog="throwaway")
    short.add_argument("--pick", choices=["a", "b"])
    with pytest.raises(SystemExit):
        short.parse_args(["--pick", "bogus"])
    assert "(choose from " in capsys.readouterr().err


class TestVerifyCommand:
    def test_report_twin_files(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["verify", "--identity", "counts", "--n-max", "5",
                     "--report", str(target)])
        capsys.readouterr()
        assert code == 0
        twin = tmp_path / "report.json"
        assert target.exists() and twin.exists()
        text = target.read_text(encoding="utf-8")
        assert text.startswith("# Identity verification")
        assert "Stamp" not in text
        doc = json.loads(twin.read_text(encoding="utf-8"))
        assert doc["resolved"] is True
        assert doc["stamp"] is None

    def test_report_json_target_gets_md_twin(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["verify", "--identity", "counts", "--n-max", "5",
                     "--report", str(target), "--stamp"])
        capsys.readouterr()
        assert code == 0
        assert target.exists() and (tmp_path / "out.md").exists()
        assert json.loads(target.read_text())["stamp"] is not None
        assert "Stamp" in (tmp_path / "out.md").read_text()

    def test_stamp_on_stdout(self, capsys):
        code = main(["verify", "--identity", "eq1", "--n-max", "5", "--stamp"])
        assert code == 0
        assert capsys.readouterr().out.startswith("stamp: ")

    def test_cli_import_leaves_process_pool_unloaded(self):
        # concurrent.futures costs a noticeable share of the CLI's start-up,
        # and verify runs every unit in this process, so nothing imports it
        code = ("import sys, fibperm.cli; "
                "sys.exit('concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_jobs_is_a_usage_error(self, capsys):
        # verify has one serial path and no parallelism option
        assert main(["verify", "--identity", "eq1", "--n-max", "5", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs" in captured.err
        assert len(captured.err.encode()) < 300


def _bench_table(script: str, name: str):
    """The literal value a bench script assigns to ``name``, read from its
    source without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / script).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{script} assigns no {name}")


def test_bench_names_resolve():
    # the bench tracer finds what it wraps by module and name, so these
    # names stay even where a refactor would drop them
    for targets in _bench_table("layertrace.py", "LAYERS").values():
        for module, attr in targets:
            assert callable(getattr(importlib.import_module(f"fibperm.{module}"), attr))
    for module, attr in _bench_table("worker.py", "CACHED").values():
        assert hasattr(getattr(importlib.import_module(f"fibperm.{module}"), attr),
                       "cache_info")
    assert callable(Poly.__mul__)


# run in a fresh interpreter: installing the tracer rebinds fibperm's functions
_LAYER_TRACE_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import layertrace, worker
tracer = layertrace.Tracer().install()  # resolves every (module, attr) in LAYERS
tracer.reset(tuple(worker.CACHED.values()))  # reads each cache_info()
code = tracer.modules["cli"].main(["verify", "--identity", "eq1", "--n-max", "3"])
hit_ratios = [tracer.hit_ratio(*key) for key in worker.CACHED.values()]
print(json.dumps({"code": code, "calls": tracer.calls, "hit_ratios": hit_ratios}))
"""


def test_layer_trace_binds_every_layer():
    # bench/layertrace.py finds what it wraps by module and name, so a
    # renamed function would break the bench's --trace 1 runs
    root = Path(__file__).parents[1]
    run = subprocess.run(
        [sys.executable, "-c", _LAYER_TRACE_SCRIPT, str(root / "bench"), str(root / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert len(result["hit_ratios"]) == 3
    assert result["calls"]["cli.render"] >= 1
    assert result["calls"]["verify.eq1"] == 2  # check_identity, counted per identity


# Flag values for the generated-argv fuzz: (usual values, edge values).  The
# edges are 0, -1, the cap and the cap plus 1, values of thousands of digits
# (under and past the interpreter's int() digit limit) and words of the
# wrong kind.  Every example stays cheap: oracle lengths stop at 14 (apart
# from the generation cap plus 1, and for dist the formula cap, where each
# closed form answers within about 0.1 s or is refused at once by its cell
# cap), count --n-max at 300 and verify --n-max at
# 6 (apart from the caps plus 1), --m-max at 6 (a larger one is
# clamped to 24, and gf-addition then takes seconds), and --report paths lie
# under tmp_path.
_HUGE = ("9" * 4000, "9" * 5000, "-" + "9" * 1000)
_WORDS = ("", "x", "3.5", "1e3", "x" * 30)


def _ints(top: int, *edges: int, huge=_HUGE):
    usual = st.integers(0, top).map(str)
    return usual, st.sampled_from([str(v) for v in edges] + list(huge + _WORDS))


def _choice(*good: str):
    return st.sampled_from(good), st.sampled_from(("Z9", "y" * 30))


_LENGTHS = _ints(14, -1, GENERATE_MAX_N + 1, FORMULA_MAX_N + 1)
_DIST_LENGTHS = _ints(14, -1, GENERATE_MAX_N + 1, FORMULA_MAX_N, FORMULA_MAX_N + 1)
_PERMS = (
    permutations_up_to(8).map(format_permutation),
    st.sampled_from(["1 a 2", "0 1", "1 1", "4321", "1 " + "9" * 4000, "1 " + "9" * 5000, " "]),
)
_TILINGS = (st.text(alphabet="md", max_size=40), st.text(alphabet="mdx ", max_size=40))


_DIST_EDGE_ARGV = (
    ["dist", "--class", "A1", "--stat", "inv", "--source", "oracle", "--n", "-1"],
    ["dist", "--class", "B1", "--stat", "fib", "--source", "oracle",
     "--n", str(GENERATE_MAX_N + 1)],
    ["dist", "--class", "A2", "--stat", "joint", "--source", "formula",
     "--n", str(FORMULA_MAX_N + 1)],
    ["dist", "--class", "B2", "--stat", "joint", "--source", "formula", "--variant", "paper",
     "--n", str(FORMULA_MAX_N)],
)


def _flags(tmp: Path) -> dict:
    fmt = {"--format": _choice("text", "json")}
    cls = {"--class": _choice(*CLASS_IDS)}
    return {
        "count": {**cls, **fmt, "--n-max": _ints(300, 0, -1, COUNT_MAX_N + 1)},
        "enumerate": {**cls, **fmt, "--n": _LENGTHS},
        "dist": {**cls, **fmt, "--n": _DIST_LENGTHS, "--stat": _choice(*STATS),
                 "--source": _choice("oracle", "formula"),
                 "--variant": _choice(*VARIANTS)},
        "genfun": {**cls, **fmt, "--n": _LENGTHS,
                   "--method": _choice("oracle", "closed", "recurrence"),
                   "--variant": _choice(*VARIANTS)},
        "map": {**cls, **fmt, "--bijection": _choice("phi", "rho"), "--perm": _PERMS,
                "--tiling": _TILINGS, "--inverse": None},
        "fib": {**fmt, "--n": _ints(50, -1, FIB_MAX_N, FIB_MAX_N + 1)},
        "verify": {**fmt, "--identity": _choice("all", *IDENTITY_IDS),
                   "--n-max": _ints(6, 0, -1, FORMULA_MAX_N + 1),
                   "--m-max": _ints(6, 0, -1, huge=_HUGE[2:]),
                   "--variants": _choice("both", "paper", "corrected"),
                   "--report": (st.sampled_from([str(tmp / "r.md"), str(tmp / "r.json")]),
                                st.just(str(tmp / "no" / "r.md"))),
                   "--stamp": None},
    }


@st.composite
def _argv(draw, tmp: Path):
    flags = _flags(tmp)
    command = draw(st.sampled_from(sorted(flags) + ["", "x" * 30]))
    options = flags.get(command, {})
    # most examples carry each flag, an edge value for one flag in ten and
    # no stray word, so that most of them get past argparse
    chosen = [flag for flag in sorted(options) if draw(st.integers(0, 9))]
    if command == "verify" and "--n-max" not in chosen:
        chosen.append("--n-max")  # the default, 9, is slower than the bound above
    words = []
    for flag in draw(st.permutations(chosen)):
        if options[flag] is None:
            words.append([flag])
        else:
            usual, edge = options[flag]
            words.append([flag, draw(edge if not draw(st.integers(0, 9)) else usual)])
    stray = st.sampled_from(["-h", "--", "--bogus", "y" * 25, "9" * 30, "-"])
    for word in draw(st.lists(stray, max_size=12)) if not draw(st.integers(0, 3)) else []:
        words.insert(draw(st.integers(0, len(words))), [word])
    argv = [command] + [token for word in words for token in word]
    return argv[:ARGV_MAX]


def test_generated_argv_ends_in_a_documented_exit(tmp_path, monkeypatch):
    # the safety net under every refusal: a documented exit code, no
    # traceback, and one short refusal whatever the flags hold
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_argv(tmp_path))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stderr = err.getvalue()
        assert code in (0, 1, 2, 3, 4), (argv, code)
        assert "Traceback" not in stderr, argv
        if code >= 2:
            assert len(stderr.encode()) < 300, (argv, stderr)

    # The draws seldom reach an edge dist length, so each is an explicit
    # example.  They are added after the definition: derandomized draws are
    # seeded from run's source, decorators included, so the draws stay put.
    for argv in _DIST_EDGE_ARGV:
        run = example(argv)(run)
    run()
