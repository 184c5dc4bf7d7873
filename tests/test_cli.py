import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fibperm import cli
from fibperm.bijections import phi
from fibperm.classes import CLASS_IDS, check_class_id, class_spec
from fibperm.cli import COUNT_MAX_N, FIB_MAX_N, main
from fibperm.errors import DomainError
from fibperm.fib import tiling_cells
from fibperm.genfun import Poly
from fibperm.perms import format_permutation
from fibperm.stats import STATS, VARIANTS, check_stat, check_variant
from fibperm.verify import check_identity

from helpers import naive_fib_number

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
        assert captured.err.startswith("error: (2, 3, 1, 4, ")
        assert len(captured.err.encode()) < 300



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
    "fib-4000-digits-past-cap": (["fib", "--n", "9" * 4000], 3),
    "fib-letters": (["fib", "--n", "x" * _N], 2),
    "fib-past-digit-limit": (["fib", "--n", "9" * 5000], 2),
    "fib-long-negative": (["fib", "--n", "-" + "9" * 1000], 2),
    "long-class": (["count", "--class", "x" * _N, "--n-max", "3"], 2),
    "long-command": (["x" * _N], 2),
    "long-unrecognized-argument": (["fib", "--n", "3", "y" * _N], 2),
    "bijection-off-domain": (["map", "--bijection", "phi", "--class", "B1", "--perm", "1"], 2),
    "unknown-class": (["count", "--class", "Z9", "--n-max", "3"], 2),
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
_CLASS_CHOICE = "fibperm count: error: argument --class: invalid choice: {} " \
    "(choose from 'A1', 'A2', 'B1', 'B2')\n"
# argv, exit code, all of stderr: a value of up to 20 characters is shown
# whole, a longer one by its first 20 and "..."
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
                     "usage: fibperm [-h] [--version]\n"
                     "               {count,enumerate,dist,genfun,map,fib,verify} ...\n"
                     "fibperm: error: unrecognized arguments: extra\n"),
    "cap": (["fib", "--n", str(FIB_MAX_N + 1)], 3,
            "error: --n is capped at 100000; got 100001\n"),
    "cap-20-digits": (["fib", "--n", "9" * 20], 3,
                      "error: --n is capped at 100000; got 99999999999999999999\n"),
    "cap-21-digits": (["fib", "--n", "9" * 21], 3,
                      "error: --n is capped at 100000; got 99999999999999999999... "
                      "(21 digits)\n"),
}


@pytest.mark.parametrize("name", sorted(_MESSAGES))
def test_message_shows_value_shortened(name, monkeypatch, capsys):
    argv, expected, err = _MESSAGES[name]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    assert main(argv) == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


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
    # main maps only SizeLimitError and DomainError to exit codes; any other
    # exception is a fault and must not read as bad input
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
        # --jobs imports ProcessPoolExecutor only when it is asked for
        code = ("import sys, fibperm.cli; "
                "sys.exit('concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_jobs_output_matches_sequential(self, capsys):
        main(["verify", "--identity", "gf-recurrence", "--n-max", "5"])
        sequential = capsys.readouterr().out
        main(["verify", "--identity", "gf-recurrence", "--n-max", "5",
              "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == sequential


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
