"""The fibperm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the code under ``src``.
Every repetition runs in a fresh interpreter (``worker.py``), so each pays
for its own imports and starts with empty ``lru_cache`` layers, as a
command-line user does.  One process at a time, no threads: the benchmark
fits a 2-CPU machine.

With ``--trace 0`` the run repeats the workload while another repetition
fits in ``--seconds`` (at least once) and reports the end-to-end metrics:

* ``wall_s``: median over repetitions of the timed part, which is the one
  verify call, or the sum of the timed query latencies;
* ``setup_s``: median time from interpreter launch until ``fibperm.cli``
  is imported and ``build_parser()`` has returned, over every repetition's
  launch and the set-up-only launches made before each repetition and in
  the rest of ``--seconds``;
* ``query_p50_ms``, ``query_p99_ms``: median and nearest-rank 99th
  percentile of the latency of the timed calls of all repetitions.  On
  the verify workloads each repetition is a single call, so there they
  are ``wall_s`` again and the slowest repetition, and add nothing to it;
* ``peak_rss_mb``: median peak resident memory of a repetition's process.

Failed operations over attempted ones (``failed_frac``) is in the result's
``failed`` and ``attempted`` and in the run record, not among the metrics,
because it is 0 on the verify workloads.

With ``--trace 1`` it runs the workload untraced, traced (``layertrace.py``),
untraced and traced again, whatever ``--seconds`` says, reports the
per-layer metrics of the traced runs, and checks that every call and member
count repeats exactly between them.  ``trace.overhead_frac`` pairs each
traced run with the untraced run just before it.

The last stdout line is the JSON result; the lines before it, and
``.bench_out/<workload>-trace<0|1>.json``, hold the run record: commit,
source digest, Python version, CPU count, load average before and after,
sample counts and the failure breakdown.  Traced runs write their spans to
``.bench_out/<workload>-spans<k>.jsonl``.

Only ``queries`` uses ``--seed``; it selects the query stream.  The verify
workloads are deterministic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    # The headline command of the README and ROADMAP; brute-force
    # pattern filtering (perms) owns most of it, and gf-addition most of the rest.
    "verify-9": "the headline verify --n-max 9 run, dominated by the brute-force n! oracle",
    # No brute force at all: the statistic oracles (fib_stat, inversions over
    # generate) own it, so it isolates them from the brute-force layer.
    "verify-dist": "distribution and G_n families at n_max 18, dominated by fib_stat and inversions",
    # Per-request use of the same layers through cli.main, where caches
    # serve repeats and argparse runs on every call.
    "queries": "1 client, closed loop of seeded CLI queries, an equal (assumed) share per subcommand; "
    "caches serve repeats, argparse on every call",
}

SETUP_LAUNCHES = 10  # set-up-only interpreter launches before each repetition
DEADLINE_S = 170  # the whole run, set-up launches included

IDENTITY_IDS = (
    "counts", "a_n-recurrence", "eq1", "hockey-stick", "fib-inv", "inv-dist",
    "fib-dist", "joint-dist", "gf-closed", "gf-recurrence", "gf-addition",
    "bijection-image", "structure-oracle",
)
CALLS = (
    "perms.brute_force_av", "perms.contains_pattern", "perms.inversions",
    "fib.fib_stat", "classes.generate", "classes.decompose", "bijections",
    "stats.distribution_oracle", "stats.formula", "genfun.genfun_oracle",
    "genfun.poly_mul",
)
SELF_TIMES = (
    "perms.brute_force_av", "perms.inversions", "fib.fib_stat", "fib.fib_number",
    "classes.generate", "classes.decompose", "bijections",
    "stats.distribution_oracle", "stats.formula", "genfun.genfun_oracle",
    "genfun.poly_mul", "genfun.formula", "cli.build_parser", "cli.render",
)
HIT_RATIOS = ("perms.brute_force_av", "fib.tilings", "genfun.genfun_oracle")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict:
    units = {f"{g}.calls": "count" for g in CALLS}
    units["classes.generate.members"] = "count"
    units.update({f"{g}.self_s": "s" for g in SELF_TIMES})
    units.update({f"{g}.hit_ratio": "ratio" for g in HIT_RATIOS})
    units.update({f"verify.{i}.s": "s" for i in IDENTITY_IDS})
    units["verify.units"] = "count"
    units["cli.import_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


class BenchError(Exception):
    pass


def percentile(samples: list, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p percent
    of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Launcher:
    """Starts worker interpreters one at a time, within the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def launch(self, cfg: dict) -> tuple[float, dict | None]:
        """Returns (seconds from launch to ``ready``, result or None in set-up mode)."""
        cfg = dict(cfg, src=str(SRC))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {cfg['workload']} passed the run's deadline")
        if ready != "ready\n" or proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {(ready + out + err)[-2000:]}")
        if cfg["mode"] == "setup":
            return setup_s, None
        return setup_s, json.loads(out.splitlines()[-1])


def check_rep(workload: str, rep: dict, expected: dict | None) -> dict:
    """Counts of one repetition: attempted, failed and wrong operations."""
    if workload == "queries":
        tally = rep["tally"]
        return {k: tally[k] for k in ("attempted", "failed", "wrong")}
    got = {(u[0], u[1], u[2]): u[3] for u in rep["units"]}
    mismatched = sum(got.get(key) != status for key, status in expected.items())
    mismatched += len(set(got) - set(expected))
    verdict_failed = not rep["resolved"] or rep["exit_code"] != 0
    failed = mismatched + verdict_failed
    # each unit status is one operation, and the overall verdict one more
    return {"attempted": len(expected) + 1, "failed": failed, "wrong": failed}


def load_expected(workload: str) -> dict | None:
    path = BENCH / "expected" / f"{workload}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return {(u[0], u[1], u[2]): u[3] for u in doc["units"]}


def end_to_end(reps: list, setup_samples: list) -> dict:
    """Medians over the repetitions; latency percentiles over the timed
    calls of all repetitions together."""
    latencies = [x for rep in reps for x in rep["latencies_s"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup_samples),
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p99_ms": percentile(latencies, 99) * 1000,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(untraced: list, traced: list) -> dict:
    mean = statistics.fmean
    first = traced[0]["trace"]
    metrics = {f"{g}.calls": first["calls"].get(g, 0) for g in CALLS}
    metrics["classes.generate.members"] = first["members"].get("classes.generate", 0)
    for g in SELF_TIMES:
        metrics[f"{g}.self_s"] = mean(t["trace"]["self_s"].get(g, 0.0) for t in traced)
    for g in HIT_RATIOS:
        metrics[f"{g}.hit_ratio"] = first["hit_ratio"][g]
    for i in IDENTITY_IDS:
        metrics[f"verify.{i}.s"] = mean(t["trace"]["total_s"].get(f"verify.{i}", 0.0) for t in traced)
    metrics["verify.units"] = sum(first["calls"].get(f"verify.{i}", 0) for i in IDENTITY_IDS)
    metrics["cli.import_s"] = mean(t["import_s"] for t in traced)
    metrics["trace.overhead_frac"] = mean(
        t["wall_s"] / u["wall_s"] - 1 for u, t in zip(untraced, traced)
    )
    return metrics


def trace_counts(rep: dict) -> dict:
    trace = rep["trace"]
    return {"calls": trace["calls"], "members": trace["members"]}


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    launcher = Launcher(deadline)
    base = {"workload": args.workload, "seed": args.seed, "trace": False, "mode": "run"}
    launcher.launch(dict(base, mode="setup"))  # untimed: fills the bytecode caches
    record: dict = {}
    if args.trace:
        untraced, traced = [], []
        for k in (1, 2):
            untraced.append(launcher.launch(base)[1])
            traced.append(launcher.launch(dict(
                base, trace=True, spans_path=str(OUT / f"{args.workload}-spans{k}.jsonl"),
            ))[1])
        reps = untraced + traced
        metrics = per_layer(untraced, traced)
        units = per_layer_units()
        repeats = trace_counts(traced[0]) == trace_counts(traced[1])
        record["trace_counts_repeat"] = repeats
        record["top_level_coverage"] = [t["trace"]["top_level_s"] / t["wall_s"] for t in traced]
        record["spans"] = [t["trace"]["spans"] for t in traced]
    else:
        setup_samples, reps, durations = [], [], []
        start = time.monotonic()
        while not reps or time.monotonic() - start + statistics.mean(durations) <= args.seconds:
            t0 = time.monotonic()
            setup_samples += [
                launcher.launch(dict(base, mode="setup"))[0] for _ in range(SETUP_LAUNCHES)
            ]
            setup_s, rep = launcher.launch(base)
            durations.append(time.monotonic() - t0)
            setup_samples.append(setup_s)
            reps.append(rep)
        while time.monotonic() - start < args.seconds:  # the time no repetition fits in
            setup_samples.append(launcher.launch(dict(base, mode="setup"))[0])
        metrics = end_to_end(reps, setup_samples)
        units = END_TO_END_UNITS
        repeats = True
        record["setup_samples"] = len(setup_samples)
    expected = load_expected(args.workload)
    counts = [check_rep(args.workload, rep, expected) for rep in reps]
    totals = {k: sum(c[k] for c in counts) for k in ("attempted", "failed", "wrong")}
    record.update(
        reps=len(reps),
        rep_wall_s=[r["wall_s"] for r in reps],
        latency_samples=sum(len(r["latencies_s"]) for r in reps),
        failed_frac=totals["failed"] / totals["attempted"],
        wrong=totals["wrong"],
    )
    if args.workload == "queries":
        tallies = [r["tally"] for r in reps]
        record["fib_over_digit_limit_frac"] = (
            sum(t["fib_over_limit"] for t in tallies) / totals["attempted"]
        )
        record["first_wrong"] = next((t["first_wrong"] for t in tallies if t["first_wrong"]), [])
        record["by_kind"] = tallies[0]["by_kind"]
    if not repeats:
        print("trace: call or member counts differ between the two traced runs", file=sys.stderr)
    result = {
        "correct": totals["wrong"] == 0 and repeats,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "fibperm" / "cli.py").is_file():
        print(f"error: no fibperm sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }
    try:
        result, details = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(details, loadavg_after=os.getloadavg(), result=result)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for key, value in record.items():
        if key != "result":
            print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
