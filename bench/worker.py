"""One measured repetition of a workload, in a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src`` and a JSON config as its only argument.  The script imports
``fibperm.cli``, builds the parser, and writes ``ready`` to stdout; the
parent takes the time from launch to that line as one set-up sample.  In
``setup`` mode it stops there.  Otherwise it runs the workload (traced when
the config asks) and prints one JSON result line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

VERIFY_9_ARGV = ["verify", "--n-max", "9"]
VERIFY_DIST_IDS = ["inv-dist", "fib-dist", "joint-dist", "gf-closed", "gf-recurrence"]
VERIFY_DIST_N_MAX = 18
# lru_cache functions whose hit ratios the trace reports, by metric group
CACHED = {
    "perms.brute_force_av": ("perms", "_brute_force_av"),
    "fib.tilings": ("fib", "_tilings"),
    "genfun.genfun_oracle": ("genfun", "genfun_oracle"),
}


def _call_cli(cli, argv):
    """Run ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc(file=err)
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def _verify_9(cli, cfg, tracer):
    code, out, err, dt = _call_cli(cli, VERIFY_9_ARGV)
    units = []
    lines = out.splitlines()
    rule = next((i for i, line in enumerate(lines) if line.startswith("---")), len(lines))
    for line in lines[rule + 1:]:
        if not line.strip():
            break
        parts = line.split()
        if len(parts) >= 4:  # a shorter line is counted as a missing unit
            identity, class_id, variant, status = parts[:4]
            units.append([identity, None if class_id == "-" else class_id, variant, status])
    return {
        "wall_s": dt,
        "latencies_s": [dt],
        "exit_code": code,
        "units": units,
        "resolved": code == 0 and "overall: PASS" in out,
        "stderr": err[-2000:],
    }


def _verify_dist(cli, cfg, tracer):
    from fibperm import verify

    t0 = time.perf_counter()
    try:
        result = verify.run_verification(VERIFY_DIST_IDS, n_max=VERIFY_DIST_N_MAX)
        dt = time.perf_counter() - t0
        units = [[r.identity_id, r.class_id, r.variant, r.status] for r in result.reports]
        resolved, code, err = result.resolved, 0, ""
    except Exception:
        # counted as a run in which every unit failed
        dt = time.perf_counter() - t0
        units, resolved, code, err = [], False, None, traceback.format_exc()
    return {
        "wall_s": dt,
        "latencies_s": [dt],
        "exit_code": code,
        "units": units,
        "resolved": resolved,
        "stderr": err[-2000:],
    }


def _queries(cli, cfg, tracer):
    from queries import run as run_queries

    # the trace covers the timed stream only, like wall_s
    start_timed = (lambda: tracer.reset(tuple(CACHED.values()))) if tracer else (lambda: None)
    latencies, tally = run_queries(
        cfg["seed"], lambda argv: _call_cli(cli, argv), start_timed,
    )
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "tally": tally.__dict__,
    }


WORKLOADS = {"verify-9": _verify_9, "verify-dist": _verify_dist, "queries": _queries}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import fibperm.cli as cli
    import_s = time.perf_counter() - t0
    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the checkout under {src}")
    cli.build_parser()
    print("ready", flush=True)
    if cfg["mode"] == "setup":
        return
    # the benchmark's own modules load after the set-up sample
    from layertrace import Tracer

    tracer = Tracer().install() if cfg["trace"] else None
    result = WORKLOADS[cfg["workload"]](cli, cfg, tracer)
    result["import_s"] = import_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "members": dict(tracer.members),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "top_level_s": tracer.top_level_s(),
            "spans": len(tracer.spans),
            "hit_ratio": {group: tracer.hit_ratio(*key) for group, key in CACHED.items()},
        }
        tracer.write_spans(cfg["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
