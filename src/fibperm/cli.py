"""Command-line interface.

Subcommands: count, enumerate, dist, genfun, map, fib, verify.  Every
subcommand takes ``--format text|json`` and prints through ``_emit``, the
one place that reads it; output is byte-deterministic (``verify --stamp``
is the one opt-in exception).

Exit codes: 0 success (for ``verify``: every identity resolved), 1
verification failure, 2 usage error, 3 size cap exceeded, 4 invalid input
or an unwritable ``verify --report`` path.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import __version__
from .classes import CLASS_IDS, count, generate
from .bijections import bijection_domain, tiling_bijection
from .errors import DomainError, SizeLimitError, shorten
from .fib import fib_number, parse_tiling
from .genfun import genfun_closed, genfun_oracle, genfun_recurrence
from .perms import format_permutation, parse_permutation
from .stats import STATS, VARIANTS, distribution_formula, distribution_oracle
from .verify import (
    IDENTITY_IDS,
    render_markdown,
    render_text,
    run_verification,
    to_json_doc,
)

__all__ = ["main", "build_parser", "FIB_MAX_N", "COUNT_MAX_N"]

# Output caps for the exact big integers: F(100001) has 20,899 digits, and
# count --n-max 10000 prints about 10 MB.
FIB_MAX_N = 100_000
COUNT_MAX_N = 10_000

# a quoted value in a usage error (argparse shows a value as its repr), or
# a bare word such as an unrecognized argument
_MESSAGE_WORD = re.compile(r"""(['"])(.*?)\1|\S+""")


def _shorten_word(match: re.Match) -> str:
    quote, inner = match.group(1, 2)
    return quote + shorten(inner) + quote if quote else shorten(match.group())


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors show each value they quote
    shortened to 20 characters; ``add_subparsers`` makes every subcommand
    parser one too."""

    def error(self, message: str):
        super().error(_MESSAGE_WORD.sub(_shorten_word, message))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _check_cap(option: str, value: int, cap: int) -> None:
    if value > cap:
        digits = str(value)
        shown = shorten(digits)
        if shown != digits:
            shown += f" ({len(digits)} digits)"
        raise SizeLimitError(f"{option} is capped at {cap}; got {shown}")


@contextmanager
def _exact_int_output() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit (CPython 3.10.7+) for
    the block, so capped outputs print in full; restore it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fibperm",
        description="Exact enumeration, bijections, statistics, and identity "
        "verification for four Fibonacci-counted avoidance classes.",
    )
    parser.add_argument(
        "--version", action="version", version=f"fibperm {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p: argparse.ArgumentParser, func) -> None:
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )
        p.set_defaults(func=func)

    p_count = sub.add_parser("count", help="closed-form member counts")
    p_count.add_argument("--class", dest="class_id", choices=CLASS_IDS, required=True)
    p_count.add_argument("--n-max", type=_positive_int, required=True)
    finish(p_count, cmd_count)

    p_enum = sub.add_parser("enumerate", help="list all members of one length")
    p_enum.add_argument("--class", dest="class_id", choices=CLASS_IDS, required=True)
    p_enum.add_argument("--n", type=_nonneg_int, required=True)
    finish(p_enum, cmd_enumerate)

    p_dist = sub.add_parser("dist", help="statistic distributions")
    p_dist.add_argument("--class", dest="class_id", choices=CLASS_IDS, required=True)
    p_dist.add_argument("--n", type=_positive_int, required=True)
    p_dist.add_argument("--stat", choices=STATS, required=True)
    p_dist.add_argument(
        "--source", choices=("oracle", "formula"), default="oracle",
        help="enumerate members (oracle) or evaluate the closed form",
    )
    p_dist.add_argument(
        "--variant", choices=VARIANTS, default="corrected",
        help="formula variant (closed forms only; 'paper' is the form as "
        "originally stated)",
    )
    finish(p_dist, cmd_dist)

    p_gen = sub.add_parser("genfun", help="generating polynomial G_n(v, q)")
    p_gen.add_argument("--class", dest="class_id", choices=CLASS_IDS, required=True)
    p_gen.add_argument("--n", type=_positive_int, required=True)
    p_gen.add_argument(
        "--method", choices=("oracle", "closed", "recurrence"), default="oracle"
    )
    p_gen.add_argument(
        "--variant", choices=VARIANTS, default="corrected",
        help="summation-formula variant (--method closed only)",
    )
    finish(p_gen, cmd_genfun)

    p_map = sub.add_parser("map", help="apply a tiling bijection")
    p_map.add_argument("--bijection", choices=("phi", "rho"), required=True)
    p_map.add_argument("--class", dest="class_id", choices=CLASS_IDS, required=True)
    p_map.add_argument("--perm", help="member, space-separated (or compact digits)")
    p_map.add_argument("--tiling", help="tiling word over m/d (inverse direction)")
    p_map.add_argument(
        "--inverse", action="store_true", help="decode a tiling word instead"
    )
    finish(p_map, cmd_map)

    p_fib = sub.add_parser("fib", help="Fibonacci numbers, F(0) = F(1) = 1")
    p_fib.add_argument("--n", type=_nonneg_int, required=True)
    finish(p_fib, cmd_fib)

    p_verify = sub.add_parser("verify", help="run the identity checks")
    p_verify.add_argument(
        "--identity", default="all", choices=("all",) + IDENTITY_IDS,
        help="one identity id, or 'all' (default)",
    )
    p_verify.add_argument("--n-max", type=_positive_int, default=9)
    p_verify.add_argument("--m-max", type=_positive_int, default=None)
    p_verify.add_argument(
        "--variants", choices=("both", "paper", "corrected"), default="both"
    )
    p_verify.add_argument(
        "--report", metavar="PATH",
        help="write a markdown report here plus a .json twin",
    )
    p_verify.add_argument("--jobs", type=_positive_int, default=1)
    p_verify.add_argument(
        "--stamp", action="store_true",
        help="include a UTC timestamp in the report (off by default so "
        "output is byte-deterministic)",
    )
    finish(p_verify, cmd_verify)

    return parser


def _emit(args, payload: dict, text: Callable[[], Iterable]) -> None:
    """Print ``payload`` as JSON under ``--format json``, else each line of
    ``text()``.  Both print with the digit limit lifted, so exact big
    integers print in full."""
    with _exact_int_output():
        if args.format == "json":
            _emit_json(payload)
        else:
            for line in text():
                print(line)


def _row_lines(rows: list[dict]) -> Iterator[str]:
    """One text line per JSON row: its values, space-separated."""
    return (" ".join(map(str, row.values())) for row in rows)


def cmd_count(args) -> int:
    _check_cap("--n-max", args.n_max, COUNT_MAX_N)
    rows = [{"n": n, "count": count(args.class_id, n)} for n in range(1, args.n_max + 1)]
    _emit(args, {"class": args.class_id, "rows": rows}, lambda: _row_lines(rows))
    return 0


def cmd_enumerate(args) -> int:
    members = generate(args.class_id, args.n)
    _emit(
        args,
        {"class": args.class_id, "n": args.n, "members": members},
        lambda: map(format_permutation, members),
    )
    return 0


def cmd_dist(args) -> int:
    if args.source == "oracle":
        dist = distribution_oracle(args.class_id, args.n, args.stat)
        variant: Optional[str] = None
    else:
        pairs = distribution_formula(args.class_id, args.n, args.stat, args.variant)
        dist = {key: value for key, value in pairs if value}
        variant = args.variant
    if args.stat == "joint":
        rows = [{"fib": k, "inv": j, "count": c} for (k, j), c in sorted(dist.items())]
    else:
        rows = [{"k": k, "count": c} for k, c in sorted(dist.items())]
    payload = {
        "class": args.class_id,
        "n": args.n,
        "stat": args.stat,
        "source": args.source,
        "variant": variant,
        "distribution": rows,
    }
    _emit(args, payload, lambda: _row_lines(rows))
    return 0


def cmd_genfun(args) -> int:
    variant = args.variant if args.method == "closed" else None
    if args.method == "oracle":
        poly = genfun_oracle(args.class_id, args.n)
    elif args.method == "recurrence":
        poly = genfun_recurrence(args.class_id, args.n)
    else:
        poly = genfun_closed(args.class_id, args.n, variant)
    payload = {
        "class": args.class_id,
        "n": args.n,
        "method": args.method,
        "variant": variant,
        "polynomial": str(poly),
        "terms": [
            {"v": v_exp, "q": q_exp, "coeff": c} for (v_exp, q_exp), c in poly.terms()
        ],
    }
    _emit(args, payload, lambda: [payload["polynomial"]])
    return 0


def cmd_map(args) -> int:
    domain = bijection_domain(args.bijection)
    if args.class_id not in domain:
        print(
            f"error: {args.bijection} applies to {'/'.join(domain)}, not {args.class_id}",
            file=sys.stderr,
        )
        return 2
    _, forward, inverse = tiling_bijection(args.class_id)
    if args.inverse:
        if args.tiling is None or args.perm is not None:
            print("error: --inverse needs --tiling (and no --perm)", file=sys.stderr)
            return 2
        word = parse_tiling(args.tiling)
        perm = inverse(args.class_id, word)
    else:
        if args.perm is None or args.tiling is not None:
            print("error: forward mapping needs --perm (and no --tiling)", file=sys.stderr)
            return 2
        perm = parse_permutation(args.perm)
        word = forward(args.class_id, perm)
    payload = {
        "bijection": args.bijection,
        "class": args.class_id,
        "direction": "inverse" if args.inverse else "forward",
        "perm": perm,
        "tiling": word,
    }
    _emit(args, payload, lambda: [format_permutation(perm) if args.inverse else word])
    return 0


def cmd_fib(args) -> int:
    _check_cap("--n", args.n, FIB_MAX_N)
    value = fib_number(args.n)
    _emit(args, {"n": args.n, "fib": value}, lambda: [value])
    return 0


def cmd_verify(args) -> int:
    variants = VARIANTS if args.variants == "both" else (args.variants,)
    identity_ids = None if args.identity == "all" else [args.identity]
    result = run_verification(
        identity_ids,
        n_max=args.n_max,
        m_max=args.m_max,
        variants=variants,
        jobs=args.jobs,
    )
    stamp = (
        datetime.now(timezone.utc).isoformat(timespec="seconds")
        if args.stamp
        else None
    )
    doc = to_json_doc(result, stamp=stamp)
    if args.report:
        base, ext = os.path.splitext(args.report)
        md_path = base + ".md" if ext == ".json" else args.report
        json_path = args.report if ext == ".json" else base + ".json"
        reports = (
            (md_path, render_markdown(result, stamp=stamp)),
            (json_path, json.dumps(doc, indent=2) + "\n"),
        )
        for path, text in reports:
            try:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                print(f"error: cannot write report {path}: {exc.strerror or exc}",
                      file=sys.stderr)
                return 4
    stamp_lines = [f"stamp: {stamp}"] if stamp else []
    _emit(args, doc, lambda: stamp_lines + render_text(result).splitlines())
    return 0 if doc["resolved"] else 1


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it found it, so one serves every call;
    # build_parser is looked up at call time, so a wrapper put in its place
    # (bench/layertrace.py) sees the one build
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit code.  May be called any
    number of times in one process; every call reuses one parser."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (SizeLimitError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeLimitError) else 4


if __name__ == "__main__":
    sys.exit(main())
