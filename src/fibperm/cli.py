"""Command-line interface.

Subcommands: count, enumerate, dist, genfun, map, fib, verify.  Every
subcommand takes ``--format text|json`` and prints through ``_emit``, the
one place that reads it; output is byte-deterministic (``verify --stamp``
is the one opt-in exception).  All JSON, on stdout and in the ``verify
--report`` twin, is ``json.dumps(payload, indent=2)``.  ``enumerate``
renders its member rows straight from the middle cut's products, each left
part and each block of right parts once, without building a member, and
prints them in blocks of at least ``_BLOCK`` members, in both formats; its
JSON stays byte for byte what ``json.dumps`` writes.

Exit codes (``_EXIT_CODES``, applied by ``main`` alone to what a subcommand
raises): 0 success, 1 verification failure, 2 usage error, 3 size cap
exceeded, 4 invalid input or an unwritable ``verify --report`` path; a
closed stdout also gives 4, with nothing printed.
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
from .classes import CLASS_IDS, GENERATE_MAX_N, _member_products, count
from .bijections import bijection_domain, tiling_bijection
from .errors import DomainError, SizeLimitError, shorten
from .fib import Product, _left_parts, fib_number, parse_tiling
from .genfun import genfun_closed, genfun_oracle, genfun_recurrence
from .perms import Perm, format_permutation, parse_permutation
from .stats import STATS, VARIANTS, distribution_formula, distribution_oracle
from .verify import (
    IDENTITY_IDS,
    render_markdown,
    render_text,
    run_verification,
    to_json_doc,
)

__all__ = [
    "main", "build_parser", "FIB_MAX_N", "COUNT_MAX_N", "FORMULA_MAX_N", "ARGV_MAX",
]

# Output caps for the exact big integers: F(100001) has 20,899 digits, and
# count --n-max 10000 prints about 10 MB.
FIB_MAX_N = 100_000
COUNT_MAX_N = 10_000
# Time cap for the formula-only genfun and dist commands and for verify
# --n-max, which grow polynomially in n with no enumeration cap: at n = 200
# dist --source formula takes at most about 0.1 s (stats refuses a joint
# distribution of more than 500,000 cells, which the stated B2 form passes
# from n = 102); genfun --method recurrence 89 s at 600, and verify
# --identity hockey-stick 44 s at 1000.
FORMULA_MAX_N = 200
# argparse's option parsing is quadratic in the number of argv tokens; the
# longest valid command line (verify with every option) has 14
ARGV_MAX = 64
# unrecognized arguments shown in a usage error
_SHOWN_WORDS = 8
# a usage error's stderr stays under this many bytes
_ERROR_BYTES = 300

# a quoted value in a usage error (argparse shows a value as its repr), or
# a bare word such as an unrecognized argument
_MESSAGE_WORD = re.compile(r"""(['"])(.*?)\1|\S+""")
# the list argparse appends to an invalid choice, which grows with the choices
_CHOICES = re.compile(r" \(choose from .*\)")


def _shorten_word(match: re.Match) -> str:
    quote, inner = match.group(1, 2)
    return quote + shorten(inner) + quote if quote else shorten(match.group())


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors show each value they quote
    shortened to 20 characters, argparse's list of choices only where the
    line then stays under ``_ERROR_BYTES``, and the usage only where stderr
    then stays under it too (verify's usage alone is longer);
    ``add_subparsers`` makes every subcommand parser one too."""

    def error(self, message: str):
        message = _MESSAGE_WORD.sub(_shorten_word, message)
        line = f"{self.prog}: error: {message}\n"
        if len(line.encode()) >= _ERROR_BYTES:
            line = f"{self.prog}: error: {_CHOICES.sub('', message)}\n"
        if len((self.format_usage() + line).encode()) < _ERROR_BYTES:
            self.print_usage(sys.stderr)
        self.exit(2, line)

    def parse_args(self, args=None, namespace=None):
        # argparse's own parse_args, but the one message whose word count
        # grows with the input lists at most _SHOWN_WORDS of its words
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            shown = extras[:_SHOWN_WORDS]
            if len(extras) > len(shown):
                shown.append(f"... ({len(extras) - len(shown)} more)")
            self.error("unrecognized arguments: " + " ".join(shown))
        return args


class _UsageError(Exception):
    """A combination of options that argparse cannot refuse on its own."""


_EXIT_CODES = {_UsageError: 2, SizeLimitError: 3, DomainError: 4}


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


# the decimal string of every value a generated member can hold
_VALUE_STRINGS = tuple(map(str, range(GENERATE_MAX_N + 1)))
# enumerate: a print holds at least this many members, plus at most one left
# part's rows, so no one string holds the whole list
_BLOCK = 4096


def _member_blocks(products: list[Product], sep: str, between: str = "\n") -> Iterator[str]:
    """The rows of the members ``products`` hold, lexicographically, each
    its values as decimal strings joined by ``sep``, joined by ``between``
    in strings of whole left parts' rows, each string ending at the first
    left part that brings it to ``_BLOCK`` rows.  ``between`` starts with a
    newline, so printing the strings one per line joins every row by it.

    Each row is its left part's string then its right part's, and a left
    part's rows are one join.  A left part is rendered once; a block of
    right parts once per call, in ``rendered``, which holds the block as
    well, so that no other object takes its id while the call lasts."""
    table = _VALUE_STRINGS
    rendered: dict[int, tuple[Sequence[Perm], list[str]]] = {}
    pieces: list[str] = []
    size = 0
    lead = ""
    for a, rights in _left_parts(products):
        entry = rendered.get(id(rights))
        if entry is None:
            strings = ["".join([sep + table[v] for v in b]) for b in rights]
            entry = rendered[id(rights)] = (rights, strings)
        left = sep.join([table[v] for v in a])
        pieces += (between, left, (between + left).join(entry[1]))
        size += len(rights)
        if size >= _BLOCK:
            pieces[0] = lead
            yield "".join(pieces)
            pieces.clear()
            size = 0
            lead = between[1:]
    if pieces:
        pieces[0] = lead
        yield "".join(pieces)


def _emit_json(payload: dict, products: Optional[list[Product]] = None) -> None:
    """Print ``json.dumps(payload, indent=2)``, with the members ``products``
    hold as its last key if given.  Those are printed as blocks of rows, byte
    for byte as ``json.dumps`` writes them, so no one string holds them all;
    each member must be non-empty."""
    if products is None:
        print(json.dumps(payload, indent=2))
        return
    print(json.dumps(payload, indent=2)[:-2] + ',\n  "members": [\n    [\n      ', end="")
    for block in _member_blocks(products, ",\n      ", "\n    ],\n    [\n      "):
        print(block)
    print("    ]\n  ]\n}")


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
    p_verify.add_argument(
        "--stamp", action="store_true",
        help="include a UTC timestamp in the report (off by default so "
        "output is byte-deterministic)",
    )
    finish(p_verify, cmd_verify)

    return parser


def _emit(args, payload: dict, text: Callable[[], Iterable], products=None) -> None:
    """Print ``payload`` (and ``enumerate``'s ``products``) through ``_emit_json``
    under ``--format json``, else each string of ``text()``, one or more lines,
    with a newline after it.  Both print with the digit limit lifted, so exact
    big integers print in full."""
    with _exact_int_output():
        if args.format == "json":
            _emit_json(payload, products)
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
    products = _member_products(args.class_id, args.n)
    payload = {"class": args.class_id, "n": args.n}
    if args.n:
        _emit(args, payload, lambda: _member_blocks(products, " "), products)
    else:  # the one member is empty: a blank line, or [] in json.dumps' layout
        _emit(args, {**payload, "members": [[]]}, lambda: [""])
    return 0


def cmd_dist(args) -> int:
    variant = args.variant if args.source == "formula" else None
    if args.source == "oracle":
        dist = distribution_oracle(args.class_id, args.n, args.stat)
    else:
        _check_cap("--n", args.n, FORMULA_MAX_N)
        dist = distribution_formula(args.class_id, args.n, args.stat, variant)
    if args.stat == "joint":
        rows = [{"fib": k, "inv": j, "count": c} for (k, j), c in dist.items()]
    else:
        rows = [{"k": k, "count": c} for k, c in dist.items()]
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
    if args.method != "oracle":
        _check_cap("--n", args.n, FORMULA_MAX_N)
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
        raise _UsageError(f"{args.bijection} applies to {'/'.join(domain)}, "
                          f"not {args.class_id}")
    _, forward, inverse = tiling_bijection(args.class_id)
    if args.inverse:
        if args.tiling is None or args.perm is not None:
            raise _UsageError("--inverse needs --tiling (and no --perm)")
        word = parse_tiling(args.tiling)
        perm = inverse(args.class_id, word)
    else:
        if args.perm is None or args.tiling is not None:
            raise _UsageError("forward mapping needs --perm (and no --tiling)")
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
    _check_cap("--n-max", args.n_max, FORMULA_MAX_N)
    variants = VARIANTS if args.variants == "both" else (args.variants,)
    identity_ids = None if args.identity == "all" else [args.identity]
    result = run_verification(
        identity_ids,
        n_max=args.n_max,
        m_max=args.m_max,
        variants=variants,
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
                raise DomainError(f"cannot write report {path}: "
                                  f"{exc.strerror or exc}") from exc
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        if len(argv) > ARGV_MAX:
            raise _UsageError(f"at most {ARGV_MAX} arguments; got {len(argv)}")
        args = _parser().parse_args(argv)  # argparse exits after its own messages
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # shutdown cannot fail too, and print nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
