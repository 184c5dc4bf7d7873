"""The seeded query stream of the ``queries`` workload and its output checks.

Nothing here imports fibperm: inputs are drawn, and outputs are checked,
with this module's own code, so a defect in the library cannot hide itself
by shaping its own test data.

A query is one ``fibperm`` command line.  Each carries the exit code the
README documents for it.  A ``map`` query is a round trip of two calls: a
tiling word is decoded with ``--inverse`` and the permutation it yields is
mapped forward again, which must give the word back.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

CLASSES = ("A1", "A2", "B1", "B2")
A_CLASSES = ("A1", "A2")
N_MAX = 18  # member lists stay below 7,000 permutations
FIB_N_MAX = 25_000  # crosses the interpreter's 4,300-digit str limit near 20,600
ENUMERATE_CAP_PROBE = 27  # one past the documented generation cap of 26

SIZES = range(1, N_MAX + 1)
# The mix is an assumption, not observed traffic: the six subcommands of
# the query kinds get equal shares, and a subcommand's share is split
# equally between its methods (``dist`` oracle and formula, ``genfun``
# oracle, closed and recurrence).  Inside a method the variants whose cost
# differs (size, statistic, output format, and the class for cached oracle
# polynomials) are dealt round-robin, so a stream's cost does not hinge on
# how many large queries a seed draws.  ``rng`` picks the rest.
GROUPS = {
    "count": [[(n,) for n in SIZES]],
    "fib": [[()]],
    "enumerate": [[(n, fmt) for n in SIZES for fmt in ("text", "json")]],
    "dist": [[(stat, source, n) for stat in ("inv", "fib", "joint") for n in SIZES]
             for source in ("oracle", "formula")],
    "genfun": [
        [("oracle", n, cls) for n in SIZES for cls in CLASSES],
        [("closed", n, None) for n in SIZES if n >= 3],  # the formula needs n >= 3
        [("recurrence", n, None) for n in SIZES],
    ],
    "map": [[(n,) for n in SIZES]],
}
# Queries of each subcommand in a stream: a multiple of the 54 variants of
# each ``dist`` method and of the 72 ``genfun`` oracle keys, the costly
# ones, so each appears equally often.
PER_KIND = 216
# Inputs that must be rejected, also an assumed share: 18 of each kind, 4%
# of a stream's queries.
REJECTS = {"excluded": 18, "non-member": 18, "enumerate-cap": 18}

EXIT_OK, EXIT_SIZE, EXIT_INVALID = 0, 3, 4


@dataclass
class Query:
    kind: str
    argv: list
    expect_code: int
    params: dict = field(default_factory=dict)


def fibonacci(n: int) -> int:
    """F(n) with F(0) = F(1) = 1, by fast doubling on the standard sequence."""
    a, b = 0, 1
    for bit in bin(n + 1)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a


def member_count(n: int) -> int:
    return fibonacci(n + 1) - 1


def decimal(value: int) -> str:
    """Decimal digits of a non-negative int of any size.  Splits large values
    so that no single ``str`` call meets the interpreter's digit limit."""
    if value < 10**1000:
        return str(value)
    k = int(value.bit_length() * 0.30103 / 2)
    hi, lo = divmod(value, 10**k)
    return decimal(hi) + decimal(lo).rjust(k, "0")


def _contains(perm: tuple, pattern: tuple) -> bool:
    order = sorted(range(len(pattern)), key=pattern.__getitem__)
    for idx in itertools.combinations(range(len(perm)), len(pattern)):
        values = [perm[i] for i in idx]
        if sorted(range(len(values)), key=values.__getitem__) == order:
            return True
    return False


def _non_member(rng: random.Random) -> tuple:
    # Every class avoids 231 or 312, so a permutation holding both is
    # outside all four.
    n = rng.randint(6, 10)
    while True:
        perm = tuple(rng.sample(range(1, n + 1), n))
        if _contains(perm, (2, 3, 1)) and _contains(perm, (3, 1, 2)):
            return perm


def _tiling(rng: random.Random, cells: int) -> str:
    word = []
    while cells:
        tile = "d" if cells >= 2 and rng.random() < 0.4 else "m"
        word.append(tile)
        cells -= 2 if tile == "d" else 1
    return "".join(word)


def _excluded(class_id: str, n: int) -> str:
    return "d" + "m" * (n - 1) if class_id in A_CLASSES else "m" * (n + 1)


def _bijection(class_id: str) -> str:
    return "phi" if class_id in A_CLASSES else "rho"


def _query(rng: random.Random, kind: str, variant: tuple) -> Query:
    fmt = ["--format", rng.choice(("text", "json"))]
    cls = rng.choice(CLASSES)
    if kind == "count":
        (n,) = variant
        return Query(kind, ["count", "--class", cls, "--n-max", str(n)] + fmt, EXIT_OK, {"n": n})
    if kind == "fib":
        n = rng.randint(0, FIB_N_MAX)
        return Query(kind, ["fib", "--n", str(n)] + fmt, EXIT_OK, {"n": n})
    if kind == "enumerate":
        n, fmt[1] = variant
        return Query(kind, ["enumerate", "--class", cls, "--n", str(n)] + fmt, EXIT_OK, {"n": n})
    if kind == "dist":
        stat, source, n = variant
        argv = ["dist", "--class", cls, "--n", str(n), "--stat", stat, "--source", source]
        return Query(kind, argv + fmt, EXIT_OK, {"n": n})
    if kind == "genfun":
        method, n, fixed_class = variant
        cls = fixed_class or cls
        argv = ["genfun", "--class", cls, "--n", str(n), "--method", method]
        return Query(kind, argv + fmt, EXIT_OK, {"n": n})
    base = ["map", "--bijection", _bijection(cls), "--class", cls]
    if kind == "map":
        (n,) = variant
        word = _tiling(rng, n + 1)
        while word == _excluded(cls, n):
            word = _tiling(rng, n + 1)
        return Query(kind, base + ["--inverse", "--tiling", word] + fmt, EXIT_OK,
                     {"n": n, "word": word, "base": base, "fmt": fmt})
    (which,) = variant
    n = rng.randint(1, N_MAX)
    if which == "excluded":
        argv = base + ["--inverse", "--tiling", _excluded(cls, n)]
        return Query(which, argv + fmt, EXIT_INVALID)
    if which == "non-member":
        perm = " ".join(map(str, _non_member(rng)))
        return Query(which, base + ["--perm", perm] + fmt, EXIT_INVALID)
    argv = ["enumerate", "--class", cls, "--n", str(ENUMERATE_CAP_PROBE)]
    return Query(which, argv + fmt, EXIT_SIZE)


def _deal(group: list, k: int) -> list:
    return [group[i % len(group)] for i in range(k)]


def stream(rng: random.Random) -> list:
    """``PER_KIND`` queries of each subcommand and the ``REJECTS``, in
    random order.  ``rng`` also picks the classes, the output formats, the
    tiling words and the ``fib`` arguments."""
    deck = [
        (kind, v)
        for kind, groups in GROUPS.items()
        for group in groups
        for v in _deal(group, PER_KIND // len(groups))
    ]
    deck += [("reject", (which,)) for which, k in REJECTS.items() for _ in range(k)]
    rng.shuffle(deck)
    return [_query(rng, kind, variant) for kind, variant in deck]


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def _is_json(argv: list) -> bool:
    return argv[-1] == "json"


def _check_count(q: Query, out: str) -> Optional[str]:
    if _is_json(q.argv):
        rows = [(r["n"], r["count"]) for r in json.loads(out)["rows"]]
    else:
        rows = [tuple(map(int, line.split())) for line in out.splitlines()]
    want = [(n, member_count(n)) for n in range(1, q.params["n"] + 1)]
    return None if rows == want else "count rows differ from F(n+1) - 1"


def _check_fib(q: Query, out: str) -> Optional[str]:
    if _is_json(q.argv):
        doc = json.loads(out, parse_int=str)  # values past the digit limit
        got = (doc["n"], doc["fib"])
        want = (str(q.params["n"]), decimal(fibonacci(q.params["n"])))
    else:
        got, want = out, decimal(fibonacci(q.params["n"])) + "\n"
    return None if got == want else "wrong Fibonacci number"


def _check_enumerate(q: Query, out: str) -> Optional[str]:
    n = q.params["n"]
    if _is_json(q.argv):
        members = [tuple(p) for p in json.loads(out)["members"]]
    else:
        members = [tuple(map(int, line.split())) for line in out.splitlines()]
    if len(members) != member_count(n):
        return "member list length differs from F(n+1) - 1"
    if any(a >= b for a, b in zip(members, members[1:])):
        return "members are not sorted and distinct"
    full = tuple(range(1, n + 1))
    if any(tuple(sorted(p)) != full for p in members):
        return "a listed member is not a permutation of 1..n"
    return None


def _check_dist(q: Query, out: str) -> Optional[str]:
    if _is_json(q.argv):
        total = sum(e["count"] for e in json.loads(out)["distribution"])
    else:
        total = sum(int(line.split()[-1]) for line in out.splitlines())
    return None if total == member_count(q.params["n"]) else "distribution does not sum to the count"


def _check_genfun(q: Query, out: str) -> Optional[str]:
    if _is_json(q.argv):
        total = sum(t["coeff"] for t in json.loads(out)["terms"])
    else:
        total = sum(int(term.split("*")[0]) for term in out.strip().split(" + "))
    return None if total == member_count(q.params["n"]) else "G_n(1, 1) differs from the count"


def _map_perm(q: Query, out: str) -> Optional[tuple]:
    if _is_json(q.argv):
        return tuple(json.loads(out)["perm"])
    return tuple(map(int, out.split()))


def _map_word(q: Query, out: str) -> str:
    return json.loads(out)["tiling"] if _is_json(q.argv) else out.strip()


def _check_map_inverse(q: Query, out: str) -> Optional[str]:
    perm = _map_perm(q, out)
    if tuple(sorted(perm)) != tuple(range(1, q.params["n"] + 1)):
        return "decoded word is not a permutation of 1..n"
    return None


def _check_map_forward(q: Query, out: str) -> Optional[str]:
    return None if _map_word(q, out) == q.params["word"] else "map round trip changed the word"


CHECKS: dict[str, Callable[[Query, str], Optional[str]]] = {
    "count": _check_count,
    "fib": _check_fib,
    "enumerate": _check_enumerate,
    "dist": _check_dist,
    "genfun": _check_genfun,
    "map": _check_map_inverse,
    "map-forward": _check_map_forward,
}


def fib_over_digit_limit(q: Query) -> bool:
    """Whether a ``fib`` query's answer has more digits than the
    interpreter's int-to-str limit (0 means no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return q.kind == "fib" and limit > 0 and len(decimal(fibonacci(q.params["n"]))) > limit


@dataclass
class Tally:
    """Outcome counts over every call of a stream, warm-up included.
    ``failed`` counts refused and wrong calls alike.  The only call that
    may be refused is a ``fib`` query past the digit limit (exit 4 with an
    ``error:`` message); every other failure is ``wrong``: an output that
    broke an invariant, an exit code other than the documented one, or an
    exception out of ``cli.main``."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    fib_over_limit: int = 0
    by_kind: dict = field(default_factory=dict)
    first_wrong: list = field(default_factory=list)

    def record(self, q: Query, code: Optional[int], out: str, err: str) -> bool:
        """Check one call's result and count it; True when it succeeded."""
        self.attempted += 1
        kind_counts = self.by_kind.setdefault(q.kind, [0, 0])
        kind_counts[0] += 1
        over = fib_over_digit_limit(q)
        self.fib_over_limit += over
        problem = None
        if code == q.expect_code:
            if code == EXIT_OK:
                try:
                    problem = CHECKS[q.kind](q, out)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problem = f"unreadable output: {exc!r}"
            elif not err.startswith("error: "):
                problem = "rejection without an error message"
        elif not (over and code == EXIT_INVALID and err.startswith("error: ")):
            problem = f"exit code {code}, expected {q.expect_code}: {err.strip()[-200:]}"
        if code == q.expect_code and problem is None:
            return True
        self.failed += 1
        kind_counts[1] += 1
        if problem is not None:
            self.wrong += 1
            if len(self.first_wrong) < 5:
                self.first_wrong.append({"argv": q.argv, "problem": problem})
        return False


def run(seed: int, call: Callable, start_timed: Callable = lambda: None) -> tuple[list, Tally]:
    """Send a warm-up stream untimed, then a stream timed, both drawn from
    ``seed`` by ``stream``, one call after another (a ``map`` query makes
    two calls).  The warm-up holds every ``genfun`` oracle key once, so the
    timed stream starts from the same cache state whatever the seed.
    ``call(argv)`` returns ``(exit code or None, stdout, stderr,
    seconds)``; ``start_timed()`` runs between the two streams.  Returns
    the timed calls' latencies in seconds and the outcome tally of all
    calls."""
    rng = random.Random(seed)
    latencies: list = []
    tally = Tally()

    def send(q: Query, timing: bool) -> None:
        code, out, err, dt = call(q.argv)
        if timing:
            latencies.append(dt)
        if tally.record(q, code, out, err) and q.kind == "map":
            perm = " ".join(map(str, _map_perm(q, out)))
            argv = q.params["base"] + ["--perm", perm] + q.params["fmt"]
            send(Query("map-forward", argv, EXIT_OK, q.params), timing)

    for q in stream(rng):
        send(q, False)
    start_timed()
    for q in stream(rng):
        send(q, True)
    return latencies, tally
