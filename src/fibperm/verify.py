"""Identity verification engine.

Thirteen identity families are registered, each checked over a parameter
range against independently computed ground truth (enumeration, brute-force
filtering, or a second derivation route).  A family is a lazy stream of
cases (parameters, truth, formula, note); one engine, ``_run_cases``, reads
a stream up to its first mismatch and turns it into a report, under one or
both of the variants that ``corrections`` defines.  One helper names the
smallest key where two sparse rows (distributions, polynomials) differ.

A verification run is *resolved* when every (identity, class) unit passes
in at least one evaluated variant and every correction entry that was
exercised validated.  ``render_text``, ``render_markdown`` and
``to_json_doc`` serialize a run deterministically (no timestamps unless an
explicit stamp is passed).  They share one formatter for what a failing
report found, one unit label, one tuple of correction fields and one
builder of the unresolved and registry-problem lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from math import comb
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

from .bijections import tiling_bijection
from .classes import (
    CLASS_IDS,
    CLASS_SPECS,
    GENERATE_MAX_N,
    _decompose,
    check_class_id,
    class_spec,
    compose,
    count,
    generate,
    patterns_of,
)
from .corrections import CORRECTIONS, Correction, applied, corrections_for
from .errors import (
    DomainError,
    ExcludedTilingError,
    NotEvaluableError,
    NotInClassError,
    check_choice,
    shorten,
)
from .fib import fib_number, tilings
from .genfun import (
    ONE,
    Q,
    V,
    Poly,
    _fibonacci_fold,
    _recurrence_levels,
    genfun_addition,
    genfun_closed,
    genfun_oracle,
)
from .perms import BRUTE_FORCE_MAX_N, brute_force_av
from .stats import (
    VARIANTS,
    binomial,
    check_variant,
    distribution_formula,
    distribution_oracle,
    fib_inv_count,
    inv_distribution_formula,
)

__all__ = [
    "IDENTITY_IDS",
    "IdentityReport",
    "Correction",
    "CORRECTIONS",
    "VerificationResult",
    "check_identity",
    "run_verification",
    "render_text",
    "render_markdown",
    "to_json_doc",
]

# At any --n-max, bijection-image maps every member up to length 12 and
# fib-inv folds the Fibonacci permutations up to length 16: this bounds
# their time, well inside the module caps (26 for generate and the G_n
# oracle, 27 cells for tilings).  The scalar identities run at least to 30.
_BIJECTION_MAX_N = 12
_SCALAR_MIN_RANGE = 30
_FIB_ENUM_MAX_N = 16
# The *-dist families check this far past the largest inversion count C(n,2).
_INV_MARGIN = 2

# One comparison: (parameters, truth, formula, note on failure).  ``truth``
# is the enumerated or recomputed side and is reported as ``lhs``.
Case = tuple[dict, object, object, str]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity under one variant.

    ``status`` is ``"pass"``, ``"fail"``, or ``"not-evaluable"``;
    ``first_mismatch`` (when failing) holds the smallest offending
    parameters, the coefficient exponent where applicable, and the two
    sides: ``lhs`` is the recomputed/enumerated truth, ``rhs`` the formula
    as evaluated.
    """

    identity_id: str
    class_id: Optional[str]
    variant: str
    parameter_range: str
    status: str
    first_mismatch: Optional[dict]
    notes: str


def _first_difference(truth: dict, formula: dict):
    """``(key, lhs, rhs)`` at the smallest key where two sparse rows differ;
    a key missing from a row reads 0."""
    key = min(k for k in truth.keys() | formula.keys() if truth.get(k, 0) != formula.get(k, 0))
    return key, truth.get(key, 0), formula.get(key, 0)


def _difference(truth, formula):
    """``(exponent, lhs, rhs)`` where two unequal sides first differ.

    Polynomials are compared coefficient by coefficient from the smallest
    exponent (v, q); member lists by their entries at the first position
    where they differ, None past the end of one; word sets by the smallest
    element of each side that the other lacks, None if it lacks none.
    """
    if isinstance(truth, Poly):
        return _first_difference(dict(truth.terms()), dict(formula.terms()))
    if isinstance(truth, list):
        return next((None, a, b) for a, b in itertools.zip_longest(truth, formula) if a != b)
    if isinstance(truth, set):
        return None, min(truth - formula, default=None), min(formula - truth, default=None)
    return None, truth, formula


def _run_cases(cases: Iterator[Case]) -> tuple[str, Optional[dict], str]:
    """Status, first mismatch and failure note of a case stream.  The stream
    is consumed only up to its first mismatch."""
    try:
        for parameters, truth, formula, note in cases:
            if truth != formula:
                exponent, lhs, rhs = _difference(truth, formula)
                mismatch: dict = {"parameters": parameters}
                if exponent is not None:
                    mismatch["exponent"] = {"v": exponent[0], "q": exponent[1]}
                mismatch.update(lhs=lhs, rhs=rhs)
                return "fail", mismatch, note
    except NotEvaluableError as exc:
        return "not-evaluable", None, str(exc)
    except DomainError as exc:
        # a refusal by the library under test is its failure, not bad input
        return "fail", None, f"{type(exc).__name__}: {exc}"
    return "pass", None, ""


def _check_bounds(n_max: int, m_max: Optional[int]) -> None:
    """Refuse a bound under 1, as the CLI's ``_positive_int`` does."""
    for name, bound in (("n_max", n_max), ("m_max", 1 if m_max is None else m_max)):
        if bound < 1:
            raise DomainError(f"{name} must be >= 1; got {shorten(str(bound))}")


def _bounds(identity_id, class_id, variant, n_max, m_max) -> SimpleNamespace:
    """Every bound the case streams and the range strings use."""
    fixes = applied(variant, identity_id, class_id)
    n_gen = min(n_max, GENERATE_MAX_N)
    n_scalar = max(_SCALAR_MIN_RANGE, n_max)
    # m, n >= 2 and m + n <= GENERATE_MAX_N, so neither part exceeds this
    add_max = GENERATE_MAX_N - 2
    n_add = min(max(n_max, 2), add_max)
    return SimpleNamespace(
        n_gen=n_gen,
        n_brute=min(n_gen, BRUTE_FORCE_MAX_N),
        n_bij=min(n_max, _BIJECTION_MAX_N),
        n_gf=min(max(n_max, 3), GENERATE_MAX_N),
        n_scalar=n_scalar,
        n_fib_enum=min(n_scalar, _FIB_ENUM_MAX_N),
        n_add=n_add,
        m_add=min(max(n_add if m_max is None else m_max, 2), add_max),
        mn_max=GENERATE_MAX_N,
        # the stated forms: eq1 sums from k = 1, the G_n recurrence holds from n = 2
        sum_start=1 if "eq1.sum-from-0" not in fixes else 0,
        rec_start=2 if "gf-recurrence.from-3" not in fixes else 3,
        bijection=tiling_bijection(class_id)[0] if class_id else None,
    )


# ---------------------------------------------------------------------------
# case streams, one per family: (class_id, variant, bounds) -> cases


def _counts_cases(class_id, variant, b) -> Iterator[Case]:
    # members are built only where the brute-force filter can check them;
    # past that, the cached G_n oracle counts them without building any
    for n in range(1, b.n_brute + 1):
        members = generate(class_id, n)
        yield {"n": n}, len(members), count(class_id, n), (
            "closed-form count disagrees with the structural generator"
        )
        yield {"n": n}, brute_force_av(n, patterns_of(class_id)), members, (
            "structural generator disagrees with the brute-force filter"
        )
    for n in range(b.n_brute + 1, b.n_gen + 1):
        yield {"n": n}, genfun_oracle(class_id, n).evaluate(1, 1), count(class_id, n), (
            "closed-form count disagrees with G_n(1, 1)"
        )


@lru_cache(maxsize=None)
def _structure_disagreement(class_id: str, n: int) -> Optional[str]:
    """Where the shape parse first disagrees with the pattern oracle at
    length n, as a failure note; None when it never does.

    The candidates are every permutation for n <= 6, else every one-point
    extension of a length-(n-1) member (some value v inserted anywhere, the
    values >= v shifted up): all the members and the non-members nearest
    the class boundary, all permutations by construction, so each is
    parsed without ``decompose``'s validation."""
    spec = class_spec(class_id)
    patterns = spec.patterns
    members = set(brute_force_av(n, patterns))
    if n <= 6:
        candidates = itertools.permutations(range(1, n + 1))
    else:
        candidates = dict.fromkeys(
            shifted[:i] + (v,) + shifted[i:]
            for q in brute_force_av(n - 1, patterns)
            for v in range(1, n + 1)
            for shifted in (tuple(x + (x >= v) for x in q),)
            for i in range(n)
        )
    for p in candidates:
        if not p and spec.kind == "B":
            continue  # the empty B-type member has no pre-part to parse
        try:
            parsed = _decompose(spec, p)
        except NotInClassError:
            if p in members:
                return f"member {p} was rejected by decompose"
            continue
        if p not in members:
            return f"non-member {p} was not rejected by decompose"
        if compose(class_id, parsed) != p:
            return f"decompose/compose round-trip failed on {p}"
    return None


def _structure_cases(class_id, variant, b) -> Iterator[Case]:
    for n in range(0, b.n_brute + 1):
        # the pattern oracle and the parse agree (None), or the note says
        # where they first part, naming the permutation in every report
        note = _structure_disagreement(class_id, n)
        yield {"n": n}, None, note, note


def _decodes(inverse, class_id: str, word: str) -> bool:
    try:
        inverse(class_id, word)
    except ExcludedTilingError:
        return False
    return True


def _bijection_cases(class_id, variant, b) -> Iterator[Case]:
    _, forward, inverse = tiling_bijection(class_id)
    for n in range(1, b.n_bij + 1):
        members = generate(class_id, n)
        words = set(tilings(n + 1))
        excluded = ("d" + "m" * (n - 1)) if b.bijection == "phi" else ("m" * (n + 1))
        image = set()
        for p in members:
            # round trips make the map injective; the image is then checked as a set
            w = forward(class_id, p)
            yield {"n": n}, 1, int(inverse(class_id, w) == p), (
                f"round-trip failed on {p} (word {w!r})"
            )
            image.add(w)
        yield {"n": n}, words - {excluded}, image, (
            f"image differs from all words minus {excluded!r}"
        )
        yield {"n": n}, 0, int(_decodes(inverse, class_id, excluded)), (
            f"excluded word {excluded!r} unexpectedly decoded"
        )


def _dist_cases(stat: str, note: str, class_id, variant, b) -> Iterator[Case]:
    # one stream for inv-dist, fib-dist and joint-dist: the closed form's
    # row at each n against the enumerated tabulation, both nonzero dicts;
    # a row that differs yields one case, at its smallest differing key.
    for n in range(1, b.n_gen + 1):
        oracle = distribution_oracle(class_id, n, stat)
        row = distribution_formula(class_id, n, stat, variant, inv_margin=_INV_MARGIN)
        if row != oracle:
            key, truth, value = _first_difference(oracle, row)
            cell = {"k": key[0], "j": key[1]} if stat == "joint" else {"k": key}
            yield {"n": n, **cell}, truth, value, note


def _gf_closed_cases(class_id, variant, b) -> Iterator[Case]:
    for n in range(3, b.n_gf + 1):
        yield (
            {"n": n},
            genfun_oracle(class_id, n),
            genfun_closed(class_id, n, variant),
            "summation formula disagrees with enumeration",
        )


def _gf_recurrence_cases(class_id, variant, b) -> Iterator[Case]:
    # one pass of the recurrence: G_1, G_2, then each G_n the loop reads
    levels = _recurrence_levels(class_spec(class_id))
    for n, formula in zip((1, 2), levels):
        yield {"n": n}, genfun_oracle(class_id, n), formula, (
            "base case disagrees with enumeration"
        )
    for n in range(b.rec_start, b.n_gf + 1):
        truth = genfun_oracle(class_id, n)
        if n == 2:
            # instantiate the recurrence itself at its claimed lower edge
            head = Poly.monomial(1, 0, class_spec(class_id).tail_q_exponent(2))
            formula = (
                head
                + V * genfun_oracle(class_id, 1)
                + Q * V * V * genfun_oracle(class_id, 0)
            )
            yield {"n": n}, truth, formula, (
                "the n = 2 instance adds a spurious tail monomial"
            )
        else:
            yield {"n": n}, truth, next(levels), (
                "recurrence disagrees with enumeration"
            )


def _gf_addition_cases(class_id, variant, b) -> Iterator[Case]:
    for m in range(2, b.m_add + 1):
        for n in range(2, b.n_add + 1):
            if m + n <= GENERATE_MAX_N:
                yield (
                    {"m": m, "n": n},
                    genfun_oracle(class_id, m + n),
                    genfun_addition(class_id, m, n, variant),
                    "length-splitting formula disagrees with enumeration",
                )


def _an_recurrence_cases(class_id, variant, b) -> Iterator[Case]:
    for n in range(3, b.n_scalar + 1):
        lhs = fib_number(n + 1) - 1
        yield {"n": n}, lhs, (fib_number(n) - 1) + (fib_number(n - 1) - 1) + 1, ""


def _eq1_cases(class_id, variant, b) -> Iterator[Case]:
    total = 0  # F(sum_start) + ... + F(n), kept running
    for n in range(b.sum_start, b.n_scalar + 1):
        total += fib_number(n)
        yield {"n": n}, total, fib_number(n + 2) - 1, (
            "the sum must start at k = 0 to reach F(n+2) - 1"
        )


def _hockey_stick_cases(class_id, variant, b) -> Iterator[Case]:
    columns: list[int] = []  # columns[r] = C(r, r) + ... + C(n, r), kept running
    for n in range(0, b.n_scalar + 1):
        columns.append(0)
        for r in range(0, n + 1):
            columns[r] += comb(n, r)
            yield {"n": n, "r": r}, columns[r], comb(n + 1, r + 1), ""
    # consistency: the A-type tail sums collapse to the closed forms used by
    # inv_distribution_formula (the sum is 0 while k is below the exponent).
    # The A-type exponent is constant in n (3 for A1, 2 for A2), so each
    # (class, k) keeps one running sum over t = 0 .. n-3.
    a_specs = [
        (spec.class_id, spec.tail_q_exponent(0))
        for spec in CLASS_SPECS.values()
        if spec.kind == "A"
    ]
    tails = {class_id: [0] * (b.n_scalar + 1) for class_id, _ in a_specs}
    for n in range(1, b.n_scalar + 1):
        for class_id, e in a_specs:
            if n >= 3:  # the sum gains its term t = n - 3
                tail = tails[class_id]
                for k in range(0, b.n_scalar + 1):
                    tail[k] += binomial(n - 3 - (k - e), k - e)
        for k in range(0, n + 1):
            for class_id, e in a_specs:
                yield (
                    {"n": n, "k": k},
                    binomial(n - k, k) + tails[class_id][k],
                    inv_distribution_formula(class_id, n, k),
                    f"{class_id} tail sum does not collapse to the closed form",
                )


def _fib_inv_cases(class_id, variant, b) -> Iterator[Case]:
    polys = [ONE, ONE]
    for _ in range(2, b.n_scalar + 1):
        polys.append(polys[-1] + Q * polys[-2])
    for n in range(0, b.n_scalar + 1):
        for k in range(0, n // 2 + 2):
            yield {"n": n, "k": k}, polys[n].coefficient(0, k), fib_inv_count(n, k), (
                "recurrence-built inversion polynomial disagrees"
            )
    # every Fibonacci permutation has fib = n, so the enumerated count with
    # k inversions is the v^n q^k coefficient of their cached fold
    for n in range(0, b.n_fib_enum + 1):
        counted = _fibonacci_fold(n)
        for k in range(0, n // 2 + 2):
            yield {"n": n, "k": k}, counted.coefficient(n, k), fib_inv_count(n, k), (
                "enumeration disagrees with C(n-k, k)"
            )


# ---------------------------------------------------------------------------
# registry of identity families


@dataclass(frozen=True)
class IdentityFamily:
    """One identity family.  ``parameter_range`` and ``pass_note`` are
    format strings over the run's bounds (see ``_bounds``).  A
    ``variant_blind`` family's cases never read the variant and no
    correction is registered for it, so its bounds are the same under both
    variants: ``run_verification`` evaluates each of its units once and
    copies the report to the other variant."""

    identity_id: str
    title: str
    per_class: bool
    cases: Callable[[Optional[str], str, SimpleNamespace], Iterator[Case]]
    parameter_range: str
    pass_note: str
    variant_blind: bool = False


_DIST_NOTE = "closed form disagrees with enumeration"

FAMILIES: tuple[IdentityFamily, ...] = (
    IdentityFamily(
        "counts", "member count F(n+1) - 1", True, _counts_cases,
        "1 <= n <= {n_gen}",
        "count == members enumerated: |generate| to n = {n_brute}, G_n(1, 1) past it; "
        "brute-force cross-check to n = {n_brute}",
        variant_blind=True,
    ),
    IdentityFamily(
        "a_n-recurrence", "a_n = a_{n-1} + a_{n-2} + 1", False, _an_recurrence_cases,
        "3 <= n <= {n_scalar}",
        "a_n = a_{{n-1}} + a_{{n-2}} + 1 with a_n = F(n+1) - 1",
        variant_blind=True,
    ),
    IdentityFamily(
        "eq1", "sum of F(k) telescopes to F(n+2) - 1", False, _eq1_cases,
        "{sum_start} <= n <= {n_scalar}, summing from k = {sum_start}",
        "telescoping sum of Fibonacci numbers",
    ),
    IdentityFamily(
        "hockey-stick", "binomial column sums", False, _hockey_stick_cases,
        "0 <= r <= n <= {n_scalar}",
        "column sums collapse; A-type summation and closed forms agree",
        variant_blind=True,
    ),
    IdentityFamily(
        "fib-inv", "inversions over Fibonacci permutations are C(n-k, k)", False,
        _fib_inv_cases,
        "0 <= n <= {n_scalar}; enumeration to n = {n_fib_enum}",
        "C(n-k, k) matches both the recurrence and enumeration",
        variant_blind=True,
    ),
    IdentityFamily(
        "inv-dist", "inversion distribution closed form", True,
        partial(_dist_cases, "inv", _DIST_NOTE),
        "1 <= n <= {n_gen}",
        "closed form matches enumeration at every k",
    ),
    IdentityFamily(
        "fib-dist", "Fibonacci-suffix statistic distribution", True,
        partial(_dist_cases, "fib",
                "no member can leave a Fibonacci suffix of length n-1 or n-2"),
        "1 <= n <= {n_gen}, 0 <= k <= n",
        "F(k) for k <= n-3, 0 on the impossible band {{n-2, n-1}}, F(n) at k = n",
    ),
    IdentityFamily(
        "joint-dist", "joint (fib, inv) distribution", True,
        partial(_dist_cases, "joint", _DIST_NOTE),
        "1 <= n <= {n_gen}, 0 <= k <= n, 0 <= j <= C(n,2)+2",
        "closed form matches enumeration at every (k, j)",
    ),
    IdentityFamily(
        "gf-closed", "G_n summation formula", True, _gf_closed_cases,
        "3 <= n <= {n_gf}",
        "summation formula matches enumeration",
    ),
    IdentityFamily(
        "gf-recurrence", "G_n two-step recurrence", True, _gf_recurrence_cases,
        "bases n = 1, 2; instances {rec_start} <= n <= {n_gf}",
        "recurrence matches enumeration",
    ),
    IdentityFamily(
        "gf-addition", "G_{m+n} length-splitting formula", True, _gf_addition_cases,
        "2 <= m <= {m_add}, 2 <= n <= {n_add}, m+n <= {mn_max}",
        "length-splitting formula matches enumeration",
    ),
    IdentityFamily(
        "bijection-image", "tiling bijection image", True, _bijection_cases,
        "1 <= n <= {n_bij}",
        "{bijection} bijects members with the (n+1)-cell words minus one excluded word",
        variant_blind=True,
    ),
    IdentityFamily(
        "structure-oracle", "shape parse vs pattern membership", True,
        _structure_cases,
        "0 <= n <= {n_brute}",
        "membership by patterns == membership by shape; all members round-trip",
        variant_blind=True,
    ),
)

IDENTITY_IDS: tuple[str, ...] = tuple(f.identity_id for f in FAMILIES)
_FAMILY_BY_ID = {f.identity_id: f for f in FAMILIES}


def _family(identity_id: str) -> IdentityFamily:
    return _FAMILY_BY_ID[check_choice("identity", identity_id, IDENTITY_IDS)]


def _unit_label(identity_id: str, class_id: Optional[str], form: str = "/{}") -> str:
    """``eq1``, ``gf-closed/B1``; markdown headings pass ``form=" ({})"``."""
    return identity_id + (form.format(class_id) if class_id else "")


def _resolved(by_variant: dict[str, "IdentityReport"]) -> bool:
    return any(r.status == "pass" for r in by_variant.values())


# ---------------------------------------------------------------------------
# running


def check_identity(
    identity_id: str,
    variant: str,
    *,
    n_max: int = 9,
    m_max: Optional[int] = None,
    class_id: Optional[str] = None,
) -> IdentityReport:
    """Evaluate one identity under one variant and return its report."""
    family = _family(identity_id)
    if family.per_class:
        if class_id is None:
            raise DomainError(f"identity {identity_id!r} is per-class; pass class_id")
        check_class_id(class_id)
    elif class_id is not None:
        raise DomainError(f"identity {identity_id!r} is global; class_id must be None")
    _check_bounds(n_max, m_max)
    bounds = _bounds(identity_id, class_id, variant, n_max, m_max)
    status, mismatch, note = _run_cases(family.cases(class_id, variant, bounds))
    return IdentityReport(
        identity_id=identity_id,
        class_id=class_id,
        variant=variant,
        parameter_range=family.parameter_range.format_map(vars(bounds)),
        status=status,
        first_mismatch=mismatch,
        notes=family.pass_note.format_map(vars(bounds)) if status == "pass" else note,
    )


@dataclass(frozen=True)
class VerificationResult:
    """All reports of one run plus the run's parameters."""

    n_max: int
    m_max: Optional[int]
    variants: tuple[str, ...]
    reports: tuple[IdentityReport, ...]

    def units(self) -> dict[tuple[str, Optional[str]], dict[str, IdentityReport]]:
        """Reports grouped as {(identity, class): {variant: report}}, in
        report order (``FAMILIES`` order for a ``run_verification`` result)."""
        grouped: dict[tuple[str, Optional[str]], dict[str, IdentityReport]] = {}
        for report in self.reports:
            key = (report.identity_id, report.class_id)
            grouped.setdefault(key, {})[report.variant] = report
        return grouped

    def unresolved_units(self) -> list[tuple[str, Optional[str]]]:
        """Units with no passing variant among those evaluated."""
        units = self.units()
        return [key for key, by_variant in units.items() if not _resolved(by_variant)]

    def registry_problems(self) -> list[str]:
        """Corrected units with a registered correction that did not pass."""
        return [
            f"correction for {_unit_label(*key)} "
            f"did not validate: corrected variant {report.status}"
            for key, by_variant in self.units().items()
            if (report := by_variant.get("corrected")) is not None
            and report.status != "pass"
            and corrections_for(*key)
        ]

    @property
    def resolved(self) -> bool:
        return not self.unresolved_units() and not self.registry_problems()


def _unit_reports(family, class_id, variants, n_max, m_max) -> list[IdentityReport]:
    """One unit's reports, one per variant; a variant-blind unit is
    evaluated under the first variant alone."""
    evaluated = variants[:1] if family.variant_blind else variants
    reports = [
        check_identity(family.identity_id, variant, n_max=n_max, m_max=m_max, class_id=class_id)
        for variant in evaluated
    ]
    return reports + [replace(reports[0], variant=v) for v in variants[len(evaluated):]]


def run_verification(
    identity_ids: Optional[list[str]] = None,
    *,
    n_max: int = 9,
    m_max: Optional[int] = None,
    variants: tuple[str, ...] = VARIANTS,
) -> VerificationResult:
    """Evaluate the named identities (all 13 when None) under the given
    variants, one unit after another in this process, so that every unit
    shares the oracles' caches; a variant-blind unit is evaluated once and
    its report copied to the other variant.  Reports come out in
    ``FAMILIES`` order, each identity once."""
    if identity_ids is not None and not identity_ids:
        raise DomainError("no identity to check; pass None for all of them")
    for identity_id in identity_ids or ():
        _family(identity_id)
    _check_bounds(n_max, m_max)
    families = [f for f in FAMILIES if identity_ids is None or f.identity_id in identity_ids]
    requested = set(variants)
    for variant in requested:
        check_variant(variant)
    ordered_variants = tuple(v for v in VARIANTS if v in requested)
    reports = tuple(
        report
        for family in families
        for class_id in (CLASS_IDS if family.per_class else (None,))
        for report in _unit_reports(family, class_id, ordered_variants, n_max, m_max)
    )
    return VerificationResult(
        n_max=n_max, m_max=m_max, variants=ordered_variants, reports=reports
    )


# ---------------------------------------------------------------------------
# rendering


def _found(report: IdentityReport) -> str:
    """What a non-passing report found: its first mismatch, else its note."""
    mismatch = report.first_mismatch
    if not mismatch:
        return report.notes
    parts = ", ".join(f"{k}={v}" for k, v in mismatch["parameters"].items())
    if "exponent" in mismatch:
        e = mismatch["exponent"]
        parts += f" at v^{e['v']}*q^{e['q']}"
    return f"first mismatch {parts}: lhs {mismatch['lhs']}, rhs {mismatch['rhs']}"


def _outcome_lines(result: VerificationResult, prefix: str) -> tuple[list[str], list[str]]:
    """The run's unresolved-unit lines and registry-problem lines."""
    return (
        [f"{prefix}unresolved: {_unit_label(*key)}" for key in result.unresolved_units()],
        [f"{prefix}registry problem: {problem}" for problem in result.registry_problems()],
    )


def render_text(result: VerificationResult) -> str:
    """Fixed-width per-report lines plus a summary block."""
    header = f"{'identity':<16} {'class':<5} {'variant':<9} {'status':<13} details"
    lines = [header, "-" * len(header)]
    for r in result.reports:
        detail = r.parameter_range
        if r.status != "pass":
            detail += f"  [{_found(r)}]"
        lines.append(
            f"{r.identity_id:<16} {r.class_id or '-':<5} {r.variant:<9} "
            f"{r.status:<13} {detail}"
        )
    units = result.units()
    unresolved, problems = _outcome_lines(result, "  ")
    lines += [
        "",
        f"units: {len(units)}; resolved: {len(units) - len(unresolved)}; "
        f"unresolved: {len(unresolved)}",
        *unresolved,
        f"corrections registry: {len(CORRECTIONS)} entries"
        + ("" if problems else "; all exercised entries validated"),
        *problems,
        "overall: " + ("FAIL" if unresolved or problems else
                       "PASS (every unit passes in at least one evaluated variant)"),
    ]
    return "\n".join(lines) + "\n"


# the Correction fields a report spells out, in order
_CORRECTION_FIELDS = ("change", "reason", "counterexample")


def _correction_lines(corr: Correction) -> list[str]:
    return [f"- {field}: {getattr(corr, field)}" for field in _CORRECTION_FIELDS]


def render_markdown(result: VerificationResult, stamp: Optional[str] = None) -> str:
    """Markdown report: summary table, deviations, corrections registry."""
    lines = ["# Identity verification report", ""]
    m_text = "default" if result.m_max is None else str(result.m_max)
    lines.append(
        f"Parameters: n_max = {result.n_max}, m_max = {m_text}, "
        f"variants = {', '.join(result.variants)}."
    )
    if stamp:
        lines.append(f"Stamp: {stamp}")
    lines += ["", "## Summary", ""]
    lines.append("| identity | class | " + " | ".join(result.variants) + " | resolved |")
    lines.append("|---|---|" + "---|" * (len(result.variants) + 1))
    units = result.units()
    deviations = []
    for key, by_variant in units.items():
        cells = [by_variant[v].status if v in by_variant else "-" for v in result.variants]
        resolved = "yes" if _resolved(by_variant) else "NO"
        row = [key[0], key[1] or "-"] + cells + [resolved]
        lines.append("| " + " | ".join(row) + " |")
        paper = by_variant.get("paper")
        if paper is not None and paper.status != "pass":
            deviations.append((key, paper, by_variant.get("corrected")))
    lines += ["", "## Deviations from the stated forms", ""]
    if not deviations:
        lines.append("None: every identity holds as stated over the checked ranges.")
    for (identity_id, class_id), paper, corrected in deviations:
        lines += [
            f"### {_unit_label(identity_id, class_id, ' ({})')}: "
            f"{_FAMILY_BY_ID[identity_id].title}",
            "",
            f"- as stated: **{paper.status}** over {paper.parameter_range}; {_found(paper)}",
        ]
        if corrected is not None:
            lines.append(
                f"- corrected: **{corrected.status}** over {corrected.parameter_range}"
            )
        for corr in corrections_for(identity_id, class_id):
            lines += _correction_lines(corr)
        lines.append("")
    lines += ["## Corrections registry", ""]
    for corr in CORRECTIONS:
        heading = _unit_label(corr.identity_id, corr.class_id, " ({})")
        lines += [f"### {heading}", "", *_correction_lines(corr), ""]
    lines += ["## Outcome", ""]
    unresolved, problems = _outcome_lines(result, "- ")
    if unresolved or problems:
        lines += unresolved + problems
    else:
        lines.append(
            "All units pass in at least one evaluated variant and every "
            "exercised correction validated."
        )
    return "\n".join(lines) + "\n"


def to_json_doc(result: VerificationResult, stamp: Optional[str] = None) -> dict:
    """JSON-serializable document mirroring the markdown report."""
    return {
        "parameters": {
            "n_max": result.n_max,
            "m_max": result.m_max,
            "variants": list(result.variants),
        },
        "stamp": stamp,
        "reports": [
            {
                "identity": r.identity_id,
                "class": r.class_id,
                "variant": r.variant,
                "parameter_range": r.parameter_range,
                "status": r.status,
                "first_mismatch": r.first_mismatch,
                "notes": r.notes,
            }
            for r in result.reports
        ],
        "units": [
            {"identity": identity_id, "class": class_id, "resolved": _resolved(by_variant)}
            for (identity_id, class_id), by_variant in result.units().items()
        ],
        "resolved": result.resolved,
        "corrections": [
            {
                "identity": c.identity_id,
                "class": c.class_id,
                **{field: getattr(c, field) for field in _CORRECTION_FIELDS},
            }
            for c in CORRECTIONS
        ],
    }
