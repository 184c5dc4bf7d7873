"""The formula variants, and the corrections registry that tells them apart.

``paper`` is each identity as originally stated, ``corrected`` the repaired
form where the stated one fails.  A formula never reads its variant: it
branches on whether one change id is in ``applied(variant, identity, class)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classes import CLASS_SPECS
from .errors import check_choice

VARIANTS = ("paper", "corrected")

__all__ = [
    "VARIANTS", "check_variant", "Correction", "CORRECTIONS", "corrections_for", "applied"
]


def check_variant(variant: str) -> str:
    """Return *variant* if known, else raise DomainError.

    >>> check_variant("corrected")
    'corrected'
    """
    return check_choice("variant", variant, VARIANTS)


@dataclass(frozen=True)
class Correction:
    """One registered repair: what changed relative to the stated form, why,
    a concrete counterexample and the ids of its atomic changes.  ``class_id``
    None means the repair applies to every class the identity covers."""

    identity_id: str
    class_id: Optional[str]
    change: str
    reason: str
    counterexample: str
    fixes: tuple[str, ...]


CORRECTIONS: tuple[Correction, ...] = (
    Correction(
        identity_id="eq1",
        class_id=None,
        change="the sum starts at k = 0 instead of k = 1",
        reason="F(0) = 1 under this indexing, so dropping the k = 0 term "
        "leaves the total one short of F(n+2) - 1",
        counterexample="n = 1: the k >= 1 sum is 1, but F(3) - 1 = 2",
        fixes=("eq1.sum-from-0",),
    ),
    Correction(
        identity_id="fib-dist",
        class_id=None,
        change="the count is F(k) only for 0 <= k <= n-3, with 0 at "
        "k in {n-2, n-1} and F(n) at k = n",
        reason="a Fibonacci suffix of length n-1 or n-2 forces the whole "
        "member to be Fibonacci, so those statistic values are impossible",
        counterexample="n = 1, k = 0: F(0) = 1 is claimed, but the only "
        "member (1) has statistic 1",
        fixes=("fib-dist.impossible-band",),
    ),
    Correction(
        identity_id="joint-dist",
        class_id="B2",
        change="the binomial is C(n-j-1, j+k+1-n) instead of "
        "C(2k+j+1-n, j+k+1-n)",
        reason="the upper index must count the free cells of the top part, "
        "which depends on n-j, not on k",
        counterexample="(n, k, j) = (5, 2, 3): the stated binomial gives "
        "C(3, 1) = 3; enumeration finds exactly 1 such member",
        fixes=("joint-dist.b2-binomial",),
    ),
    Correction(
        identity_id="gf-closed",
        class_id="B1",
        change="the summand exponent is q^C(n-j, 2) instead of q^C(j, 2)",
        reason="the j-th summand's pre-part has length n-j, so its "
        "inversion count is C(n-j, 2)",
        counterexample="n = 3: the stated form has constant term 1 where "
        "the enumeration has 0 (member 321 contributes q^3)",
        fixes=("gf-closed.head-length",),
    ),
    Correction(
        identity_id="gf-closed",
        class_id="B2",
        change="the summand exponent is q^(n-j-1) instead of q^(j-1)",
        reason="the j-th summand's pre-part has length n-j and contributes "
        "n-j-1 inversions; the stated exponent is negative at j = 0",
        counterexample="n = 3, j = 0: the stated form calls for q^-1 and "
        "cannot be evaluated",
        fixes=("gf-closed.head-length",),
    ),
    Correction(
        identity_id="gf-recurrence",
        class_id=None,
        change="the recurrence applies from n >= 3 (not n >= 2), on the "
        "bases G_1 = v and G_2 = v^2 + q v^2",
        reason="at n = 2 the head monomial double-counts: both recursive "
        "terms already cover all four members",
        counterexample="n = 2 for B1: the instance gives q + v^2 + q v^2, "
        "but G_2 = v^2 + q v^2",
        fixes=("gf-recurrence.from-3",),
    ),
    *(
        Correction(
            identity_id="gf-addition",
            class_id=spec.class_id,
            change="the straddling term's v-power is n+1 instead of n+2",
            reason="a domino across the cut joins the left part's run to the "
            "n-1 remaining right cells, leaving statistic n+1",
            counterexample="(m, n) = (2, 2): the coefficient of v^4 q is 3 by "
            "enumeration but 2 as stated (the stray mass sits at v^5 q)",
            fixes=("gf-addition.straddle",),
        )
        for spec in CLASS_SPECS.values()
        if spec.kind == "A"
    ),
    Correction(
        identity_id="gf-addition",
        class_id="B1",
        change="the straddling term's v-power is n+1, and the pre-part term "
        "is sum_{i=0}^{n-1} q^C(m+n-i, 2) v^i F_i(q)",
        reason="members whose pre-part crosses the cut have pre-length "
        "m+n-i for a length-i top part, giving C(m+n-i, 2) inversions; the "
        "stated third term tracks the wrong pre-lengths",
        counterexample="(m, n) = (2, 2): the enumeration needs v q^3 + q^6 "
        "from crossing pre-parts; the stated form contributes "
        "v + v^2 q^2 + v^3 q^5 + v^3 q^6 instead",
        fixes=("gf-addition.straddle", "gf-addition.b1-pre-part"),
    ),
    Correction(
        identity_id="gf-addition",
        class_id="B2",
        change="the straddling term's v-power is n+1, and the missing term "
        "q^(m+1) v^(n-2) F_{n-2}(q) is added",
        reason="a pre-part ending exactly one cell past the cut (length "
        "m+1, top part length n-2) is not covered by the stated terms",
        counterexample="(m, n) = (2, 2): the enumeration's q^3 term is "
        "absent as stated",
        fixes=("gf-addition.straddle", "gf-addition.b2-missing-term"),
    ),
)


def corrections_for(identity_id: str, class_id: Optional[str]) -> list[Correction]:
    """The registered corrections that cover one (identity, class) unit."""
    return [
        corr
        for corr in CORRECTIONS
        if corr.identity_id == identity_id and corr.class_id in (None, class_id)
    ]


def applied(variant: str, identity_id: str, class_id: Optional[str]) -> frozenset[str]:
    """The ids of the changes in force for one unit: none for ``paper``,
    every registered fix of the unit for ``corrected``.

    >>> sorted(applied("corrected", "gf-addition", "B2"))
    ['gf-addition.b2-missing-term', 'gf-addition.straddle']
    """
    check_variant(variant)
    if variant == "paper":
        return frozenset()
    corrs = corrections_for(identity_id, class_id)
    return frozenset(fix for corr in corrs for fix in corr.fixes)
