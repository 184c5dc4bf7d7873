"""Exact enumeration, bijections, statistics, and identity checking for four
pattern-avoidance classes counted by F(n+1) - 1."""

from __future__ import annotations

from .classes import (
    CLASS_IDS,
    Decomposition,
    compose,
    count,
    decompose,
    generate,
    patterns_of,
)
from .bijections import phi, phi_inverse, rho, rho_inverse
from .fib import (
    fib_number,
    fib_permutations,
    fib_stat,
    is_fibonacci,
    perm_to_tiling,
    tiling_to_perm,
    tilings,
)
from .genfun import (
    Poly,
    fib_poly,
    genfun_addition,
    genfun_closed,
    genfun_oracle,
    genfun_recurrence,
)
from .perms import (
    brute_force_av,
    contains_pattern,
    direct_sum,
    inversions,
    make_permutation,
    skew_sum,
    standardize,
)
from .stats import (
    distribution_oracle,
    fib_distribution_formula,
    fib_inv_count,
    inv_distribution_formula,
    joint_distribution_formula,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CLASS_IDS",
    "Decomposition",
    "brute_force_av",
    "compose",
    "contains_pattern",
    "count",
    "decompose",
    "direct_sum",
    "distribution_oracle",
    "fib_distribution_formula",
    "fib_inv_count",
    "fib_number",
    "fib_permutations",
    "fib_poly",
    "fib_stat",
    "generate",
    "genfun_addition",
    "genfun_closed",
    "genfun_oracle",
    "genfun_recurrence",
    "inv_distribution_formula",
    "inversions",
    "is_fibonacci",
    "joint_distribution_formula",
    "make_permutation",
    "patterns_of",
    "perm_to_tiling",
    "phi",
    "phi_inverse",
    "rho",
    "rho_inverse",
    "skew_sum",
    "standardize",
    "tiling_to_perm",
    "tilings",
    "Poly",
]
