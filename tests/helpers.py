"""Independent reference implementations used as test oracles.

Everything here is written the slow, obviously-correct way so the fast
library code can be checked against it.
"""

from itertools import combinations, permutations

from hypothesis import strategies as st

from fibperm.perms import contains_pattern, standardize


def naive_contains(perm: tuple, pattern: tuple) -> bool:
    """Test containment by standardizing every subsequence."""
    k = len(pattern)
    if k > len(perm):
        return False
    return any(
        standardize(sub) == pattern for sub in combinations(perm, k)
    )


def naive_avoids_all(perm: tuple, patterns) -> bool:
    return not any(naive_contains(perm, p) for p in patterns)


_FIB_PATTERNS = ((2, 3, 1), (3, 1, 2), (3, 2, 1))


def naive_fib_stat(perm: tuple) -> int:
    """Longest suffix holding the top values whose pattern avoids
    231, 312, and 321; checked by trying every window length."""
    n = len(perm)
    best = 0
    for k in range(1, n + 1):
        window = perm[n - k:]
        if set(window) != set(range(n - k + 1, n + 1)):
            continue
        if naive_avoids_all(standardize(window), _FIB_PATTERNS):
            best = k
    return best


def naive_brute_force_av(n: int, patterns) -> list:
    """Length-n avoiders by filtering all n! permutations, in
    lexicographic order."""
    return [
        p
        for p in permutations(range(1, n + 1))
        if not any(contains_pattern(p, pat) for pat in patterns)
    ]


def naive_occurrence_maxima(perm: tuple, lengths) -> dict:
    """For each pattern of a length in *lengths* that *perm* contains, the
    indices at which one of its occurrences has its maximum, found by
    standardizing every subsequence."""
    maxima: dict = {}
    for k in lengths:
        for indices in combinations(range(len(perm)), k):
            pattern = standardize([perm[j] for j in indices])
            maxima.setdefault(pattern, set()).add(indices[pattern.index(k)])
    return maxima


def naive_pattern_masks(n_max: int, pool) -> dict:
    """For every permutation of length <= n_max, a bit mask of the patterns
    of *pool* it contains (bit b for pool[b]).  Read off the definition:
    a permutation contains q when it is q or when deleting one of its
    entries leaves a permutation that contains q.  One mask serves every
    pattern set drawn from the pool, so a factorial filter by it costs a
    lookup per permutation instead of a search per pattern."""
    bit = {pattern: 1 << b for b, pattern in enumerate(pool)}
    masks: dict = {}
    for n in range(n_max + 1):
        for perm in permutations(range(1, n + 1)):
            mask = bit.get(perm, 0)
            for j, v in enumerate(perm):
                mask |= masks[tuple(x - (x > v) for x in perm[:j] + perm[j + 1:])]
            masks[perm] = mask
    return masks


def naive_inversions(perm: tuple) -> int:
    """Inversions by comparing every pair."""
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def naive_fib_number(n: int) -> int:
    """F(n) with F(0) = F(1) = 1, one addition at a time."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def permutations_up_to(max_n: int):
    """Hypothesis strategy drawing one permutation of length 0..max_n."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
    )
