"""Shared generators and the independent columns-condition oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from radokit.linalg import RatMatrix, rank

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def random_matrix(
    rng: random.Random, max_rows: int = 3, max_cols: int = 8,
    lo: int = -3, hi: int = 3,
) -> RatMatrix:
    u = rng.randint(1, max_rows)
    v = rng.randint(1, max_cols)
    return RatMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(v)] for _ in range(u)]
    )


def random_prime_set(rng: random.Random):
    from radokit.rings import PrimeSet

    kind = rng.choice(["empty", "all", "finite", "cofinite"])
    if kind == "empty":
        return PrimeSet.empty()
    if kind == "all":
        return PrimeSet.all_primes()
    chosen = rng.sample(SMALL_PRIMES, rng.randint(1, 3))
    return PrimeSet.finite(chosen) if kind == "finite" else PrimeSet.cofinite(chosen)


def random_subring_element(rng: random.Random, primes) -> Fraction:
    """A rational guaranteed to lie in the subring for the given prime set."""
    if primes.kind == "empty":
        allowed = []
    elif primes.kind == "finite":
        allowed = sorted(primes.primes)
    elif primes.kind == "cofinite":
        allowed = [p for p in SMALL_PRIMES if p not in primes.primes]
    else:
        allowed = SMALL_PRIMES
    den = 1
    for _ in range(rng.randint(0, 2)):
        if allowed:
            den *= rng.choice(allowed)
    return Fraction(rng.randint(-30, 30), den)


def oracle_columns_condition(M: RatMatrix) -> bool:
    """Naive reference decision: enumerate ordered set partitions outright,
    testing admissibility by rank comparison.  No memoization, no witness
    bookkeeping; deliberately a different route from the production search.
    """
    cols = [M.column(j) for j in range(M.cols)]
    zero = tuple(Fraction(0) for _ in range(M.rows))

    def colsum(idx):
        return tuple(sum(cols[j][i] for j in idx) for i in range(M.rows))

    def admissible(used, block):
        target = colsum(block)
        base = RatMatrix.from_rows(
            [[cols[j][i] for j in used] for i in range(M.rows)]
        )
        ext = RatMatrix.from_rows(
            [[cols[j][i] for j in used] + [target[i]] for i in range(M.rows)]
        )
        return rank(base) == rank(ext)

    def extend(used, remaining):
        if not remaining:
            return True
        rem = sorted(remaining)
        for size in range(1, len(rem) + 1):
            for block in combinations(rem, size):
                if admissible(used, block):
                    if extend(used + list(block), remaining - set(block)):
                        return True
        return False

    all_idx = list(range(M.cols))
    for size in range(1, M.cols + 1):
        for block in combinations(all_idx, size):
            if colsum(block) == zero:
                if extend(list(block), set(all_idx) - set(block)):
                    return True
    return False


def oracle_extends(M: RatMatrix, used) -> bool:
    """Naive reference: can the used columns (in any order) be continued by
    later blocks to a full columns-condition partition?  The same ordered
    enumeration and rank test as oracle_columns_condition's inner search,
    started from a given used set instead of from each zero-sum first block.
    """
    cols = [M.column(j) for j in range(M.cols)]

    def colsum(idx):
        return tuple(sum(cols[j][i] for j in idx) for i in range(M.rows))

    def admissible(used, block):
        target = colsum(block)
        base = RatMatrix.from_rows(
            [[cols[j][i] for j in used] for i in range(M.rows)]
        )
        ext = RatMatrix.from_rows(
            [[cols[j][i] for j in used] + [target[i]] for i in range(M.rows)]
        )
        return rank(base) == rank(ext)

    def extend(used, remaining):
        if not remaining:
            return True
        rem = sorted(remaining)
        for size in range(1, len(rem) + 1):
            for block in combinations(rem, size):
                if admissible(used, block):
                    if extend(used + list(block), remaining - set(block)):
                        return True
        return False

    used = list(used)
    return extend(used, set(range(M.cols)) - set(used))
