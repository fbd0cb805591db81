"""Shared generators and the independent columns-condition oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from linalg_reference import rank
from radokit.linalg import RatMatrix
from radokit.rado import _insert

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def count_fractions(monkeypatch, reads: dict) -> None:
    """Add one to reads["fractions"] for every Fraction built from here on,
    in any module, Fraction arithmetic included: its constructor counts."""
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        reads["fractions"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)


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
        return PrimeSet()
    if kind == "all":
        return PrimeSet(complement=True)
    chosen = rng.sample(SMALL_PRIMES, rng.randint(1, 3))
    return PrimeSet.finite(chosen) if kind == "finite" else PrimeSet.cofinite(chosen)


def random_subring_element(rng: random.Random, primes) -> Fraction:
    """A rational guaranteed to lie in the subring for the given prime set."""
    if primes.complement:
        allowed = [p for p in SMALL_PRIMES if p not in primes.primes]
    else:
        allowed = sorted(primes.primes)
    den = 1
    for _ in range(rng.randint(0, 2)):
        if allowed:
            den *= rng.choice(allowed)
    return Fraction(rng.randint(-30, 30), den)


def dense(rows, cols: int) -> RatMatrix:
    """The matrix over `cols` columns of rows given as runs (column, count,
    value): `count` entries equal to `value` from `column` on."""
    return RatMatrix.from_rows([expand(row, cols) for row in rows])


def expand(runs, cols: int) -> list:
    """The dense row of the runs (column, count, value) over `cols` columns."""
    row = [0] * cols
    for j, count, x in runs:
        row[j:j + count] = [x] * count
    return row


def residuals(values, M: RatMatrix) -> tuple[Fraction, ...]:
    """Each row of M times the values, given in column order."""
    return tuple(sum((a * x for a, x in zip(M.row(i), values, strict=True)),
                     Fraction(0))
                 for i in range(M.rows))


def solves(values, M: RatMatrix) -> bool:
    """Whether the values, given in column order, zero every row of M."""
    return all(r == 0 for r in residuals(values, M))


def insert_columns(rows, columns) -> tuple[list[int], list[list[int]]]:
    """Integer rows after columns_condition's `_insert` takes `columns` in
    the order given: the pivot columns, ascending, and the rows, pivot rows
    in that order first and the rest rows, zero on `columns`, after them.
    The caller's rows are left as they are."""
    basis: list[tuple[int, list[int]]] = []
    rest = [list(row) for row in rows]
    for j in columns:
        _insert(basis, rest, j)
    return [c for c, _ in basis], [row for _, row in basis] + rest


def column(M: RatMatrix, j: int) -> tuple[Fraction, ...]:
    return tuple(M.at(i, j) for i in range(M.rows))


def oracle_columns_condition(M: RatMatrix) -> bool:
    """Naive reference decision: enumerate ordered set partitions outright,
    testing admissibility by rank comparison, with ranks from the Fraction
    rref of tests/linalg_reference.py.  No memoization, no witness
    bookkeeping, no integer elimination; deliberately a different route
    from the production search.
    """
    cols = [column(M, j) for j in range(M.cols)]
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
    cols = [column(M, j) for j in range(M.cols)]

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
