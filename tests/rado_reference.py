"""The columns_condition that eliminated the used columns from scratch at
every step, the Gauss-Jordan elimination, the packing and the mask reader
it called, kept verbatim as the reference of the differential tests of the
carried reduced rows and of the sign and zero-residual lemmas.  It packs
every unused column and searches at every step, with no pruning."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from radokit.linalg import RatMatrix, _integer_rows
from radokit.rado import MAX_COLUMNS, CCCertificate, _least_zero_sum
from radokit.rings import Rat


def _pack(vectors: list[list[int]]) -> list[int]:
    """One int per vector, digits in a balanced base W, so that a sum of any
    subset of the vectors is zero exactly when the packed sum is zero.

    Every coordinate of such a sum lies strictly inside (-W/2, W/2), and
    balanced base-W digits in that range determine the vector.  Each packed
    int is built by Horner's rule, one multiply and one add per coordinate,
    with no power of W computed.
    """
    bound = max((abs(x) for vec in vectors for x in vec), default=0)
    base = 2 * len(vectors) * bound + 1
    packed = []
    for vec in vectors:
        n = 0
        for x in reversed(vec):
            n = n * base + x
        packed.append(n)
    return packed


def _mask_bits(mask: int) -> list[int]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def _eliminate(rows: list[list[int]], cols: int) -> list[int]:
    """Gauss-Jordan elimination of the first cols columns of integer rows,
    in place; returns the pivot columns.

    The entries past column cols take part in every row operation but are
    never pivots, so rows past the rank end up zero on the first cols
    columns and hold, past them, what is left of each later column modulo
    the span of those columns.

    Fraction-free: clearing column c from row i replaces it by
    a * row_i - b * row_r, where a/b is the pivot over row i's entry in
    lowest terms, and the result is divided by the gcd of its entries.
    Each row thus stays a nonzero multiple of the row that Fraction
    elimination with the same pivots would hold, so dividing a pivot row by
    its pivot gives the reduced row echelon form's row.
    """
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, top)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def columns_condition(A: RatMatrix) -> CCCertificate | None:
    """Find the canonical columns-condition certificate, or None if there is
    none.

    The canonical certificate is the lexicographically least sequence of
    used-column masks: each block is the numerically least admissible
    bitmask of unused columns, the first one zero-sum and each later one
    summing into the span of the columns used so far.  It is built by a
    greedy chain with no backtracking, which the extension lemma allows:

      If some partition B_1..B_k satisfies the columns condition, then every
      used set U whose first block sums to zero extends to a certificate.
      Proof: the nonempty B_i minus U, in order, continue U, because
      sum(B_i - U) = sum(B_i) - sum(B_i & U), where the first term lies in
      span(B_1..B_{i-1}) (or is 0 for i = 1) and the second in span(U), so
      both lie in the span of U and the restricted blocks before B_i - U.

    So a depth-first search over ordered partitions in ascending mask order
    never backtracks on a yes-instance: the first admissible block at each
    step always extends, and the greedy chain is that search's answer.  On
    a no-instance the chain stops at its first dead end.

    Each step is one integer elimination.  The rows of A, scaled to
    integers, are laid out with the used columns first, in ascending order,
    and the unused columns after them, and _eliminate reduces the used
    columns only (the first step, with nothing used, skips it).  The rows
    past the rank are then zero on the used columns, and their entries in
    the unused columns are the residuals: a block sums into span(used)
    exactly when its residuals sum to zero.  The first block and every
    later one are thus one problem, the least nonempty zero-sum submask,
    solved by meet in the middle: a step builds at most
    2^floor(v/2) + 2^ceil(v/2) subset sums, and there are at most v steps,
    so a call costs O(v * 2^(v/2)) subset sums and at most v eliminations
    of u x v integers.  The rows up to the rank give the block's witness:
    each is a multiple of the reduced row echelon form's row, so the sum
    of the block's entries in that row over the row's pivot entry is the
    pivot column's coefficient, and every other column's is zero.  That is
    the solution with every free variable set to zero, and scaling a row
    of A by a positive constant changes neither the pivots nor these
    ratios, so it is the Fraction witness of A's own columns.
    """
    if A.cols > MAX_COLUMNS:
        raise ValueError(
            f"columns_condition handles at most {MAX_COLUMNS} columns, got {A.cols}"
        )
    if A.cols == 0:
        return None
    rows = _integer_rows(map(A.row, range(A.rows)))
    used: list[int] = []
    unused = list(range(A.cols))
    blocks: list[tuple[int, ...]] = []
    witnesses: list[tuple[Rat, ...]] = []
    while unused:
        k = len(used)
        order = used + unused
        if used:
            reduced = [[row[j] for j in order] for row in rows]
            pivots = _eliminate(reduced, k)
        else:
            reduced, pivots = rows, []
        rest = reduced[len(pivots):]
        residuals = [[row[p] for row in rest] for p in range(k, len(order))]
        local = _least_zero_sum(_pack(residuals))
        if local is None:
            return None
        positions = [k + i for i in _mask_bits(local)]
        if used:
            witness = [Fraction(0)] * k
            for row, c in zip(reduced, pivots):
                witness[c] = Fraction(sum(row[p] for p in positions), row[c])
            witnesses.append(tuple(witness))
        block = tuple(order[p] for p in positions)
        blocks.append(block)
        used = sorted(used + list(block))
        unused = [j for j in unused if j not in block]
    return CCCertificate(tuple(blocks), tuple(witnesses))
