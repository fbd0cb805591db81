"""Columns condition and first-entries checks for rational matrices.

A matrix satisfies the columns condition when its columns admit an ordered
partition whose first block sums to the zero vector and each later block
sums to a rational combination of the columns already used.  That ordered
partition, together with the combination coefficients, is a checkable
certificate; this module finds certificates and re-verifies them.

Column indices are 0-based throughout the API (the CLI renders them
1-based).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RatMatrix, _eliminate, _integer_rows
from .rings import Rat

# Hard cap on column count: each step of the search is exponential in v/2.
MAX_COLUMNS = 32


@dataclass(frozen=True)
class CCCertificate:
    """Ordered column partition with span witnesses.

    blocks[0] sums to zero; for t >= 1, witnesses[t-1] lists coefficients
    over the earlier columns (the union of blocks[0..t-1], in ascending
    column order) reproducing the sum of block t's columns.
    """

    blocks: tuple[tuple[int, ...], ...]
    witnesses: tuple[tuple[Rat, ...], ...]


@dataclass(frozen=True)
class FirstEntryReport:
    """Leftmost nonzero entry of every row.

    entries holds (row, column, value) triples for the nonzero rows;
    zero_rows lists the rest.  all_equal says whether first entries agree
    within each column; common_value is the single shared value when all
    first entries across the whole matrix coincide, else None.
    """

    entries: tuple[tuple[int, int, Rat], ...]
    zero_rows: tuple[int, ...]
    all_equal: bool
    common_value: Rat | None

    def condition_holds(self, strict: bool = False) -> bool:
        """Whether the reported matrix satisfies the weak first entries
        condition: no zero rows, and first entries sharing a column are
        equal.  strict=True demands the classical stronger form: one
        constant shared by every first entry regardless of column."""
        if self.zero_rows:
            return False
        return self.common_value is not None if strict else self.all_equal


def _mask_bits(mask: int) -> list[int]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def _least_zero_sum(values: list[int]) -> int | None:
    """Numerically least nonempty mask s with sum(values[i] for i in s) == 0,
    or None.

    Meet in the middle (Horowitz-Sahni): the low half's submasks go into a
    table keyed by sum, keeping the least submask per sum; then the high
    half's submasks are scanned in ascending order.  The high bits decide
    numeric order, so the first high submask with a partner in the table,
    joined to that partner, is the least mask overall.  Subset sums are
    built in mask order, each from one with its lowest bit cleared.
    """
    h = len(values) // 2
    least_low: dict[int, int] = {}
    sums = [0]
    for s in range(1, 1 << h):
        low = s & -s
        t = sums[s ^ low] + values[low.bit_length() - 1]
        if t == 0:
            return s
        sums.append(t)
        least_low.setdefault(t, s)
    least_low[0] = 0
    sums = [0]
    for s in range(1, 1 << (len(values) - h)):
        low = s & -s
        t = sums[s ^ low] + values[h + low.bit_length() - 1]
        partner = least_low.get(-t)
        if partner is not None:
            return (s << h) | partner
        sums.append(t)
    return None


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


def verify_cc_certificate(A: RatMatrix, cert: CCCertificate) -> bool:
    """Recompute every certificate invariant against A.

    Out-of-range column indices are a malformed input and raise; a
    certificate that is well-formed but wrong returns False.
    """
    for block in cert.blocks:
        for j in block:
            if not 0 <= j < A.cols:
                raise ValueError(f"column index {j} outside 0..{A.cols - 1}")
    if not cert.blocks or any(not b for b in cert.blocks):
        return False
    flat = [j for block in cert.blocks for j in block]
    if sorted(flat) != list(range(A.cols)):
        return False
    if len(cert.witnesses) != len(cert.blocks) - 1:
        return False

    def block_sum(block: tuple[int, ...]) -> tuple[Rat, ...]:
        return tuple(sum(A.at(i, j) for j in block) for i in range(A.rows))

    if any(x != 0 for x in block_sum(cert.blocks[0])):
        return False
    earlier: list[int] = sorted(cert.blocks[0])
    for block, witness in zip(cert.blocks[1:], cert.witnesses):
        if len(witness) != len(earlier):
            return False
        target = block_sum(block)
        combo = tuple(
            sum(w * A.at(i, j) for w, j in zip(witness, earlier))
            for i in range(A.rows)
        )
        if combo != target:
            return False
        earlier = sorted(earlier + list(block))
    return True


def first_entries(A: RatMatrix) -> FirstEntryReport:
    """Locate the first (leftmost nonzero) entry of each row."""
    entries: list[tuple[int, int, Rat]] = []
    zero_rows: list[int] = []
    for i in range(A.rows):
        j = next((j for j in range(A.cols) if A.at(i, j) != 0), None)
        if j is None:
            zero_rows.append(i)
        else:
            entries.append((i, j, A.at(i, j)))
    by_column: dict[int, set[Rat]] = {}
    for _, j, v in entries:
        by_column.setdefault(j, set()).add(v)
    all_equal = all(len(vals) == 1 for vals in by_column.values())
    values = {v for _, _, v in entries}
    common = next(iter(values)) if len(values) == 1 else None
    return FirstEntryReport(tuple(entries), tuple(zero_rows), all_equal, common)
