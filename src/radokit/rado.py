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

from bisect import insort
from fractions import Fraction

from .linalg import RatMatrix, _clear
from .rings import Rat, _Record

# Hard cap on column count: a step's search is exponential in half its
# candidate columns, and no lemma drops a column of a matrix whose residual
# rows all mix signs, so the cap still bounds the worst case.
MAX_COLUMNS = 32

_ZERO = Fraction(0)


class CCCertificate(_Record):
    """Ordered column partition with span witnesses.

    blocks[0] sums to zero; for t >= 1, witnesses[t-1] lists coefficients
    over the earlier columns (the union of blocks[0..t-1], in ascending
    column order) reproducing the sum of block t's columns.
    """

    __slots__ = _fields = ("blocks", "witnesses")

    def __init__(self, blocks: tuple[tuple[int, ...], ...],
                 witnesses: tuple[tuple[Rat, ...], ...]) -> None:
        self._set(blocks=blocks, witnesses=witnesses)


class FirstEntryReport(_Record):
    """Leftmost nonzero entry of every row.

    entries holds (row, column, value) triples for the nonzero rows;
    zero_rows lists the rest.  all_equal says whether first entries agree
    within each column; common_value is the single shared value when all
    first entries across the whole matrix coincide, else None.
    """

    __slots__ = _fields = ("entries", "zero_rows", "all_equal", "common_value")

    def __init__(self, entries: tuple[tuple[int, int, Rat], ...],
                 zero_rows: tuple[int, ...], all_equal: bool,
                 common_value: Rat | None) -> None:
        self._set(entries=entries, zero_rows=zero_rows, all_equal=all_equal,
                  common_value=common_value)

    def condition_holds(self, strict: bool = False) -> bool:
        """Whether the reported matrix satisfies the weak first entries
        condition: no zero rows, and first entries sharing a column are
        equal.  strict=True demands the classical stronger form: one
        constant shared by every first entry regardless of column."""
        if self.zero_rows:
            return False
        return self.common_value is not None if strict else self.all_equal


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


def _pack(rest: list[list[int]], cols: list[int]) -> tuple[list[int], list[int]]:
    """The candidate columns among cols and one int per candidate: its
    residuals, the entries of the rest rows, as digits in a balanced base W,
    so that a sum of any subset of the candidates' residual vectors is zero
    exactly when the packed sum is zero.

    Each row's residuals are listed once.  A row whose nonzero residuals
    over the candidates share one sign drops those columns, by the sign
    lemma in columns_condition, until no row cuts.  Every coordinate of a
    packed subset sum lies strictly inside (-W/2, W/2), and balanced base-W
    digits in that range determine the vector.  The packed ints are built
    by Horner's rule over the rows, with no power of W.
    """
    rows = [[row[j] for j in cols] for row in rest]
    while cols:
        for vals in rows:
            if (min(vals) >= 0 or max(vals) <= 0) and any(vals):
                cols = [j for j, x in zip(cols, vals) if not x]
                rows = [[y for y, x in zip(other, vals) if not x]
                        for other in rows]
                break
        else:
            break
    bound = max([max(map(abs, vals), default=0) for vals in rows], default=0)
    base = 2 * len(cols) * bound + 1
    packed = [0] * len(cols)
    for vals in reversed(rows):
        packed = [n * base + x for n, x in zip(packed, vals)]
    return cols, packed


def _insert(basis: list[tuple[int, list[int]]], rest: list[list[int]],
            j: int) -> bool:
    """Add column j to columns_condition's rows by its insertion lemma:
    basis holds (pivot column, row) pairs in pivot order, rest the other
    rows.  True in case (a), the one case that changes rest."""
    before = len(rest)
    for i, row in enumerate(rest):
        if row[j]:
            top = rest.pop(i)
            cleared = [_clear(r, top, j) if r[j] else r for r in rest]
            rest[:] = [r for r in cleared if any(r)]
            break
    else:
        k = len(basis) - 1
        while k >= 0 and basis[k][0] > j and not basis[k][1][j]:
            k -= 1
        if k < 0 or basis[k][0] < j:
            return False
        top = basis.pop(k)[1]
    basis[:] = [(c, _clear(row, top, j) if row[j] else row) for c, row in basis]
    insort(basis, (j, top))
    return len(rest) < before


def columns_condition(A: RatMatrix) -> CCCertificate | None:
    """columns_condition_rows on A's rows, scaled to integers."""
    return columns_condition_rows(*A.integer_rows())


def columns_condition_rows(rows: list[list[int]], cols: int) -> CCCertificate | None:
    """Find the canonical columns-condition certificate of the matrix with
    these integer rows of length cols, or None if there is none.

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

    The rows are carried through the chain in reduced row echelon form
    over the used columns in ascending order, each a multiple of its
    reduced row: pivot rows in pivot order, and rest rows, zero on the used
    columns and nonzero (a row cleared to zero is dropped).  The caller's
    lists are not changed.
    A block sums into span(used) exactly when its rest-row entries, the
    residuals, sum to zero: each step seeks the least nonempty zero-sum
    submask of its candidate columns, by meet in the middle.  A later block's
    witness, the solution with every free variable zero, gives each pivot
    column the block's sum in its row over the pivot entry; scaling a row
    by a positive constant changes neither the pivots nor these ratios.

    Sign lemma: if a rest row's nonzero residuals over the candidates share
    one sign, no zero-sum block holds any of those columns.  Proof: every
    zero-sum block lies within the candidates, and its sum in that row is
    the sum over the columns it holds of that row's one-signed entries,
    since the other candidates are zero there; that sum is zero only if it
    holds none.  Each packing (`_pack`) starts from the unused columns and
    drops such columns until no row cuts.  Reading masks over the
    candidates keeps their numeric order, so the least zero-sum mask over
    the candidates is the least one overall, and an empty candidate set
    means None.
    Zero-residual lemma: with no rest row left every residual is zero, so
    every set of unused columns sums into span(used), and the least block is
    the least unused column, taken with no packing and no search.  Only
    case (a) below changes the rest rows, and it needs one, so none returns.

    Insertion lemma: a taken block's columns j go in one at a time
    (`_insert`), each by one of three cases.
      (a) A rest row is nonzero at j, so A_j is not in span(used): it
          becomes j's pivot row and j is cleared from every other row.  No
          later pivot becomes dependent.
      (b) No pivot row of pivot above j is nonzero at j: A_j lies in the
          span of the used columns below j, and nothing changes.
      (c) Otherwise the last such row, of pivot p, takes j as its pivot and
          j is cleared from the other rows: with A_j = (columns below j) +
          sum e_i A_{p_i} over the pivots p_i above j, p is the greatest p_i
          with e_i nonzero, so A_p alone becomes dependent.
    The reduced form is unique for a column order, so pivots and witnesses
    are those of an elimination from scratch.  In (b) and (c) the rest rows
    are untouched, so a block whose columns all go in by (b) or (c) has only
    zero residuals: the packed residuals are reused minus the block, and no
    row's signs over the candidates change.  Only a step with an (a) packs
    again.  A call costs at most
    v steps of 2^floor(c/2) + 2^ceil(c/2) subset sums, for c <= v the
    step's candidate columns (none once no rest row is left), a row scan and
    a row operation per row cleared for each inserted column, and at most
    rank + 1 packings.
    """
    if cols > MAX_COLUMNS:
        raise ValueError(
            f"columns_condition handles at most {MAX_COLUMNS} columns, got {cols}"
        )
    if cols == 0:
        return None
    rest = [row for row in rows if any(row)]
    basis: list[tuple[int, list[int]]] = []
    used: list[int] = []
    unused = list(range(cols))
    blocks: list[tuple[int, ...]] = []
    witnesses: list[tuple[Rat, ...]] = []
    packed = None
    while unused:
        if not rest:
            block = (unused[0],)
        else:
            if packed is None:
                cand, packed = _pack(rest, unused)
            if not cand:
                return None
            mask = _least_zero_sum(packed)
            if mask is None:
                return None
            block = tuple([j for p, j in enumerate(cand) if mask >> p & 1])
        if used:
            coeffs = {}
            for c, row in basis:
                s = sum([row[j] for j in block])
                if s:
                    coeffs[c] = Fraction(s, row[c])
            witnesses.append(tuple([coeffs.get(c, _ZERO) for c in used]))
        blocks.append(block)
        for j in block:
            if _insert(basis, rest, j):
                packed = None
        if packed is not None:
            cand = [j for p, j in enumerate(cand) if not mask >> p & 1]
            packed = [n for p, n in enumerate(packed) if not mask >> p & 1]
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
