"""The Fraction-arithmetic rref and in_span that radokit.linalg's integer
elimination replaced, kept verbatim as the differential test's reference,
and the rank they give, which the naive columns-condition oracle uses.
Also the parse_matrix that called parse_rat once per token, before
radokit.linalg read each distinct token once per matrix, and the matrix
text it inverts, which is the oracle for the CLI's matrix writer."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from radokit.linalg import RatMatrix
from radokit.rings import Rat, format_rat, parse_rat


def rref(M: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the (0-based) pivot column list."""
    rows = M.to_lists()
    pivots: list[int] = []
    r = 0
    for c in range(M.cols):
        pivot = next((i for i in range(r, M.rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(M.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == M.rows:
            break
    return RatMatrix.from_rows(rows) if rows else M, pivots


def rank(M: RatMatrix) -> int:
    return len(rref(M)[1])


def in_span(
    vectors: Sequence[Sequence[Rat]], target: Sequence[Rat]
) -> list[Rat] | None:
    """Coefficients writing target as a combination of the given column
    vectors, or None when target lies outside their span.

    The witness is deterministic: the unique solution with every free
    variable set to zero.
    """
    dim = len(target)
    for k, vec in enumerate(vectors):
        if len(vec) != dim:
            raise ValueError(f"vector {k} has dimension {len(vec)}, expected {dim}")
    if dim == 0:
        return [Fraction(0)] * len(vectors)
    aug = RatMatrix.from_rows(
        [[vec[i] for vec in vectors] + [target[i]] for i in range(dim)]
    )
    R, pivots = rref(aug)
    if len(vectors) in pivots:
        return None
    coeffs = [Fraction(0)] * len(vectors)
    for r, c in enumerate(pivots):
        coeffs[c] = R.at(r, len(vectors))
    return coeffs


def parse_matrix(text: str) -> RatMatrix:
    """Parse the matrix text format: one row per line, entries separated by
    whitespace, blank lines and '#' comment lines ignored."""
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append([parse_rat(tok) for tok in stripped.split()])
    return RatMatrix.from_rows(rows)


def format_matrix(M: RatMatrix) -> str:
    """Inverse of parse_matrix; one line per row, single-space separated."""
    return "\n".join(" ".join(map(format_rat, M.row(i))) for i in range(M.rows))
