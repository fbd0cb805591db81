"""Dense exact linear algebra over the rationals.

Reduced row echelon form, span membership with witness coefficients, and
rank, all in Fraction arithmetic.  No pivoting heuristics are needed or
wanted: exact arithmetic has no conditioning, so the pivot is always the
first nonzero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .rings import Rat, parse_rat


@dataclass(frozen=True)
class RatMatrix:
    """Immutable u x v rational matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[Rat, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Rat | int]]) -> "RatMatrix":
        row_tuples = []
        for row in rows:
            row = tuple(row)
            # entries that are already Fractions are kept, not rebuilt
            if set(map(type, row)) - {Fraction}:
                row = tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            row_tuples.append(row)
        if not row_tuples:
            return cls(0, 0, ())
        cols = len(row_tuples[0])
        for i, row in enumerate(row_tuples):
            if len(row) != cols:
                raise ValueError(f"row {i} has {len(row)} entries, expected {cols}")
        return cls(len(row_tuples), cols, tuple(chain.from_iterable(row_tuples)))

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rat, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Rat, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[Rat]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        flat = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return RatMatrix(self.cols, self.rows, flat)

    def scale_row(self, i: int, c: Rat) -> "RatMatrix":
        """New matrix with row i multiplied by c."""
        rows = self.to_lists()
        rows[i] = [c * x for x in rows[i]]
        return RatMatrix.from_rows(rows)

    def permute_columns(self, perm: Sequence[int]) -> "RatMatrix":
        """New matrix whose column j is this matrix's column perm[j]."""
        if sorted(perm) != list(range(self.cols)):
            raise ValueError("not a permutation of the column indices")
        rows = [[self.at(i, p) for p in perm] for i in range(self.rows)]
        return RatMatrix.from_rows(rows)


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
    # format_rat is str; mapping str itself saves a call per entry
    return "\n".join(" ".join(map(str, M.row(i))) for i in range(M.rows))
