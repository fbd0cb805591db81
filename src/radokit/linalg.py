"""Dense exact linear algebra over the rationals.

The rational matrix type, its text format, and fraction-free Gauss-Jordan
elimination on rows scaled to integers.  There is no span-membership API:
callers read pivots, residuals and witnesses off the eliminated rows.  No
pivoting heuristics are needed or wanted: exact arithmetic has no
conditioning, so the pivot is always the first nonzero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from typing import Iterable, Sequence

from .rings import Rat, parse_rats


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

    def to_lists(self) -> list[list[Rat]]:
        return [list(self.row(i)) for i in range(self.rows)]


def _integer_rows(rows: Iterable[Sequence[Rat | int]]) -> list[list[int]]:
    """Each row times the lcm of its denominators: a list of ints.

    The package's one row normalizer.  Scaling a row by a positive constant
    keeps the vectors it annihilates and the row space, so neither a
    zero-sum test nor an elimination can tell the scaled rows apart.  A row
    whose entries are all of type int is copied as it is, with one type test
    per entry and no attribute read.  Any other row reads each denominator
    once, and an integral row (lcm 1) is returned as its numerators.
    """
    out = []
    for row in rows:
        if not set(map(type, row)) - {int}:
            out.append(list(row))
            continue
        dens = [x.denominator for x in row]
        m = lcm(*dens)
        if m == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (m // d) for x, d in zip(row, dens)])
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


def parse_matrix(text: str) -> RatMatrix:
    """Parse the matrix text format: one row per line, entries separated by
    whitespace, blank lines and '#' comment lines ignored.

    The tokens go through parse_rats in text order, so each distinct token
    is read once per matrix and the first bad one raises parse_rat's error.
    """
    lines = [toks for toks in map(str.split, text.splitlines())
             if toks and not toks[0].startswith("#")]
    values = iter(parse_rats(chain.from_iterable(lines)))
    return RatMatrix.from_rows([list(islice(values, len(toks))) for toks in lines])
