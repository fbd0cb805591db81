"""Dense exact linear algebra over the rationals.

The rational matrix type, its text format, the normalizer that scales rows
to integers, and one fraction-free row operation, `_clear`.  There is no
elimination or span-membership API: columns_condition keeps its rows in
reduced row echelon form with `_clear`, one column at a time, and reads
pivots, residuals and witnesses off them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm

from .rings import Rat, _Record, parse_rats


class RatMatrix(_Record):
    """Immutable u x v rational matrix, entries stored row-major."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Rat, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} "
                f"entries, got {len(entries)}"
            )
        self._set(rows=rows, cols=cols, entries=entries)

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


def _integer_rows(rows: Iterable[Sequence[Rat]]) -> list[list[int]]:
    """Each row times the lcm of its denominators: a list of ints.

    The package's one row normalizer.  Scaling a row by a positive constant
    keeps the vectors it annihilates and the row space, so neither a
    zero-sum test nor an elimination can tell the scaled rows apart.  Each
    denominator is read once, and an integral row (lcm 1) is returned as its
    numerators.  The lists are new, so a caller may change them in place.
    """
    out = []
    for row in rows:
        dens = [x.denominator for x in row]
        m = lcm(*dens)
        if m == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (m // d) for x, d in zip(row, dens)])
    return out


def _clear(row: list[int], top: list[int], c: int) -> list[int]:
    """row with its entry in column c cleared by top, nonzero there: the
    package's one row operation.  Fraction-free, a * row - b * top, for a/b
    top's entry over row's in lowest terms, divided by its entries' gcd: a
    nonzero multiple of the row that Fraction elimination would give."""
    p, f = top[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = [a * x - b * y for x, y in zip(row, top)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


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


def read_matrix(path: str) -> RatMatrix:
    """parse_matrix of the text of the file at path."""
    with open(path) as f:
        return parse_matrix(f.read())
