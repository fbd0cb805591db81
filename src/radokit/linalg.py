"""Dense exact linear algebra over the rationals.

The rational matrix type, its text format, the one normalizer that scales
a row to integers (`_scaled`), and one fraction-free row operation,
`_clear`.  The text format has two readers, which share its line and token
grammar: `parse_matrix` gives a RatMatrix, for the commands that need the
values themselves, and `parse_integer_rows` gives the rows scaled to
integers that the search kernels work on, with no Fraction built.  A
RatMatrix gives the same rows through `integer_rows`.  There is no
elimination or span-membership API: columns_condition keeps its rows in
reduced row echelon form with `_clear`, one column at a time, and reads
pivots, residuals and witnesses off them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Sized
from itertools import chain, islice
from math import gcd, lcm

from .rings import Rat, _rat, _rat_parts, _Record, parse_rats


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
        row_tuples = [tuple(map(_rat, row)) for row in rows]
        return cls(len(row_tuples), _width(row_tuples),
                   tuple(chain.from_iterable(row_tuples)))

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rat, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[Rat]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def integer_rows(self) -> tuple[list[list[int]], int]:
        """The rows scaled to integers (`_integer_rows`) and the column
        count: what parse_integer_rows gives on the matrix's text."""
        return _integer_rows(map(self.row, range(self.rows))), self.cols


def _width(rows: Sequence[Sized]) -> int:
    """The length that every row shares, 0 for no rows; ValueError when
    some row's length differs from the first one's."""
    cols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != cols:
            raise ValueError(f"row {i} has {len(row)} entries, expected {cols}")
    return cols


def _scaled(nums: Sequence[int], dens: Sequence[int]) -> list[int]:
    """The row with these numerators and denominators times the lcm of its
    denominators, taken once: a new list of ints, an integral row's
    numerators.

    The package's one row normalizer.  Scaling a row by a positive constant
    keeps the vectors it annihilates and the row space, so neither a
    zero-sum test nor an elimination can tell the scaled rows apart.
    """
    m = lcm(*dens)
    return list(nums) if m == 1 else [n * (m // d) for n, d in zip(nums, dens)]


def _integer_rows(rows: Iterable[Sequence[Rat]]) -> list[list[int]]:
    """Each row of rationals scaled to integers by `_scaled`, reading each
    entry's numerator and denominator once.  The lists are new, so a caller
    may change them in place."""
    return [_scaled([x.numerator for x in row], [x.denominator for x in row])
            for row in rows]


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


def _token_lines(text: str) -> list[list[str]]:
    """The matrix text format: one row per line, entries separated by
    whitespace, blank lines and '#' comment lines ignored.  The token list
    of each row."""
    return [toks for toks in map(str.split, text.splitlines())
            if toks and not toks[0].startswith("#")]


def parse_matrix(text: str) -> RatMatrix:
    """Parse the matrix text format (`_token_lines`).

    The tokens go through parse_rats in text order, so each distinct token
    is read once per matrix and the first bad one raises parse_rat's error.
    """
    lines = _token_lines(text)
    values = iter(parse_rats(chain.from_iterable(lines)))
    return RatMatrix.from_rows([list(islice(values, len(toks))) for toks in lines])


def parse_integer_rows(text: str) -> tuple[list[list[int]], int]:
    """What `_integer_rows` gives on parse_matrix(text)'s rows, and the
    column count, with no Fraction.  Each distinct token is read once, in
    text order, into its numerator and denominator in lowest terms by
    parse_rat's reader (`_rat_parts`), so the first bad token raises
    parse_rat's error before any row length is checked, as in parse_matrix.
    Each row is then scaled by `_scaled`."""
    lines = _token_lines(text)
    parts = {tok: _rat_parts(tok) for tok in dict.fromkeys(chain.from_iterable(lines))}
    cols = _width(lines)
    return [_scaled(*zip(*map(parts.__getitem__, toks))) for toks in lines], cols


def _read_text(path: str) -> str:
    """The text of the file at path, decoded as UTF-8: one binary read and
    one decode, since text mode's wrapper and incremental decoder cost more
    than the rest of a small file's read.  Unbuffered, as one read of the
    whole file needs no buffer, and an unbuffered open makes no isatty
    call.  Its lines are text mode's, as str.splitlines ends a line at
    CR LF and at a lone CR alike."""
    with open(path, "rb", buffering=0) as f:
        return f.read().decode()


def read_matrix(path: str) -> RatMatrix:
    """parse_matrix of the text of the file at path."""
    return parse_matrix(_read_text(path))


def read_integer_rows(path: str) -> tuple[list[list[int]], int]:
    """parse_integer_rows of the text of the file at path."""
    return parse_integer_rows(_read_text(path))
