"""Finite colouring machinery: the log2-parity colouring, exhaustive
monochromatic-solution search over finite ground sets, and Rado numbers by
backtracking over colourings.

A "solution" of a u x v matrix is an assignment to its v columns making
every row's dot product exactly zero.  Searches are exhaustive within
stated budgets; a None result is a covered-search claim, never a timeout.

Both searches run on one integer kernel, `_first_solution`.  Rows are
scaled to integers, and values are integer numerators over one common
denominator.  The kernel enumerates, in candidate order, every column it
assigns but the last, and solves for that last column, whose value is then
unique: it must be integral, in the colour class and, when values must be
distinct, not chosen already.  A row is checked as soon as all its columns
are assigned.

`monochromatic_solution` runs the kernel once per colour class on the
columns up to the last nonzero one, then fills the all-zero columns after
it in candidate order, so its first witness is the one a search over every
variable would find first.  `min_rado_number` colours 1, 2, ... in turn and
pins the newest value t at each column, since only tuples containing t can
be new.  It colours with restricted growth (colour c only once colour c-1
is used): renaming colours in order of first use turns any colouring into
one that is no larger lexicographically and has the same solutions, so the
least solution-free colourings it finds are the least of all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import NamedTuple, Sequence

from .linalg import RatMatrix
from .rings import Rat


class BudgetExceededError(RuntimeError):
    """Search space larger than the configured budget; no answer claimed."""


@dataclass(frozen=True)
class SolutionAssignment:
    """Values for the columns of a coefficient matrix, in column order."""

    values: tuple[Rat, ...]

    def residuals(self, M: RatMatrix) -> tuple[Rat, ...]:
        if len(self.values) != M.cols:
            raise ValueError(f"expected {M.cols} values, got {len(self.values)}")
        # only the nonzero coefficients of a row contribute
        return tuple(
            sum((a * x for a, x in zip(M.row(i), self.values) if a),
                start=Fraction(0))
            for i in range(M.rows)
        )

    def solves(self, M: RatMatrix) -> bool:
        return all(r == 0 for r in self.residuals(M))


def _floor_log2(a: int, b: int) -> int:
    """The e with 2^e <= a/b < 2^(e+1), for positive integers a and b.

    The candidate exponent from bit lengths is off by at most one; a single
    shifted comparison settles it.
    """
    e = a.bit_length() - b.bit_length()
    if e >= 0:
        if a < (b << e):
            e -= 1
    else:
        if (a << -e) < b:
            e -= 1
    return e


def log2_parity_colour(x: Rat) -> int:
    """Parity of floor(log2(|x|)), computed by exact bracketing.  Doubling
    any nonzero rational always flips this colour."""
    if x == 0:
        raise ValueError("log2-parity colour is undefined at 0")
    return _floor_log2(abs(x.numerator), x.denominator) & 1


@dataclass(frozen=True)
class Colouring:
    """Finite table colouring or the log2-parity rule; colours are 0..r-1."""

    kind: str
    r: int
    assignments: tuple[tuple[Rat, int], ...] = ()
    _map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("table", "log2parity"):
            raise ValueError(f"unknown colouring kind: {self.kind!r}")
        if self.r < 1:
            raise ValueError(f"colour count must be positive, got {self.r}")
        mapping: dict[Rat, int] = {}
        for x, c in self.assignments:
            if x == 0:
                raise ValueError("0 cannot be coloured")
            if x in mapping:
                raise ValueError(f"{x} coloured twice")
            if not 0 <= c < self.r:
                raise ValueError(f"colour {c} outside 0..{self.r - 1}")
            mapping[x] = c
        object.__setattr__(self, "_map", mapping)

    @classmethod
    def table(cls, elements: Sequence[Rat | int], colours: Sequence[int],
              r: int | None = None) -> "Colouring":
        if len(elements) != len(colours):
            raise ValueError("need one colour per element")
        if r is None:
            r = max(colours, default=0) + 1
        pairs = tuple((Fraction(x), c) for x, c in zip(elements, colours))
        return cls("table", r, pairs)

    @classmethod
    def log2_parity(cls) -> "Colouring":
        return cls("log2parity", 2)

    def covers(self, x: Rat) -> bool:
        if self.kind == "table":
            return x in self._map
        return x != 0

    def colour_of(self, x: Rat) -> int:
        if self.kind == "log2parity":
            return log2_parity_colour(x)
        try:
            return self._map[x]
        except KeyError:
            raise ValueError(f"{x} is not coloured") from None


@dataclass(frozen=True)
class GroundSet:
    """Finite set of distinct nonzero rationals, searched in listed order.

    Either explicit `elements`, or the slice {a/s : 1 <= a <= n} held as
    `span` = (n, s) and listed, in increasing order, only when iterated: a
    search sizes a slice's colour classes before making any element.
    `elements` is empty for a slice.
    """

    elements: tuple[Rat, ...] = ()
    span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.span is not None:
            n, s = self.span
            if n < 1 or s < 1 or self.elements:
                raise ValueError(
                    "slice needs positive numerator bound and denominator")
            return
        if any(x == 0 for x in self.elements):
            raise ValueError("ground sets exclude 0")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("ground-set elements must be distinct")

    def __iter__(self):
        if self.span is None:
            return iter(self.elements)
        n, s = self.span
        return (Fraction(a, s) for a in range(1, n + 1))

    def __len__(self) -> int:
        return len(self.elements) if self.span is None else self.span[0]

    @classmethod
    def integers(cls, n: int) -> "GroundSet":
        """The ground set {1, ..., n}."""
        return cls(tuple(Fraction(i) for i in range(1, n + 1)))

    @classmethod
    def slice(cls, num_bound: int, denominator: int = 1) -> "GroundSet":
        """{a/s : 1 <= a <= num_bound} for a fixed denominator s: a finite
        slice of the subring whose primes cover s."""
        return cls(span=(num_bound, denominator))


def _colour_classes(c: Colouring, g: GroundSet) -> tuple[int, list[list[Sequence[int]]]]:
    """The non-empty colour classes of g under c, in colour order, as
    integer numerators over one common denominator; each class is a list of
    runs whose concatenation is in ground-set order.

    Only an explicit ground set is walked.  A slice under a table colouring
    takes the table's values that lie in it; under log2parity it splits
    into one range per dyadic interval [2^e, 2^(e+1)), of colour e mod 2.
    """
    if g.span is None:
        covered = [x for x in g if c.covers(x)]
        den = lcm(*(x.denominator for x in covered))
        pairs = [(x.numerator * (den // x.denominator), c.colour_of(x))
                 for x in covered]
    elif c.kind == "table":
        n, den = g.span
        pairs = sorted(((x * den).numerator, colour)
                       for x, colour in c.assignments
                       if (x * den).denominator == 1 and 1 <= x * den <= n)
    else:
        n, den = g.span
        runs: list[list[Sequence[int]]] = [[], []]
        e, lo = _floor_log2(1, den), 1
        while lo <= n:
            # the numerators a with a/den < 2^(e+1)
            hi = (den << e + 1) - 1 if e >= -1 else (den - 1) >> -(e + 1)
            runs[e & 1].append(range(lo, min(hi, n) + 1))
            e, lo = e + 1, hi + 1
        return den, [cls for cls in runs if cls]
    members: list[list[int]] = [[] for _ in range(c.r)]
    for a, colour in pairs:
        members[colour].append(a)
    return den, [[m] for m in members if m]


def _integer_rows(A: RatMatrix) -> list[tuple[int, ...]]:
    """The nonzero rows of A, each scaled by the lcm of its denominators."""
    rows = []
    for i in range(A.rows):
        row = A.row(i)
        if any(row):
            s = lcm(*(x.denominator for x in row))
            rows.append(tuple(x.numerator * (s // x.denominator) for x in row))
    return rows


class _Plan(NamedTuple):
    """How `_first_solution` assigns a list of columns: each column but the
    last is enumerated, and the last is solved for from row `pivot`.

    heads[k] holds the k-th enumerated column's coefficient in every row,
    and checks[k] the rows that column completes.  `solved` holds the last
    column's coefficients and `others` the rows besides the pivot that it
    completes.  `fixed` rows involve none of the columns.  pivot is -1 when
    there are no columns.
    """

    heads: tuple[tuple[int, ...], ...]
    checks: tuple[tuple[int, ...], ...]
    solved: tuple[int, ...]
    pivot: int
    others: tuple[int, ...]
    fixed: tuple[int, ...]


def _plan(rows: list[tuple[int, ...]], columns: Sequence[int]) -> _Plan:
    """The plan for `columns`, whose last member must be nonzero in some row."""
    if not columns:
        return _Plan((), (), (), -1, (), tuple(range(len(rows))))
    *head, last = columns
    checks: list[list[int]] = [[] for _ in head]
    solving: list[int] = []
    fixed: list[int] = []
    for i, row in enumerate(rows):
        involved = [k for k, j in enumerate(head) if row[j]]
        if row[last]:
            solving.append(i)
        elif involved:
            checks[involved[-1]].append(i)
        else:
            fixed.append(i)
    return _Plan(
        tuple(tuple(row[j] for row in rows) for j in head),
        tuple(map(tuple, checks)),
        tuple(row[last] for row in rows),
        solving[0],
        tuple(solving[1:]),
        tuple(fixed),
    )


def _first_solution(plan: _Plan, res: list[int], members: list[int],
                    inclass: set[int], distinct: bool) -> list[int] | None:
    """The first assignment of the plan's columns, in candidate order, that
    zeroes every row: enumerated values come from `members`, and the solved
    value must lie in `inclass`.  res[i] is row i's sum over the columns
    assigned beforehand.  Returns the values in plan order, or None."""
    if any(res[i] for i in plan.fixed):
        return None
    chosen: list[int] = []
    if plan.pivot < 0:
        return chosen
    if not plan.heads:
        y = _solve(plan, res, chosen, inclass, distinct)
        return None if y is None else [y]
    return chosen if _extend(plan, res, chosen, members, inclass, distinct) else None


def _solve(plan: _Plan, res: list[int], chosen: list[int], inclass: set[int],
           distinct: bool) -> int | None:
    """The solved column's value, given every row's sum over the enumerated
    columns, or None when no allowed value zeroes the rows it completes."""
    solved = plan.solved
    y, rest = divmod(-res[plan.pivot], solved[plan.pivot])
    if (rest or y not in inclass or (distinct and y in chosen)
            or any(res[i] + solved[i] * y for i in plan.others)):
        return None
    return y


def _extend(plan: _Plan, res: list[int], chosen: list[int], members: list[int],
            inclass: set[int], distinct: bool) -> bool:
    """Extend `chosen` by the enumerated columns it lacks, then by the
    solved column; res holds the row sums over the columns in `chosen`."""
    k = len(chosen)
    coeffs, checks = plan.heads[k], plan.checks[k]
    innermost = k + 1 == len(plan.heads)
    a, b, r = coeffs[plan.pivot], plan.solved[plan.pivot], res[plan.pivot]
    for x in members:
        # innermost, the pivot row alone must give an integral value in the
        # class: a cheap test that rejects most candidates before any list
        # is built
        if innermost:
            y, rest = divmod(-r - a * x, b)
            if rest or y not in inclass:
                continue
        if distinct and x in chosen:
            continue
        new = [ri + ai * x for ri, ai in zip(res, coeffs)]
        if any(new[i] for i in checks):
            continue
        chosen.append(x)
        if innermost:
            y = _solve(plan, new, chosen, inclass, distinct)
            if y is not None:
                chosen.append(y)
                return True
        elif _extend(plan, new, chosen, members, inclass, distinct):
            return True
        chosen.pop()
    return False


class _InRuns:
    """Membership in a colour class given as runs (ranges or lists)."""

    def __init__(self, runs: list[Sequence[int]]) -> None:
        self.runs = runs

    def __contains__(self, x: int) -> bool:
        return any(x in run for run in self.runs)


def monochromatic_solution(
    A: RatMatrix,
    c: Colouring,
    g: GroundSet,
    distinct: bool = False,
    budget: int = 10**8,
) -> SolutionAssignment | None:
    """Exhaustive search for a one-colour-class solution of A with values
    drawn from g; optionally all values pairwise distinct.

    Deterministic: colour classes in colour order, candidates in ground-set
    order, first witness wins.  Raises BudgetExceededError, before any
    search and before a slice is listed, when the sum over colour classes
    of |class|^v, for v the number of columns, exceeds `budget`.
    """
    v = A.cols
    if v == 0:
        raise ValueError("matrix has no columns to solve for")
    den, classes = _colour_classes(c, g)
    sizes = [sum(map(len, runs)) for runs in classes]
    if sum(size ** v for size in sizes) > budget:
        raise BudgetExceededError(
            f"search space exceeds budget of {budget} candidate tuples"
        )
    rows = _integer_rows(A)
    last = max((j for row in rows for j in range(v) if row[j]), default=-1)
    plan = _plan(rows, range(last + 1))
    for runs, size in zip(classes, sizes):
        if distinct and size < v:
            continue
        if plan.heads:
            members = [x for run in runs for x in run]
            found = _first_solution(plan, [0] * len(rows), members, set(members),
                                    distinct)
        else:
            # nothing is enumerated, so the class is never listed: the
            # solved value is looked up in the runs themselves
            found = _first_solution(plan, [0] * len(rows), [], _InRuns(runs),
                                    distinct)
        if found is not None:
            # all-zero columns after the solved one take the first allowed candidates
            for _ in range(last + 1, v):
                found.append(next(x for x in chain.from_iterable(runs)
                                  if not (distinct and x in found)))
            return SolutionAssignment(tuple(Fraction(x, den) for x in found))
    return None


@dataclass(frozen=True)
class RadoNumberResult:
    """Outcome of a Rado-number search.

    number is the least N such that every colouring of {1..N} admits a
    monochromatic solution, or None when some colouring of the whole range
    survives.  witness is always a solution-free colouring: of {1..N-1}
    when number is found (colour of 1, colour of 2, ...), of the full range
    otherwise.  Either way it is the lexicographically least one.
    """

    number: int | None
    witness: tuple[int, ...]


def min_rado_number(A: RatMatrix, r: int, n_max: int) -> RadoNumberResult:
    """Least N <= n_max forcing a monochromatic solution under every
    r-colouring of {1..N}, by backtracking with solution pruning.

    Colourings are tried in lexicographic order with restricted growth:
    colour c is used only once colour c-1 has been used, so of the
    colourings that differ only by a renaming of colours only the least is
    tried.  The search is exhaustive at desk scale only; hence the caps
    r <= 4 and n_max <= 64.
    """
    if not 1 <= r <= 4:
        raise ValueError(f"colour count must be 1..4, got {r}")
    if not 1 <= n_max <= 64:
        raise ValueError(f"n_max must be 1..64, got {n_max}")
    v = A.cols
    if v == 0:
        raise ValueError("matrix has no columns to solve for")

    rows = _integer_rows(A)
    columns = [tuple(row[j] for row in rows) for j in range(v)]
    nonzero = [j for j in range(v) if any(columns[j])]
    # swapping two columns with equal coefficients maps solutions to
    # solutions, so t is pinned only at the first column of each kind
    plans = [(columns[p], _plan(rows, [j for j in nonzero if j != p]))
             for p in range(v) if columns.index(columns[p]) == p]

    members: list[list[int]] = [[] for _ in range(r)]
    inclass: list[set[int]] = [set() for _ in range(r)]
    colours: list[int] = []
    used = [0]          # used[t]: colours used on 1..t
    best: tuple[int, ...] = ()
    colour = 0
    while True:
        t = len(colours) + 1
        if colour < min(r, used[-1] + 1):
            members[colour].append(t)
            inclass[colour].add(t)
            # only solutions that contain t are new
            if not any(_first_solution(plan, [a * t for a in pinned],
                                       members[colour], inclass[colour], False)
                       is not None for pinned, plan in plans):
                colours.append(colour)
                used.append(max(used[-1], colour + 1))
                if t > len(best):
                    best = tuple(colours)
                if t == n_max:
                    return RadoNumberResult(None, best)
                colour = 0
                continue
            members[colour].pop()
            inclass[colour].discard(t)
            colour += 1
        elif colours:
            colour = colours.pop()
            used.pop()
            members[colour].pop()
            inclass[colour].discard(t - 1)
            colour += 1
        else:
            return RadoNumberResult(len(best) + 1, best)
