"""Finite colouring machinery: the log2-parity colouring, exhaustive
monochromatic-solution search over finite slices {a/s : 1 <= a <= n} of
the rationals, and Rado numbers by backtracking over colourings.

A "solution" of a u x v matrix is an assignment to its v columns making
every row's dot product exactly zero.  Searches are exhaustive within
stated budgets; a None result is a covered-search claim, never a timeout.

Both searches run on one integer kernel: `_search`, whose depth-first
`_extend` is the only enumeration of a plan.  Rows are scaled to integers,
and values are integer numerators over one common denominator.  The kernel
enumerates, in candidate order, every column it assigns but the last, and
solves for that last column, whose value is then unique: it must be
integral, in its target and, when values must be distinct, not chosen
already.  A row is checked as soon as all its columns are assigned.  At
every level the pivot row bounds the next column (`_head_range`): with its
sum so far, the later columns in the class's span and the solved value in
its target, the column's value lies in an interval, and candidates outside
it are passed over.  They are filtered, not cut off by bisection, which
measured slower on classes of the sizes searched.  The caller picks the
output: the first assignment, or every solved value as a bit of an int.

Merging lemma: unless values must be distinct, the number of columns
assigned and the row sums alone decide whether a prefix completes and
which solved values it reaches, so a prefix that leaves the same sums as
one already expanded is skipped.  Looking for the first assignment, the
earlier prefix found none, or the search would have stopped; collecting,
its values are ORed in already.  The distinct searches never merge,
since there the values chosen matter too.  For a sum of many terms the
merged states are far fewer than the tuples: a colouring of 1..88 with no
monochromatic solution of x1 + ... + x9 = x10 is re-checked in
milliseconds.

`monochromatic_solution` runs the kernel once per colour class on the
columns up to the last nonzero one, then fills the all-zero columns after
it in candidate order, so its first witness is the one a search over every
variable would find first.  Its budget bounds the candidates the kernel
walks (`_walk_bound`).  A log2parity class, of any size, stays a list of
ranges, the innermost column's candidates coming from arithmetic on them.

`min_rado_number` colours 1, 2, ... in turn; only solutions containing the
newest value t can be new.  It colours with restricted growth (colour c
only once colour c-1 is used): renaming colours in order of first use turns
any colouring into one that is no larger lexicographically and has the same
solutions, so the least solution-free colourings it finds are the least of
all.  Its forward checking, which marks the values above t that would
complete a solution, the forced-value lemma, which lets a value with one
colour left mark as if it had taken it, the one-column lemma, which leaves
the kernel only the solutions with t in two nonzero columns, and the
firing lemma, which runs each plan only on the interval of t where its
pivot row admits a value, are stated and proved once, in its docstring.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from math import gcd

from .linalg import RatMatrix
from .rings import Rat, _rat, _Record


class BudgetExceededError(RuntimeError):
    """Search space larger than the configured budget; no answer claimed."""


def _floor_log2(a: int, b: int) -> int:
    """The e with 2^e <= a/b < 2^(e+1), for positive integers a and b.

    For a >= b it is floor(log2(a // b)).  For a < b it is -ceil(log2(b/a)),
    and the least k with 2^k >= ceil(b/a) is the bit length of
    ceil(b/a) - 1 = (b - 1) // a.
    """
    return (a // b).bit_length() - 1 if a >= b else -((b - 1) // a).bit_length()


def log2_parity_colour(x: Rat) -> int:
    """Parity of floor(log2(|x|)), computed by exact bracketing.  Doubling
    any nonzero rational always flips this colour."""
    if x == 0:
        raise ValueError("log2-parity colour is undefined at 0")
    return _floor_log2(abs(x.numerator), x.denominator) & 1


class Colouring(_Record):
    """Finite table colouring or the log2-parity rule; colours are 0..r-1,
    where r is 2 under log2parity and 1 + the largest colour of a table."""

    _fields = ("kind", "assignments")
    __slots__ = (*_fields, "r", "_map")

    def __init__(self, kind: str, assignments: tuple[tuple[Rat, int], ...] = ()) -> None:
        if kind not in ("table", "log2parity"):
            raise ValueError(f"unknown colouring kind: {kind!r}")
        if kind == "log2parity" and assignments:
            raise ValueError("log2parity colouring takes no table")
        mapping: dict[Rat, int] = {}
        for x, c in assignments:
            if x == 0:
                raise ValueError("0 cannot be coloured")
            if x in mapping:
                raise ValueError(f"{x} coloured twice")
            if c < 0:
                raise ValueError(f"{x} has negative colour {c}")
            mapping[x] = c
        r = 2 if kind == "log2parity" else max(mapping.values(), default=0) + 1
        self._set(kind=kind, assignments=assignments, r=r, _map=mapping)

    @classmethod
    def table(cls, elements: Sequence[Rat | int], colours: Sequence[int]) -> "Colouring":
        if len(elements) != len(colours):
            raise ValueError("need one colour per element")
        return cls("table", tuple(zip(map(_rat, elements), colours)))

    def colour_of(self, x: Rat) -> int:
        if self.kind == "log2parity":
            return log2_parity_colour(x)
        try:
            return self._map[x]
        except KeyError:
            raise ValueError(f"{x} is not coloured") from None


class GroundSet(_Record):
    """The slice {a/s : 1 <= a <= n} of the subring whose primes cover s,
    held as `span` = (n, s) and never listed: a search reads its colour
    classes as numerators over s straight from the span.
    """

    __slots__ = _fields = ("span",)

    def __init__(self, span: tuple[int, int]) -> None:
        n, s = span
        if n < 1 or s < 1:
            raise ValueError("slice needs positive numerator bound and denominator")
        self._set(span=span)

    @classmethod
    def slice(cls, num_bound: int, denominator: int = 1) -> "GroundSet":
        """{a/s : 1 <= a <= num_bound} for a fixed denominator s."""
        return cls((num_bound, denominator))


def _colour_classes(c: Colouring, g: GroundSet) -> tuple[int, list[list[int] | _Runs]]:
    """The non-empty colour classes of g under c, in colour order, as
    ascending integer numerators over the slice's denominator.

    Under a table colouring a class holds the table's values that lie in
    the slice, grouped by colour, so the classes take memory for the
    table's entries, whatever the colour labels.  Under log2parity the slice
    splits into one range per dyadic interval [2^e, 2^(e+1)), of colour
    e mod 2, and each class is a `_Runs` of them.
    """
    n, den = g.span
    if c.kind == "table":
        # x * den is an integer exactly when x's reduced denominator divides den
        pairs = sorted((a, colour) for x, colour in c.assignments
                       if not den % x.denominator
                       and 1 <= (a := x.numerator * (den // x.denominator)) <= n)
        classes: dict[int, list[int]] = {}
        for a, colour in pairs:
            classes.setdefault(colour, []).append(a)
        return den, [classes[colour] for colour in sorted(classes)]
    runs: list[list[range]] = [[], []]
    e, lo = _floor_log2(1, den), 1
    while lo <= n:
        # the numerators a with a/den < 2^(e+1)
        hi = (den << e + 1) - 1 if e >= -1 else (den - 1) >> -(e + 1)
        runs[e & 1].append(range(lo, min(hi, n) + 1))
        e, lo = e + 1, hi + 1
    return den, [_Runs(cls) for cls in runs if cls]


class _Plan(namedtuple("_Plan", "heads checks solved pivot others fixed spread")):
    """How `_search` assigns a list of columns: each column but the
    last is enumerated, and the last is solved for from row `pivot`.

    heads[k] holds the k-th enumerated column's coefficient in every row,
    and checks[k] the rows that column completes.  `solved` holds the last
    column's coefficients and `others` the rows besides the pivot that it
    completes.  `fixed` rows involve none of the columns.  pivot is -1 when
    there are no columns.  spread[k] holds, from the pivot row, the k-th
    enumerated column's coefficient, the sums of the positive and of the
    negative coefficients of the enumerated columns after it, and the
    solved column's coefficient.
    """

    __slots__ = ()


# `_extend` recurses once per enumerated column, so a plan that enumerates
# more columns than this is refused before any search.
MAX_ENUMERATED = 500


def _plan(rows: list[list[int]], columns: Sequence[int]) -> _Plan:
    """The plan for `columns`, whose last member must be nonzero in some row.
    Raises ValueError when it would enumerate more than MAX_ENUMERATED."""
    if len(columns) > MAX_ENUMERATED + 1:
        raise ValueError(f"the search would enumerate {len(columns) - 1} columns, "
                         f"more than the limit of {MAX_ENUMERATED}")
    if not columns:
        return _Plan((), (), (), -1, (), tuple(range(len(rows))), ())
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
    pivot = [rows[solving[0]][j] for j in columns]   # the heads, then the solved
    return _Plan(
        tuple(tuple(row[j] for row in rows) for j in head),
        tuple(map(tuple, checks)),
        tuple(row[last] for row in rows),
        solving[0],
        tuple(solving[1:]),
        tuple(fixed),
        tuple((a, sum(x for x in pivot[k + 1:-1] if x > 0),
               sum(x for x in pivot[k + 1:-1] if x < 0), pivot[-1])
              for k, a in enumerate(pivot[:-1])),
    )


def _head_range(plan: _Plan, k: int, r: int, lo: int, hi: int, ylo: int,
                yhi: int) -> tuple[int, int]:
    """The least and the greatest value in [lo, hi] that the plan's k-th
    enumerated column can take by its pivot row alone, when that row's sum
    over the columns assigned before it is r, every later enumerated column
    lies in [lo, hi] and the solved value in [ylo, yhi].  The least exceeds
    the greatest when there is none."""
    a, pos, neg, b = plan.spread[k]
    if b < 0:
        ylo, yhi = yhi, ylo
    # a * x lies in [low, high], the row's other terms at their extremes
    high = -r - pos * lo - neg * hi - b * ylo
    low = -r - pos * hi - neg * lo - b * yhi
    if a < 0:
        a, low, high = -a, -high, -low
    if a:
        xlo, xhi = -(-low // a), high // a
        return (xlo if xlo > lo else lo), (xhi if xhi < hi else hi)
    return (lo, hi) if low <= 0 <= high else (hi + 1, hi)


def _search(plan: _Plan, res: list[int], members: list[int], lo: int, hi: int,
            inclass: set[int], ylo: int, yhi: int, distinct: bool,
            values: list[int] | None = None) -> list[int] | None:
    """Assignments of the plan's columns that zero every row: enumerated
    values come from `members`, spanned by [lo, hi], and the solved value
    from `inclass`, spanned by [ylo, yhi] (when members is a `_Runs`,
    inclass is the same one).  res[i] is row i's sum over the columns
    assigned beforehand.  With `values` None, returns the first assignment
    in candidate order, in plan order, or None; otherwise ORs bit y - ylo
    into values[0] for every solved value y."""
    for i in plan.fixed:
        if res[i]:
            return None
    pivot, solved = plan.pivot, plan.solved
    if pivot < 0:
        return []
    if plan.heads:
        chosen: list[int] = []
        found = _extend(plan, res, chosen, members, lo, hi, inclass, ylo, yhi,
                        None if distinct else set(), values)
        return chosen if found else None
    y, rest = divmod(-res[pivot], solved[pivot])
    if rest or y not in inclass or any(res[i] + solved[i] * y for i in plan.others):
        return None
    if values is not None:
        values[0] |= 1 << y - ylo
    return [y]


def _extend(plan: _Plan, res: list[int], chosen: list[int], members: list[int],
            lo: int, hi: int, inclass: set[int], ylo: int, yhi: int,
            seen: set[tuple[int, ...]] | None, values: list[int] | None) -> bool:
    """Extend `chosen` by the enumerated columns it lacks, then by the
    solved column, as `_search` asks; res holds the row sums over the
    columns in `chosen`.  True once the first assignment is complete.

    The one enumeration of a plan.  `seen` is None when values must be
    distinct; otherwise it holds a (k, row sums) pair for each prefix
    through enumerated column k reached so far, and a prefix whose pair is
    there already is skipped, by the merging lemma of the module docstring.
    """
    k, r = len(chosen), res[plan.pivot]
    xlo, xhi = _head_range(plan, k, r, lo, hi, ylo, yhi)
    if xlo > xhi:
        return False
    coeffs, checks = plan.heads[k], plan.checks[k]
    distinct = seen is None
    if k + 1 < len(plan.heads):
        for x in members:
            if not xlo <= x <= xhi or distinct and x in chosen:
                continue
            new = [ri + ai * x for ri, ai in zip(res, coeffs)]
            if checks and any(new[i] for i in checks):
                continue
            if not distinct:
                state = (k, *new)
                if state in seen:
                    continue
                seen.add(state)
            chosen.append(x)
            if _extend(plan, new, chosen, members, lo, hi, inclass, ylo, yhi,
                       seen, values):
                return True
            chosen.pop()
        return False
    # innermost, the pivot row alone must give an integral value in the
    # class: a cheap test that rejects most candidates before any list is
    # built, and that a class of runs answers for whole runs at once
    solved, others = plan.solved, plan.others
    a, b = coeffs[plan.pivot], solved[plan.pivot]
    for x in members.solving(a, b, r) if isinstance(members, _Runs) else members:
        if not xlo <= x <= xhi:
            continue
        y, rest = divmod(-r - a * x, b)
        if rest or y not in inclass:
            continue
        if distinct and (x == y or x in chosen or y in chosen):
            continue
        if checks or others:
            new = [ri + ai * x for ri, ai in zip(res, coeffs)]
            if any(new[i] for i in checks) or any(
                    new[i] + solved[i] * y for i in others):
                continue
        if values is None:
            chosen += x, y
            return True
        values[0] |= 1 << y - ylo
    return False


class _Runs:
    """A colour class held as increasing, disjoint ranges and never listed:
    a dyadic slice under log2parity, whose classes can be far larger than
    anything the search touches."""

    def __init__(self, runs: list[range]) -> None:
        self.runs = runs
        self.starts = [run.start for run in runs]

    def __iter__(self):
        return chain.from_iterable(self.runs)

    def __len__(self) -> int:
        return sum(map(len, self.runs))

    def __contains__(self, x: int) -> bool:
        i = bisect_right(self.starts, x)
        return i > 0 and x < self.runs[i - 1].stop

    def span(self) -> tuple[int, int]:
        return self.runs[0].start, self.runs[-1].stop - 1

    def solving(self, a: int, b: int, r: int):
        """The x in the class, in order, for which y = (-r - a*x) / b is an
        integer in the class.  The x with an integral y form one residue
        class mod |b| / gcd(a, b), and those with y in a given run one
        interval; y is monotone in x, so these intervals are disjoint and
        ordered like the runs or reversed, and one lazy merge with the runs
        yields the candidates as arithmetic progressions."""
        if a == 0:
            y, rest = divmod(-r, b)
            if not rest and y in self:
                yield from self
            return
        g = gcd(a, b)
        if r % g:
            return
        step = abs(b) // g
        first = (-r // g) * pow(a // g, -1, step) % step if step > 1 else 0
        if b < 0:
            a, b, r = -a, -b, -r
        runs = self.runs
        n = len(runs)
        i = j = 0
        while i < n and j < n:
            run = runs[i]
            # the x whose y lies in the j-th target run, in x order; with
            # b > 0, y in [s, e]  <=>  a*x in [-r - b*e, -r - b*s]
            if a > 0:
                target = runs[n - 1 - j]
                start = -((r + b * (target.stop - 1)) // a)
                stop = (-r - b * target.start) // a + 1
            else:
                target = runs[j]
                start = -((r + b * target.start) // a)
                stop = (-r - b * (target.stop - 1)) // a + 1
            if run.stop < stop:
                i += 1
                stop = run.stop
            else:
                j += 1
            if start < run.start:
                start = run.start
            if start < stop:
                yield from range(start + (first - start) % step, stop, step)


def _walk_bound(rows: list[list[int]], k_max: int, spans: list[tuple[int, int]],
                sizes: list[int], distinct: bool, cap: int) -> int:
    """A bound on the candidates the kernel walks over k_max enumerated
    columns: the tuples, sum |class|^k_max, or, when smaller and values need
    not be distinct, the merged states' walks:
    level k expands at most S_k = prod_i (sum_{j<k} |a_ij| * (hi - lo) + 1)
    states, one per row-sum vector, each walking the class once.  Past cap,
    counting stops and the result is only known to exceed cap if the
    tuples do too."""
    tuples = sum(size ** k_max for size in sizes)
    if distinct:
        return tuples
    levels, ws = [], [0] * len(rows)    # the nonzero sum_{j<k} |a_ij|
    for k in range(k_max):
        levels.append([w for w in ws if w])
        ws = [w + abs(row[k]) for w, row in zip(ws, rows)]
    merged = 0
    for (lo, hi), size in zip(spans, sizes):
        power = 1
        for weights in levels:
            states = 1      # S_k, its product cut short once it reaches power
            for w in weights:
                states *= w * (hi - lo) + 1
                if states >= power:
                    break
            merged += size * min(power, states)
            if merged > cap:
                return min(tuples, merged)
            power *= size
    return min(tuples, merged)


def monochromatic_solution(A: RatMatrix, c: Colouring, g: GroundSet,
                           distinct: bool = False,
                           budget: int = 10**8) -> tuple[Rat, ...] | None:
    """monochromatic_solution_rows on A's rows, scaled to integers."""
    return monochromatic_solution_rows(*A.integer_rows(), c, g, distinct, budget)


def monochromatic_solution_rows(rows: list[list[int]], cols: int, c: Colouring,
                                g: GroundSet, distinct: bool = False,
                                budget: int = 10**8) -> tuple[Rat, ...] | None:
    """Exhaustive search for a one-colour-class solution of the matrix with
    these integer rows of length cols, with values drawn from g; optionally
    all values pairwise distinct.  Returns the values in column order, or
    None.

    Deterministic: colour classes in colour order, candidates in ground-set
    order, first witness wins.  Before any search and before a slice is
    listed, raises ValueError when the kernel would enumerate more than
    MAX_ENUMERATED columns (those before the last nonzero one), and
    BudgetExceededError when `_walk_bound` over them exceeds `budget`.
    """
    if cols == 0:
        raise ValueError("matrix has no columns to solve for")
    rows = [row for row in rows if any(row)]
    last = max((j for row in rows for j in range(cols) if row[j]), default=-1)
    den, classes = _colour_classes(c, g)
    sizes = [len(cls) for cls in classes]
    spans = [cls.span() if isinstance(cls, _Runs) else (cls[0], cls[-1])
             for cls in classes]
    # the columns before the last nonzero one are enumerated; the last is
    # solved for, and the all-zero ones after it are filled without a search
    plan = _plan(rows, range(last + 1))
    if _walk_bound(rows, len(plan.heads), spans, sizes, distinct, budget) > budget:
        raise BudgetExceededError(
            f"search space exceeds budget of {budget} candidate tuples"
        )
    for cls, size, (lo, hi) in zip(classes, sizes, spans):
        if distinct and size < cols:
            continue
        inclass = cls if isinstance(cls, _Runs) else set(cls)
        found = _search(plan, [0] * len(rows), cls, lo, hi, inclass, lo, hi,
                        distinct)
        if found is not None:
            # all-zero columns after the solved one take the first allowed candidates
            for _ in range(last + 1, cols):
                found.append(next(x for x in cls if not (distinct and x in found)))
            return tuple(Fraction(x, den) for x in found)
    return None


class RadoNumberResult(_Record):
    """Outcome of a Rado-number search.

    number is the least N such that every colouring of {1..N} admits a
    monochromatic solution, or None when some colouring of the whole range
    survives.  witness is always a solution-free colouring: of {1..N-1}
    when number is found (colour of 1, colour of 2, ...), of the full range
    otherwise.  Either way it is the lexicographically least one.
    """

    __slots__ = _fields = ("number", "witness")

    def __init__(self, number: int | None, witness: tuple[int, ...]) -> None:
        self._set(number=number, witness=witness)


_Pinned = list[tuple[tuple[int, ...], _Plan, int, int]]


def _rado_plans(rows: list[list[int]], n_max: int) -> tuple[_Pinned, _Pinned]:
    """The exact-check and the forward plans of `min_rado_number` for
    nonzero integer rows, each with the coefficients of the columns it pins
    t at and the least and the greatest t at which it can fire.

    Only the first columns of a kind are pinned or solved for.  An exact
    check pins t at the first two columns of one kind or the first columns
    of two kinds, and runs at t in [1, n_max].  A forward plan pins t at the
    first column of a kind and solves for u at the first column of each kind
    among the other nonzero columns, and runs at t in [1, n_max - 1].
    """
    columns = list(zip(*rows))
    nonzero = [j for j, col in enumerate(columns) if any(col)]
    kinds = [p for p in nonzero if columns.index(columns[p]) == p]
    plans: _Pinned = []
    for i, p in enumerate(kinds):
        twin = [j for j in nonzero if j > p and columns[j] == columns[p]][:1]
        for q in twin + kinds[i + 1:]:
            plans += _firing(rows, tuple(a + b for a, b in zip(columns[p], columns[q])),
                             [j for j in nonzero if j not in (p, q)], (0, 1), (1, 0), n_max)
    ahead: _Pinned = []
    for p in kinds:
        rest = [j for j in nonzero if j != p]
        left = [columns[j] for j in rest]
        for k, f in enumerate(rest):
            if left.index(columns[f]) == k:
                ahead += _firing(rows, columns[p], [j for j in rest if j != f] + [f],
                                 (1, 1), (0, n_max), n_max - 1)
    return plans, ahead


def _firing(rows: list[list[int]], pinned: tuple[int, ...], columns: list[int],
            ylo: tuple[int, int], yhi: tuple[int, int], t_max: int) -> _Pinned:
    """The plan for `columns` with t pinned, and the interval of t in
    [1, t_max] on which its pivot row admits a solved value in [ylo, yhi],
    each bound the pair (c, d) of c*t + d, when the pinned columns add
    pinned[pivot] * t to the row and every enumerated column lies in [1, t];
    nothing, and no plan built, when that interval is empty."""
    tlo, thi = 1, t_max
    if columns:
        i = next(i for i, row in enumerate(rows) if row[columns[-1]])
        sign = 1 if rows[i][columns[-1]] > 0 else -1
        *heads, b = [sign * rows[i][j] for j in columns]
        pos = sum(a for a in heads if a > 0)
        neg, pin = sum(heads) - pos, sign * pinned[i]
        # b * y spans [-(pos + pin) * t - neg, -(neg + pin) * t - pos] and
        # must meet [b * ylo, b * yhi]: two conditions alpha * t + beta <= 0
        for alpha, beta in ((neg + pin + b * ylo[0], pos + b * ylo[1]),
                            (-pos - pin - b * yhi[0], -neg - b * yhi[1])):
            if alpha > 0:
                thi = min(thi, -beta // alpha)
            elif alpha < 0:
                tlo = max(tlo, -(beta // alpha))
            elif beta > 0:
                return []
    return [(pinned, _plan(rows, columns), tlo, thi)] if tlo <= thi else []


def min_rado_number(A: RatMatrix, r: int, n_max: int) -> RadoNumberResult:
    """min_rado_number_rows on A's rows, scaled to integers."""
    return min_rado_number_rows(*A.integer_rows(), r, n_max)


def min_rado_number_rows(rows: list[list[int]], cols: int, r: int,
                         n_max: int) -> RadoNumberResult:
    """For the matrix with these integer rows of length cols: the least
    N <= n_max forcing a monochromatic solution under every
    r-colouring of {1..N}, by backtracking with solution pruning and
    forward checking.

    Colourings are tried in lexicographic order with restricted growth:
    colour c is used only once colour c-1 has been used, so of the
    colourings that differ only by a renaming of colours only the least is
    tried.

    Both the exact check and the forward step run the one kernel,
    `_search`: the exact check for its first assignment, the forward step
    collecting every solved value in (t, n_max].  Neither asks for distinct
    values, so both merge the prefixes that leave equal row sums.

    Forward checking: once t takes colour c and passes the exact check,
    every uncoloured u in (t, n_max] that would complete a solution in class
    c with t and u, u filling one column, gets a mark against colour c: bit
    u of the colour's mask.  The masks are passed down the recursion, each
    step ORing its marks into a new list, so backtracking is a return.  A
    marked colour is rejected without the exact check.  After each forward
    step the whole window (t, len(best) + 1] is tested by one pass over the
    masks, and the branch is cut when some u in it has every colour marked
    (a wipe-out): no extension of it can colour u, so none can beat the
    best colouring found.  Wipe-outs past that horizon are not tested,
    since cutting there could cut the least witness.

    Forced values: after each forward step one pass over the masks finds
    the values u in (t, len(best)] with one colour c left unmarked.  Each
    such u not yet propagated on this branch (bit u of a `done` mask,
    handed down beside the marks) runs its own forward plans against class
    c, u pinned, and its marks are ORed into c's mask; the pass and the
    wipe-out test repeat until no new value is forced.  A forced value
    marks only above itself, so the window's top value is left until the
    window grows past it.  With one colour len(best) is t and nothing
    propagates; a value forced to an unused colour has no class to draw
    from and is not propagated either, nor is n_max, which has no plans.

    Forced-value lemma: propagated marks are exact.  Marks only grow along
    a branch, so when every colour but c is marked at u, any colouring that
    gets past u gave u the colour c.  A mark against c at a w > u, from a
    solution in class c with u, therefore removes only colourings that hold
    a monochromatic solution: a branch that reaches w has given u the colour
    c, so the exact check and the marks would reject c at w anyway, and a
    wipe-out revealed at w cuts only branches that colour nothing past
    w - 1 <= len(best).  The solution-free colourings longer than the best
    found so far are still visited in the same order, so neither the
    number nor the lexicographically least witness can change.  Only the
    wipe-out test stays limited to the horizon.

    One-column lemma: a solution in which t fills exactly one nonzero
    column is always marked.  Its other nonzero columns hold values below
    t, in t's class, and when the greatest of them, t', took that colour,
    the forward step solved for the column holding t and marked t.  Nor is
    a solution with t in no nonzero column new: without t it was already a
    solution.  So the exact check pins t at two nonzero columns only:
    the first two columns of one kind, or the first columns of two kinds
    (swapping columns with equal coefficients maps solutions to solutions),
    and the kernel solves the other nonzero columns in t's class.  When no
    column is nonzero, every assignment is a solution and the number is 1.

    Firing lemma: a plan runs only at the t where its pivot row admits a
    value.  Sign the row so that the solved column's coefficient b is
    positive; let P be the pinned columns' coefficient and pos and neg the
    sums of the positive and of the negative enumerated coefficients.  With
    the enumerated columns in [1, t], the row admits a solved value in
    [ylo, yhi] only if (neg + P) * t + pos <= -b * ylo and
    (pos + P) * t + neg >= -b * yhi: [1, t] for an exact check, at t in
    [1, n_max], and (t, n_max] for a forward plan, at t < n_max.  Both are
    linear in t, so the t that pass form one interval, found in closed form
    (`_firing`).  It ignores integrality and the gaps in the class, so the
    kernel answers None, or adds no value, at every t outside it.  A plan
    with an empty interval is not built, and when no exact check is built
    the classes are not kept as sets.  For x + y = z no exact check can
    hold (pinning t twice forces the third value to 2t or 0), and the one
    forward plan kept is t + y = u.

    The search is exhaustive at desk scale only; hence the caps r <= 4 and
    n_max <= 64.  A plan of more than MAX_ENUMERATED enumerated columns
    raises ValueError before any search.
    """
    if not 1 <= r <= 4:
        raise ValueError(f"colour count must be 1..4, got {r}")
    if not 1 <= n_max <= 64:
        raise ValueError(f"n_max must be 1..64, got {n_max}")
    if cols == 0:
        raise ValueError("matrix has no columns to solve for")

    rows = [row for row in rows if any(row)]
    if not rows:
        # every assignment is a solution, so colouring 1 alone forces one
        return RadoNumberResult(1, ())
    # each t's exact-check and forward plans that can fire, with the row
    # sums of t's pins
    checks, ahead = ([[([a * t for a in pinned], plan) for pinned, plan, lo, hi in pairs
                       if lo <= t <= hi] for t in range(n_max + 1)]
                     for pairs in _rado_plans(rows, n_max))

    members: list[list[int]] = [[] for _ in range(r)]
    # the classes as sets, for the exact checks only
    inclass: list[set[int]] = [set() for _ in range(r)] if any(checks) else []
    colours: list[int] = []
    best: tuple[int, ...] = ()

    def marked_by(u: int, cls: list[int]) -> int:
        """The values in (u, n_max] that would complete a solution with u and
        values from `cls` in one class, as bits."""
        values = [0]
        for res, plan in ahead[u]:
            _search(plan, res, cls, cls[0], cls[-1], range(u + 1, n_max + 1), u + 1,
                    n_max, False, values)
        return values[0] << u + 1

    def forward(t: int, colour: int, marks: list[int],
                done: int) -> tuple[list[int], int] | None:
        """The marks with `colour` also marked at each u in (t, n_max] that
        would complete a solution in its class with t, then propagated from
        each value forced in (t, len(best)] and not in `done`, which gains
        them; None on a wipe-out: some u in the window (t, len(best) + 1]
        marked against every colour."""
        marks = marks.copy()
        marks[colour] |= marked_by(t, members[colour])
        window = (1 << len(best) + 2) - (2 << t)     # bits t+1 .. len(best)+1
        while True:
            free = twice = 0    # the bits with a colour unmarked, with two
            for m in marks:
                m = window & ~m
                twice |= free & m
                free |= m
            if window & ~free:
                return None
            # a forced value marks only above itself, so not the window's top
            forced = free & ~twice & ~done & window >> 1
            if not forced:
                return marks, done
            u = (forced & -forced).bit_length() - 1
            done |= 1 << u
            c = next(c for c, m in enumerate(marks) if not m >> u & 1)
            if members[c]:
                marks[c] |= marked_by(u, members[c])

    def extend(t: int, used: int, marks: list[int], done: int) -> bool:
        """Try each colour for t in turn and extend every solution-free
        choice to t + 1; `used` colours appear on 1..t-1, bit u of marks[c]
        is set when u would complete a solution in class c, and bit u of
        done once u has been propagated.  True once n_max is coloured."""
        nonlocal best
        for colour in range(min(r, used + 1)):
            if marks[colour] >> t & 1:
                continue
            cls = members[colour]
            cls.append(t)
            if inclass:
                inclass[colour].add(t)
            colours.append(colour)
            # only solutions that contain t are new; most t have no exact
            # check, and skipping the empty generator is measurably faster
            if not checks[t] or all(_search(plan, res, cls, cls[0], t, inclass[colour],
                                            cls[0], t, False) is None
                                    for res, plan in checks[t]):
                if t > len(best):
                    best = tuple(colours)
                if t == n_max:
                    return True
                if (step := forward(t, colour, marks, done)) is not None and extend(
                        t + 1, max(used, colour + 1), *step):
                    return True
            cls.pop()
            if inclass:
                inclass[colour].discard(t)
            colours.pop()
        return False

    if extend(1, 0, [0] * r, 0):
        return RadoNumberResult(None, best)
    return RadoNumberResult(len(best) + 1, best)
