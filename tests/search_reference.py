"""The monochromatic-solution and Rado-number searches as they were before
the shared integer kernel, kept verbatim as the reference that
tests/test_search_differential.py compares the current code against.

Both enumerate every variable with Fraction or integer arithmetic and no
symmetry breaking beyond colour(1) = 0.

`_first_solution`, `_solve`, `_extend` and `_solved_values` are the
integer kernel as it was when a depth-first walk found the first
assignment and a level-by-level walk collected the forward step's solved
values, copied verbatim; only the plan builder, `_head_range` and `_Runs`
come from the library.  `min_rado_number_one_pin` is the kernel-based
Rado-number search as it was before its exact checks pinned t at two
columns, t pinned at one column of each kind and every forward plan
built, and it runs on that copy.  `floor_log2_shifted` is `_floor_log2`
as it was before it became one quotient's bit length, verbatim.
`min_rado_number_rows` is the library's search as it was before it
propagated forced values, verbatim, on the library's plans and kernel; the
`_search` beside it gives the kernel's collect mode the set it filled then.
Not collected by pytest.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from radokit import search
from radokit.linalg import RatMatrix, _integer_rows
from radokit.rings import Rat
from radokit.search import (
    BudgetExceededError,
    Colouring,
    GroundSet,
    RadoNumberResult,
    _head_range,
    _Plan,
    _plan,
    _rado_plans,
    _Runs,
)


# The kernel as it was before one depth-first enumeration served both
# the first assignment and the forward step's solved values, verbatim.


def _first_solution(plan: _Plan, res: list[int], members: list[int],
                    inclass: set[int], distinct: bool, lo: int,
                    hi: int) -> list[int] | None:
    """The first assignment of the plan's columns, in candidate order, that
    zeroes every row: enumerated values come from `members` (a list, or the
    `_Runs` that is also `inclass`), and the solved value must lie in
    `inclass`; [lo, hi] spans the class.  res[i] is row i's sum over the
    columns assigned beforehand.  Returns the values in plan order, or None."""
    for i in plan.fixed:
        if res[i]:
            return None
    chosen: list[int] = []
    if plan.pivot < 0:
        return chosen
    if not plan.heads:
        y = _solve(plan, res, chosen, inclass, distinct)
        return None if y is None else [y]
    found = _extend(plan, res, chosen, members, inclass, distinct, lo, hi)
    return chosen if found else None


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
            inclass: set[int], distinct: bool, lo: int, hi: int) -> bool:
    """Extend `chosen` by the enumerated columns it lacks, then by the
    solved column; res holds the row sums over the columns in `chosen`."""
    k, r = len(chosen), res[plan.pivot]
    xlo, xhi = _head_range(plan, k, r, lo, hi, lo, hi)
    if xlo > xhi:
        return False
    coeffs, checks = plan.heads[k], plan.checks[k]
    innermost = k + 1 == len(plan.heads)
    a, b = coeffs[plan.pivot], plan.solved[plan.pivot]
    # innermost, the pivot row alone must give an integral value in the
    # class: a cheap test that rejects most candidates before any list is
    # built, and that a class of runs answers for whole runs at once
    runs = innermost and isinstance(members, _Runs)
    test = innermost and not runs
    for x in members.solving(a, b, r) if runs else members:
        if not xlo <= x <= xhi:
            continue
        if test:
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
        elif _extend(plan, new, chosen, members, inclass, distinct, lo, hi):
            return True
        chosen.pop()
    return False


def _solved_values(plan: _Plan, res: list[int], members: list[int], lo: int,
                   hi: int, ylo: int, yhi: int) -> set[int]:
    """Every value in [ylo, yhi] that the plan's solved column takes in an
    assignment zeroing every row, the enumerated columns drawn from
    `members`, spanned by [lo, hi], and res as in `_first_solution`.

    The kernel's enumeration without its early exit, one column at a time
    within `_head_range`: assignments that leave equal row sums are merged,
    except at the last enumerated column, where each candidate is solved
    for directly.
    """
    for i in plan.fixed:
        if res[i]:
            return set()
    if not plan.heads:
        y = _solve(plan, res, [], range(ylo, yhi + 1), False)
        return set() if y is None else {y}
    pivot, solved, others = plan.pivot, plan.solved, plan.others
    last = len(plan.heads) - 1
    states = [res]
    for k in range(last):
        head, checks = plan.heads[k], plan.checks[k]
        states = {new for state in states
                  for xlo, xhi in (_head_range(plan, k, state[pivot], lo, hi,
                                               ylo, yhi),)
                  for x in members if xlo <= x <= xhi
                  for new in (tuple(r + a * x for r, a in zip(state, head)),)
                  if not any(new[i] for i in checks)}
    coeffs, checks = plan.heads[last], plan.checks[last]
    a, b = coeffs[pivot], solved[pivot]
    values = set()
    for state in states:
        r = state[pivot]
        xlo, xhi = _head_range(plan, last, r, lo, hi, ylo, yhi)
        if xlo > xhi:
            continue
        for x in members:
            if not xlo <= x <= xhi:
                continue
            # an integral y lies in [ylo, yhi]
            y, rest = divmod(-r - a * x, b)
            if rest:
                continue
            if checks or others:
                new = [ri + ai * x for ri, ai in zip(state, coeffs)]
                if any(new[i] for i in checks) or any(
                        new[i] + solved[i] * y for i in others):
                    continue
            values.add(y)
    return values


def covers(c: Colouring, x: Rat) -> bool:
    """Whether c colours x: a table colours its listed values, log2parity
    every nonzero one."""
    if c.kind == "table":
        return any(x == y for y, _ in c.assignments)
    return x != 0


def monochromatic_solution(
    A: RatMatrix,
    c: Colouring,
    g: GroundSet,
    distinct: bool = False,
    budget: int = 10**8,
) -> tuple[Rat, ...] | None:
    """Exhaustive search for a one-colour-class solution of A with values
    drawn from g; optionally all values pairwise distinct.

    Deterministic: colour classes in colour order, candidates in ground-set
    order, first witness wins.  Raises BudgetExceededError instead of
    searching more than `budget` candidate tuples.
    """
    v = A.cols
    if v == 0:
        raise ValueError("matrix has no columns to solve for")
    n, den = g.span
    slice_ = [Fraction(a, den) for a in range(1, n + 1)]
    classes = []
    for colour in range(c.r):
        members = [x for x in slice_ if covers(c, x) and c.colour_of(x) == colour]
        if members:
            classes.append(members)
    if sum(len(cls) ** v for cls in classes) > budget:
        raise BudgetExceededError(
            f"search space exceeds budget of {budget} candidate tuples"
        )

    # rows checked as soon as their last-involved variable is assigned
    finishing: list[list[int]] = [[] for _ in range(v)]
    for i in range(A.rows):
        last = max((j for j in range(v) if A.at(i, j) != 0), default=None)
        if last is not None:
            finishing[last].append(i)

    for members in classes:
        chosen: list[Rat] = []
        residual = [Fraction(0)] * A.rows

        def extend() -> tuple[Rat, ...] | None:
            depth = len(chosen)
            if depth == v:
                return tuple(chosen)
            for x in members:
                if distinct and x in chosen:
                    continue
                for i in range(A.rows):
                    residual[i] += A.at(i, depth) * x
                chosen.append(x)
                if all(residual[i] == 0 for i in finishing[depth]):
                    found = extend()
                    if found is not None:
                        return found
                chosen.pop()
                for i in range(A.rows):
                    residual[i] -= A.at(i, depth) * x
            return None

        found = extend()
        if found is not None:
            return found
    return None



def min_rado_number(A: RatMatrix, r: int, n_max: int) -> RadoNumberResult:
    """Least N <= n_max forcing a monochromatic solution under every
    r-colouring of {1..N}, by backtracking with solution pruning.

    Colour classes are interchangeable, so colour(1) is pinned to 0.  The
    search is exhaustive at desk scale only; hence the caps r <= 4 and
    n_max <= 64.
    """
    if not 1 <= r <= 4:
        raise ValueError(f"colour count must be 1..4, got {r}")
    if not 1 <= n_max <= 64:
        raise ValueError(f"n_max must be 1..64, got {n_max}")
    v = A.cols
    if v == 0:
        raise ValueError("matrix has no columns to solve for")

    # integer fast path: scale each row to integer coefficients
    int_rows: list[tuple[int, ...]] = []
    for i in range(A.rows):
        row = A.row(i)
        if all(x == 0 for x in row):
            continue
        s = lcm(*(x.denominator for x in row))
        int_rows.append(tuple(int(x * s) for x in row))

    def completes_solution(t: int, colours: list[int]) -> bool:
        """Does colouring t create a monochromatic solution inside {1..t}?

        Only tuples containing the newest value t need checking; older
        tuples were vetted when their maximum was coloured.
        """
        cls = [s for s in range(1, t + 1) if colours[s - 1] == colours[t - 1]]

        def fill(pos: int, partial: list[int], has_t: bool) -> bool:
            if pos == v:
                return has_t and all(
                    sum(row[j] * partial[j] for j in range(v)) == 0
                    for row in int_rows
                )
            candidates = cls if (has_t or pos < v - 1) else (t,)
            for value in candidates:
                partial.append(value)
                if fill(pos + 1, partial, has_t or value == t):
                    return True
                partial.pop()
            return False

        return fill(0, [], False)

    best_depth = 0
    best_witness: tuple[int, ...] = ()
    colours: list[int] = []

    def search() -> tuple[int, ...] | None:
        nonlocal best_depth, best_witness
        t = len(colours) + 1
        choices = range(1) if t == 1 else range(r)
        for colour in choices:
            colours.append(colour)
            if not completes_solution(t, colours):
                if t > best_depth:
                    best_depth = t
                    best_witness = tuple(colours)
                if t == n_max:
                    return tuple(colours)
                survivor = search()
                if survivor is not None:
                    return survivor
            colours.pop()
        return None

    survivor = search()
    if survivor is not None:
        return RadoNumberResult(None, survivor)
    return RadoNumberResult(best_depth + 1, best_witness)


def one_pin_plans(rows: list[list[int]], v: int):
    """The exact-check plans, t pinned at the first column of each kind, and
    every forward plan, each with its pinned columns' coefficients."""
    columns = [tuple(row[j] for row in rows) for j in range(v)]
    nonzero = [j for j in range(v) if any(columns[j])]
    # swapping two columns with equal coefficients maps solutions to
    # solutions, so t is pinned only at the first column of each kind
    kinds = [p for p in range(v) if columns.index(columns[p]) == p]
    plans = [(columns[p], _plan(rows, [j for j in nonzero if j != p]))
             for p in kinds]
    # the forward step pins t at a nonzero column p and solves for u at the
    # first column of each kind among the other nonzero columns
    ahead = []
    for p in kinds:
        if p not in nonzero:
            continue
        rest = [j for j in nonzero if j != p]
        left = [columns[j] for j in rest]
        ahead += [(columns[p], _plan(rows, [j for j in rest if j != f] + [f]))
                  for k, f in enumerate(rest) if left.index(columns[f]) == k]
    return plans, ahead


def min_rado_number_one_pin(A: RatMatrix, r: int, n_max: int) -> RadoNumberResult:
    """min_rado_number with the plans of `one_pin_plans`: the exact check
    decides every value the forward marks let through."""
    if not 1 <= r <= 4:
        raise ValueError(f"colour count must be 1..4, got {r}")
    if not 1 <= n_max <= 64:
        raise ValueError(f"n_max must be 1..64, got {n_max}")
    v = A.cols
    if v == 0:
        raise ValueError("matrix has no columns to solve for")

    rows = [row for row in _integer_rows(map(A.row, range(A.rows))) if any(row)]
    plans, ahead = one_pin_plans(rows, v)

    members: list[list[int]] = [[] for _ in range(r)]
    inclass: list[set[int]] = [set() for _ in range(r)]
    forbid = [0] * ((n_max + 1) * r)    # forbid[u*r + c]: marks against c at u
    trails: list[list[int]] = []        # the marks each coloured value made
    colours: list[int] = []
    used = [0]          # used[t]: colours used on 1..t
    best: tuple[int, ...] = ()

    def forward(t: int, colour: int) -> list[int] | None:
        """Mark `colour` at each u in (t, n_max] that would complete a
        solution in its class with t; the marks made, or None with them
        undone on a wipe-out at or below the horizon."""
        trail: list[int] = []
        horizon = len(best) + 1
        cls = members[colour]
        for pinned, plan in ahead:
            for u in _solved_values(plan, [a * t for a in pinned], cls, cls[0],
                                    t, t + 1, n_max):
                i = u * r + colour
                forbid[i] += 1
                trail.append(i)
                if forbid[i] == 1 and u <= horizon and all(forbid[u * r:u * r + r]):
                    for i in trail:
                        forbid[i] -= 1
                    return None
        return trail

    colour = 0
    while True:
        t = len(colours) + 1
        if colour < min(r, used[-1] + 1):
            if not forbid[t * r + colour]:
                cls = members[colour]
                cls.append(t)
                inclass[colour].add(t)
                # only solutions that contain t are new
                for pinned, plan in plans:
                    if _first_solution(plan, [a * t for a in pinned], cls,
                                       inclass[colour], False, cls[0], t) is not None:
                        break
                else:
                    colours.append(colour)
                    used.append(max(used[-1], colour + 1))
                    if t > len(best):
                        best = tuple(colours)
                    if t == n_max:
                        return RadoNumberResult(None, best)
                    trail = forward(t, colour)
                    if trail is not None:
                        trails.append(trail)
                        colour = 0
                        continue
                    colours.pop()
                    used.pop()
                cls.pop()
                inclass[colour].discard(t)
            colour += 1
        elif colours:
            colour = colours.pop()
            used.pop()
            members[colour].pop()
            inclass[colour].discard(t - 1)
            for i in trails.pop():
                forbid[i] -= 1
            colour += 1
        else:
            return RadoNumberResult(len(best) + 1, best)


def floor_log2_shifted(a: int, b: int) -> int:
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


# `min_rado_number_rows` as it was before forced-value propagation, verbatim.


def _search(plan: _Plan, res: list[int], members: list[int], lo: int, hi: int,
            inclass: set[int], ylo: int, yhi: int, distinct: bool,
            values: set[int] | None = None) -> list[int] | None:
    """The library's `_search`, looked up at each call, with its collect
    mode adding every solved value to the set `values`, as it did before it
    ORed bits into an int."""
    if values is None:
        return search._search(plan, res, members, lo, hi, inclass, ylo, yhi, distinct)
    bits = [0]
    found = search._search(plan, res, members, lo, hi, inclass, ylo, yhi, distinct, bits)
    values.update(y for y in range(ylo, yhi + 1) if bits[0] >> y - ylo & 1)
    return found


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
    step the whole window (t, len(best) + 1] is tested by one AND of the
    masks, and the branch is cut when some u in it has every colour marked
    (a wipe-out): no extension of it can colour u, so none can beat the
    best colouring found.  Wipe-outs past that horizon are not tested,
    since cutting there could cut the least witness.

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

    def forward(t: int, colour: int, marks: list[int]) -> list[int] | None:
        """The marks with `colour` also marked at each u in (t, n_max] that
        would complete a solution in its class with t, or None on a wipe-out:
        some u in (t, len(best) + 1] marked against every colour."""
        cls = members[colour]
        values: set[int] = set()
        for res, plan in ahead[t]:
            _search(plan, res, cls, cls[0], t, range(t + 1, n_max + 1), t + 1, n_max,
                    False, values)
        # the values are distinct, so their bits' sum is their OR
        marks = [*marks[:colour], marks[colour] | sum(1 << u for u in values),
                 *marks[colour + 1:]]
        wiped = (1 << len(best) + 2) - (2 << t)     # bits t+1 .. len(best)+1
        for m in marks:
            wiped &= m
        return None if wiped else marks

    def extend(t: int, used: int, marks: list[int]) -> bool:
        """Try each colour for t in turn and extend every solution-free
        choice to t + 1; `used` colours appear on 1..t-1, and bit u of
        marks[c] is set when u would complete a solution in class c.  True
        once n_max is coloured."""
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
                if (marked := forward(t, colour, marks)) is not None and extend(
                        t + 1, max(used, colour + 1), marked):
                    return True
            cls.pop()
            if inclass:
                inclass[colour].discard(t)
            colours.pop()
        return False

    if extend(1, 0, [0] * r):
        return RadoNumberResult(None, best)
    return RadoNumberResult(len(best) + 1, best)
