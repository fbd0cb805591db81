"""monochromatic_solution and min_rado_number against the searches they
replaced (search_reference.py, next to this file) on seeded random inputs:
the same witness or None, the same Rado number and witness colouring, and
BudgetExceededError exactly when the budget's count exceeds the budget.
min_rado_number is also checked against its one-pin form, its forward
plans against every forward plan that form builds, and its propagation of
forced values against the search before it.  The kernel `_search` is checked against the
two enumerations it replaced, `_first_solution` and `_solved_values`."""

import random
from collections import Counter
from fractions import Fraction as F
from math import lcm, prod

import pytest

import rado_counts
import search_reference as ref
from radokit.linalg import RatMatrix
from radokit.search import (
    BudgetExceededError,
    Colouring,
    GroundSet,
    _head_range,
    _plan,
    _rado_plans,
    _Runs,
    _search,
    min_rado_number,
    min_rado_number_rows,
    monochromatic_solution,
)

ENTRIES = [F(0)] * 4 + [F(k) for k in (-3, -2, -1, 1, 2, 3)] * 2 + [
    F(1, 2), F(-2, 3), F(3, 2), F(-5, 4)]
BUDGETS = (5, 40, 300, 2000, 10**8)


def random_matrix(rng: random.Random, max_rows: int, max_cols: int) -> RatMatrix:
    rows = min(max_rows, rng.choice((1, 1, 1, 2, 3)))  # one row solves most often
    cols = rng.randint(1, max_cols)
    M = [[rng.choice(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    for j in range(cols):
        if rng.random() < 0.15:
            for row in M:
                row[j] = F(0)
    return RatMatrix.from_rows(M)


def outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except BudgetExceededError:
        return "budget exceeded"


def random_ground_and_colouring(rng: random.Random, size: int):
    """One of: log2parity on a slice with denominator 1-7, or a table
    colouring read against a slice (the CLI's file: colourings), with some
    slice values uncoloured and some coloured values off the slice."""
    if rng.random() < 0.5:
        return GroundSet.slice(size, rng.randint(1, 7)), Colouring("log2parity")
    r = rng.randint(1, 4)
    den = rng.randint(1, 4)
    coloured = [F(a, den) for a in range(1, size + 1) if rng.random() < 0.9]
    coloured += [F(size + 1, den), F(1, den + 1), F(-1, den)]
    coloured = list(dict.fromkeys(coloured))
    rng.shuffle(coloured)
    return (GroundSet.slice(size, den),
            Colouring.table(coloured, [rng.randrange(r) for _ in coloured]))


def budget_count(A: RatMatrix, c: Colouring, g: GroundSet, distinct: bool) -> int:
    """The budget's count: the sum over colour classes of |class|^k, for k
    the columns before the last nonzero one (the columns the search
    enumerates), or, unless values must be distinct and when it is
    smaller, the walks of the merged states: over each class and each
    k' < k, |class| times the lesser of |class|^k' and the product over
    rows i of (sum_{j<k'} |a_ij| * (hi - lo) + 1), for rows scaled to
    integers and the class's span hi - lo counted in steps of the slice's
    denominator."""
    last = max((j for i in range(A.rows) for j in range(A.cols) if A.at(i, j)),
               default=0)
    classes: dict[int, list[F]] = {}
    n, den = g.span
    for x in (F(a, den) for a in range(1, n + 1)):
        if ref.covers(c, x):
            classes.setdefault(c.colour_of(x), []).append(x)
    tuples = sum(len(cls) ** last for cls in classes.values())
    if distinct:
        return tuples
    scales = [lcm(*(x.denominator for x in A.row(i))) for i in range(A.rows)]
    merged = 0
    for cls in classes.values():
        width = (max(cls) - min(cls)) * den
        for k in range(last):
            states = prod(sum(abs(x) for x in A.row(i)[:k]) * scales[i] * width + 1
                          for i in range(A.rows))
            merged += len(cls) * min(len(cls) ** k, states)
    return min(tuples, merged)


def test_monochromatic_solution_matches_reference():
    """Refused exactly when the budget's count exceeds the budget, and
    otherwise the reference's answer with no budget.  The count never
    exceeds the enumerated tuples, so no input that they keep within the
    budget is refused."""
    rng = random.Random(20260301)
    found = budget = 0
    for case in range(1000):
        A = random_matrix(rng, 3, 5)
        # keep the reference's full enumeration small
        size = rng.randint(1, min(30, int(3000 ** (1 / A.cols))))
        g, c = random_ground_and_colouring(rng, size)
        distinct = rng.random() < 0.5
        b = rng.choice(BUDGETS)
        got = outcome(monochromatic_solution, A, c, g, distinct, b)
        count = budget_count(A, c, g, distinct)
        assert count <= budget_count(A, c, g, True)
        if count > b:
            assert got == "budget exceeded", (case, A.to_lists(), c, g, distinct, b)
            budget += 1
            continue
        want = ref.monochromatic_solution(A, c, g, distinct, budget=10**100)
        assert got == want, (case, A.to_lists(), c, g, distinct, b)
        found += want is not None
    # the draw exercises all three outcomes
    assert found > 80 and budget > 100 and 1000 - found - budget > 300, (found, budget)


def test_runs_solving_matches_filter():
    """A class of runs yields, by arithmetic, exactly the candidates the
    kernel's per-value test keeps, in the same order."""
    rng = random.Random(20260304)
    for case in range(2000):
        cuts = sorted(rng.sample(range(-60, 200), 2 * rng.randint(1, 5)))
        cls = _Runs([range(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2])])
        a = rng.choice((0, 1, 2, 3, 6, 8)) * rng.choice((-1, 1))
        b = rng.choice((1, 2, 3, 4, 9)) * rng.choice((-1, 1))
        r = rng.randint(-300, 300)
        want = [x for x in cls if (-r - a * x) % b == 0 and (-r - a * x) // b in cls]
        assert list(cls.solving(a, b, r)) == want, (case, cls.runs, a, b, r)


def test_head_range_is_sound():
    """No value in [lo, hi] outside the k-th column's interval has a
    completion: later enumerated columns in [lo, hi] and an integral solved
    value in [ylo, yhi] that zero the pivot row.  Plans of 1-3 rows and 2-5
    columns, spans reaching below zero."""
    rng = random.Random(20261018)
    signs = Counter()
    for case in range(800):
        v = rng.randint(2, 5)
        rows = [tuple(rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(v))
                for _ in range(rng.randint(1, 3))]
        if not any(row[-1] for row in rows):
            continue
        plan = _plan(rows, range(v))
        *heads, b = rows[plan.pivot]
        lo = rng.randint(-6, 6)
        hi = lo + rng.randint(0, 4)
        ylo = rng.randint(-15, 15)
        yhi = ylo + rng.randint(0, 10)
        for k, a in enumerate(heads):
            # every sum the later enumerated columns can give
            later = {0}
            for c in heads[k + 1:]:
                later = {s + c * x for s in later for x in range(lo, hi + 1)}
            r = rng.randint(-25, 25)
            xlo, xhi = _head_range(plan, k, r, lo, hi, ylo, yhi)
            assert lo <= xlo and xhi <= hi, (case, rows, k, r, lo, hi, ylo, yhi)
            for x in range(lo, hi + 1):
                if any((r + a * x + s) % b == 0 and ylo <= -(r + a * x + s) // b <= yhi
                       for s in later):
                    assert xlo <= x <= xhi, (case, rows, k, r, lo, hi, ylo, yhi, x)
            signs[(a > 0) - (a < 0), b > 0] += 1
    # every sign of a (zero included) with every sign of b
    assert len(signs) == 6 and min(signs.values()) > 30, signs


def test_min_rado_number_matches_reference():
    rng = random.Random(20260302)
    numbers = 0
    for case in range(150):
        A = random_matrix(rng, 2, 4)
        r = rng.randint(1, 4)
        n_max = rng.randint(1, 20 if A.cols <= 3 else 10)
        want = ref.min_rado_number(A, r, n_max)
        assert min_rado_number(A, r, n_max) == want, (case, A.to_lists(), r, n_max)
        numbers += want.number is not None
    assert 15 < numbers < 135


def test_min_rado_number_matches_reference_on_equations():
    """Single equations with positive and negative coefficients, where the
    numbers are largest and the colouring search deepest."""
    rng = random.Random(20260303)
    numbers = 0
    for case in range(60):
        v = rng.randint(2, 4)
        row = [F(rng.choice((1, 1, 2, 3))) for _ in range(v - 1)] + [F(-rng.randint(1, 3))]
        rng.shuffle(row)
        A = RatMatrix.from_rows([row])
        r = rng.randint(1, 3 if v <= 3 else 2)
        n_max = rng.randint(5, 20 if v <= 3 else 12)
        want = ref.min_rado_number(A, r, n_max)
        assert min_rado_number(A, r, n_max) == want, (case, row, r, n_max)
        numbers += want.number is not None
    assert 15 < numbers < 45
    # five and six columns, where the per-level bound cuts deepest; the
    # reference enumerates |class|^(v-1) tuples per value, hence small n_max
    numbers = 0
    for case in range(40):
        v = rng.randint(5, 6)
        row = ([F(rng.choice((1, 1, 1, 2, 3, -1))) for _ in range(v - 1)]
               + [F(-rng.randint(1, 3))])
        rng.shuffle(row)
        A = RatMatrix.from_rows([row])
        r = rng.randint(1, 2)
        n_max = rng.randint(5, 11 if v == 5 else 9)
        want = ref.min_rado_number(A, r, n_max)
        assert min_rado_number(A, r, n_max) == want, (case, row, r, n_max)
        numbers += want.number is not None
    assert 10 < numbers < 35, numbers


# Equations in which the newest value can fill two columns (u + u = 3z), so
# the forward step marks only some of the solutions an exact check finds.
# The first three have coefficients summing to 0 and constant solutions.
REPEATING = {
    "x+y=z+w": ([1, 1, -1, -1], 20),
    "2x=y+z": ([2, -1, -1], 20),
    "x+y+z=3w": ([1, 1, 1, -3], 20),
    "x+y=3z": ([1, 1, -3], 20),
    "x+y+z=4w": ([1, 1, 1, -4], 20),
    "2x+y=5z": ([2, 1, -5], 20),
    "x+y=2z+w": ([1, 1, -2, -1], 15),
}


@pytest.mark.parametrize("name", REPEATING)
def test_min_rado_number_matches_reference_on_repeating_equations(name):
    row, n_max = REPEATING[name]
    A = RatMatrix.from_rows([row])
    for r in range(1, 5):
        want = ref.min_rado_number(A, r, n_max)
        assert min_rado_number(A, r, n_max) == want, (r, want)


# Systems with all-zero columns, and two-row systems whose columns repeat a
# kind, so that the exact check pins t at two columns of one kind.
PINNED_PAIRS = {
    "x+y=z, w free": ([[1, 1, -1, 0]], 16),
    "w free, x+y=z": ([[0, 1, 1, -1]], 16),
    "x+y=z, w free, a zero row": ([[1, 1, -1, 0], [0, 0, 0, 0]], 16),
    "every column zero": ([[0, 0], [0, 0]], 5),
    "x+y=z, x+y=w": ([[1, 1, -1, 0], [1, 1, 0, -1]], 16),
    "x+y=z, 2x+2y=w": ([[1, 1, -1, 0], [2, 2, 0, -1]], 16),
    "x+y=3z, x+y=w+v": ([[1, 1, -3, 0, 0], [1, 1, 0, -1, -1]], 12),
    "x+y+z=w, z=v": ([[1, 1, 1, -1, 0], [0, 0, 1, 0, -1]], 12),
    "x+y=z+w, x+y=2v": ([[1, 1, -1, -1, 0], [1, 1, 0, 0, -2]], 10),
}


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_min_rado_number_matches_reference_on_pinned_pairs(name):
    rows, n_max = PINNED_PAIRS[name]
    A = RatMatrix.from_rows(rows)
    for r in range(1, 5):
        want = ref.min_rado_number(A, r, n_max)
        assert min_rado_number(A, r, n_max) == want, (r, want)


def signed_row(rng: random.Random, v: int) -> list[int]:
    """v coefficients in -3..3, none zero, of both signs."""
    row = [0]
    while not min(row) < 0 < max(row):
        row = [rng.choice((-3, -2, -1, 1, 1, 2, 3)) for _ in range(v)]
    return row


def test_min_rado_number_matches_the_search_before_propagation():
    """Propagating forced values leaves every number and witness as the
    search before it gave (`search_reference.min_rado_number_rows`), where
    propagation fires: 4-colour Schur at nmax 30-42, x1+x2+x3=x4 with 3
    colours up to its number 43, 4x+2y+2z=3w with 3 colours up to nmax 30,
    and seeded random equations and two-row systems.  It changes the
    number of `_search` calls in over half of the listed cases and over a
    tenth of the random ones, and cuts their sum on the listed ones."""
    listed = ([([[1, 1, -1]], 4, n) for n in range(30, 43)]
              + [([[1, 1, 1, -1]], 3, n) for n in range(30, 44)]
              + [([[4, 2, 2, -3]], 3, n) for n in range(15, 31)])
    rng = random.Random(20261104)
    drawn = []
    for _ in range(150):
        drawn.append(([signed_row(rng, rng.randint(3, 4))], rng.randint(2, 3),
                      rng.randint(10, 24)))
        a, b = signed_row(rng, 3), signed_row(rng, 3)
        drawn.append(([a + [0], [b[0], 0, b[1], b[2]]], rng.randint(2, 3),
                      rng.randint(10, 24)))
    calls = Counter()
    for kind, cases in (("listed", listed), ("random", drawn)):
        for rows, r, n_max in cases:
            args = (rows, len(rows[0]), r, n_max)
            before, _, want = rado_counts.counts(ref.min_rado_number_rows, *args)
            after, _, got = rado_counts.counts(min_rado_number_rows, *args)
            assert got == want, (kind, rows, r, n_max)
            calls[kind, "changed"] += after != before
            calls[kind, "before"] += before
            calls[kind, "after"] += after
            calls[kind, "number"] += want.number is not None
    assert 2 * calls["listed", "changed"] > len(listed), calls
    assert 10 * calls["random", "changed"] > len(drawn), calls
    assert calls["listed", "after"] < calls["listed", "before"], calls
    assert calls["listed", "number"] == 1 and calls["random", "number"] > 50, calls


def random_system(rng: random.Random) -> list[list[int]]:
    """1-2 rows of 2-5 columns, coefficients in {0, +-1, +-2, 3}."""
    v = rng.randint(2, 5)
    return [[rng.choice((0, 1, -1, 2, -2, 3)) for _ in range(v)]
            for _ in range(rng.randint(1, 2))]


def test_min_rado_number_matches_one_pin_plans():
    """Pinning t at two columns and dropping the forward plans that cannot
    mark leave every number and witness as they were with t pinned at one
    column of each kind and every forward plan built."""
    rng = random.Random(20261019)
    seen = Counter()
    for case in range(1000):
        rows = random_system(rng)
        A = RatMatrix.from_rows(rows)
        r, n_max = rng.randint(1, 3), rng.randint(1, 14)
        want = ref.min_rado_number_one_pin(A, r, n_max)
        assert min_rado_number(A, r, n_max) == want, (case, rows, r, n_max)
        columns = list(zip(*rows))
        seen["number"] += want.number is not None
        seen["zero column"] += (0,) * len(rows) in columns
        seen["repeated kind"] += any(columns.count(c) > 1 for c in columns if any(c))
    assert min(seen.values()) > 200, seen


def test_min_rado_number_matches_one_pin_on_signed_equations():
    """Single equations with coefficients up to 4 of both signs, where many
    values lie in no solution and the wipe-out window cuts most."""
    rng = random.Random(20261022)
    numbers = 0
    for case in range(150):
        row = [0]
        while not min(row) < 0 < max(row):
            row = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                   for _ in range(rng.randint(3, 4))]
        A = RatMatrix.from_rows([row])
        r, n_max = rng.randint(2, 3), rng.randint(15, 30)
        want = ref.min_rado_number_one_pin(A, r, n_max)
        assert min_rado_number(A, r, n_max) == want, (case, row, r, n_max)
        numbers += want.number is not None
    assert 15 < numbers < 135, numbers


def test_dropped_forward_plans_cannot_mark():
    """A forward plan is dropped only when no assignment of its enumerated
    columns from [1, t] gives a solved value in (t, n_max], for any
    t < n_max: it could never mark.  The one-pin form's plans are the
    candidates."""
    rng = random.Random(20261020)
    dropped = kept = 0
    for case in range(300):
        rows = [row for row in random_system(rng) if any(row)]
        if not rows:
            continue
        v, n_max = len(rows[0]), rng.randint(2, 20)
        every = ref.one_pin_plans(rows, v)[1]
        ahead = [(pinned, plan) for pinned, plan, *_ in _rado_plans(rows, n_max)[1]]
        assert all(pair in every for pair in ahead), (case, rows)
        for pinned, plan in every:
            if (pinned, plan) in ahead:
                kept += 1
                continue
            dropped += 1
            for t in range(1, n_max):
                values = ref._solved_values(plan, [a * t for a in pinned],
                                            list(range(1, t + 1)), 1, t, t + 1,
                                            n_max)
                assert not values, (case, rows, pinned, plan, t, values)
    assert dropped > 100 and kept > 100, (dropped, kept)


def test_schur_keeps_one_forward_plan():
    """For x + y = z only t + y = u can mark: u = z - t and u = t - y never
    exceed t."""
    assert len(ref.one_pin_plans([[1, 1, -1]], 3)[1]) == 3
    assert len(_rado_plans([[1, 1, -1]], 42)[1]) == 1


def test_plan_intervals():
    """The interval of t on which each kept plan can fire, at n_max 20: for
    3x + y = z and x + y = z no exact check can ever hold."""
    def intervals(row):
        return tuple([(lo, hi) for *_, lo, hi in pairs]
                     for pairs in _rado_plans([row], 20))

    assert intervals([3, 1, -1]) == ([], [(1, 6), (1, 17)])
    assert intervals([1, 1, -1]) == ([], [(1, 19)])
    assert intervals([4, 2, 2, -3]) == ([(6, 20)], [(1, 14), (1, 19), (8, 19)])


def exact_candidates(rows: list[list[int]]) -> list[tuple[tuple[int, ...], object]]:
    """Every exact-check plan that `_rado_plans` weighs: t pinned at the
    first two columns of one kind or at the first columns of two kinds."""
    columns = list(zip(*rows))
    nonzero = [j for j, col in enumerate(columns) if any(col)]
    kinds = [p for p in nonzero if columns.index(columns[p]) == p]
    pairs = [(p, q) for i, p in enumerate(kinds)
             for q in [j for j in nonzero if j > p and columns[j] == columns[p]][:1]
             + kinds[i + 1:]]
    return [(tuple(a + b for a, b in zip(columns[p], columns[q])),
             _plan(rows, [j for j in nonzero if j not in (p, q)])) for p, q in pairs]


def test_plans_yield_nothing_outside_their_interval():
    """A candidate plan that the rule drops yields no solved value at any
    t, nor does a kept plan at a t outside its interval: with members
    1..t, no value in [1, t] for an exact check (t <= n_max) and none in
    (t, n_max] for a forward plan (t < n_max)."""
    rng = random.Random(20261103)
    seen = Counter()
    for case in range(600):
        rows = [row for row in random_plan_rows(rng) if any(row)]
        if not rows:
            continue
        n_max = rng.randint(2, 20)
        plans, ahead = _rado_plans(rows, n_max)
        for kind, candidates, kept, t_max in (
                ("exact", exact_candidates(rows), plans, n_max),
                ("forward", ref.one_pin_plans(rows, len(rows[0]))[1], ahead, n_max - 1)):
            window = {(pinned, plan): (lo, hi) for pinned, plan, lo, hi in kept}
            assert len(window) == len(kept) and set(window) <= set(candidates)
            for pinned, plan in candidates:
                if plan.pivot < 0:
                    # no column to solve for: kept at every t
                    assert window[pinned, plan] == (1, t_max), (case, rows)
                    continue
                lo, hi = window.get((pinned, plan), (1, 0))
                seen[kind + (" kept" if lo <= hi else " dropped")] += 1
                for t in range(1, t_max + 1):
                    if lo <= t <= hi:
                        continue
                    ylo, yhi = (1, t) if kind == "exact" else (t + 1, n_max)
                    values = ref._solved_values(plan, [a * t for a in pinned],
                                                list(range(1, t + 1)), 1, t, ylo, yhi)
                    assert not values, (case, rows, kind, pinned, plan, t, values)
                    seen[kind + " t outside"] += 1
    assert len(seen) == 6 and min(seen.values()) > 200, seen


def random_plan_rows(rng: random.Random) -> list[list[int]]:
    """1-3 rows of 2-6 columns: zero columns, repeated columns, and
    coefficients that vanish on some rows, so that pivots have zero
    coefficients on some heads and later rows become checks and others."""
    v = rng.randint(2, 6)
    columns = []
    for _ in range(v):
        if columns and rng.random() < 0.2:
            columns.append(rng.choice(columns))
        elif rng.random() < 0.1:
            columns.append(None)
        else:
            columns.append([rng.choice((0, 0, 1, -1, 1, 2, -2, 3, -3))
                            for _ in range(3)])
    rows = rng.randint(1, 3)
    return [[0 if col is None else col[i] for col in columns] for i in range(rows)]


def random_class(rng: random.Random, width: int) -> list[int] | _Runs:
    """A list of distinct ascending integers, or runs, within `width`
    consecutive integers, possibly below 1."""
    lo = rng.choice((1, 1, 1, -4))
    if rng.random() < 0.5:
        cuts = sorted(rng.sample(range(lo, lo + width + 1), 2 * rng.randint(1, 3)))
        return _Runs([range(a, b) for a, b in zip(cuts[::2], cuts[1::2])])
    pool = range(lo, lo + rng.randint(1, width))
    return sorted(rng.sample(pool, rng.randint(1, len(pool))))


def plan_shape(plan) -> set[str]:
    """The features of a plan that the kernel tests treat apart."""
    shape = {"no heads"} if plan.pivot >= 0 and not plan.heads else set()
    if plan.heads:
        shape.add(f"{min(len(plan.heads), 3)} heads")
        if any(coeffs[plan.pivot] == 0 for coeffs in plan.heads):
            shape.add("zero pivot coefficient")
    if any(plan.checks):
        shape.add("checks")
    if plan.others:
        shape.add("others")
    if plan.fixed:
        shape.add("fixed")
    return shape


def test_kernel_first_assignment_matches_reference():
    """Looking for the first assignment, the one kernel returns the
    assignment the depth-first `_first_solution` returned, on list and run
    classes, with and without distinct values, and so the merged prefixes
    never hide the first solution."""
    rng = random.Random(20261101)
    seen = Counter()
    for case in range(3000):
        rows = random_plan_rows(rng)
        v = len(rows[0])
        nonzero = [j for j in range(v) if any(row[j] for row in rows)]
        if not nonzero:
            continue
        # a random subset in a random order, ending at a nonzero column
        columns = rng.sample(range(v), rng.randint(1, v))
        if columns[-1] not in nonzero:
            columns.append(rng.choice(nonzero))
            columns = list(dict.fromkeys(columns[::-1]))[::-1]
        plan = _plan(rows, columns)
        # keep the reference's unmerged enumeration small
        cls = random_class(rng, min(30, int(4000 ** (1 / max(len(plan.heads), 1)))))
        inclass = cls if isinstance(cls, _Runs) else set(cls)
        lo, hi = cls.span() if isinstance(cls, _Runs) else (cls[0], cls[-1])
        res = [rng.choice((0, 0, 0, rng.randint(-20, 20))) for _ in rows]
        distinct = rng.random() < 0.5
        want = ref._first_solution(plan, list(res), cls, inclass, distinct, lo, hi)
        got = _search(plan, list(res), cls, lo, hi, inclass, lo, hi, distinct)
        assert got == want, (case, rows, columns, res, cls, distinct)
        seen.update(plan_shape(plan))
        seen["runs" if isinstance(cls, _Runs) else "list"] += 1
        seen["distinct" if distinct else "merged"] += 1
        seen["found" if want is not None else "none"] += 1
    assert len(seen) == 14 and min(seen.values()) > 100, seen


def test_kernel_collects_the_reference_values():
    """Collecting, the one kernel sets exactly the bits y - ylo of the values
    y the level-by-level `_solved_values` returned, for random plans from
    `_plan` and for every exact-check and forward plan of `_rado_plans`,
    pinned at t."""
    rng = random.Random(20261102)
    seen = Counter()
    for case in range(1200):
        rows = [row for row in random_plan_rows(rng) if any(row)]
        if not rows:
            continue
        v, n_max = len(rows[0]), rng.randint(2, 20)
        plans, ahead = _rado_plans(rows, n_max)
        nonzero = [j for j in range(v) if any(row[j] for row in rows)]
        columns = rng.sample(nonzero, rng.randint(1, len(nonzero)))
        pin = [rng.randint(-2, 2) for _ in rows]
        for kind, pairs in (("plan", [(pin, _plan(rows, columns))]),
                            ("exact", plans), ("forward", ahead)):
            for pinned, plan, *_ in pairs:
                if plan.pivot < 0:
                    continue    # no column to solve for
                t = rng.randint(1, n_max - 1)
                members = sorted(rng.sample(range(1, t + 1), rng.randint(1, t)))
                res = [a * t for a in pinned]
                ylo, yhi = rng.choice(((t + 1, n_max), (members[0], t),
                                       (-n_max, n_max)))
                want = ref._solved_values(plan, list(res), members, members[0],
                                          t, ylo, yhi)
                got = [0]
                _search(plan, list(res), members, members[0], t,
                        range(ylo, yhi + 1), ylo, yhi, False, got)
                assert got[0] == sum(1 << y - ylo for y in want), (
                    case, kind, rows, pinned, t, members, ylo, yhi)
                seen.update(plan_shape(plan))
                seen[kind] += 1
                seen["values" if want else "none"] += 1
    assert len(seen) == 13 and min(seen.values()) > 200, seen
