"""The monochromatic-solution and Rado-number searches as they were before
the shared integer kernel, kept verbatim as the reference that
tests/test_search_differential.py compares the current code against.

Both enumerate every variable with Fraction or integer arithmetic and no
symmetry breaking beyond colour(1) = 0.  Not collected by pytest.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from radokit.linalg import RatMatrix
from radokit.rings import Rat
from radokit.search import (
    BudgetExceededError,
    Colouring,
    GroundSet,
    RadoNumberResult,
    SolutionAssignment,
)


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
    order, first witness wins.  Raises BudgetExceededError instead of
    searching more than `budget` candidate tuples.
    """
    v = A.cols
    if v == 0:
        raise ValueError("matrix has no columns to solve for")
    classes = []
    for colour in range(c.r):
        members = [x for x in g if c.covers(x) and c.colour_of(x) == colour]
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

        def extend() -> SolutionAssignment | None:
            depth = len(chosen)
            if depth == v:
                return SolutionAssignment(tuple(chosen))
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
