"""Differential test of the integer elimination and in_span against the
Fraction rref and in_span they replaced (tests/linalg_reference.py).

The reduced row echelon form is unique, so the elimination's rows, each
divided by its pivot, must equal the reference's entry for entry, and
every in_span output must be equal on every input.
"""

import random
from fractions import Fraction as F
from math import lcm

import linalg_reference as ref
from radokit.linalg import RatMatrix, _eliminate, _integer_rows, in_span


def random_entry(rng: random.Random) -> F:
    kind = rng.random()
    if kind < 0.35:
        return F(0)
    if kind < 0.7:
        return F(rng.randint(-4, 4))
    if kind < 0.95:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def random_rows(rng: random.Random, u: int, v: int) -> list[list[F]]:
    """u x v rows with zero rows, zero columns and dependent rows mixed in."""
    rows = [[random_entry(rng) for _ in range(v)] for _ in range(u)]
    for j in range(v):
        if rng.random() < 0.15:
            for row in rows:
                row[j] = F(0)
    for i in range(u):
        roll = rng.random()
        if roll < 0.1:
            rows[i] = [F(0)] * v
        elif roll < 0.35 and i >= 2:
            a, b = rng.sample(range(i), 2)
            s, t = random_entry(rng), random_entry(rng)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


def test_rref_and_rank_match_the_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(1000):
        u, v = rng.randint(0, 6), rng.randint(0, 7)
        M = RatMatrix.from_rows(random_rows(rng, u, v)) if u else RatMatrix(0, v, ())
        R, pivots = ref.rref(M)
        rows = _integer_rows(map(M.row, range(M.rows)))
        assert _eliminate(rows, M.cols) == pivots, M
        assert [[F(x, row[c]) for x in row] for row, c in zip(rows, pivots)] \
            == R.to_lists()[:len(pivots)], M
        assert not any(map(any, rows[len(pivots):])), M


def test_in_span_matches_the_fraction_reference():
    rng = random.Random(18102026)
    outcomes = {"inside": 0, "outside": 0, "empty": 0}
    for _ in range(1500):
        dim, k = rng.randint(0, 6), rng.randint(0, 6)
        columns = random_rows(rng, k, dim)
        roll = rng.random()
        if roll < 0.45 and k:
            coeffs = [random_entry(rng) for _ in range(k)]
            target = [sum((c * col[i] for c, col in zip(coeffs, columns)), F(0))
                      for i in range(dim)]
        elif roll < 0.55:
            target = [F(0)] * dim
        else:
            target = [random_entry(rng) for _ in range(dim)]
        got = in_span(columns, target)
        assert got == ref.in_span(columns, target), (columns, target)
        if dim == 0:
            outcomes["empty"] += 1
        else:
            outcomes["inside" if got is not None else "outside"] += 1
        if got is not None:
            assert all(type(x) is F for x in got)
            for i in range(dim):
                assert sum(c * col[i] for c, col in zip(got, columns)) == target[i]
    assert min(outcomes.values()) >= 100, outcomes


def old_integer_rows(rows):
    """The normalizer before it read each denominator once."""
    out = []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def test_integer_rows_match_the_old_formula():
    rng = random.Random(19102026)
    cases = [[], [0, -3, 7], [F(4), F(-6, 3), F(0)], [3, F(1, 2), -1, F(-5, 6)],
             [F(10**12, 7), 10**12, F(0)]]
    for _ in range(500):
        v = rng.randint(0, 7)
        kind = rng.choice(("int", "integral", "mixed"))
        if kind == "int":
            row = [rng.randint(-10**12, 10**12) for _ in range(v)]
        elif kind == "integral":
            row = [F(rng.randint(-9, 9)) for _ in range(v)]
        else:
            row = [rng.choice((rng.randint(-9, 9), random_entry(rng)))
                   for _ in range(v)]
        cases.append(row)
    got = _integer_rows(cases)
    assert got == old_integer_rows(cases)
    assert all(type(x) is int for row in got for x in row)


def test_in_span_ignores_entry_type_and_row_scaling():
    """Fraction vectors, the same vectors as ints, and every row of the
    vectors and target times one nonzero integer give one answer."""
    rng = random.Random(20102026)
    for _ in range(500):
        dim, k = rng.randint(1, 5), rng.randint(0, 5)
        ints = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        target = [rng.randint(-4, 4) for _ in range(dim)]
        if k and rng.random() < 0.5:
            coeffs = [rng.randint(-2, 2) for _ in range(k)]
            target = [sum(c * col[i] for c, col in zip(coeffs, ints))
                      for i in range(dim)]
        expected = ref.in_span([[F(x) for x in col] for col in ints],
                               [F(x) for x in target])
        assert in_span([[F(x) for x in col] for col in ints],
                       [F(x) for x in target]) == expected
        assert in_span(ints, target) == expected
        scale = [rng.choice((-10**12, -3, -1, 1, 2, 7)) for _ in range(dim)]
        assert in_span([[s * x for s, x in zip(scale, col)] for col in ints],
                       [s * x for s, x in zip(scale, target)]) == expected


def test_integer_inputs_are_accepted():
    assert in_span([(1, 0), (2, 0), (0, 1)], (3, 4)) == ref.in_span(
        [(1, 0), (2, 0), (0, 1)], (3, 4))
    assert in_span([(2, 4)], (1, 3)) is None
