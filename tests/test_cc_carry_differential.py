"""Differential test of columns_condition, which carries its rows in reduced
row echelon form from step to step, against the columns_condition that
eliminated the used columns from scratch at every step
(tests/rado_reference.py).

The reduced row echelon form is unique for a given column order, so both
must give equal certificates, witnesses included, on every matrix.  The
hand-built matrices below each take one case of the insertion lemma in
columns_condition's docstring at a step whose outcome depends on it.
"""

import random
from fractions import Fraction as F

import pytest

import rado_reference as ref
from radokit.linalg import RatMatrix
from radokit.rado import CCCertificate, _insert, columns_condition


def random_entry(rng):
    roll = rng.random()
    if roll < 0.3:
        return F(0)
    if roll < 0.75:
        return F(rng.randint(-3, 3))
    if roll < 0.95:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    return F(rng.randint(-10**9, 10**9), rng.randint(1, 10**4))


def combination(rng, cols, u):
    """A combination of up to three of cols with small coefficients."""
    out = [F(0)] * u
    for col in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
        s = F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
        out = [x + s * y for x, y in zip(out, col)]
    return out


def certified_columns(rng, u, v):
    """v columns in blocks built to satisfy the columns condition: the
    first block sums to zero and each later one to a combination of the
    columns before it; then shuffled."""
    cols = []
    while len(cols) < v:
        size = min(rng.randint(1, 4), v - len(cols))
        block = [[random_entry(rng) for _ in range(u)] for _ in range(size - 1)]
        target = combination(rng, cols, u) if cols else [F(0)] * u
        block.append([t - sum(c) for t, *c in zip(target, *block)])
        cols += block
    rng.shuffle(cols)
    return cols


def random_columns(rng, u, v):
    """v columns of height u, with repeated, negated, dependent and zero
    columns mixed in."""
    cols = []
    for _ in range(v):
        roll = rng.random()
        if roll < 0.1:
            col = [F(0)] * u
        elif roll < 0.25 and cols:
            col = list(rng.choice(cols))
        elif roll < 0.4 and cols:
            col = [-x for x in rng.choice(cols)]
        elif roll < 0.55 and cols:
            col = combination(rng, cols, u)
        else:
            col = [random_entry(rng) for _ in range(u)]
        cols.append(col)
    return cols


def random_matrix(rng):
    u, v = rng.randint(1, 4), rng.randint(1, 16)
    make = certified_columns if rng.random() < 0.5 else random_columns
    rows = [list(row) for row in zip(*make(rng, u, v))]
    for row in rows:
        if rng.random() < 0.1:
            row[:] = [F(0)] * v
    return RatMatrix.from_rows(rows)


def test_certificates_match_the_per_step_elimination():
    rng = random.Random(18102026)
    seen = {"certified": 0, "refused": 0, "zero row": 0, "zero column": 0,
            "later block": 0, "16 columns": 0}
    for _ in range(3200):
        M = random_matrix(rng)
        cert = columns_condition(M)
        assert cert == ref.columns_condition(M), M
        rows = M.to_lists()
        seen["certified" if cert else "refused"] += 1
        seen["zero row"] += not all(map(any, rows))
        seen["zero column"] += not all(map(any, zip(*rows)))
        seen["later block"] += cert is not None and len(cert.blocks) > 2
        seen["16 columns"] += M.cols == 16
    assert min(seen.values()) >= 150, seen


def test_case_a_repacks_the_residuals():
    """Block (2, 3) makes column 2 a pivot; column 4 = 2 * column 2 then
    lies in the span, which only the repacked residuals show."""
    M = RatMatrix.from_rows([[1, -1, 0, 0, 0], [0, 0, 1, -1, 2]])
    cert = columns_condition(M)
    assert cert == CCCertificate(((0, 1), (2, 3), (4,)),
                                 ((0, 0), (0, 0, 2, 0)))
    assert cert == ref.columns_condition(M)


def test_case_b_leaves_the_rows_alone():
    """Block (0, 2, 3) leaves pivots 0 and 2; column 1 = 2 * column 0 lies
    in the span of the used columns below it, so no row changes, though
    pivot 2 lies above it."""
    M = RatMatrix.from_rows([[1, 2, 0, -1, 0], [0, 0, 1, -1, 1]])
    cert = columns_condition(M)
    assert cert == CCCertificate(((0, 2, 3), (1,), (4,)),
                                 ((2, 0, 0), (0, 0, 1, 0)))
    assert cert == ref.columns_condition(M)
    basis, rest = [], [[1, 2, 0, -1, 0], [0, 0, 1, -1, 1]]
    for j in (3, 0, 2):
        _insert(basis, rest, j)
    assert [c for c, _ in basis] == [0, 2] and rest == []
    before = [(c, list(row)) for c, row in basis]
    assert not _insert(basis, rest, 1)
    assert basis == before and rest == []


def test_case_c_the_last_pivot_row_leaves():
    """Block (1, 2, 3) leaves pivots 1 and 2; column 0 = column 1 +
    2 * column 2 enters ahead of both, and pivot 2, the last one whose
    row is nonzero at column 0, becomes dependent, so the witness of
    column 4 is written in columns 0 and 1."""
    M = RatMatrix.from_rows([[1, 1, 0, -1, 0], [2, 0, 1, -1, 1]])
    cert = columns_condition(M)
    assert cert == CCCertificate(
        ((1, 2, 3), (0,), (4,)),
        ((1, 2, 0), (F(1, 2), F(-1, 2), 0, 0)))
    assert cert == ref.columns_condition(M)
    basis, rest = [], [[1, 1, 0, -1, 0], [2, 0, 1, -1, 1]]
    for j in (1, 2, 3):
        _insert(basis, rest, j)
    assert [c for c, _ in basis] == [1, 2] and rest == []
    assert not _insert(basis, rest, 0)
    assert [c for c, _ in basis] == [0, 1]
    assert [F(x, row[c]) for c, row in basis for x in row] == [
        1, 0, F(1, 2), F(-1, 2), F(1, 2), 0, 1, F(-1, 2), F(-1, 2), F(-1, 2)]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)])
def test_insertion_order_gives_the_one_reduced_form(order):
    rows = [[1, 2, 3, 4], [2, 4, 7, 1]]
    basis, rest = [], [list(row) for row in rows]
    for j in order:
        _insert(basis, rest, j)
    assert [c for c, _ in basis] == [0, 2]
    assert [[F(x, row[c]) for x in row] for c, row in basis] == [
        [1, 2, 0, 25], [0, 0, 1, -7]]
