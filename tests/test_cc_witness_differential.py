"""Differential test of columns_condition's witnesses against the Fraction
in_span of tests/linalg_reference.py.

columns_condition solves each witness on its integer-scaled columns.  Every
witness must equal the reference solved on A's own rational columns: the
used columns, in ascending order, against the block's rational sum.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

import linalg_reference as ref
from conftest import column
from radokit.linalg import RatMatrix
from radokit.rado import columns_condition
from radokit.systems import SystemSpec, parse_schedule
from systems_reference import dense_truncated_system


def check_witnesses(M):
    """Hold every witness of M's certificate to the reference; return the
    certificate's witness count, or None when M has no certificate."""
    cert = columns_condition(M)
    if cert is None:
        return None
    used = sorted(cert.blocks[0])
    for block, witness in zip(cert.blocks[1:], cert.witnesses):
        target = [sum((M.at(i, j) for j in block), F(0)) for i in range(M.rows)]
        expected = ref.in_span([column(M, j) for j in used], target)
        assert list(witness) == expected, (M, cert.blocks, block)
        assert all(type(w) is F for w in witness)
        used = sorted(used + list(block))
    return len(cert.witnesses)


def random_entry(rng):
    roll = rng.random()
    if roll < 0.3:
        return F(0)
    if roll < 0.75:
        return F(rng.randint(-3, 3))
    if roll < 0.95:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def random_columns(rng, u, v):
    """v columns of height u: independent entries, a low-rank family, or
    blocks built to satisfy the columns condition."""
    kind = rng.choice(("random", "low-rank", "certified", "certified"))
    if kind == "random":
        return [[random_entry(rng) for _ in range(u)] for _ in range(v)]
    if kind == "low-rank":
        basis = [[random_entry(rng) for _ in range(u)]
                 for _ in range(rng.randint(1, 2))]
        cols = []
        for _ in range(v):
            coeffs = [F(rng.randint(-2, 2)) for _ in basis]
            cols.append([sum((c * b[i] for c, b in zip(coeffs, basis)), F(0))
                         for i in range(u)])
        return cols
    cols = []
    while len(cols) < v:
        size = min(v - len(cols), rng.randint(1, 3))
        coeffs = [F(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in cols]
        target = [sum((c * col[i] for c, col in zip(coeffs, cols)), F(0))
                  for i in range(u)]
        block = [[random_entry(rng) for _ in range(u)] for _ in range(size - 1)]
        cols += block + [[t - sum((b[i] for b in block), F(0))
                          for i, t in enumerate(target)]]
    return cols


def random_matrix(rng):
    """A u x v matrix with repeated columns, zero columns, zero rows and rows
    scaled to lcm > 1 mixed in."""
    u, v = rng.randint(1, 4), rng.randint(1, 10)
    cols = random_columns(rng, u, v)
    for j in range(v):
        roll = rng.random()
        if roll < 0.1:
            cols[j] = [F(0)] * u
        elif roll < 0.25:
            cols[j] = list(cols[rng.randrange(v)])
    rng.shuffle(cols)
    rows = [[col[i] for col in cols] for i in range(u)]
    for i in range(u):
        roll = rng.random()
        if roll < 0.1:
            rows[i] = [F(0)] * v
        elif roll < 0.4:
            c = F(rng.choice((-5, -1, 1, 2, 7, 10**12)), rng.choice((3, 4, 10**6)))
            rows[i] = [c * x for x in rows[i]]
    return RatMatrix.from_rows(rows)


def test_witnesses_match_the_fraction_reference_on_random_matrices():
    rng = random.Random(20261019)
    seen = {"refused": 0, "certified": 0, "witnesses": 0,
            "lcm > 1": 0, "entry >= 10^9": 0}
    for _ in range(3000):
        M = random_matrix(rng)
        count = check_witnesses(M)
        if count is None:
            seen["refused"] += 1
            continue
        seen["certified"] += 1
        seen["witnesses"] += count
        if count:
            if any(lcm(*(x.denominator for x in M.row(i))) > 1
                   for i in range(M.rows)):
                seen["lcm > 1"] += 1
            if any(abs(x.numerator) >= 10**9 for x in M.entries):
                seen["entry >= 10^9"] += 1
    assert seen["witnesses"] >= 2000, seen
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("schedule", ["qpow:3", "qpowpair:2", "allprimes",
                                      "allprimespair"])
@pytest.mark.parametrize("depth", [3, 4, 5, 6])
def test_witnesses_match_the_fraction_reference_on_truncations(schedule, depth):
    sched = parse_schedule(schedule)
    M = RatMatrix.from_rows(dense_truncated_system(SystemSpec(sched.arity, depth, sched)))
    assert check_witnesses(M)
