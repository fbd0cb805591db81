"""Acceptance gate: the eight headline checks, each timed against its
stated budget and reported as a single PASS line (visible under -s)."""

import random
import time
from fractions import Fraction as F

from conftest import (
    dense,
    oracle_columns_condition,
    random_matrix,
    random_prime_set,
    random_subring_element,
    solves,
)
from radokit.linalg import RatMatrix
from radokit.rado import columns_condition, first_entries
from radokit.rings import PrimeSet, in_scaled_subring, in_subring, pigeonhole_subset
from radokit.search import (
    Colouring,
    GroundSet,
    log2_parity_colour,
    min_rado_number,
    monochromatic_solution,
)
from radokit.systems import (
    CoefficientSchedule,
    SystemSpec,
    natural_solution_witness,
    refute_over_subring,
    stacked_rows,
)
from systems_reference import dense_truncated_system

SEED = 20260819


def report(n: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s (budget {budget}s)"
    print(f"PASS criterion {n}: {detail} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_oracle_equivalence():
    rng = random.Random(SEED)
    start = time.perf_counter()
    for _ in range(500):
        M = random_matrix(rng, max_rows=3, max_cols=8, lo=-3, hi=3)
        assert (columns_condition(M) is not None) == oracle_columns_condition(M)
    report(1, time.perf_counter() - start, 60,
           "columns condition matches the naive ordered-partition oracle "
           "on 500 random matrices")


def test_criterion_2_stacked_matrix_reproduction():
    start = time.perf_counter()
    d = {
        (n, t): F(1, 100 * n + t)
        for n in (2, 3, 4)
        for t in (1, 2, 3)
    }
    schedule = CoefficientSchedule.explicit(
        [[d[(n, 1)], d[(n, 2)], d[(n, 3)]] for n in (2, 3, 4)]
    )
    stack = dense(stacked_rows(SystemSpec(3, 4, schedule)), 12)
    assert (stack.rows, stack.cols) == (18, 12)
    identity = RatMatrix.from_rows(
        [[1 if i == j else 0 for j in range(12)] for i in range(12)]
    )
    assert stack.to_lists()[:12] == identity.to_lists()
    expected_ab = [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, d[(2, 1)], d[(2, 2)], d[(2, 3)]],
        [0, 0, 1, 1, 1, 0, 0, 0, 0, d[(3, 1)], d[(3, 2)], d[(3, 3)]],
        [0, 0, 0, 0, 0, 1, 1, 1, 1, d[(4, 1)], d[(4, 2)], d[(4, 3)]],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
    ]
    assert stack.to_lists()[12:] == [[F(x) for x in row] for row in expected_ab]
    assert first_entries(stack).condition_holds(strict=True)
    assert first_entries(stack).common_value == 1
    report(2, time.perf_counter() - start, 1,
           "stacked matrix for depth 4, arity 3 reproduces the 6x12 block "
           "entry-for-entry with all first entries 1")


def test_criterion_3_schur_number():
    start = time.perf_counter()
    schur = RatMatrix.from_rows([[1, 1, -1]])
    result = min_rado_number(schur, 2, 10)
    assert result.number == 5
    assert result.witness == (0, 1, 1, 0)
    colouring = Colouring.table([1, 2, 3, 4], list(result.witness))
    assert monochromatic_solution(schur, colouring, GroundSet.slice(4)) is None
    report(3, time.perf_counter() - start, 5,
           "Schur number 5 with its witness colouring re-verified solution-free")


def test_criterion_4_pigeonhole_property():
    rng = random.Random(SEED + 4)
    start = time.perf_counter()
    for _ in range(1000):
        m = rng.randint(1, 6)
        ps = random_prime_set(rng)
        xs = [random_subring_element(rng, ps) for _ in range((m - 1) ** 2 + 1)]
        H = pigeonhole_subset(m, ps, xs)
        assert H
        assert in_scaled_subring(sum(xs[i] for i in H), m, ps)
    report(4, time.perf_counter() - start, 10,
           "1000 random pigeonhole instances all return a subset summing "
           "into m times the subring")


def test_criterion_5_obstruction_vs_witness():
    start = time.perf_counter()
    spec = SystemSpec(2, 2, CoefficientSchedule("qpowpair", 2))
    assert refute_over_subring(spec, PrimeSet(), (F(2), F(1)), 10**4) is None
    assert refute_over_subring(spec, PrimeSet(), (F(1), F(1)), 10**4) == 2
    for k in range(2, 21):
        deep = SystemSpec(2, k, CoefficientSchedule("qpowpair", 2))
        witness = natural_solution_witness(deep)
        assert solves(witness, RatMatrix.from_rows(dense_truncated_system(deep)))
    report(5, time.perf_counter() - start, 5,
           "y=(2,1) passes 10^4 obstruction checks while y=(1,1) fails at "
           "n=2; integer witnesses verify for depths up to 20")


def test_criterion_6_log2_parity_doubling():
    rng = random.Random(SEED + 6)
    start = time.perf_counter()
    for _ in range(10**4):
        x = F(rng.choice([-1, 1]) * rng.randint(1, 10**6),
              rng.randint(1, 10**6))
        assert log2_parity_colour(2 * x) == 1 - log2_parity_colour(x)
    report(6, time.perf_counter() - start, 5,
           "colour(2x) = 1 - colour(x) on 10^4 random nonzero rationals")


def test_criterion_7_membership_specializations():
    rng = random.Random(SEED + 7)
    start = time.perf_counter()
    integers = PrimeSet()
    dyadic = PrimeSet.finite([2])
    everything = PrimeSet(complement=True)
    for _ in range(10**3):
        x = F(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        assert in_subring(x, integers) == (x.denominator == 1)
        den = x.denominator
        while den % 2 == 0:
            den //= 2
        assert in_subring(x, dyadic) == (den == 1)
        assert in_subring(x, everything)
    report(7, time.perf_counter() - start, 1,
           "membership matches integer / dyadic / unrestricted predicates "
           "on 10^3 random rationals")


def test_criterion_8_row_scaling_invariance():
    rng = random.Random(SEED + 8)
    start = time.perf_counter()
    for _ in range(200):
        M = random_matrix(rng, max_rows=3, max_cols=8, lo=-3, hi=3)
        i = rng.randrange(M.rows)
        c = F(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 6))
        scaled = RatMatrix.from_rows(
            [c * x for x in M.row(k)] if k == i else M.row(k) for k in range(M.rows))
        assert columns_condition(scaled) == columns_condition(M)
    report(8, time.perf_counter() - start, 30,
           "row scaling by a nonzero rational never changes the certificate "
           "on 200 random matrices")
