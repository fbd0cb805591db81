import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rado_counts
import radokit.search as search
import search_reference as ref
from conftest import solves
from radokit.linalg import RatMatrix
from radokit.search import (
    BudgetExceededError,
    Colouring,
    GroundSet,
    log2_parity_colour,
    min_rado_number,
    monochromatic_solution,
)

SCHUR = RatMatrix.from_rows([[1, 1, -1]])

nonzero_fractions = st.fractions(
    min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6
).filter(lambda x: x != 0)


def reference_floor_log2(x: F) -> int:
    """Bracket |x| into [2^e, 2^{e+1}) by exact repeated doubling/halving."""
    a = abs(x)
    e = 0
    while a >= 2:
        a /= 2
        e += 1
    while a < 1:
        a *= 2
        e -= 1
    return e


class TestLog2ParityColour:
    @pytest.mark.parametrize(
        "x,colour",
        [(F(1), 0), (F(2), 1), (F(3), 1), (F(4), 0), (F(1, 2), 1),
         (F(1, 3), 0), (F(-5), 0), (F(2, 3), 1), (F(1, 4), 0)],
    )
    def test_examples(self, x, colour):
        assert log2_parity_colour(x) == colour

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            log2_parity_colour(F(0))

    @given(nonzero_fractions)
    def test_matches_reference_bracketing(self, x):
        assert log2_parity_colour(x) == reference_floor_log2(x) % 2

    @given(nonzero_fractions)
    def test_doubling_flips(self, x):
        assert log2_parity_colour(2 * x) == 1 - log2_parity_colour(x)

    def test_floor_log2_matches_the_shifted_comparison(self):
        # the exponent itself, not only its parity, against the reference
        pairs = [(a, b) for a in range(1, 300) for b in range(1, 300)]
        pairs += [(1, b) for b in range(1, 10**4 + 1)]
        rng = random.Random(20261020)
        for _ in range(20000):
            a = rng.randrange(1, 1 << rng.randint(1, 200))
            b = rng.randrange(1, 1 << rng.randint(1, 200))
            pairs += [(a, b), (b, a), (a << 7, a), (a, a << 7), (a, a + 1)]
        for a, b in pairs:
            assert search._floor_log2(a, b) == ref.floor_log2_shifted(a, b), (a, b)


class TestColouring:
    def test_table_lookup(self):
        c = Colouring.table([1, 2], [0, 1])
        assert c.r == 2
        assert Colouring.table([1, 2], [0, 3]).r == 4
        assert c.colour_of(F(1)) == 0 and c.colour_of(F(2)) == 1
        with pytest.raises(ValueError):
            c.colour_of(F(3))

    def test_table_keeps_given_fractions_and_converts_ints(self):
        half, three = F(1, 2), F(3)
        c = Colouring.table([half, 2, three], [0, 1, 0])
        (x, _), (y, _), (z, _) = c.assignments
        assert x is half and z is three and (type(y), y) == (F, 2)
        assert c == Colouring("table", ((F(1, 2), 0), (F(2), 1), (F(3), 0)))
        assert repr(c) == ("Colouring(kind='table', assignments=((Fraction(1, 2), 0), "
                           "(Fraction(2, 1), 1), (Fraction(3, 1), 0)))")

    def test_uncoloured_value_rejected(self):
        c = Colouring.table([1], [0])
        with pytest.raises(ValueError):
            c.colour_of(F(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            Colouring.table([0], [0])
        with pytest.raises(ValueError):
            Colouring.table([1, 1], [0, 1])
        with pytest.raises(ValueError, match="^1 has negative colour -1$"):
            Colouring.table([1], [-1])
        with pytest.raises(ValueError):
            Colouring("spots")
        with pytest.raises(ValueError):
            Colouring.table([1, 2], [0])

    def test_log2_parity_kind(self):
        c = Colouring("log2parity")
        assert c.r == 2
        assert c.colour_of(F(-7)) == 0 and c.colour_of(F(4)) == 0
        with pytest.raises(ValueError):
            c.colour_of(F(0))


class TestGroundSet:
    def test_integers(self):
        assert GroundSet.slice(3).span == (3, 1)

    def test_slice(self):
        assert GroundSet.slice(4, 2).span == (4, 2)

    def test_rejects_an_empty_slice(self):
        with pytest.raises(ValueError):
            GroundSet.slice(0)
        with pytest.raises(ValueError):
            GroundSet.slice(3, 0)


class TestMonochromaticSolution:
    def test_single_class_finds_schur_triple(self):
        c = Colouring.table([1, 2, 3, 4], [0, 0, 0, 0])
        found = monochromatic_solution(SCHUR, c, GroundSet.slice(4))
        assert found == (F(1), F(1), F(2))
        assert solves(found, SCHUR)

    def test_good_colouring_blocks_all(self):
        c = Colouring.table([1, 2, 3, 4], [0, 1, 1, 0])
        assert monochromatic_solution(SCHUR, c, GroundSet.slice(4)) is None

    def test_distinct_mode(self):
        c = Colouring.table([1, 2, 3], [0, 0, 0])
        found = monochromatic_solution(
            SCHUR, c, GroundSet.slice(3), distinct=True
        )
        assert found == (F(1), F(2), F(3))

    def test_distinct_mode_excludes_repeats(self):
        c = Colouring.table([1, 2], [0, 0])
        assert monochromatic_solution(
            SCHUR, c, GroundSet.slice(2), distinct=True
        ) is None

    def test_returns_the_values_in_column_order(self):
        # 2x = y, y = z: one value per column, as a plain tuple
        A = RatMatrix.from_rows([[2, -1, 0], [0, 1, -1]])
        c = Colouring.table([1, 2, 3, 4], [0, 0, 0, 0])
        found = monochromatic_solution(A, c, GroundSet.slice(4))
        assert type(found) is tuple and len(found) == A.cols
        assert found == (F(1), F(2), F(2))
        assert solves(found, A)

    def test_sparse_colour_labels_are_searched_in_colour_order(self):
        # colour 0 = {3, 6} holds 3 + 3 = 6, colour 7 = {1, 2} holds 1 + 1 = 2,
        # colour 3 = {4, 5} holds none; the lowest colour's solution comes first
        c = Colouring.table([1, 2, 3, 4, 5, 6], [7, 7, 0, 3, 3, 0])
        found = monochromatic_solution(SCHUR, c, GroundSet.slice(6))
        assert found == (F(3), F(3), F(6))
        assert found == ref.monochromatic_solution(SCHUR, c, GroundSet.slice(6))

    def test_log2_parity_classes(self):
        # {1,4} vs {2,3}: both classes Schur-free within {1..4}
        assert monochromatic_solution(
            SCHUR, Colouring("log2parity"), GroundSet.slice(4)
        ) is None

    def test_budget_guard(self):
        c = Colouring.table(list(range(1, 11)), [0] * 10)
        with pytest.raises(BudgetExceededError):
            monochromatic_solution(SCHUR, c, GroundSet.slice(10), budget=10)

    def test_budget_counts_enumerated_columns(self):
        # x = 2y enumerates x alone: the two classes of 1..14000 count 14000
        M = RatMatrix.from_rows([[1, -2]])
        g = GroundSet.slice(14000)
        with pytest.raises(BudgetExceededError):
            monochromatic_solution(M, Colouring("log2parity"), g, budget=13999)
        assert monochromatic_solution(M, Colouring("log2parity"), g,
                                      budget=14000) is None

    @pytest.mark.parametrize("m, bound", [(7, 18840), (10, 233784)])
    def test_budget_counts_merged_states(self, m, bound):
        # Beutelspacher-Brestovansky: colour 1..m-2 and the top m-2 values of
        # 1..m^2-m-2 apart from the middle; no x_1 + ... + x_{m-1} = x_m in a
        # class.  Sums of ones over [lo, hi] merge into k * (hi - lo) + 1
        # states at level k, far fewer than the |class|^(m-1) tuples
        # (7.3 * 10^8 and 5.2 * 10^16), so the default budget admits both.
        n = m * m - m - 2
        M = RatMatrix.from_rows([[1] * (m - 1) + [-1]])
        c = Colouring.table(range(1, n + 1), [int(m - 2 < x <= n - m + 2)
                                             for x in range(1, n + 1)])
        g = GroundSet.slice(n)
        assert monochromatic_solution(M, c, g) is None
        assert monochromatic_solution(M, c, g, budget=bound) is None
        with pytest.raises(BudgetExceededError):
            monochromatic_solution(M, c, g, budget=bound - 1)

    def test_deep_searches_meet_the_depth_limit(self):
        # the kernel recurses once per enumerated column: the merged count
        # admits x_500 = x_501 after 499 free columns (500 enumerated), but
        # a search that enumerates more than 500 columns is refused rather
        # than overflow the stack, before its budget is counted
        g = GroundSet.slice(100)
        M = RatMatrix.from_rows([[0] * 499 + [1, -1]])
        assert monochromatic_solution(M, Colouring("log2parity"), g) == (F(1),) * 501
        for zeros in (500, 1500):
            M = RatMatrix.from_rows([[0] * zeros + [1, -1]])
            with pytest.raises(ValueError, match=f"enumerate {zeros + 1} columns, "
                               "more than the limit of 500"):
                monochromatic_solution(M, Colouring("log2parity"), g, budget=1)

    def test_budget_check_is_cheap_on_wide_matrices(self):
        # 500 enumerated columns in 600 rows, and 200 one-value classes
        # ahead of one of 20: a one-value class counts one walk per level,
        # and the product of a level's rows stops as soon as it reaches
        # |class|^k, so no class multiplies out all 600 rows at every level
        M = RatMatrix.from_rows([[1] * 500 + [-1]] * 600)
        c = Colouring.table(range(1, 221), [min(x - 1, 200) for x in range(1, 221)])
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            monochromatic_solution(M, c, GroundSet.slice(220))
        assert time.perf_counter() - start < 1

    def test_budget_bounds_the_candidates_walked(self, monkeypatch):
        """Each _extend call walks its class once.  The budget's count is
        at most the tuples of the enumerated columns, the count before
        states were merged, and is that count when values are distinct;
        when the merged count is smaller, the search walks no more
        candidates than it says."""
        walked, counts = [], []
        extend, bound = search._extend, search._walk_bound

        def counting_extend(plan, res, chosen, members, *args):
            walked.append(len(members))
            return extend(plan, res, chosen, members, *args)

        def recording_bound(rows, k_max, spans, sizes, distinct, cap):
            counts.append((bound(rows, k_max, spans, sizes, distinct, cap),
                           sum(size ** k_max for size in sizes)))
            return counts[-1][0]

        monkeypatch.setattr(search, "_extend", counting_extend)
        monkeypatch.setattr(search, "_walk_bound", recording_bound)
        rng = random.Random(19102026)
        merged = 0
        for _ in range(300):
            v = rng.randint(3, 6)
            M = RatMatrix.from_rows([[rng.randint(-3, 3) for _ in range(v)]
                                     for _ in range(rng.randint(1, 2))])
            n, r = rng.randint(1, 14), rng.randint(1, 3)
            c = Colouring.table(range(1, n + 1),
                                [rng.randrange(r) for _ in range(n)])
            walked.clear()
            counts.clear()
            distinct = rng.random() < 0.3
            monochromatic_solution(M, c, GroundSet.slice(n), distinct=distinct,
                                   budget=10**9)
            (count, tuples), = counts
            assert count <= tuples, M
            if distinct:
                assert count == tuples, M
            elif count < tuples:
                assert sum(walked) <= count, M
                merged += 1
        assert merged >= 40

    @pytest.mark.parametrize("row", [[1, -2], [3, -5], [1, -8]])
    def test_huge_log2_slice_searched_by_runs(self, row):
        # one enumerated column over classes of ~5 * 10^7 values: each run
        # of the class is matched against the others arithmetically
        M = RatMatrix.from_rows([row])
        start = time.perf_counter()
        found = monochromatic_solution(M, Colouring("log2parity"),
                                       GroundSet.slice(10**8, 3))
        assert time.perf_counter() - start < 1
        if row == [3, -5]:
            # 3x = 5y first at x = 5/3, y = 1 (the class [4/3, 2) of colour 0)
            assert found == (F(5, 3), F(1))
        else:
            assert found is None

    def test_interval_prune(self):
        # x + y + z = 0 has no positive solution; the pivot row shows it
        # without enumerating 10^12 pairs
        M = RatMatrix.from_rows([[1, 1, 1]])
        start = time.perf_counter()
        assert monochromatic_solution(M, Colouring("log2parity"),
                                      GroundSet.slice(10**6), budget=10**12) is None
        assert time.perf_counter() - start < 1

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            monochromatic_solution(
                RatMatrix.from_rows([]), Colouring("log2parity"),
                GroundSet.slice(2)
            )

    def test_merged_sums_keep_the_memory_small(self):
        # x1 + ... + x15 = x16 on 1..238 = 16^2 - 16 - 2, coloured 0 on
        # [1, 14] and [225, 238] and 1 on [15, 224]: no monochromatic
        # solution.  The search keeps one state per distinct (columns
        # assigned, sum) pair, a few thousand, never the tuples
        M = RatMatrix.from_rows([[1] * 15 + [-1]])
        values = range(1, 239)
        c = Colouring.table(values, [0 if x <= 14 or x >= 225 else 1 for x in values])
        tracemalloc.start()
        try:
            found = monochromatic_solution(M, c, GroundSet.slice(238), budget=10**40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is None
        assert peak < 4 * 2**20, peak

    def test_soundness_on_random_colourings(self):
        rng = random.Random(51)
        for _ in range(30):
            n = rng.randint(3, 8)
            colours = [rng.randint(0, 1) for _ in range(n)]
            c = Colouring.table(list(range(1, n + 1)), colours)
            g = GroundSet.slice(n)
            found = monochromatic_solution(SCHUR, c, g, distinct=rng.random() < 0.5)
            if found is not None:
                assert solves(found, SCHUR)
                assert len({c.colour_of(x) for x in found}) == 1


class TestMinRadoNumber:
    def test_schur_number(self):
        result = min_rado_number(SCHUR, 2, 10)
        assert result.number == 5
        assert result.witness == (0, 1, 1, 0)

    def test_schur_witness_is_solution_free(self):
        result = min_rado_number(SCHUR, 2, 10)
        c = Colouring.table([1, 2, 3, 4], list(result.witness))
        assert monochromatic_solution(SCHUR, c, GroundSet.slice(4)) is None

    def test_single_colour(self):
        result = min_rado_number(SCHUR, 1, 10)
        assert result.number == 2
        assert result.witness == (0,)

    def test_two_colour_number_of_x_plus_y_eq_3z(self):
        # failing the columns condition rules out partition regularity over
        # the whole of N, but two colours are not enough for this equation:
        # {1..8} has a solution-free 2-colouring and {1..9} has none
        M = RatMatrix.from_rows([[1, 1, -3]])
        result = min_rado_number(M, 2, 12)
        assert result.number == 9
        assert result.witness == (0, 1, 0, 0, 1, 1, 0, 1)
        c = Colouring.table(list(range(1, 9)), list(result.witness))
        assert monochromatic_solution(M, c, GroundSet.slice(8)) is None

    def test_survivor_when_no_positive_solutions(self):
        M = RatMatrix.from_rows([[1, 1, 1]])
        result = min_rado_number(M, 2, 64)
        assert result.number is None
        assert len(result.witness) == 64

    def test_survivor_for_doubling_equation(self):
        M = RatMatrix.from_rows([[1, -2]])
        result = min_rado_number(M, 2, 64)
        assert result.number is None
        c = Colouring.table(list(range(1, 65)), list(result.witness))
        assert monochromatic_solution(M, c, GroundSet.slice(64)) is None

    def test_regular_matrices_reach_a_number(self):
        for rows, expected in [
            ([[1, 1, -1]], 5),
            ([[1, 2, -3]], 1),   # x = y = z solves
            ([[2, -1, -1]], 1),
            ([[1, 1, -2]], 1),
        ]:
            result = min_rado_number(RatMatrix.from_rows(rows), 2, 64)
            assert result.number == expected

    def test_three_colour_schur(self):
        result = min_rado_number(SCHUR, 3, 16)
        assert result.number == 14

    def test_sum_of_four_equation_in_time(self):
        # x1 + x2 + x3 + x4 = x5: m^2 - m - 1 = 19 for m = 5
        M = RatMatrix.from_rows([[1, 1, 1, 1, -1]])
        start = time.perf_counter()
        result = min_rado_number(M, 2, 22)
        assert time.perf_counter() - start < 1.5
        assert result.number == 19
        assert len(result.witness) == 18
        c = Colouring.table(list(range(1, 19)), list(result.witness))
        start = time.perf_counter()
        assert monochromatic_solution(M, c, GroundSet.slice(18)) is None
        assert time.perf_counter() - start < 1.5

    def test_four_colour_schur_survivor_in_time(self):
        start = time.perf_counter()
        result = min_rado_number(SCHUR, 4, 28)
        assert time.perf_counter() - start < 1.5
        assert result.number is None
        assert len(result.witness) == 28 and set(result.witness) == {0, 1, 2, 3}
        c = Colouring.table(list(range(1, 29)), list(result.witness))
        assert monochromatic_solution(SCHUR, c, GroundSet.slice(28)) is None

    def test_four_colour_schur_survivor_of_43_in_time(self):
        # Schur has no exact check; forward checking with forced values
        # makes 633 kernel calls here, 3,764 without forced values
        start = time.perf_counter()
        result = min_rado_number(SCHUR, 4, 43)
        assert time.perf_counter() - start < 1.5
        assert result.number is None
        assert len(result.witness) == 43 and set(result.witness) == {0, 1, 2, 3}
        c = Colouring.table(list(range(1, 44)), list(result.witness))
        assert monochromatic_solution(SCHUR, c, GroundSet.slice(43)) is None

    def test_four_colour_schur_survivor_of_44(self):
        # S(4) = 44: a solution-free 4-colouring of 1..44 exists
        result = min_rado_number(SCHUR, 4, 44)
        assert result.number is None
        assert len(result.witness) == 44 and set(result.witness) == {0, 1, 2, 3}
        c = Colouring.table(list(range(1, 45)), list(result.witness))
        assert monochromatic_solution(SCHUR, c, GroundSet.slice(44)) is None

    def test_three_colour_number_of_x1_plus_x2_plus_x3_eq_x4(self):
        # k^3 - k^2 - k - 1 = 43 at k = 4 (Boza, Marin, Revuelta & Sanz,
        # "3-color Schur numbers", 2019)
        M = RatMatrix.from_rows([[1, 1, 1, -1]])
        start = time.perf_counter()
        result = min_rado_number(M, 3, 43)
        assert time.perf_counter() - start < 1.5
        assert result.number == 43
        assert len(result.witness) == 42 and set(result.witness) == {0, 1, 2}
        c = Colouring.table(list(range(1, 43)), list(result.witness))
        assert monochromatic_solution(M, c, GroundSet.slice(42)) is None

    @pytest.mark.parametrize("rows, r, n_max, calls", [
        ([[1, 1, -1]], 4, 42, (632, 632)),           # 3,763 and 3,763 before
        ([[1, 1, 1, -1]], 3, 43, (3009, 13399)),     # 27,453 and 146,485 before
    ])
    def test_forced_values_pin_the_kernel_calls(self, rows, r, n_max, calls):
        # the `_search` and `_extend` calls that tests/rado_counts.py prints;
        # the counts before forced-value propagation are in the comments
        found, walked, _ = rado_counts.counts(search.min_rado_number_rows, rows,
                                              len(rows[0]), r, n_max)
        assert (found, walked) == calls

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            min_rado_number(SCHUR, 5, 10)
        with pytest.raises(ValueError):
            min_rado_number(SCHUR, 0, 10)
        with pytest.raises(ValueError):
            min_rado_number(SCHUR, 2, 65)
        with pytest.raises(ValueError):
            min_rado_number(RatMatrix.from_rows([]), 2, 5)
