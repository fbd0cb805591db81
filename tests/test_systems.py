import math
import random
import time
from fractions import Fraction as F
from itertools import islice

import pytest

import radokit.systems
from conftest import dense, expand, residuals, solves
from radokit.cli import main
from radokit.linalg import RatMatrix
from radokit.rado import first_entries
from radokit.rings import PrimeSet, _parts, padic_valuation
from radokit.systems import (
    CoefficientSchedule,
    SystemSpec,
    _primes,
    d_combination_parts,
    natural_solution_witness,
    parse_schedule,
    refute_over_subring,
    stacked_rows,
    truncated_residuals_parts,
    truncated_rows,
)
from systems_reference import (chained_witness, dense_stacked_matrix,
                               dense_truncated_system, variable_names)


def plain_sieve(n):
    """The primes below n, by the sieve of Eratosthenes over one list."""
    marks = [False, False] + [True] * (n - 2)
    for i in range(2, math.isqrt(n - 1) + 1):
        if marks[i]:
            marks[i * i::i] = [False] * len(range(i * i, n, i))
    return [i for i, prime in enumerate(marks) if prime]


def every_kind(rng, depth):
    """One schedule of each kind, with (alpha, schedule) pairs; the explicit
    tables hold zeros, negatives and fractions, one to three columns wide."""
    yield 1, CoefficientSchedule("qpow", rng.choice((2, 3, 5, 7)))
    yield 1, CoefficientSchedule("allprimes")
    yield 2, CoefficientSchedule("qpowpair", rng.choice((2, 3, 5)))
    yield 2, CoefficientSchedule("allprimespair")
    for alpha in (1, 2, 3):
        yield alpha, CoefficientSchedule.explicit(
            [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(alpha)]
             for _ in range(depth - 1)])


def coefficient(s, n, i):
    """d_{n,i} as row n of the truncation holds it, checked against the
    d-combination of the i-th unit vector."""
    spec = SystemSpec(s.arity, n, s)
    d = expand(list(truncated_rows(spec))[-1], spec.var_count)[spec.y_index(i)]
    unit = [F(int(k == i)) for k in range(1, s.arity + 1)]
    assert F(*d_combination_parts(s, n, _parts(unit))) == d
    return d


class TestScheduleValue:
    def test_qpow(self):
        assert coefficient(CoefficientSchedule("qpow", 2), 3, 1) == F(1, 8)

    def test_qpowpair(self):
        s = CoefficientSchedule("qpowpair", 2)
        assert coefficient(s, 2, 1) == F(-1, 4)
        assert coefficient(s, 2, 2) == F(1, 2)

    def test_allprimes(self):
        assert coefficient(CoefficientSchedule("allprimes"), 2, 1) == F(1, 36)
        # n=3: (2*3*5)^3 = 27000
        assert coefficient(CoefficientSchedule("allprimes"), 3, 1) == F(1, 27000)

    def test_allprimespair(self):
        s = CoefficientSchedule("allprimespair")
        assert coefficient(s, 2, 1) == F(-1, 36)
        assert coefficient(s, 2, 2) == F(1, 18)

    def test_explicit(self):
        s = CoefficientSchedule.explicit([[F(1, 5)], [F(2, 5)]])
        assert coefficient(s, 2, 1) == F(1, 5)
        assert coefficient(s, 3, 1) == F(2, 5)

    def test_explicit_beyond_table(self):
        s = CoefficientSchedule.explicit([[F(1, 5)]])
        with pytest.raises(ValueError,
                           match="explicit schedule defines n up to 2, got 3"):
            d_combination_parts(s, 3, [(1, 1)])

    def test_pair_combination_vanishes(self):
        for s in (CoefficientSchedule("qpowpair", 2),
                  CoefficientSchedule("qpowpair", 5),
                  CoefficientSchedule("allprimespair")):
            for n in range(2, 8):
                combo = coefficient(s, n, 1) * 2 + coefficient(s, n, 2) * 1
                assert combo == 0


class TestDenominatorExceeds:
    @pytest.mark.parametrize("schedule,ns", [
        (CoefficientSchedule("allprimes"), range(2, 60)),
        (CoefficientSchedule("qpowpair", 3), range(2, 60)),
        # 2^14284 has 4300 digits, 2^14285 has 4301
        (CoefficientSchedule("qpow", 2), range(14280, 14290)),
    ])
    def test_agrees_with_the_built_denominator(self, schedule, ns):
        for n in ns:
            D = schedule.denominator(n)
            for digits in (1, 40, 4299, 4300):
                assert schedule.denominator_exceeds(n, digits) == (D >= 10**digits)

    @pytest.mark.parametrize("kind", ["qpow", "qpowpair"])
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_denominator_of_one_prime(self, kind, q):
        s = CoefficientSchedule(kind, q)
        assert [s.denominator(n) for n in range(1, 61)] == [
            q**n for n in range(1, 61)]

    @pytest.mark.parametrize("kind", ["allprimes", "allprimespair"])
    def test_denominator_over_all_primes(self, kind):
        primes = [p for p in range(2, 300) if all(p % d for d in range(2, p))]
        s = CoefficientSchedule(kind)
        assert [s.denominator(n) for n in range(1, 61)] == [
            math.prod(primes[:n]) ** n for n in range(1, 61)]

    def test_decides_huge_n_without_building(self):
        start = time.perf_counter()
        assert CoefficientSchedule("allprimes").denominator_exceeds(10**9, 4300)
        assert not CoefficientSchedule("qpow", 7).denominator_exceeds(5088, 4300)
        assert CoefficientSchedule("qpow", 7).denominator_exceeds(10**12, 4300)
        assert time.perf_counter() - start < 0.1


class TestScheduleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CoefficientSchedule("weird")

    def test_qpow_needs_prime(self):
        with pytest.raises(ValueError):
            CoefficientSchedule("qpow", 4)

    def test_stray_parameters(self):
        with pytest.raises(ValueError):
            CoefficientSchedule("allprimes", q=2)
        with pytest.raises(ValueError):
            CoefficientSchedule("qpow", q=2, table=((F(1),),))

    def test_explicit_needs_rect_table(self):
        with pytest.raises(ValueError):
            CoefficientSchedule.explicit([])
        with pytest.raises(ValueError):
            CoefficientSchedule.explicit([[F(1)], [F(1), F(2)]])

    def test_explicit_keeps_given_fractions_and_converts_ints(self):
        half = F(-1, 2)
        s = CoefficientSchedule.explicit([[half, 3], (0, half)])
        assert s.table == ((F(-1, 2), F(3)), (F(0), F(-1, 2)))
        assert s.table[0][0] is half and s.table[1][1] is half
        assert all(type(d) is F for row in s.table for d in row)

    def test_arities(self):
        assert CoefficientSchedule("qpow", 2).arity == 1
        assert CoefficientSchedule("allprimes").arity == 1
        assert CoefficientSchedule("qpowpair", 3).arity == 2
        assert CoefficientSchedule("allprimespair").arity == 2
        assert CoefficientSchedule.explicit([[F(1), F(2), F(3)]]).arity == 3


class TestSystemSpec:
    def test_variable_bookkeeping(self):
        spec = SystemSpec(1, 3, CoefficientSchedule("qpow", 2))
        assert spec.var_count == 2 + 3 + 1 + 2
        assert variable_names(spec) == [
            "x_2_1", "x_2_2", "x_3_1", "x_3_2", "x_3_3", "y_1", "z_2", "z_3",
        ]

    def test_arity_must_match_alpha(self):
        with pytest.raises(ValueError):
            SystemSpec(2, 2, CoefficientSchedule("qpow", 2))

    def test_depth_at_least_two(self):
        with pytest.raises(ValueError):
            SystemSpec(1, 1, CoefficientSchedule("qpow", 2))

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            SystemSpec(0, 2, CoefficientSchedule("qpow", 2))

    def test_explicit_table_must_cover_depth(self):
        s = CoefficientSchedule.explicit([[F(1)]])
        with pytest.raises(ValueError):
            SystemSpec(1, 3, s)


def truncated_matrix(spec):
    return dense(truncated_rows(spec), spec.var_count)


def stacked_matrix(spec):
    return dense(stacked_rows(spec), spec.x_count + spec.alpha)


class TestTruncatedRows:
    def test_single_equation(self):
        spec = SystemSpec(1, 2, CoefficientSchedule("qpow", 2))
        M = truncated_matrix(spec)
        assert M.to_lists() == [[1, 1, F(1, 4), -1]]

    def test_zero_coefficients_degenerate(self):
        s = CoefficientSchedule.explicit([[F(0)], [F(0)]])
        M = truncated_matrix(SystemSpec(1, 3, s))
        assert M.to_lists() == [
            [1, 1, 0, 0, 0, 0, -1, 0],
            [0, 0, 1, 1, 1, 0, 0, -1],
        ]

    def test_pair_equation(self):
        spec = SystemSpec(2, 2, CoefficientSchedule("qpowpair", 2))
        M = truncated_matrix(spec)
        assert M.to_lists() == [[1, 1, F(-1, 4), F(1, 2), -1]]

    def test_one_denominator_per_row(self, monkeypatch):
        calls = []
        denominator = CoefficientSchedule.denominator

        def counting(schedule, n):
            calls.append(n)
            return denominator(schedule, n)

        monkeypatch.setattr(CoefficientSchedule, "denominator", counting)
        for schedule in (CoefficientSchedule("qpow", 3), CoefficientSchedule("allprimes"),
                         CoefficientSchedule("qpowpair", 2),
                         CoefficientSchedule("allprimespair")):
            calls.clear()
            rows = list(truncated_rows(SystemSpec(schedule.arity, 12, schedule)))
            assert len(rows) == 11
            assert calls == list(range(2, 13))


class TestStackedRows:
    def test_minimal(self):
        M = stacked_matrix(SystemSpec(1, 2, CoefficientSchedule("qpow", 2)))
        assert M.to_lists() == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 1, F(1, 4)],
        ]

    def test_depth_three(self):
        s = CoefficientSchedule.explicit([[F(1, 7)], [F(2, 7)]])
        M = stacked_matrix(SystemSpec(1, 3, s))
        assert (M.rows, M.cols) == (8, 6)
        assert M.to_lists()[6:] == [
            [1, 1, 0, 0, 0, F(1, 7)],
            [0, 0, 1, 1, 1, F(2, 7)],
        ]

    def test_difference_rows(self):
        s = CoefficientSchedule.explicit([[F(1, 7), F(2, 7), F(3, 7)]])
        M = stacked_matrix(SystemSpec(3, 2, s))
        # v = 2 + 3 = 5; one A row, then the three difference rows
        assert (M.rows, M.cols) == (9, 5)
        assert M.to_lists()[5] == [1, 1, F(1, 7), F(2, 7), F(3, 7)]
        assert M.to_lists()[6:] == [
            [0, 0, 1, -1, 0],
            [0, 0, 1, 0, -1],
            [0, 0, 0, 1, -1],
        ]

    def test_first_entries_hold_across_shapes(self):
        tables = {
            1: CoefficientSchedule("qpow", 3),
            2: CoefficientSchedule("qpowpair", 3),
        }
        for k in range(2, 9):
            for alpha in range(1, 5):
                schedule = tables.get(alpha) or CoefficientSchedule.explicit(
                    [[F(1, 10 * n + t) for t in range(1, alpha + 1)]
                     for n in range(2, k + 1)]
                )
                stack = stacked_matrix(SystemSpec(alpha, k, schedule))
                assert first_entries(stack).condition_holds(strict=True)
                assert first_entries(stack).common_value == 1

    def test_a_block_matches_truncated_rows(self):
        rng = random.Random(41)
        spec = SystemSpec(2, 5, CoefficientSchedule("qpowpair", 3))
        stack = stacked_matrix(spec)
        system = truncated_matrix(spec)
        v = stack.cols
        w = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(v)]
        # same x/y layout; the truncated system appends z columns, set to 0
        embedded = w + [F(0)] * (spec.depth - 1)
        for i in range(spec.depth - 1):
            a_row = stack.row(v + i)
            assert sum(a * x for a, x in zip(a_row, w)) \
                == sum(a * x for a, x in zip(system.row(i), embedded))


class TestSparseRows:
    """truncated_rows and stacked_rows, rows of runs (column, count, value),
    against the dense builders they replaced (tests/systems_reference.py)."""

    @staticmethod
    def kinds(rng, depth):
        """every_kind, then for alpha = 1, 2, 3 explicit tables with zeros
        in every position of a row, so rows drop their y runs."""
        yield from every_kind(rng, depth)
        for alpha in (1, 2, 3):
            yield alpha, CoefficientSchedule.explicit(
                [[F(int(t == n % (alpha + 1)), n) for t in range(alpha)]
                 for n in range(2, depth + 1)])

    @pytest.mark.parametrize("rows,reference", [
        (truncated_rows, dense_truncated_system),
        (stacked_rows, dense_stacked_matrix),
    ])
    def test_against_the_dense_builders(self, rows, reference):
        rng = random.Random(7)
        for depth in range(2, 13):
            for alpha, schedule in self.kinds(rng, depth):
                spec = SystemSpec(alpha, depth, schedule)
                want = reference(spec)
                got = list(rows(spec))
                assert len(got) == len(want)
                assert [expand(runs, len(row)) for runs, row in zip(got, want)] == want

    @pytest.mark.parametrize("rows", [truncated_rows, stacked_rows])
    def test_columns_in_ascending_order(self, rows):
        # the CLI writes each row's runs in the order they come, so every
        # run must hold a nonzero value at least once, and the runs of a
        # row must be ascending and disjoint, within the row
        rng = random.Random(11)
        for depth in range(2, 10):
            for alpha, schedule in self.kinds(rng, depth):
                spec = SystemSpec(alpha, depth, schedule)
                cols = spec.var_count if rows is truncated_rows else spec.x_count + alpha
                for runs in rows(spec):
                    assert all(count >= 1 and x != 0 for _, count, x in runs), runs
                    ends = [(j, j + count) for j, count, _ in runs]
                    assert all(a[1] <= b[0] for a, b in zip(ends, ends[1:])), runs
                    assert ends[0][0] >= 0 and ends[-1][1] <= cols, runs

    def test_a_rows_are_truncated_rows_without_z(self):
        rng = random.Random(13)
        for depth in (2, 5, 9):
            for alpha, schedule in self.kinds(rng, depth):
                spec = SystemSpec(alpha, depth, schedule)
                v = spec.x_count + alpha
                stacked = list(stacked_rows(spec))
                for n, row in enumerate(truncated_rows(spec), start=2):
                    assert row[0] == (spec.x_index(n, 1), n, 1)
                    assert row[-1] == (spec.z_index(n), 1, -1)
                    assert stacked[v + n - 2] == row[:-1]
                # alpha = 3 has three B rows, each two runs
                b_rows = stacked[v + depth - 1:]
                assert len(b_rows) == math.comb(alpha, 2)
                assert all([(c, x) for _, c, x in r] == [(1, 1), (1, -1)]
                           for r in b_rows)

    def test_rows_are_produced_lazily(self):
        # the first row of a truncation far past any printable size
        spec = SystemSpec(1, 10**6, CoefficientSchedule("qpow", 2))
        assert next(truncated_rows(spec)) == [(0, 2, 1), (spec.y_index(1), 1, F(1, 4)),
                                              (spec.z_index(2), 1, -1)]
        assert next(stacked_rows(spec)) == [(0, 1, 1)]


class TestNaturalSolutionWitness:
    def test_minimal_pair(self):
        spec = SystemSpec(2, 2, CoefficientSchedule("qpowpair", 2))
        w = natural_solution_witness(spec)
        assert w == [F(1), F(1), F(2), F(1), F(2)]
        assert solves(w, RatMatrix.from_rows(dense_truncated_system(spec)))

    def test_depth_three(self):
        spec = SystemSpec(2, 3, CoefficientSchedule("qpowpair", 3))
        w = natural_solution_witness(spec)
        names = variable_names(spec)
        byname = dict(zip(names, w))
        assert byname["y_1"] == 2 and byname["y_2"] == 1
        assert byname["z_3"] == 3
        assert solves(w, RatMatrix.from_rows(dense_truncated_system(spec)))

    def test_allprimespair(self):
        spec = SystemSpec(2, 2, CoefficientSchedule("allprimespair"))
        w = natural_solution_witness(spec)
        assert solves(w, RatMatrix.from_rows(dense_truncated_system(spec)))

    def test_positive_integers_only(self):
        spec = SystemSpec(2, 6, CoefficientSchedule("qpowpair", 5))
        w = natural_solution_witness(spec)
        assert all(x.denominator == 1 and x > 0 for x in w)

    def test_a_plain_value_list(self):
        spec = SystemSpec(2, 4, CoefficientSchedule("qpowpair", 3))
        w = natural_solution_witness(spec)
        assert type(w) is list and len(w) == spec.var_count
        assert all(type(x) is F for x in w)

    @pytest.mark.parametrize("schedule", ["qpowpair:3", "allprimespair"])
    @pytest.mark.parametrize("depth", [2, 3, 30, 300])
    def test_same_values_as_the_chained_blocks(self, schedule, depth):
        spec = SystemSpec(2, depth, parse_schedule(schedule))
        w = natural_solution_witness(spec)
        assert w == list(chained_witness(spec))
        # every x value is one shared object, which the printer formats once
        assert len({id(x) for x in w[:spec.x_count]}) == 1

    def test_rejects_single_schedules(self):
        with pytest.raises(ValueError):
            natural_solution_witness(SystemSpec(1, 2, CoefficientSchedule("qpow", 2)))


class TestTruncatedResiduals:
    def test_agree_with_the_matrix(self):
        rng = random.Random(9)
        for depth in range(2, 9):
            for alpha, schedule in every_kind(rng, depth):
                spec = SystemSpec(alpha, depth, schedule)
                values = [F(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(spec.var_count)]
                M = RatMatrix.from_rows(dense_truncated_system(spec))
                assert tuple(F(*r) for r in truncated_residuals_parts(spec, values)) == \
                    residuals(values, M)

    def test_runs_of_shared_objects_agree_with_a_fraction_sum(self):
        """Runs of one object, read once per run, against the Fraction sum
        of the dense rows; the runs sit beside equal but distinct objects
        and other fractions, so a run must end where the object changes.
        A pair schedule's y is sometimes its kernel, so that c.y = 0."""
        rng = random.Random(19102026)
        seen = {"c.y = 0": 0, "c.y != 0": 0}
        for depth in range(2, 11):
            for alpha, schedule in every_kind(rng, depth):
                spec = SystemSpec(alpha, depth, schedule)
                pool = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                values = []
                while len(values) < spec.var_count:
                    x = rng.choice(pool)
                    roll = rng.random()
                    if roll < 0.5:
                        values += [x] * rng.randint(1, 7)
                    elif roll < 0.8:
                        values += [F(x.numerator, x.denominator)
                                   for _ in range(rng.randint(1, 4))]
                    else:
                        values.append(F(rng.randint(-50, 50), rng.randint(1, 12)))
                values = values[:spec.var_count]
                y = spec.y_index(1)
                if schedule.kernel and rng.random() < 0.4:
                    values[y:y + 2] = [2 * values[y + 1], values[y + 1]]
                if schedule.table is None:
                    cy = sum(c * v for c, v in zip(schedule.c, values[y:]))
                    seen["c.y = 0" if cy == 0 else "c.y != 0"] += 1
                M = RatMatrix.from_rows(dense_truncated_system(spec))
                assert tuple(F(*r) for r in truncated_residuals_parts(spec, values)) == \
                    residuals(values, M)
        assert min(seen.values()) >= 5, seen

    def test_witness_residuals_vanish(self):
        spec = SystemSpec(2, 30, CoefficientSchedule("allprimespair"))
        w = natural_solution_witness(spec)
        assert set(truncated_residuals_parts(spec, w)) == {(0, 1)}

    def test_wrong_length(self):
        spec = SystemSpec(2, 3, CoefficientSchedule("qpowpair", 2))
        with pytest.raises(ValueError):
            truncated_residuals_parts(spec, [F(1)] * 3)


class TestRefuteOverSubring:
    def test_unit_y_obstructed_immediately(self):
        spec = SystemSpec(1, 2, CoefficientSchedule("qpow", 2))
        assert refute_over_subring(spec, PrimeSet(), (F(1),), 5) == 2

    def test_pair_witness_never_obstructed(self):
        spec = SystemSpec(2, 2, CoefficientSchedule("qpowpair", 2))
        assert refute_over_subring(spec, PrimeSet(), (F(2), F(1)), 50) is None

    def test_obstruction_waits_for_valuation(self):
        spec = SystemSpec(1, 2, CoefficientSchedule("qpow", 2))
        assert refute_over_subring(spec, PrimeSet(), (F(8),), 10) == 4

    def test_rejects_outside_y(self):
        spec = SystemSpec(1, 2, CoefficientSchedule("qpow", 2))
        with pytest.raises(ValueError):
            refute_over_subring(spec, PrimeSet(), (F(1, 3),), 5)

    def test_rejects_wrong_arity(self):
        spec = SystemSpec(1, 2, CoefficientSchedule("qpow", 2))
        with pytest.raises(ValueError):
            refute_over_subring(spec, PrimeSet(), (F(1), F(1)), 5)

    def test_obstruction_index_tracks_q_valuation(self):
        rng = random.Random(42)
        for _ in range(50):
            q = rng.choice([2, 3, 5])
            others = [p for p in (2, 3, 5, 7) if p != q]
            ps = PrimeSet.finite(rng.sample(others, rng.randint(0, 2)))
            y1 = F(rng.choice([-1, 1]) * q ** rng.randint(0, 6)
                   * rng.choice([1, 3, 7, 11]))
            spec = SystemSpec(1, 2, CoefficientSchedule("qpow", q))
            n = refute_over_subring(spec, ps, (y1,), 30)
            assert n == max(2, padic_valuation(y1, q) + 1)


    # 999983 is the largest prime below SCAN_LIMIT = 10**6, and the 78,498th;
    # 1000003 is the least prime past it
    def test_scan_below_the_limit(self):
        spec = SystemSpec(1, 2, CoefficientSchedule("allprimes"))
        assert refute_over_subring(spec, PrimeSet.cofinite([999983]), (F(1),),
                                   10**9) == 78_498
        assert refute_over_subring(spec, PrimeSet.cofinite([1000003]), (F(1),),
                                   78_498) is None

    def test_primes_match_a_plain_sieve(self, monkeypatch):
        """The cache, grown from [2] by segments, against a plain sieve: the
        first 78,498 primes, and the whole cache, last segment included."""
        monkeypatch.setattr(radokit.systems, "_primes_cache", [2])
        assert list(islice(_primes(), 78_498)) == plain_sieve(10**6)
        cache = radokit.systems._primes_cache
        assert cache == plain_sieve(cache[-1] + 1)

    def test_scan_to_the_limit_is_quick(self, monkeypatch, capsys):
        """Listing the 78,498 primes below the limit from a cold cache took
        2-2.8 s with one is_prime call per integer."""
        monkeypatch.setattr(radokit.systems, "_primes_cache", [2])
        start = time.perf_counter()
        rc = main(["refute", "--alpha", "1", "--depth", "2", "--schedule",
                   "allprimes", "--y", "1", "--nmax", "1000000000", "--primes",
                   "all-except:999983"])
        assert time.perf_counter() - start < 0.6
        assert (rc, *capsys.readouterr()) == (2, "", (
            "error: the d-combination at n=78498 has more than 4300 digits, "
            "too many to print\n"))

    def test_scan_past_the_limit_refused(self):
        spec = SystemSpec(1, 2, CoefficientSchedule("allprimes"))
        past = PrimeSet.cofinite([1000003])
        with pytest.raises(ValueError, match="the scan would read the primes "
                           "up to 1000003, the least one outside the set, more "
                           "than the limit of 1000000"):
            refute_over_subring(spec, past, (F(1),), 78_499)
        # a zero combination needs no scan, and a set of all primes none past 2
        pair = SystemSpec(2, 2, CoefficientSchedule("allprimespair"))
        assert refute_over_subring(pair, past, (F(2), F(1)), 10**9) is None
        assert refute_over_subring(spec, PrimeSet(complement=True), (F(1),),
                                   10**9) is None


class TestParseSchedule:
    def test_builtin_forms(self):
        assert parse_schedule("qpow:2") == CoefficientSchedule("qpow", 2)
        assert parse_schedule("allprimes") == CoefficientSchedule("allprimes")
        assert parse_schedule("qpowpair:3") == CoefficientSchedule("qpowpair", 3)
        assert parse_schedule("allprimespair") == CoefficientSchedule("allprimespair")

    def test_file_form(self, tmp_path):
        table = tmp_path / "d.txt"
        table.write_text("1/5 2/5\n3/5 4/5\n")
        s = parse_schedule(f"file:{table}")
        assert s.kind == "explicit"
        assert coefficient(s, 3, 2) == F(4, 5)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_schedule("fancy")
        with pytest.raises(ValueError):
            parse_schedule("qpow:x")

    @pytest.mark.parametrize("text,want", [
        ("qpow", "unknown schedule: 'qpow'"),
        ("qpow:", "not an integer prime: ''"),
        ("qpow:x", "not an integer prime: 'x'"),
        ("qpow:4", "schedule qpow needs a prime q, got 4"),
        ("allprimes:3", "unknown schedule: 'allprimes:3'"),
        ("allprimespair:", "unknown schedule: 'allprimespair:'"),
        ("qpowpair", "unknown schedule: 'qpowpair'"),
        ("qpowpair:2:3", "not an integer prime: '2:3'"),
        ("QPOW:2", "unknown schedule: 'QPOW:2'"),
        ("qpow :3", "unknown schedule: 'qpow :3'"),
        ("explicit", "unknown schedule: 'explicit'"),
        ("file", "unknown schedule: 'file'"),
        (" qpow: 3 ", CoefficientSchedule("qpow", 3)),
        ("qpowpair:+5", "not an integer prime: '+5'"),
        (" allprimes\n", CoefficientSchedule("allprimes")),
    ])
    def test_spellings(self, text, want):
        # the kind is the text before the first colon; :Q follows exactly
        # the kinds whose denominators are powers of one prime
        if isinstance(want, str):
            with pytest.raises(ValueError) as error:
                parse_schedule(text)
            assert str(error.value) == want
        else:
            assert parse_schedule(text) == want
