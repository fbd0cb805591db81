"""The closed-form `refute_over_subring` against the n = 2..nmax scan it
replaced (tests/systems_reference.py), on seeded random cases, plus time
bounds on the CLI at nmax 10^6."""

import random
import time
from fractions import Fraction as F

import pytest

from radokit.cli import main
from radokit.rings import PrimeSet, _parts
from radokit.systems import (
    CoefficientSchedule,
    SystemSpec,
    d_combination_parts,
    refute_over_subring,
)
from systems_reference import scan_refute, scan_schedule_value

SMALL = [2, 3, 5, 7, 11, 13]
LARGE = [10007, 104729, 1299709]      # the 1230th, 10000th and 100000th primes


def random_schedule(rng):
    q = rng.choice((2, 3, 5, 7, 11))
    return rng.choice((CoefficientSchedule("qpow", q), CoefficientSchedule("qpowpair", q),
                       CoefficientSchedule("allprimes"),
                       CoefficientSchedule("allprimespair")))


def random_primes(rng, schedule):
    """Every kind of prime set; the finite and cofinite ones often hold the
    schedule's q, and a cofinite one may exclude a prime above 10^4."""
    kind = rng.choice(("empty", "all", "finite", "cofinite"))
    if kind == "empty":
        return PrimeSet()
    if kind == "all":
        return PrimeSet(complement=True)
    chosen = set(rng.sample(SMALL, rng.randint(0, 3)))
    if schedule.q is not None and rng.random() < 0.5:
        chosen.add(schedule.q)
    if kind == "finite":
        return PrimeSet.finite(chosen)
    if rng.random() < 0.4:
        chosen.add(rng.choice(LARGE))
        if rng.random() < 0.5:
            chosen -= set(SMALL)
    return PrimeSet.cofinite(chosen)


def allowed_denominators(primes):
    if primes.complement:
        return [p for p in SMALL if p not in primes.primes]
    return sorted(primes.primes)


def random_y(rng, schedule, primes):
    """y in the subring: signs mixed, sometimes a large power of a schedule
    prime, sometimes in the kernel of a pair (so that c.y = 0)."""
    dens = allowed_denominators(primes)
    ys = []
    for _ in range(schedule.arity):
        u = rng.choice((0, 1, 1, 2, 3, 5, 6, 7, 10, 30, 210)) * rng.choice((1, -1))
        if rng.random() < 0.35:
            u *= (schedule.q or rng.choice((2, 3, 5))) ** rng.randint(1, 70)
        den = rng.choice(dens) ** rng.randint(1, 3) if dens and rng.random() < 0.3 else 1
        ys.append(F(u, den))
    if schedule.arity == 2 and rng.random() < 0.2:
        ys = [2 * ys[1], ys[1]]
    return tuple(ys)


def cases(count):
    rng = random.Random(20261018)
    for _ in range(count):
        schedule = random_schedule(rng)
        primes = random_primes(rng, schedule)
        yield (SystemSpec(schedule.arity, rng.randint(2, 6), schedule), primes,
               random_y(rng, schedule, primes))


def test_closed_form_matches_scan():
    seen = {"obstructed": 0, "unobstructed": 0, "zero": 0, "large": 0,
            "cofinite-large": 0}
    for spec, primes, y in cases(1200):
        cap = 24 if spec.schedule.over_all_primes else 80
        star = scan_refute(spec, primes, y, cap)
        nmaxes = {0, 1, 2, cap} | ({star - 1, star} if star is not None else set())
        for n_max in sorted(nmaxes):
            want = scan_refute(spec, primes, y, n_max)
            assert refute_over_subring(spec, primes, y, n_max) == want, (
                spec.schedule, primes, y, n_max)
        seen["obstructed" if star is not None else "unobstructed"] += 1
        seen["zero"] += sum(a * b for a, b in zip(spec.schedule.c, y)) == 0
        seen["large"] += star is not None and star > 20
        seen["cofinite-large"] += primes.complement and any(
            p > 10**4 for p in primes.primes)
    assert min(seen.values()) >= 20, seen


def random_table(rng):
    """An explicit schedule of zeros, negatives and fractions, one to three
    columns wide and one to seven rows long."""
    alpha = rng.randint(1, 3)
    return CoefficientSchedule.explicit(
        [[F(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 9, 25))) for _ in range(alpha)]
         for _ in range(rng.randint(1, 7))])


def test_tables_and_d_combinations_match_the_reference():
    """d_combination_parts of every kind at every n against the sum of the
    reference coefficients, and the table scan against scan_refute."""
    rng = random.Random(20261023)
    seen = {"table": 0, "zero": 0, "nonzero": 0}
    schedules = [(spec.schedule, primes, y) for spec, primes, y in cases(300)]
    for _ in range(300):
        s = random_table(rng)
        primes = random_primes(rng, s)
        schedules.append((s, primes, random_y(rng, s, primes)))
    for s, primes, y in schedules:
        depth = len(s.table) + 1 if s.table else 7
        spec = SystemSpec(s.arity, depth, s)
        for n in range(2, depth + 1):
            want = sum((scan_schedule_value(s, n, i) * v for i, v in enumerate(y, start=1)),
                       F(0))
            assert F(*d_combination_parts(s, n, _parts(y))) == want, (s, n, y)
            seen["zero" if want == 0 else "nonzero"] += 1
        if s.table:
            seen["table"] += 1
            for n_max in (0, 2, depth):
                assert refute_over_subring(spec, primes, y, n_max) == \
                    scan_refute(spec, primes, y, n_max), (s, primes, y, n_max)
    assert min(seen.values()) >= 100, seen


def test_errors_match_scan():
    rng = random.Random(7)
    for spec, primes, y in cases(300):
        outside = [p for p in (17, 19, 23, *primes.primes) if p not in primes]
        if not outside or rng.random() < 0.5:
            y = y + (F(1),)
        else:
            i = rng.randrange(len(y))
            y = y[:i] + (F(rng.choice((1, -1)), rng.choice(outside)),) + y[i + 1:]
        with pytest.raises(ValueError) as want:
            scan_refute(spec, primes, y, 10)
        with pytest.raises(ValueError) as got:
            refute_over_subring(spec, primes, y, 10)
        assert str(got.value) == str(want.value)


def test_large_excluded_prime_is_not_reached():
    # the 100000th prime is outside the set, but n_max stops the search
    # long before it; so do the small primes that cancel y's denominators
    spec = SystemSpec(1, 2, CoefficientSchedule("allprimes"))
    primes = PrimeSet.cofinite([1299709])
    start = time.perf_counter()
    assert refute_over_subring(spec, primes, (F(1),), 1000) is None
    assert time.perf_counter() - start < 0.5
    assert refute_over_subring(spec, PrimeSet.cofinite([2, 1299709]),
                               (F(4),), 10**6) == 3


@pytest.mark.parametrize("argv", [
    ["--alpha", "2", "--schedule", "allprimespair", "--primes=", "--y=2,1"],
    ["--alpha", "2", "--schedule", "qpowpair:3", "--primes=3", "--y=1,1"],
    ["--alpha", "1", "--schedule", "allprimes", "--primes=all", "--y=1/7"],
])
def test_cli_at_a_million_is_fast(argv, capsys):
    start = time.perf_counter()
    assert main(["refute", "--depth", "5", *argv, "--nmax", "1000000"]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == "no obstruction for n up to 1000000\n"
