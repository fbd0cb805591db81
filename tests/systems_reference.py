"""The denominator-obstruction scan that `refute_over_subring` replaced:
for n = 2, 3, ..., n_max it builds every coefficient d_{n,i} by branching on
the schedule kind and tests the d-combination for subring membership.  It
is the reference for the closed form.  The dense builders that the sparse
row generators replaced are kept here too, as their reference and as the
matrices that tests hand to columns_condition and first_entries, with the
positive-integer witness as a chain of its three blocks, and the column
names as the definition lists them."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat

from rings_reference import trial_is_prime
from radokit.rings import format_rat, in_subring

_primes: list[int] = [2]


def _first_primes(n: int) -> list[int]:
    candidate = _primes[-1]
    while len(_primes) < n:
        candidate += 1
        if trial_is_prime(candidate):
            _primes.append(candidate)
    return _primes[:n]


def scan_schedule_value(s, n: int, i: int) -> Fraction:
    if s.kind == "qpow":
        return Fraction(1, s.q**n)
    if s.kind == "qpowpair":
        return Fraction(-1, s.q**n) if i == 1 else Fraction(2, s.q**n)
    if s.kind in ("allprimes", "allprimespair"):
        base = math.prod(_first_primes(n)) ** n
        if s.kind == "allprimes":
            return Fraction(1, base)
        return Fraction(-1, base) if i == 1 else Fraction(2, base)
    return s.table[n - 2][i - 1]


def scan_refute(spec, primes, y, n_max: int) -> int | None:
    if len(y) != spec.alpha:
        raise ValueError(f"expected {spec.alpha} y-values, got {len(y)}")
    for i, value in enumerate(y, start=1):
        if not in_subring(value, primes):
            raise ValueError(f"y_{i} = {format_rat(value)} is outside the subring")
    for n in range(2, n_max + 1):
        combo = sum(
            (scan_schedule_value(spec.schedule, n, i) * y[i - 1]
             for i in range(1, spec.alpha + 1)),
            start=Fraction(0),
        )
        if not in_subring(combo, primes):
            return n
    return None


# The dense builders that `truncated_rows` and `stacked_rows` replaced:
# every entry of every row, zeros included, filled in place.

def dense_truncated_system(spec) -> list[list[Fraction]]:
    rows = []
    for n in range(2, spec.depth + 1):
        row = [Fraction(0)] * spec.var_count
        for j in range(1, n + 1):
            row[spec.x_index(n, j)] = Fraction(1)
        for i in range(1, spec.alpha + 1):
            row[spec.y_index(i)] = scan_schedule_value(spec.schedule, n, i)
        row[spec.z_index(n)] = Fraction(-1)
        rows.append(row)
    return rows


def dense_stacked_matrix(spec) -> list[list[Fraction]]:
    k, alpha = spec.depth, spec.alpha
    b = [0, 0]
    for j in range(2, k + 1):
        b.append(b[-1] + j)
    v = b[k] + alpha
    rows = []
    for r in range(v):
        row = [Fraction(0)] * v
        row[r] = Fraction(1)
        rows.append(row)
    for i in range(1, k):
        row = [Fraction(0)] * v
        row[b[i]:b[i + 1]] = [Fraction(1)] * (b[i + 1] - b[i])
        for t in range(1, alpha + 1):
            row[b[k] + t - 1] = scan_schedule_value(spec.schedule, i + 1, t)
        rows.append(row)
    for i in range(b[k], v):
        for j in range(i + 1, v):
            row = [Fraction(0)] * v
            row[i] = Fraction(1)
            row[j] = Fraction(-1)
            rows.append(row)
    return rows


def variable_names(spec) -> list[str]:
    """The column names in column order, from the definition: x_{n,j} for
    2 <= n <= depth and 1 <= j <= n in lexicographic (n, j) order, then
    y_1..y_alpha, then z_2..z_depth."""
    ns = range(2, spec.depth + 1)
    return ([f"x_{n}_{j}" for n in ns for j in range(1, n + 1)]
            + [f"y_{i}" for i in range(1, spec.alpha + 1)]
            + [f"z_{n}" for n in ns])


def chained_witness(spec) -> tuple[Fraction, ...]:
    """natural_solution_witness as it was built before tuple repetition:
    one shared 1 per x column, then the kernel y, then z_n = n."""
    return tuple(chain(repeat(Fraction(1), spec.x_count),
                       map(Fraction, spec.schedule.kernel),
                       map(Fraction, range(2, spec.depth + 1))))
