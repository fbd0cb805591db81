"""The denominator-obstruction scan that `refute_over_subring` replaced:
for n = 2, 3, ..., n_max it builds every coefficient d_{n,i} by branching on
the schedule kind and tests the d-combination for subring membership.  It
is the reference for the closed form."""

from __future__ import annotations

import math
from fractions import Fraction

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
