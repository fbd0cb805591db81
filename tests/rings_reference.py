"""Trial division: the primality test and factorization that radokit used
before Miller-Rabin, kept as the reference the tests compare against."""

from __future__ import annotations

# Trial division below this takes at most half a million divisions; bigger
# inputs are refused rather than left to grind.
FACTOR_LIMIT = 10**12


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, sorted; empty for n = 1."""
    if n < 1:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    if n >= FACTOR_LIMIT:
        raise ValueError(f"refusing trial division for n >= {FACTOR_LIMIT} (got {n})")
    out: list[int] = []
    while n % 2 == 0:
        out.append(2)
        n //= 2
    d = 3
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out
