"""References the tests compare radokit.rings against: trial division, the
primality test and factorization that radokit used before Miller-Rabin;
Miller-Rabin on all 13 bases, which radokit ran before it took only the
bases its input needs; the regex parse_rat that str.isdecimal replaced;
and the pigeonhole_subset that tested membership and scaled each element
on its own, rather than once per distinct denominator."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

from radokit.rings import (DIGIT_LIMIT, PRIMALITY_LIMIT, PrimeSet, Rat, format_rat,
                           in_subring)

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


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_strong_probable_prime(n: int, a: int) -> bool:
    """Whether the odd n > a passes the strong (Miller-Rabin) test to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def thirteen_base_is_prime(n: int) -> bool:
    """Trial division by the 13 bases, then Miller-Rabin on every one of
    them; exact below PRIMALITY_LIMIT, refused from it on."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"{n} is too large for the exact primality test")
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    return n < 43 * 43 or all(is_strong_probable_prime(n, a) for a in MR_BASES)


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


_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rat(text: str) -> Rat:
    """Parse ``a`` or ``a/b`` with an optional leading minus sign."""
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # past the text-to-int digit limit
        raise ValueError(f"cannot read a number of more than {DIGIT_LIMIT} "
                         "digits") from None
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def pigeonhole_subset(m: int, primes: PrimeSet, xs: Sequence[Rat]) -> list[int]:
    """Indices of a nonempty subset whose sum is m times a subring element.

    Its outside-the-subring error names the element by its 0-based index.
    """
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    need = (m - 1) ** 2 + 1
    if len(xs) < need:
        raise ValueError(f"need at least {need} elements for m = {m}, got {len(xs)}")
    for n, x in enumerate(xs):
        if not in_subring(x, primes):
            raise ValueError(f"element {n} ({format_rat(x)}) is outside the subring")
    s = math.lcm(*(x.denominator for x in xs))
    numerators = [x.numerator * (s // x.denominator) for x in xs]
    by_residue: dict[int, list[int]] = {}
    for n, y in enumerate(numerators):
        by_residue.setdefault(y % m, []).append(n)
    for r in sorted(by_residue):
        if len(by_residue[r]) >= m:
            return by_residue[r][:m]
    # The m-1 nonzero classes hold at most (m-1)**2 < len(xs) elements, so
    # residue 0 is nonempty here.
    return [by_residue[0][0]]
