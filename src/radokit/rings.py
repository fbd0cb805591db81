"""Exact arithmetic over the rationals and their localized subrings.

Every subring of the rationals is obtained by picking a set F of primes and
allowing exactly those primes in reduced denominators (F empty gives the
integers, F everything gives all of the rationals, F = {2} gives the dyadic
rationals).  This module provides exact primality, the membership tests,
p-adic valuations and the constructive residue pigeonhole that the rest of
the package builds on.

Rationals are plain :class:`fractions.Fraction` values, which already
maintain the canonical reduced form (gcd 1, positive denominator, zero as
0/1).  ``Rat`` is an alias for that type, and a constructor takes its
values through `_rat`, which keeps a Fraction.  The kernels work on that form
as two ints, a numerator and a denominator, which `_rat_parts` reads from
text: `in_scaled_subring` and `pigeonhole_subset` are one-line wrappers
over their `_parts` forms, and membership reads only the denominator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction

Rat = Fraction

# Miller-Rabin on the first k prime bases has no strong pseudoprime below
# psi_k, the k-th entry of _MR_PSI (Jaeschke 1993; Sorenson and Webster
# 2015), so below it the test on those k bases is exact; psi_13 is the limit.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461,
           PRIMALITY_LIMIT)

# Python converts no int of more than this many digits to text (the default
# int_max_str_digits), so radokit prints no number longer than that.
DIGIT_LIMIT = 4300
TOO_LONG = f"cannot print a number of more than {DIGIT_LIMIT} digits"


class _Record:
    """Base of the package's immutable records.  A subclass lists its
    fields, in constructor order, in `_fields`, and its constructor
    validates, then sets every slot through `_set`.  Equality (same class,
    equal fields), hash, repr, the refusal to assign or delete and
    pickling, which calls the constructor again, are derived from
    `_fields` as a frozen dataclass derives them; slots outside `_fields`
    hold values derived from the fields."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _is_integer(text: str) -> bool:
    """Whether text is an integer token: an optional leading minus sign,
    then Unicode decimal digits (``str.isdecimal``).  No ``+``, ``_`` or
    whitespace, which ``int()`` would read."""
    return (text[1:] if text.startswith("-") else text).isdecimal()


def _parse_int(text: str) -> int:
    """The integer of an integer token, surrounding whitespace ignored.
    A bare ValueError for any other text, and for a token past the
    text-to-int digit limit: each caller gives its own message."""
    text = text.strip()
    if not _is_integer(text):
        raise ValueError
    return int(text)


# the CLI's count options take it as their argparse type, and argparse names
# a type by its __name__ in "invalid int value: '...'"
_parse_int.__name__ = "int"


def _rat_parts(text: str) -> tuple[int, int]:
    """The numerator and denominator, in lowest terms, of a rational token:
    ``a`` or ``a/b``, a an integer token, b a string of Unicode decimal
    digits (``str.isdecimal``), surrounding whitespace ignored.  The one
    reader of rational text: an integer token costs one ``int()``.
    """
    num, slash, den = text.strip().partition("/")
    if not _is_integer(num) or (slash and not den.isdecimal()):
        raise ValueError(f"not a rational: {text!r}")
    try:
        a = int(num)
        if not slash:
            return a, 1
        b = int(den)
    except ValueError:  # past the text-to-int digit limit
        raise ValueError(f"cannot read a number of more than {DIGIT_LIMIT} "
                         "digits") from None
    if b == 0:
        raise ValueError(f"zero denominator: {text!r}")
    g = math.gcd(a, b)
    return a // g, b // g


def parse_rat(text: str) -> Rat:
    """Parse ``a`` or ``a/b``, by `_rat_parts`'s grammar, into a Fraction.
    An integer token takes Fraction's one-argument path, with no gcd."""
    a, b = _rat_parts(text)
    return Fraction(a) if b == 1 else Fraction(a, b)


def _rat(x: Rat | int) -> Rat:
    """x itself when it is a Fraction, else Fraction(x): the one rule by
    which a constructor takes its values, so a value built once is kept."""
    return x if type(x) is Fraction else Fraction(x)


def parse_rats(tokens: Iterable[str], read=None) -> list:
    """parse_rat of each token, or `read` of it (`_rat_parts` gives the
    numerator and denominator), reading each distinct token once: a repeat
    is a dict lookup and shares the value of the token's first sight.  The
    tokens are taken one at a time, in order, so the first bad one raises
    the reader's own error."""
    read = read or parse_rat
    parsed: dict = {}
    return [parsed[tok] if tok in parsed else parsed.setdefault(tok, read(tok))
            for tok in tokens]


def format_rat(x: Rat) -> str:
    """Render as ``a/b``, omitting the denominator when it is 1."""
    try:
        return str(x)
    except ValueError:  # past the int-to-text digit limit
        raise ValueError(TOO_LONG) from None


def _format_parts(a: int, b: int) -> str:
    """format_rat of a/b, given in lowest terms with b > 0."""
    return format_rat(a) if b == 1 else f"{format_rat(a)}/{format_rat(b)}"


def _parts(xs: Iterable[Rat]) -> list[tuple[int, int]]:
    """The numerator and denominator of each rational, in lowest terms."""
    return [(x.numerator, x.denominator) for x in xs]


def _sum_parts(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the rationals a/b, b > 0, added as integers over the lcm
    of their denominators: its numerator and denominator in lowest terms."""
    terms = list(terms)
    den = math.lcm(*[b for _, b in terms])
    num = sum([a * (den // b) for a, b in terms])
    g = math.gcd(num, den)
    return num // g, den // g


def is_prime(n: int) -> bool:
    """Exact primality of n by deterministic Miller-Rabin on the first k
    prime bases, for the least k with psi_k > n.

    Raises ValueError for n >= PRIMALITY_LIMIT, where the 13 bases no
    longer decide primality.
    """
    if n < 2:
        return False
    if n >= PRIMALITY_LIMIT:
        raise ValueError(
            f"{n} is too large for the exact primality test "
            f"(limit {PRIMALITY_LIMIT})")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES[:bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeSet(_Record):
    """Decidable set of primes: a finite set of primes, or its complement.

    ``primes`` holds the listed primes, or the excluded ones when
    ``complement`` is set.  Membership is a predicate, never an
    enumeration, so infinite sets are first-class.
    """

    __slots__ = _fields = ("primes", "complement")

    def __init__(self, primes: frozenset[int] = frozenset(),
                 complement: bool = False) -> None:
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        self._set(primes=primes, complement=complement)

    @classmethod
    def finite(cls, primes: Iterable[int]) -> "PrimeSet":
        return cls(frozenset(primes))

    @classmethod
    def cofinite(cls, excluded: Iterable[int]) -> "PrimeSet":
        return cls(frozenset(excluded), complement=True)

    def __contains__(self, p: int) -> bool:
        """Membership of the prime p (the argument is assumed prime)."""
        return (p in self.primes) != self.complement


def parse_prime_set(text: str) -> PrimeSet:
    """Parse ``all``, ``all-except:p1,...``, or ``p1,p2,...``, a list that
    may be empty (``''``, the integers)."""
    t = text.strip()
    if t == "all":
        return PrimeSet(complement=True)
    if t.startswith("all-except:"):
        return PrimeSet.cofinite(_parse_prime_list(t[len("all-except:"):]))
    return PrimeSet.finite(_parse_prime_list(t))


def _parse_prime_list(text: str) -> list[int]:
    try:
        return [_parse_int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"not a comma-separated prime list: {text!r}") from None


def in_subring(x: Rat, primes: PrimeSet) -> bool:
    """Is x in the subring of the rationals localized at the given primes?

    True exactly when every prime factor of x's reduced denominator lies in
    the set.  Integers belong to every such subring.
    """
    return _den_in(x.denominator, primes)


def _den_in(den: int, primes: PrimeSet) -> bool:
    """in_subring of any rational whose reduced denominator is den."""
    if den == 1:
        return True
    if primes.complement:
        # membership fails only if an excluded prime divides den
        return all(den % p != 0 for p in primes.primes)
    for p in primes.primes:
        while den % p == 0:
            den //= p
    return den == 1


def in_scaled_subring(x: Rat, m: int, primes: PrimeSet) -> bool:
    """Is x an m-multiple of a subring element, i.e. is x/m in the subring?"""
    return in_scaled_subring_parts(x.numerator, x.denominator, m, primes)


def in_scaled_subring_parts(a: int, b: int, m: int, primes: PrimeSet) -> bool:
    """in_scaled_subring of a/b, in lowest terms: x/m = a/(b m) has the
    reduced denominator b m / gcd(a, m), as a and b are coprime."""
    if m < 1:
        raise ValueError(f"scale must be a positive integer, got {m}")
    return _den_in(b * m // math.gcd(a, m), primes)


def padic_valuation(x: Rat, p: int) -> int | float:
    """Signed multiplicity of the prime p in x; ``math.inf`` for x = 0.

    Negative exactly when p divides the reduced denominator.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        return math.inf
    return _multiplicity(x.numerator, p) - _multiplicity(x.denominator, p)


def _multiplicity(n: int, p: int) -> int:
    """How many times p > 1 divides the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def pigeonhole_subset(m: int, primes: PrimeSet, xs: Sequence[Rat]) -> list[int]:
    """Indices of a nonempty subset whose sum is m times a subring element.

    Follows the residue construction: write the xs over the lcm of their
    denominators, giving integer numerators, then take m indices whose
    numerators share a residue mod m (smallest residue with enough members,
    then smallest indices).  When no residue class reaches m members, some
    numerator is itself divisible by m -- the input is long enough to force
    that -- and its index alone serves.

    Needs at least (m-1)**2 + 1 elements, all inside the subring.
    """
    return pigeonhole_subset_parts(m, primes, _parts(xs))


def pigeonhole_subset_parts(m: int, primes: PrimeSet,
                            xs: Sequence[tuple[int, int]]) -> list[int]:
    """pigeonhole_subset of the rationals a/b given as (a, b) in lowest
    terms.  Membership and the lcm's scale factor are worked out once per
    distinct denominator."""
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    need = (m - 1) ** 2 + 1
    if len(xs) < need:
        raise ValueError(f"need at least {need} elements for m = {m}, got {len(xs)}")
    dens = [b for _, b in xs]
    # each distinct denominator and the position of its first value: dict
    # keeps the last write, so the reversed zip leaves the least position
    first = dict(zip(reversed(dens), range(len(xs) - 1, -1, -1)))
    for n in sorted(first.values()):
        if not _den_in(dens[n], primes):
            raise ValueError(f"element {n + 1} ({_format_parts(*xs[n])}) is "
                             "outside the subring")
    s = math.lcm(*first)
    scale = {d: s // d for d in first}
    by_residue: dict[int, list[int]] = {}
    for n, (a, b) in enumerate(xs):
        by_residue.setdefault(a * scale[b] % m, []).append(n)
    for r in sorted(by_residue):
        if len(by_residue[r]) >= m:
            return by_residue[r][:m]
    # The m-1 nonzero classes hold at most (m-1)**2 < len(xs) elements, so
    # residue 0 is nonempty here.
    return [by_residue[0][0]]

