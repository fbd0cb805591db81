"""Builders for truncated instances of the equation family

    x_{n,1} + ... + x_{n,n} + d_{n,1} y_1 + ... + d_{n,alpha} y_alpha = z_n

for 2 <= n <= k, one row at a time as runs of equal entries, together with
the rows of the stacked (I; A; B) matrix whose first-entries structure drives
the partition-regularity argument, the built-in coefficient schedules, and the
denominator obstruction that refutes solvability over a localized subring.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations, compress, count, groupby, islice, takewhile

from .linalg import read_matrix
from .rings import (
    DIGIT_LIMIT,
    PrimeSet,
    Rat,
    _den_in,
    _format_parts,
    _multiplicity,
    _parse_int,
    _parts,
    _rat,
    _Record,
    _sum_parts,
    is_prime,
)

_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)

_primes_cache: list[int] = [2]

# refute_over_subring learns a prime's index by reading the primes up to it,
# and refuses to read past this limit for the least prime outside a cofinite
# set; 78,498 primes lie below it
SCAN_LIMIT = 10**6


def _primes() -> Iterator[int]:
    """The primes in increasing order, extending the cache as they are read:
    past its last prime P, by sieving lo = P + 1 .. 2 lo - 1, which holds a
    prime (Bertrand), with the cached primes up to its square root."""
    for j in count():
        if j == len(_primes_cache):
            lo = _primes_cache[-1] + 1
            sieve = bytearray([1]) * lo
            for p in takewhile(lambda p: p * p < 2 * lo, _primes_cache):
                # from lo's offset to p's first multiple past P, never p itself
                sieve[-lo % p::p] = bytes(len(range(-lo % p, lo, p)))
            _primes_cache.extend(compress(range(lo, 2 * lo), sieve))
        yield _primes_cache[j]


# The built-in kinds as data: d_{n,i} = c_i / D(n), where D(n) is q^n, or
# (p_1 ... p_n)^n when the denominators run over all primes; the positive
# integer y with c.y = 0, when there is one, gives `natural_solution_witness`.
# kind: (c, over all primes, kernel y)
_BUILTIN_SCHEDULES = {
    "qpow": ((1,), False, None),
    "allprimes": ((1,), True, None),
    "qpowpair": ((-1, 2), False, (2, 1)),
    "allprimespair": ((-1, 2), True, (2, 1)),
}

class CoefficientSchedule(_Record):
    """Rule producing the coefficients d_{n,i} for every equation index n >= 2.

    Built-in kinds:
      qpow(q)        d_{n,1} = 1/q^n
      allprimes      d_{n,1} = 1/(p_1 ... p_n)^n over the increasing primes
      qpowpair(q)    (d_{n,1}, d_{n,2}) = (-1/q^n, 2/q^n)
      allprimespair  (d_{n,1}, d_{n,2}) = (-1/P^n, 2/P^n), P = p_1 ... p_n
      explicit       a finite table, row n-2 listing d_{n,1..alpha}

    A built-in kind is held as data: numerators `c`, so d_{n,i} = c_i / D(n)
    with D(n) = q^n, or (p_1 ... p_n)^n when `over_all_primes`.  The pair
    kinds are tuned so that d_{n,1}*2 + d_{n,2}*1 = 0 for every n: their
    `kernel` is y = (2, 1).  `kind` is a label for messages.  An explicit
    schedule has c = (), over_all_primes False and kernel None.
    """

    _fields = ("kind", "q", "table")
    __slots__ = (*_fields, "c", "over_all_primes", "kernel")

    def __init__(self, kind: str, q: int | None = None,
                 table: tuple[tuple[Rat, ...], ...] | None = None) -> None:
        if kind != "explicit" and kind not in _BUILTIN_SCHEDULES:
            raise ValueError(f"unknown schedule kind: {kind!r}")
        c, over_all_primes, kernel = _BUILTIN_SCHEDULES.get(kind, ((), False, None))
        # a built-in kind takes q exactly when it is not over all primes
        if kind != "explicit" and not over_all_primes:
            if q is None or not is_prime(q):
                raise ValueError(f"schedule {kind} needs a prime q, got {q}")
        elif q is not None:
            raise ValueError(f"schedule {kind} takes no q")
        if kind == "explicit":
            if not table or not table[0]:
                raise ValueError("explicit schedule needs a nonempty table")
            width = len(table[0])
            if any(len(row) != width for row in table):
                raise ValueError("explicit schedule table must be rectangular")
        elif table is not None:
            raise ValueError(f"schedule {kind} takes no table")
        self._set(kind=kind, q=q, table=table, c=c, over_all_primes=over_all_primes,
                  kernel=kernel)

    @classmethod
    def explicit(cls, rows) -> "CoefficientSchedule":
        table = tuple(tuple(map(_rat, row)) for row in rows)
        return cls("explicit", table=table)

    @property
    def arity(self) -> int:
        return len(self.c) if self.table is None else len(self.table[0])

    def _bases(self) -> Iterable[int]:
        """The primes of a built-in schedule's D(n), in order: D(n) is the
        product of the first n of them, to the n, so the j-th divides D(n)
        from n = j on.  Every prime when over all primes, else q alone."""
        return _primes() if self.over_all_primes else (self.q,)

    def denominator(self, n: int) -> int:
        """D(n) of a built-in schedule: q^n or (p_1 ... p_n)^n."""
        return math.prod(islice(self._bases(), n)) ** n

    def denominator_exceeds(self, n: int, digits: int) -> bool:
        """Whether D(n) >= 10**digits, that is, D(n) has more than `digits`
        digits.  The primes' logarithms decide it without building D(n),
        unless log10 D(n) lies within a digit of `digits`: then D(n), about
        `digits` digits long, is built and compared."""
        # D(n) >= (b_1 ... b_j)^n for every j <= n
        total = 0.0
        for p in islice(self._bases(), n):
            total += math.log10(p)
            if n * total >= digits + 1:
                return True
        log10 = n * total
        if abs(log10 - digits) >= 1:
            return log10 > digits
        return self.denominator(n) >= 10**digits


def _schedule_row(s: CoefficientSchedule, n: int) -> Sequence[Rat]:
    """d_{n,1}, ..., d_{n,arity} of equation n >= 2, with D(n) built once
    for the row.  An explicit table past its last row raises ValueError."""
    if s.table is not None:
        if n - 2 >= len(s.table):
            raise ValueError(
                f"explicit schedule defines n up to {len(s.table) + 1}, got {n}")
        return s.table[n - 2]
    den = s.denominator(n)
    return [Fraction(c, den) for c in s.c]


class SystemSpec(_Record):
    """A truncation depth k >= 2, the y-arity, and a coefficient schedule.

    Fixes the variable order used by every builder: the x-block in
    lexicographic (n, j) order, then y_1..y_alpha, then z_2..z_k.
    """

    __slots__ = _fields = ("alpha", "depth", "schedule")

    def __init__(self, alpha: int, depth: int, schedule: CoefficientSchedule) -> None:
        if alpha < 1:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if depth < 2:
            raise ValueError(f"depth must be at least 2, got {depth}")
        if schedule.arity != alpha:
            raise ValueError(f"schedule arity {schedule.arity} != alpha {alpha}")
        if schedule.table is not None:
            _schedule_row(schedule, depth)  # refuses a depth past the table
        self._set(alpha=alpha, depth=depth, schedule=schedule)

    @property
    def x_count(self) -> int:
        return self.depth * (self.depth + 1) // 2 - 1

    @property
    def var_count(self) -> int:
        return self.x_count + self.alpha + (self.depth - 1)

    def x_index(self, n: int, j: int) -> int:
        """Column of x_{n,j} (2 <= n <= depth, 1 <= j <= n)."""
        return n * (n - 1) // 2 - 1 + (j - 1)

    def y_index(self, i: int) -> int:
        return self.x_count + (i - 1)

    def z_index(self, n: int) -> int:
        return self.x_count + self.alpha + (n - 2)

    def name_groups(self) -> Iterator[tuple[str, Sequence[str]]]:
        """The column names in column order as (prefix, suffixes) groups,
        each name a prefix followed by one of its suffixes: x_n_ over 1..n
        for each n, then y_ over 1..alpha, then z_ over 2..depth."""
        js = [str(j) for j in range(1, self.depth + 1)]
        for n in range(2, self.depth + 1):
            yield f"x_{n}_", js[:n]
        yield "y_", [str(i) for i in range(1, self.alpha + 1)]
        yield "z_", js[1:]


def truncated_rows(spec: SystemSpec) -> Iterator[list[tuple[int, int, Rat]]]:
    """The rows of the truncation, one at a time: row n-2 encodes
    x_{n,1}+...+x_{n,n} + sum_i d_{n,i} y_i - z_n = 0, as the runs
    (column, count, value) of its nonzero entries, each `count` entries
    equal to `value` from `column` on, in column order: n ones from
    x_{n,1} on, one run per nonzero d_{n,i}, and -1 at z_n."""
    for n in range(2, spec.depth + 1):
        row = [(spec.x_index(n, 1), n, _ONE)]
        row += [(spec.y_index(i), 1, d)
                for i, d in enumerate(_schedule_row(spec.schedule, n), start=1) if d]
        row.append((spec.z_index(n), 1, _MINUS_ONE))
        yield row


def stacked_rows(spec: SystemSpec) -> Iterator[list[tuple[int, int, Rat]]]:
    """The rows of the (I; A; B) stack over v = b_k + alpha columns, one at
    a time, as the runs of their nonzero entries.  The offsets are
    b_1 = 0 and b_j = b_{j-1} + j, so b_k is the x count.

    I is the v x v identity.  A has k-1 rows: row i carries ones on columns
    b_i+1 .. b_{i+1} (1-based) and d_{i+1,t} on column b_k + t, which is
    row i of the truncated system without its z run.  B carries one
    difference row per pair b_k < i < j <= v, a 1 at i and a -1 at j,
    pairs in lexicographic order; alpha = 1 means no B rows.  Columns read
    as x_{2,1}..x_{k,k} then y_1..y_alpha.
    """
    v = spec.x_count + spec.alpha
    for r in range(v):
        yield [(r, 1, _ONE)]
    for row in truncated_rows(spec):
        yield row[:-1]
    for i, j in combinations(range(spec.x_count, v), 2):
        yield [(i, 1, _ONE), (j, 1, _MINUS_ONE)]


def natural_solution_witness(spec: SystemSpec) -> list[Rat]:
    """A positive-integer solution of the truncated system, its values in
    column order as a list, for a schedule with an integer kernel y (the
    pair kinds: y = (2, 1)), which kills every d-combination; all
    x_{n,j} = 1, one shared object, and z_n = n.  Other schedules are
    rejected.  The list is allocated once, at its full length."""
    kernel = spec.schedule.kernel
    if kernel is None:
        raise ValueError(f"integer witness needs a pair schedule, "
                         f"got {spec.schedule.kind!r}")
    # the columns are x_{2,1}..x_{k,k}, then y, then z_2..z_k
    witness = [_ONE] * spec.var_count
    witness[spec.x_count:] = map(Fraction, (*kernel, *range(2, spec.depth + 1)))
    return witness


def d_combination_parts(s: CoefficientSchedule, n: int, y: Sequence[tuple[int, int]],
                        cy: tuple[int, int] | None = None) -> tuple[int, int]:
    """The d-combination sum_i d_{n,i} y_i of equation n, of y given as
    (numerator, denominator) pairs, as such a pair in lowest terms.  For a
    built-in schedule it is (c.y) / D(n), from c.y = a/b (`cy` when the
    caller has it) reduced by one gcd, as a and b are coprime; 0/1, with no
    D(n) built, when c.y = 0.

    Raises ValueError, without building D(n), when D(n) alone shows that
    the quotient is too long to print: its reduced denominator is at least
    D(n) / |numerator of c.y|.
    """
    if s.table is not None:
        return _sum_parts((d.numerator * a, d.denominator * b)
                          for d, (a, b) in zip(_schedule_row(s, n), y))
    a, b = cy or _cy(s, y)
    if not a:
        return 0, 1
    # 10**(int(log10 |a|) + 2) > |a| even when the float log is a unit low
    if s.denominator_exceeds(n, DIGIT_LIMIT + 2 + int(math.log10(abs(a)))):
        raise ValueError(f"the d-combination at n={n} has more than "
                         f"{DIGIT_LIMIT} digits, too many to print")
    d = s.denominator(n)
    g = math.gcd(a, d)
    return a // g, b * (d // g)


def _cy(s: CoefficientSchedule, y: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """c.y of a built-in schedule, as integers over the lcm of y's
    denominators: its numerator and denominator in lowest terms."""
    return _sum_parts((c * a, b) for c, (a, b) in zip(s.c, y))


def truncated_residuals_parts(spec: SystemSpec,
                              values: Sequence[Rat]) -> list[tuple[int, int]]:
    """The residual of each equation n = 2..depth at the given values, in
    row order: sum_j x_{n,j} - z_n + the d-combination of the y values, as
    a list of (numerator, denominator) pairs in lowest terms.

    Only the row's own terms are read, so the whole check is O(k^2).  A
    row whose n x values all equal its first (a witness's rows, one shared
    object, which `count` passes by identity) is the one term n * x;
    otherwise its x values are read once per run of equal values, as that
    value times the run's length.  The terms are added with -z_n as
    integers over their lcm.  c.y is
    computed once, and D(n) is built only when it is nonzero (never for a
    pair schedule's kernel y).
    """
    if len(values) != spec.var_count:
        raise ValueError(f"expected {spec.var_count} values, got {len(values)}")
    s = spec.schedule
    y = _parts(values[spec.y_index(1):spec.y_index(spec.alpha) + 1])
    cy = None if s.table is not None else _cy(s, y)
    out = []
    first = 0  # the column of x_{n,1}
    for n, z in enumerate(values[spec.z_index(2):], start=2):
        row = values[first:first + n]
        x = row[0]
        terms = ([(x.numerator * n, x.denominator)] if row.count(x) == n else
                 [(x.numerator * len(list(run)), x.denominator) for x, run in groupby(row)])
        terms += (-z.numerator, z.denominator), d_combination_parts(s, n, y, cy)
        out.append(_sum_parts(terms))
        first += n
    return out


def refute_over_subring(
    spec: SystemSpec, primes: PrimeSet, y: tuple[Rat, ...], n_max: int
) -> int | None:
    """Least n <= n_max whose d-combination sum_i d_{n,i} y_i falls outside
    the subring, or None.

    Any subring solution extending the given y values must absorb that
    combination into z_n - x_{n,1} - ... - x_{n,n}, which stays inside the
    subring; so a returned n certifies that no truncation of depth >= n has
    a subring solution with these y values.

    A built-in schedule is decided by valuations, with no scan.  The
    combination is s / D(n) with s = c.y, and a prime p outside the set
    never divides y's denominators; so it leaves the subring exactly when
    some p outside the set divides D(n) more often than s, that is
    n > v_p(s).  The prime p_j divides D(n) = (p_1 ... p_n)^n, n times, from
    n = j on (q divides q^n from n = 1 on, so take j = 1 for it), so the
    least n is the least max(j, 2, v_p(s) + 1) over the primes p = p_j
    outside the set; s = 0 gives none.  An explicit table is scanned.

    Learning j means reading the primes up to p_j, so over all primes and a
    cofinite set whose least excluded prime is past SCAN_LIMIT, an n_max
    that lets the walk pass SCAN_LIMIT is refused with a ValueError.
    """
    return refute_over_subring_parts(spec, primes, _parts(y), n_max)[0]


def refute_over_subring_parts(
    spec: SystemSpec, primes: PrimeSet, y: Sequence[tuple[int, int]], n_max: int
) -> tuple[int | None, tuple[int, int] | None]:
    """refute_over_subring of y given as (numerator, denominator) pairs in
    lowest terms, and c.y for a built-in schedule (None for a table), for
    d_combination_parts to take.  c.y is computed once, and the valuations
    are read off its numerator: its denominator divides the lcm of y's,
    which no prime outside the set divides."""
    if len(y) != spec.alpha:
        raise ValueError(f"expected {spec.alpha} y-values, got {len(y)}")
    for i, (a, b) in enumerate(y, start=1):
        if not _den_in(b, primes):
            raise ValueError(f"y_{i} = {_format_parts(a, b)} is outside the subring")
    s = spec.schedule
    if s.table is not None:
        n = next((n for n in range(2, n_max + 1)
                  if not _den_in(d_combination_parts(s, n, y)[1], primes)), None)
        return n, None
    cy = _cy(s, y)
    total = cy[0]
    if total == 0:
        return None, cy
    if (s.over_all_primes and primes.complement and n_max > 78_498
            and (least := min(primes.primes, default=0)) > SCAN_LIMIT):
        raise ValueError(f"the scan would read the primes up to {least}, the least "
                         f"one outside the set, more than the limit of {SCAN_LIMIT}")
    # a set holding all but finitely many primes has none outside it past
    # the largest one it excludes
    last = max(primes.primes, default=0) if primes.complement else None
    best = None
    # p divides D(n) from n = j on
    for j, p in enumerate(s._bases(), start=1):
        # from here on, no prime gives a smaller n within n_max
        if j > n_max or (best is not None and j >= best) or (
                last is not None and p > last):
            break
        if p not in primes:
            n = max(j, 2, _multiplicity(total, p) + 1)
            best = n if best is None else min(best, n)
    return (best if best is not None and best <= n_max else None), cy


def parse_schedule(text: str) -> CoefficientSchedule:
    """Parse a schedule flag: qpow:Q, allprimes, qpowpair:Q, allprimespair,
    or file:PATH where the file holds an explicit d-table in the matrix
    text format (row n-2 lists d_{n,1..alpha})."""
    kind, colon, arg = text.strip().partition(":")
    if kind == "file" and colon:
        return CoefficientSchedule.explicit(read_matrix(arg).to_lists())
    # a built-in kind takes :Q exactly when it is not over all primes ([1])
    if kind in _BUILTIN_SCHEDULES and bool(colon) != _BUILTIN_SCHEDULES[kind][1]:
        return CoefficientSchedule(kind, _parse_prime_arg(arg) if colon else None)
    raise ValueError(f"unknown schedule: {text!r}")


def _parse_prime_arg(text: str) -> int:
    try:
        return _parse_int(text)
    except ValueError:
        raise ValueError(f"not an integer prime: {text!r}") from None
