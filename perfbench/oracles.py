"""Independent reference computations for checking radokit's answers.

Nothing here imports radokit: every check re-derives the answer from the
defining formulas (the docstrings of systems.py, the certificate definition
of rado.py, the colouring rules of search.py), so a change under src/ cannot
weaken the check that judges it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import prod


def first_primes(n: int) -> list[int]:
    """The n smallest primes."""
    out: list[int] = []
    k = 2
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    bases = first_primes(12)
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(x: int, p: int) -> int:
    """Multiplicity of the prime p in the nonzero integer x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# --- schedules and the systems.py matrices ---------------------------------

def schedule_parts(schedule: str) -> tuple[tuple[int, ...], str, int | None]:
    """(c, rule, q) with d_{n,i} = c_i / D(n): D(n) = q^n for the qpow kinds
    and (p_1 ... p_n)^n for the allprimes kinds."""
    kind, _, q = schedule.partition(":")
    c = (-1, 2) if kind.endswith("pair") else (1,)
    rule = "allprimes" if kind.startswith("allprimes") else "qpow"
    return c, rule, int(q) if q else None


def denominator(schedule: str, n: int) -> int:
    _, rule, q = schedule_parts(schedule)
    return q**n if rule == "qpow" else prod(first_primes(n)) ** n


def d_values(schedule: str, n: int) -> list[Fraction]:
    c, _, _ = schedule_parts(schedule)
    D = denominator(schedule, n)
    return [Fraction(ci, D) for ci in c]


def variable_names(alpha: int, depth: int) -> list[str]:
    return ([f"x_{n}_{j}" for n in range(2, depth + 1) for j in range(1, n + 1)]
            + [f"y_{i}" for i in range(1, alpha + 1)]
            + [f"z_{n}" for n in range(2, depth + 1)])


def truncated_system(schedule: str, alpha: int, depth: int) -> list[list[Fraction]]:
    """Row n-2: x_{n,1} + ... + x_{n,n} + sum_i d_{n,i} y_i - z_n = 0."""
    x_count = depth * (depth + 1) // 2 - 1
    width = x_count + alpha + depth - 1
    rows = []
    for n in range(2, depth + 1):
        row = [Fraction(0)] * width
        start = n * (n - 1) // 2 - 1
        row[start:start + n] = [Fraction(1)] * n
        row[x_count:x_count + alpha] = d_values(schedule, n)
        row[x_count + alpha + n - 2] = Fraction(-1)
        rows.append(row)
    return rows


def stacked_matrix(schedule: str, alpha: int, depth: int) -> list[list[Fraction]]:
    """(I; A; B): the v x v identity, A row i with ones on columns
    b_i+1..b_{i+1} and d_{i+1,t} on column b_k+t, then a (1, -1) row per
    pair of y-columns in lexicographic order."""
    bk = depth * (depth + 1) // 2 - 1
    v = bk + alpha
    rows = [[Fraction(int(r == c)) for c in range(v)] for r in range(v)]
    for i in range(1, depth):
        row = [Fraction(0)] * v
        lo, hi = (i * (i + 1)) // 2 - 1, ((i + 1) * (i + 2)) // 2 - 1
        row[lo:hi] = [Fraction(1)] * (hi - lo)
        row[bk:v] = d_values(schedule, i + 1)
        rows.append(row)
    for i in range(bk, v):
        for j in range(i + 1, v):
            row = [Fraction(0)] * v
            row[i], row[j] = Fraction(1), Fraction(-1)
            rows.append(row)
    return rows


def first_obstruction(schedule: str, primes: frozenset[int],
                      y: list[Fraction], nmax: int) -> int | None:
    """Least n in 2..nmax with (c.y)/D(n) outside Z[1/p : p in primes], by
    p-adic valuations instead of a scan.  y lies in the subring, so
    v_p(c.y) >= 0 for every prime p outside it, and the combination leaves
    the subring exactly when such a p divides D(n) more often than c.y."""
    c, rule, q = schedule_parts(schedule)
    cy = sum((ci * yi for ci, yi in zip(c, y)), Fraction(0))
    if cy == 0:
        return None
    num = cy.numerator
    if rule == "qpow":
        best = None if q in primes else max(2, valuation(num, q) + 1)
    else:
        # p_j divides D(n) = (p_1...p_n)^n exactly n times once n >= j.
        best = None
        for j, p in enumerate(first_primes(nmax), start=1):
            if best is not None and j >= best:
                break
            if p not in primes:
                n = max(j, 2, valuation(num, p) + 1)
                best = n if best is None else min(best, n)
    return best if best is not None and best <= nmax else None


# --- columns condition -----------------------------------------------------

def certificate_holds(rows: list[list[Fraction]], blocks: list[list[int]],
                      witnesses: list[list[Fraction]]) -> bool:
    """The certificate definition of rado.py: blocks partition the columns,
    the first sums to zero, and block t's sum equals witnesses[t-1] applied
    to the earlier columns in ascending order."""
    ncols = len(rows[0])
    flat = [j for b in blocks for j in b]
    if not blocks or any(not b for b in blocks) or sorted(flat) != list(range(ncols)):
        return False
    if len(witnesses) != len(blocks) - 1:
        return False

    def col_sum(block: list[int]) -> list[Fraction]:
        return [sum((r[j] for j in block), Fraction(0)) for r in rows]

    if any(col_sum(blocks[0])):
        return False
    earlier = sorted(blocks[0])
    for block, w in zip(blocks[1:], witnesses):
        if len(w) != len(earlier):
            return False
        combo = [sum((wk * r[j] for wk, j in zip(w, earlier)), Fraction(0)) for r in rows]
        if combo != col_sum(block):
            return False
        earlier = sorted(earlier + block)
    return True


# --- colourings ------------------------------------------------------------

def log2_parity(x: Fraction) -> int:
    """Parity of floor(log2 |x|): the e with 2^e <= |x| < 2^(e+1)."""
    a, b = abs(x.numerator), x.denominator
    e = a.bit_length() - b.bit_length()
    lhs, rhs = (a, b << e) if e >= 0 else (a << -e, b)
    return (e - 1 if lhs < rhs else e) & 1


def find_mono_solution(coeffs: list[Fraction], classes: list[list[Fraction]],
                       distinct: bool) -> tuple[Fraction, ...] | None:
    """A solution of sum_i coeffs[i] x_i = 0 inside one colour class, found
    by choosing all but the last variable and solving for it; None when
    every class is solution-free."""
    *head, last = coeffs
    for members in classes:
        pool = set(members)
        tuples = (permutations(members, len(head)) if distinct
                  else product(members, repeat=len(head)))
        for chosen in tuples:
            x = -sum((a * t for a, t in zip(head, chosen)), Fraction(0)) / last
            if x in pool and not (distinct and x in chosen):
                return (*chosen, x)
    return None


def classes_of(colours: list[int], values: list[Fraction]) -> list[list[Fraction]]:
    by_colour: dict[int, list[Fraction]] = {}
    for x, c in zip(values, colours):
        by_colour.setdefault(c, []).append(x)
    return [by_colour[c] for c in sorted(by_colour)]
