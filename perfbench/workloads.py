"""The four workloads: seeded radokit CLI jobs, each with an untimed check.

A workload is a fixed list of jobs (one round).  The seed chooses values --
row scalings, schedule bases, random matrices, primes, y-vectors -- but never
sizes: every seed gives the same instance families at the same depths, widths
and bounds, so run-to-run spread measures the program, not the draw.  Why
each family is here is in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Callable

import oracles as O

Check = Callable[[int, str], str | None]

# Nonzero row scalings: they keep whether a certificate exists, the search
# order and every solution set.  Integer-valued ones keep the cost free of the
# seed: Fraction addition skips normalising when denominators are coprime,
# so a row scaled by 1/2 can cost more than one scaled by 2.
SCALES = tuple(Fraction(s) for s in (1, -1, 2, -2, 3, -3))


@dataclass
class Job:
    argv: list[str]
    check: Check                      # None when the output is right, else why not
    after: Callable[[str], None] | None = None  # writes a later job's input
    repeat: int = 1                   # runs in a row per round


# Short jobs near the median run this many times per round.  A round is
# seconds long, so a run fits three or four; one sample of a 10 ms job
# varies by 10-15% even at reference speed, and the median of three or four
# does not settle.
SHORT_REPEAT = 3


def short(jobs: list[Job]) -> list[Job]:
    for job in jobs:
        job.repeat = SHORT_REPEAT
    return jobs


def fmt_rows(rows: list[list[Fraction]]) -> str:
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def parse_rows(text: str) -> list[list[Fraction]]:
    return [[Fraction(t) for t in line.split()] for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def scaled(rows: list[list[Fraction]], scales: list[Fraction]) -> list[list[Fraction]]:
    return [[s * x for x in row] for s, row in zip(scales, rows)]


def expect(rc: int, want_rc: int, ok: bool, what: str) -> str | None:
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    return None if ok else what


# --- cc-certify / cc-refuse -------------------------------------------------

def parse_certificate(out: str) -> tuple[list[list[int]], list[list[Fraction]]]:
    lines = out.splitlines()
    if not lines or lines[0] != "certificate:":
        raise ValueError("no certificate header")
    blocks, witnesses = [], []
    for line in lines[1:]:
        head, _, body = line.partition(": ")
        if head.startswith("block "):
            blocks.append([int(t) - 1 for t in body.split()])
        elif head.startswith("witness "):
            witnesses.append([Fraction(t) for t in body.split()])
        else:
            raise ValueError(f"unexpected line {line!r}")
    return blocks, witnesses


def cc_job(path: Path, rows: list[list[Fraction]], has_certificate: bool) -> Job:
    def check(rc: int, out: str) -> str | None:
        if not has_certificate:
            return expect(rc, 1, out == "no certificate\n", "expected 'no certificate'")
        blocks, witnesses = parse_certificate(out)
        return expect(rc, 0, O.certificate_holds(rows, blocks, witnesses),
                      "certificate does not verify")
    return Job(["cc-check", "--matrix", str(path)], check)


def system_header(alpha: int, depth: int, label: str, ncols: int) -> str:
    names = " ".join(O.variable_names(alpha, depth)[:ncols])
    return f"# {label}: depth {depth}, alpha {alpha}\n# columns: {names}\n"


def matrix_check(text_of: Callable[[str], str], want: Callable[[], str]) -> Check:
    return lambda rc, out: expect(rc, 0, text_of(out) == want(), "matrix differs from the formula")


def build_then_cc(rng: random.Random, work: Path, schedule: str, depth: int, k: int) -> list[Job]:
    """build-system --out, then cc-check on a row-scaled copy of its output."""
    alpha = len(O.schedule_parts(schedule)[0])
    rows = O.truncated_system(schedule, alpha, depth)
    scales = [rng.choice(SCALES) for _ in rows]
    built = work / f"sys-{schedule.replace(':', '')}-{depth}-{k}.txt"
    scaled_path = built.with_suffix(".scaled.txt")
    want = cache(lambda: system_header(alpha, depth, "truncated system", len(rows[0])) + fmt_rows(rows))

    def rescale(_: str) -> None:
        scaled_path.write_text(fmt_rows(scaled(parse_rows(built.read_text()), scales)))

    build = Job(["build-system", "--alpha", str(alpha), "--depth", str(depth),
                 "--schedule", schedule, "--out", str(built)],
                matrix_check(lambda _: built.read_text(), want), rescale)
    return [build, cc_job(scaled_path, scaled(rows, scales), True)]


def certified_matrix(rng: random.Random, m: int, v: int) -> list[list[Fraction]]:
    """m x v, entries in -3..3, built block by block so that it has a
    columns-condition certificate: the first block sums to zero and each
    later block sums to a {-1,0,1}-combination of the columns before it."""
    cols: list[list[int]] = []
    while len(cols) < v:
        size = min(v - len(cols), rng.randint(2, 4) if not cols else rng.randint(1, 3))
        while True:
            coeffs = [rng.randint(-1, 1) for _ in cols]
            target = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(m)]
            block = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(size - 1)]
            last = [target[i] - sum(b[i] for b in block) for i in range(m)]
            if all(abs(x) <= 3 for x in last):
                break
        cols += block + [last]
    rng.shuffle(cols)
    return [[Fraction(col[i]) for col in cols] for i in range(m)]


def cc_certify(rng: random.Random, work: Path) -> list[Job]:
    jobs: list[Job] = []
    # Twelve depth-4 checks of similar cost hold the tail percentile's rank,
    # so job_tail_s does not jump between unlike jobs from run to run.  Their
    # three copies of a qpow kind take Q = 2, 3 and 5 in a seeded order: Q
    # moves a depth-4 check by up to 40%, so a seeded draw would seed the tail.
    for depth, copies in ((3, 1), (4, 3)):
        for kind in ("qpow", "qpowpair", "allprimes", "allprimespair"):
            qs = rng.sample((2, 3, 5), copies)
            for k in range(copies):
                schedule = f"{kind}:{qs[k]}" if kind.startswith("qpow") else kind
                jobs += build_then_cc(rng, work, schedule, depth, k)
    # The depth-5 instance keeps q = 2: q moves its time by ~20%, which would
    # make job_max_s depend on the seed.
    jobs += build_then_cc(rng, work, "qpow:2", 5, 0)
    # The median job is one of these; its cost follows the draw, so there
    # are enough of them for their median to hold still from seed to seed.
    for m in (2, 3):
        for v in (8, 9, 10, 11, 12):
            for k in range(10):
                rows = scaled(certified_matrix(rng, m, v), [rng.choice(SCALES) for _ in range(m)])
                path = work / f"cert-{m}x{v}-{k}.txt"
                path.write_text(fmt_rows(rows))
                jobs.append(cc_job(path, rows, True))
    return jobs


def cc_refuse(rng: random.Random, work: Path) -> list[Job]:
    """Two families with no certificate, by construction:
    positive-row: one row strictly positive, so no block sums to zero;
    pinned-pair: rows (1, -1, a...) and (0, 0, b...) with a >= 2, b >= 1, so
    {1, 2} is the only zero-sum block and every later block has a nonzero
    second-row sum, outside span{(1, 0)}."""
    jobs: list[Job] = []
    for family in ("positive-row", "pinned-pair"):
        for v, count in ((10, 10), (12, 6), (14, 3), (16, 1)):
            for k in range(count):
                if family == "positive-row":
                    rows = [[rng.randint(1, 3) for _ in range(v)],
                            [rng.randint(-3, 3) for _ in range(v)]]
                    rng.shuffle(rows)
                else:
                    cols = [(1, 0), (-1, 0)] + [(rng.randint(2, 3), rng.randint(1, 3))
                                                for _ in range(v - 2)]
                    rng.shuffle(cols)
                    rows = [[c[0] for c in cols], [c[1] for c in cols]]
                rows = scaled([[Fraction(x) for x in r] for r in rows],
                              [rng.choice(SCALES) for _ in range(2)])
                path = work / f"{family}-{v}-{k}.txt"
                path.write_text(fmt_rows(rows))
                jobs.append(cc_job(path, rows, False))
    return jobs


# --- colouring-search -------------------------------------------------------

# name -> (kernel row, colours, Rado number, or None for a survivor run at
# the given nmax).  The numbers are frozen: S(2)+1 = 5, S(3)+1 = 14, and
# m^2 - m - 1 for x_1 + ... + x_{m-1} = x_m (Beutelspacher-Brestovansky);
# the last two were cross-checked by an exhaustive search written apart from
# radokit.  Schur with 4 colours survives up to 44, so nmax 28 always prints
# a solution-free colouring.
RADO_TABLE = {
    "schur-r2": ([1, 1, -1], 2, 5),
    "schur-r3": ([1, 1, -1], 3, 14),
    "sum-m4": ([1, 1, 1, -1], 2, 11),
    "sum-m5": ([1, 1, 1, 1, -1], 2, 19),
    "x+2y=z": ([1, 2, -1], 2, 11),
    "3x+y=z": ([3, 1, -1], 2, 19),
    "schur-r4-survivor": ([1, 1, -1], 4, None),
}
SURVIVOR_NMAX = 28

LOG2_EQUATIONS = {"x=2y": [1, -2], "x=8y": [1, -8], "x+y=z": [1, 1, -1], "x-y=2z": [1, -1, -2]}


def parse_colouring(lines: list[str]) -> list[int]:
    colours = []
    for value, line in enumerate(lines, start=1):
        x, c = line.split()
        if int(x) != value:
            raise ValueError(f"colouring line {line!r} out of order")
        colours.append(int(c))
    return colours


def rado_jobs(rng: random.Random, work: Path, name: str) -> list[Job]:
    """rado-number, then mono-search re-running the witness it prints."""
    row, r, number = RADO_TABLE[name]
    scale = rng.choice(SCALES)
    coeffs = [scale * a for a in row]
    matrix = work / f"eq-{name}.txt"
    matrix.write_text(fmt_rows([coeffs]))
    nmax = SURVIVOR_NMAX if number is None else rng.randint(number, number + 8)
    length = SURVIVOR_NMAX if number is None else number - 1
    witness = work / f"witness-{name}.txt"

    def check(rc: int, out: str) -> str | None:
        lines = out.splitlines()
        if number is None:
            head = [f"no rado number up to {nmax}", f"surviving colouring of 1..{length}:"]
            want_rc = 1
        else:
            head = [f"rado number: {number}", f"witness colouring of 1..{length}:"]
            want_rc = 0
        colours = parse_colouring(lines[2:])
        classes = O.classes_of(colours, [Fraction(x) for x in range(1, len(colours) + 1)])
        ok = (lines[:2] == head and len(colours) == length
              and all(0 <= c < r for c in colours)
              and O.find_mono_solution(coeffs, classes, False) is None)
        return expect(rc, want_rc, ok, "wrong number or a witness with a monochromatic solution")

    def write_witness(out: str) -> None:
        witness.write_text("\n".join(out.splitlines()[2:]) + "\n")

    rerun = Job(["mono-search", "--matrix", str(matrix), "--colouring", f"file:{witness}",
                 "--ground", str(length)],
                lambda rc, out: expect(rc, 1, out == "no monochromatic solution\n",
                                       "witness re-check found a solution"))
    return [Job(["rado-number", "--matrix", str(matrix), "--colours", str(r),
                 "--nmax", str(nmax)], check, write_witness), rerun]


def log2_job(rng: random.Random, work: Path, name: str, n: int, den: int, distinct: bool) -> Job:
    scale = rng.choice(SCALES)
    coeffs = [scale * a for a in LOG2_EQUATIONS[name]]
    matrix = work / f"log2-{name}-{n}-{den}-{int(distinct)}.txt"
    matrix.write_text(fmt_rows([coeffs]))
    ground = [Fraction(a, den) for a in range(1, n + 1)]

    def check(rc: int, out: str) -> str | None:
        classes = O.classes_of([O.log2_parity(x) for x in ground], ground)
        if O.find_mono_solution(coeffs, classes, distinct) is None:
            return expect(rc, 1, out == "no monochromatic solution\n", "expected no solution")
        lines = out.splitlines()
        values = [Fraction(t) for t in lines[0].removeprefix("solution: ").split()]
        colour = {O.log2_parity(x) for x in values}
        ok = (lines[0].startswith("solution: ") and len(values) == len(coeffs)
              and all(x in ground for x in values)
              and sum(a * x for a, x in zip(coeffs, values)) == 0
              and len(colour) == 1 and lines[1:] == [f"colour: {colour.pop()}"]
              and (not distinct or len(set(values)) == len(values)))
        return expect(rc, 0, ok, "invalid monochromatic solution")

    argv = ["mono-search", "--matrix", str(matrix), "--colouring", "log2parity",
            "--ground", f"{n},{den}"] + (["--distinct"] if distinct else [])
    return Job(argv, check)


def colouring_search(rng: random.Random, work: Path) -> list[Job]:
    jobs: list[Job] = []
    for name in RADO_TABLE:
        pair = rado_jobs(rng, work, name)
        jobs += pair if name in ("sum-m5", "schur-r4-survivor") else short(pair)
    # The ground denominator is fixed per job: it decides how early a
    # solution turns up, so a seeded one would make the cost seeded too.
    for name in ("x=2y", "x=8y"):
        jobs += [log2_job(rng, work, name, n, den, False) for n, den in ((100, 1), (150, 3), (200, 5))]
    # One more exhaustive job puts ten jobs above the 3-colour Schur search,
    # so job_tail_s falls in the 44-55 ms cluster, not on a gap below it.
    jobs.append(log2_job(rng, work, "x=8y", 250, 7, False))
    for name in ("x+y=z", "x-y=2z"):
        for distinct in (False, True):
            jobs += short([log2_job(rng, work, name, 40, den, distinct) for den in (1, 3, 5, 6, 7)])
    return jobs


# --- subring-systems --------------------------------------------------------

def prime_set_arg(primes: frozenset[int]) -> str:
    return "--primes=" + ",".join(str(p) for p in sorted(primes))


def refute_job(schedule: str, primes: frozenset[int], y: list[Fraction], nmax: int) -> Job:
    alpha = len(y)

    def check(rc: int, out: str) -> str | None:
        want = O.first_obstruction(schedule, primes, y, nmax)
        if want is None:
            return expect(rc, 1, out == f"no obstruction for n up to {nmax}\n",
                          "expected no obstruction")
        c, _, _ = O.schedule_parts(schedule)
        combo = sum((ci * yi for ci, yi in zip(c, y)), Fraction(0)) / O.denominator(schedule, want)
        return expect(rc, 0, out == f"obstruction at n={want}: d-combination {combo} "
                                    "is outside the subring\n", f"expected obstruction at n={want}")

    return Job(["refute", "--alpha", str(alpha), "--depth", "3", "--schedule", schedule,
                prime_set_arg(primes), "--y=" + ",".join(str(v) for v in y),
                "--nmax", str(nmax)], check)


def random_prime(rng: random.Random, lo: int) -> int:
    p = rng.randrange(lo, lo + lo // 10)
    while not O.is_probable_prime(p):
        p += 1
    return p


def membership_job(rng: random.Random, member: bool) -> Job:
    """value = u / (2^a 3^b P^e R^f) over the primes {2, 3, P}, with P a
    12-digit prime.  R is a prime outside the set and f > 0 exactly when
    the value must not be a member; u avoids every prime in play."""
    big = random_prime(rng, 10**12)
    outsider = rng.choice((5, 7, 11, random_prime(rng, 10**10)))
    f = 0 if member else rng.randint(1, 2)
    den = 2 ** rng.randint(0, 5) * 3 ** rng.randint(0, 5) * big ** rng.randint(1, 2) * outsider ** f
    u = rng.choice((1, -1)) * rng.choice((1, 13, 17, 19, 23))
    scale = rng.choice((1, 2, 3)) if member else 1
    value = Fraction(u, den)
    want_member = all(p in (2, 3, big) for p in (2, 3, big, outsider)
                      if (value / scale).denominator % p == 0)
    return Job(["membership", f"--value={value}", f"--primes=2,3,{big}", "--scale", str(scale)],
               lambda rc, out: expect(rc, 0 if want_member else 1,
                                      out == ("member\n" if want_member else "not a member\n"),
                                      "wrong membership"))


def pigeonhole_job(rng: random.Random, m: int) -> Job:
    """(m-1)^2 + 1 values a / (2^i 3^j) in Z[1/2, 1/3]; the printed subset
    must sum to m times an element of that subring."""
    numerators = [a for a in range(-40, 41) if a]
    values = [Fraction(rng.choice(numerators), 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 3))
              for _ in range((m - 1) ** 2 + 1)]

    def check(rc: int, out: str) -> str | None:
        lines = out.splitlines()
        idx = [int(t) - 1 for t in lines[0].removeprefix("indices: ").split()]
        total = sum((values[i] for i in idx), Fraction(0))
        q = (total / m).denominator
        for p in (2, 3):
            while q % p == 0:
                q //= p
        ok = (lines[0].startswith("indices: ") and idx and len(set(idx)) == len(idx)
              and all(0 <= i < len(values) for i in idx) and q == 1
              and lines[1:] == [f"sum: {total}", f"sum / {m}: {total / m}"])
        return expect(rc, 0, ok, "subset sum is not m times a subring element")

    return Job(["pigeonhole", "--m", str(m), "--primes=2,3",
                "--values=" + ",".join(str(v) for v in values)], check)


def matrix_jobs() -> list[Job]:
    """The schedule at each depth is fixed, Q included: an allprimes kind
    carries far larger numbers than a qpow kind, and Q moves a depth-30
    build-iab by ~12%, so a seeded schedule would seed the cost."""
    jobs = []
    for depth, schedule in ((20, "qpow:3"), (25, "qpowpair:2"), (30, "qpow:5")):
        alpha = len(O.schedule_parts(schedule)[0])
        jobs.append(Job(["build-iab", "--alpha", str(alpha), "--depth", str(depth),
                         "--schedule", schedule],
                        matrix_check(str, cache(partial(expected_matrix_text, "stacked (I; A; B) matrix",
                                                        O.stacked_matrix, schedule, alpha, depth)))))
    for depth, schedule in ((30, "allprimespair"), (35, "qpowpair:3"), (40, "qpowpair:5")):
        jobs += short([Job(["build-system", "--alpha", "2", "--depth", str(depth),
                            "--schedule", schedule],
                           matrix_check(str, cache(partial(expected_matrix_text, "truncated system",
                                                           O.truncated_system, schedule, 2, depth))))])
    for depth, schedule in ((30, "qpowpair:2"), (35, "allprimespair"), (40, "qpowpair:3")):
        jobs.append(nat_witness_job(schedule, depth))
    return jobs


def expected_matrix_text(label: str, build, schedule: str, alpha: int, depth: int) -> str:
    rows = build(schedule, alpha, depth)
    return system_header(alpha, depth, label, len(rows[0])) + fmt_rows(rows)


def nat_witness_job(schedule: str, depth: int) -> Job:
    """x_{n,j} = 1, y = (2, 1), z_n = n, which must solve the system."""
    names = O.variable_names(2, depth)
    values = {n: Fraction(1) for n in names if n.startswith("x_")}
    values |= {"y_1": Fraction(2), "y_2": Fraction(1)}
    values |= {f"z_{n}": Fraction(n) for n in range(2, depth + 1)}
    want = "".join(f"{n} = {values[n]}\n" for n in names) + "verified: all residuals zero\n"

    def check(rc: int, out: str) -> str | None:
        solves = all(sum(a * values[n] for a, n in zip(row, names)) == 0
                     for row in O.truncated_system(schedule, 2, depth))
        return expect(rc, 0, solves and out == want, "witness differs from the formula")

    return Job(["nat-witness", "--alpha", "2", "--depth", str(depth), "--schedule", schedule], check)


def subring_systems(rng: random.Random, work: Path) -> list[Job]:
    c = Fraction(rng.randint(1, 9))
    jobs = [
        # combination 0: scans to nmax with (p_1...p_n)^n bigints
        refute_job("allprimespair", frozenset(), [2 * c, c], 120),
        refute_job("allprimespair", frozenset(), [2 * c, c], 150),
        refute_job("qpowpair:2", frozenset(), [2 * c, c], 10_000),
        # combination c/3^n stays in Z[1/3]: in_subring strips n threes each step
        refute_job("qpowpair:3", frozenset({3}), [c, c], 1000),
        refute_job("qpowpair:3", frozenset({3}), [c, c], 1500),
    ]
    # The two shorter scans put eleven jobs above the membership cluster,
    # whose cost follows the seeded primes: job_tail_s, the eleventh
    # slowest, is then nat-witness at depth 30, 25% above that cluster.
    for k in range(16):
        q = rng.choice((2, 3, 5))
        kind = ("qpow", "qpowpair", "allprimes", "allprimespair")[k % 4]
        schedule = f"{kind}:{q}" if kind.startswith("qpow") else kind
        primes = frozenset(rng.sample((2, 3, 5, 7), rng.randint(0, 2)))
        y = [Fraction(rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 25)) * q ** rng.randint(0, 4))
             for _ in O.schedule_parts(schedule)[0]]
        jobs += short([refute_job(schedule, primes, y, 60)])
    jobs += [membership_job(rng, k % 2 == 0) for k in range(8)]
    jobs += short([pigeonhole_job(rng, m) for m in (10, 20, 30)])
    return jobs + matrix_jobs()


WORKLOADS = {
    "cc-certify": cc_certify,
    "cc-refuse": cc_refuse,
    "colouring-search": colouring_search,
    "subring-systems": subring_systems,
}


def generate(workload: str, seed: int, work: Path) -> list[Job]:
    """The workload's jobs for this seed, writing their input files to work."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
