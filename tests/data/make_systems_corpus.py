"""Write systems_corpus.json: SHA-256 digests of `radokit` stdout for the
system builders and the denominator-obstruction command.

The committed corpus was written by the code that scanned n = 2..nmax in
`refute_over_subring` and built every matrix entry in Fraction arithmetic,
so test_systems_corpus.py holds the current code to that output byte for
byte.  It covers every built-in schedule kind at depths 2-12:

  * `build-system` and `build-iab` for all of them (alpha from the schedule);
  * `nat-witness` for the pair kinds;
  * `refute` on a seeded grid of y values (zero, negative, fractional, huge
    valuations, outside the subring, wrong length) and prime sets of all
    four kinds (empty, all, finite, cofinite), at nmax 0-200.

Each entry keeps the argv, the exit code, the stdout digest and the stderr
text.  Rerunning this script rewrites the file from whatever radokit is
installed; do that only on purpose.

    PYTHONPATH=src python tests/data/make_systems_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from radokit.cli import main

OUT = Path(__file__).with_name("systems_corpus.json")
SCHEDULES = ["qpow:2", "qpow:3", "qpow:5", "qpow:7", "allprimes",
             "qpowpair:2", "qpowpair:3", "qpowpair:5", "allprimespair"]
PAIRS = ["qpowpair:2", "qpowpair:3", "qpowpair:5", "allprimespair"]
SMALL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"argv": argv, "exit": rc,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def arity(schedule: str) -> int:
    return 2 if "pair" in schedule else 1


def random_primes(rng: random.Random) -> str:
    kind = rng.choice(("empty", "all", "finite", "cofinite"))
    if kind == "empty":
        return ""
    if kind == "all":
        return "all"
    chosen = rng.sample(SMALL, rng.randint(1, 4))
    if rng.random() < 0.15:
        chosen.append(rng.choice((10007, 104729, 1299709)))
    listed = ",".join(str(p) for p in chosen)
    return listed if kind == "finite" else f"all-except:{listed}"


def random_y(rng: random.Random, schedule: str, primes: str) -> list[str]:
    """y values over the subring, mostly; some outside it, some zero or
    with a large valuation at a schedule prime, some of the wrong length."""
    count = arity(schedule)
    if rng.random() < 0.04:
        count = 3 - count
    if primes == "":
        inside = []
    elif primes == "all":
        inside = SMALL[:4]
    elif primes.startswith("all-except:"):
        excluded = {int(p) for p in primes[len("all-except:"):].split(",")}
        inside = [p for p in SMALL[:6] if p not in excluded]
    else:
        inside = [int(p) for p in primes.split(",")]
    ys = []
    for _ in range(count):
        u = rng.choice((0, 1, -1, 2, -2, 3, 5, 6, 7, 12, -25, 30, 210))
        if rng.random() < 0.3:
            u *= rng.choice((2, 3, 5, 7)) ** rng.randint(1, 40)
        den = 1
        if rng.random() < 0.2:
            if inside and rng.random() < 0.8:
                den = rng.choice(inside) ** rng.randint(1, 3)
            else:
                den = rng.choice((2, 3, 11))
        ys.append(f"{u}/{den}" if den != 1 else str(u))
    if schedule in PAIRS and count == 2 and rng.random() < 0.25:
        c = rng.choice((1, -1, 3, 4, -9)) * rng.choice((1, 2, 3, 5)) ** rng.randint(0, 30)
        ys = [str(2 * c), str(c)]
    return ys


def corpus() -> list[list[str]]:
    cases = []
    for schedule in SCHEDULES:
        alpha = str(arity(schedule))
        for depth in range(2, 13):
            for command in ("build-system", "build-iab"):
                cases.append([command, "--alpha", alpha, "--depth", str(depth),
                              "--schedule", schedule])
            if schedule in PAIRS:
                cases.append(["nat-witness", "--alpha", alpha, "--depth", str(depth),
                              "--schedule", schedule])
    rng = random.Random(20261018)
    for _ in range(700):
        schedule = rng.choice(SCHEDULES)
        primes = random_primes(rng)
        y = random_y(rng, schedule, primes)
        nmax = rng.choice((0, 1, 2, 3)) if rng.random() < 0.1 else rng.randint(1, 200)
        if "allprimes" in schedule:
            nmax = min(nmax, rng.choice((40, 80, 200)))
        cases.append(["refute", "--alpha", str(arity(schedule)),
                      "--depth", str(rng.randint(2, 12)), "--schedule", schedule,
                      f"--primes={primes}", "--y=" + ",".join(y), "--nmax", str(nmax)])
    return cases


def write() -> None:
    entries = [run(argv) for argv in corpus()]
    OUT.write_text(json.dumps(entries, indent=0) + "\n")
    counts = {rc: sum(e["exit"] == rc for e in entries) for rc in (0, 1, 2)}
    print(f"{len(entries)} cases, exit codes {counts} -> {OUT}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] in (["-h"], ["--help"]):
        print(__doc__)
    elif sys.argv[1:]:
        print(f"usage: {Path(sys.argv[0]).name} takes no arguments "
              "(-h prints its description)", file=sys.stderr)
        sys.exit(2)
    else:
        write()
