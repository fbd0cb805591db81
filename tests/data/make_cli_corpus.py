"""Write cli_corpus.json: the exact output of the `radokit` runs that
neither of the other corpora covers.

Each entry is one `radokit` run of `fe-check`, `membership`, `pigeonhole`,
`mono-search`, `rado-number`, `cc-check`, `build-system`, `build-iab`,
`refute` or `nat-witness`: the argv, the files it reads (by name,
relative to the working directory, with their text), and the exit code,
stdout and stderr it gave.  The cases are seeded random inputs plus every
`error:` path of these commands: bad tokens, zero denominators, numbers
too long to read, ragged rows, missing files, malformed colouring files,
bad ground sets and prime lists, integer tokens of `--primes`, `--ground`
and `qpow:Q` written with `+`, `_` or more than 4300 digits, the same
tokens and a few more given to each of the eight count options (argparse's
usage errors), out-of-subring elements, the budget and
enumeration-depth refusals, the colour-count and nmax caps of
`rado-number`, the 33-column refusal of `cc-check`, the digit and entry
limits of the system commands, bad and `file:` schedules, a schedule that
runs past its table, y values outside the subring or not matching alpha,
and ragged matrix files whose bad token comes after the short row.
test_cli_corpus.py replays every run in an empty directory and holds the
output to it byte for byte.  Rerunning this script rewrites the
file from whatever radokit is installed; do that only on purpose.

    PYTHONPATH=src python tests/data/make_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from radokit.cli import main

OUT = Path(__file__).with_name("cli_corpus.json")
PRIME_SETS = ["", "all", "2", "3", "2,3", "2,5,7", "all-except:2",
              "all-except:3,5", "11,13"]
LONG = "1" * 4301


def run(argv: list[str], files: dict[str, str]) -> dict:
    """Run the CLI on argv in an empty directory holding the files.  A
    usage error (exit 2) prints argparse's usage line, at 200 columns, where
    no command's wraps: Python 3.13 wraps it at other places than 3.10-3.12."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch.dict(os.environ, COLUMNS="200"):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
        finally:
            os.chdir(cwd)
    return {"argv": argv, "files": files, "exit": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def random_rat(rng: random.Random, size: int = 4, den: int = 4) -> str:
    a = rng.randint(-size, size)
    if rng.random() < 0.3:
        return f"{a}/{rng.randint(1, den)}"
    return str(a)


def random_matrix(rng: random.Random, rows: int, cols: int) -> str:
    lines = []
    for _ in range(rows):
        if rng.random() < 0.15:
            lines.append(" ".join("0" for _ in range(cols)))
        else:
            lines.append(" ".join(random_rat(rng) for _ in range(cols)))
    if rng.random() < 0.3:
        lines.insert(0, "# a comment")
    return "\n".join(lines) + "\n"


def fe_check_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for _ in range(34):
        matrix = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        strict = ["--strict"] if rng.random() < 0.5 else []
        cases.append((["fe-check", "--matrix", "m.txt", *strict], {"m.txt": matrix}))
    # common first entries that the weak and the strict condition tell apart
    for matrix in ("1 1 -1\n", "2 0 -1\n0 2 1\n", "1 2\n3 1\n", "0 0\n1 0\n",
                   "1/2 1\n0 1/2\n", "-3 1\n0 -3\n"):
        for strict in ([], ["--strict"]):
            cases.append((["fe-check", "--matrix", "m.txt", *strict],
                          {"m.txt": matrix}))
    for bad in ("1 1.5 -1\n", "+1 1 -1\n", "1 x\n", "1 1/0\n", "1_0 1\n",
                "1 2\n3\n", "1 1/-2\n", f"{LONG} 1\n", "٣ 1/２\n", "# only\n", ""):
        cases.append((["fe-check", "--matrix", "m.txt"], {"m.txt": bad}))
    cases.append((["fe-check", "--matrix", "missing.txt"], {}))
    return cases


def membership_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for _ in range(30):
        value = random_rat(rng, 40, 60)
        primes = rng.choice(PRIME_SETS)
        scale = [f"--scale={rng.choice((1, 2, 3, 6))}"] if rng.random() < 0.4 else []
        cases.append((["membership", f"--value={value}", f"--primes={primes}",
                       *scale], {}))
    for value, primes, scale in (
        ("1.5", "2", 1), ("1/0", "2", 1), ("x", "all", 1), (LONG, "2", 1),
        (f"1/{LONG}", "all", 1), ("1/2", "4", 1), ("1/2", "2,x", 1),
        ("1/2", "all-except:9", 1), ("1/2", "3317044064679887385961981", 1),
        ("1/2", "2", 0), ("1/2", "2", -3), ("-7/30", "2,3,5", 1),
        ("1/6", "2", 1), ("5/9", "3", 5), ("7/1000000007", "1000000007", 7),
        # integer tokens: an optional minus sign, then decimal digits
        ("1/13", "1_3", 1), ("1/13", "+13", 1), ("1/13", "all-except:+13", 1),
        ("1/6", "2, 3", 1), ("1/6", " 2 ,3 ", 1), ("1/3", "-3", 1),
        ("1/3", "--3", 1), ("1/3", "3.0", 1), ("1/3", "٣", 1), ("1/2", LONG, 1),
    ):
        cases.append((["membership", f"--value={value}", f"--primes={primes}",
                       f"--scale={scale}"], {}))
    return cases


def pigeonhole_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for _ in range(30):
        m = rng.randint(1, 5)
        primes = rng.choice(["2", "2,3", "all", "all-except:5", ""])
        if primes == "":
            dens = [1]
        elif primes == "2":
            dens = [1, 2, 4]
        elif primes == "all-except:5":
            dens = [1, 2, 3, 7]
        else:
            dens = [1, 2, 3, 6]
        count = (m - 1) ** 2 + 1 + rng.randint(0, 3)
        values = []
        for _ in range(count):
            a, d = rng.randint(-30, 30), rng.choice(dens)
            values.append(f"{a}/{d}" if d != 1 else str(a))
        cases.append((["pigeonhole", f"--m={m}", f"--primes={primes}",
                       "--values=" + ",".join(values)], {}))
    for m, primes, values in (
        (0, "2", "1"), (-2, "2", "1,2"), (3, "2", "1,2,3,4"), (2, "", "1/2,1"),
        (2, "2", "1,1/3"), (2, "2", "1,1.5"), (2, "2", "1,1/0"),
        (2, "x", "1,2"), (2, "2", f"1,{LONG}"), (2, "2", "1,,2"),
        (2, "2", "1/2,3/2,5"), (2, "all", ",".join(["9" * 4300] * 2)),
    ):
        cases.append((["pigeonhole", f"--m={m}", f"--primes={primes}",
                       f"--values={values}"], {}))
    return cases


MONO_MATRICES = ["1 1 -1\n", "1 -2\n", "1 1 -3\n", "1 1 1 -1\n", "2 -1 -1\n",
                 "1 1 -1 0\n0 1 1 -1\n", "1 2 -3\n", "1/2 1/2 -1\n"]


def colouring_file(rng: random.Random, n: int, colours: int) -> str:
    lines = [f"{a} {rng.randrange(colours)}" for a in range(1, n + 1)]
    if rng.random() < 0.3:
        lines.append(f"{2 * n + 1}/2 {rng.randrange(colours)}")
    return "\n".join(lines) + "\n"


def mono_search_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for _ in range(30):
        files = {"m.txt": rng.choice(MONO_MATRICES)}
        if rng.random() < 0.5:
            colouring = "log2parity"
        else:
            colouring = "file:c.txt"
            files["c.txt"] = colouring_file(rng, rng.randint(3, 14), rng.randint(1, 3))
        ground = str(rng.randint(1, 20))
        if rng.random() < 0.25:
            ground += f",{rng.choice((1, 2, 3))}"
        flags = ["--distinct"] if rng.random() < 0.3 else []
        if rng.random() < 0.2:
            flags.append(f"--budget={rng.choice((10, 100, 1000))}")
        cases.append((["mono-search", "--matrix", "m.txt", "--colouring", colouring,
                       "--ground", ground, *flags], files))
    schur = {"m.txt": "1 1 -1\n"}
    for extra, flags in (
        ({}, ["--colouring", "log2parity", "--ground", "8", "--budget=0"]),
        ({}, ["--colouring", "log2parity", "--ground", "8", "--budget=-5"]),
        ({}, ["--colouring", "log2parity", "--ground", "100", "--budget=10"]),
        ({}, ["--colouring", "rainbow", "--ground", "8"]),
        ({}, ["--colouring", "file:missing.txt", "--ground", "8"]),
        ({"c.txt": "1\n"}, ["--colouring", "file:c.txt", "--ground", "8"]),
        ({"c.txt": "1 a\n"}, ["--colouring", "file:c.txt", "--ground", "8"]),
        ({"c.txt": "1 0 2\n"}, ["--colouring", "file:c.txt", "--ground", "8"]),
        ({"c.txt": "1.5 0\n"}, ["--colouring", "file:c.txt", "--ground", "8"]),
        ({"c.txt": "1/0 0\n"}, ["--colouring", "file:c.txt", "--ground", "8"]),
        ({"c.txt": "0 0\n"}, ["--colouring", "file:c.txt", "--ground", "8"]),
        ({"c.txt": "1 0\n2/2 1\n"}, ["--colouring", "file:c.txt", "--ground", "8"]),
        ({"c.txt": "1 -1\n"}, ["--colouring", "file:c.txt", "--ground", "8"]),
        ({"c.txt": "# c\n\n1 0\n2 1\n3 1\n4 0\n"},
         ["--colouring", "file:c.txt", "--ground", "4"]),
        ({}, ["--colouring", "log2parity", "--ground", "0"]),
        ({}, ["--colouring", "log2parity", "--ground", "5,0"]),
        ({}, ["--colouring", "log2parity", "--ground", "a"]),
        ({}, ["--colouring", "log2parity", "--ground", "1,2,3"]),
        ({}, ["--colouring", "log2parity", "--ground", "8", "--distinct"]),
        ({}, ["--colouring", "log2parity", "--ground", "1_0"]),
        ({}, ["--colouring", "log2parity", "--ground", "+8,+1"]),
        ({}, ["--colouring", "log2parity", "--ground", " 8 , 2 "]),
        ({}, ["--colouring", "log2parity", "--ground", "-8"]),
        ({}, ["--colouring", "log2parity", "--ground", LONG]),
    ):
        cases.append((["mono-search", "--matrix", "m.txt", *flags], {**schur, **extra}))
    for matrix in ("", "# nothing\n", "1 x\n", "1 1/0\n", "1 2\n1\n",
                   "0 " * 1500 + "1 -1\n", "0 0 0\n"):
        cases.append((["mono-search", "--matrix", "m.txt", "--colouring",
                       "log2parity", "--ground", "6"], {"m.txt": matrix}))
    cases.append((["mono-search", "--matrix", "missing.txt", "--colouring",
                   "log2parity", "--ground", "6"], {}))
    return cases


RADO_MATRICES = ["1 1 -1\n", "1 -2\n", "1 1 -3\n", "1 1 1 -1\n", "1 2 -1\n",
                 "1 1 -1 0\n0 1 1 -1\n", "2 -1\n", "1 -1\n", "0 0\n", "1 1 1\n"]


def rado_number_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for _ in range(30):
        matrix = rng.choice(RADO_MATRICES)
        colours = rng.randint(1, 3)
        nmax = rng.randint(1, 24 if colours < 3 else 14)
        cases.append((["rado-number", "--matrix", "m.txt", "--colours", str(colours),
                       "--nmax", str(nmax)], {"m.txt": matrix}))
    for matrix, colours, nmax in (
        ("1 1 -1\n", 0, 10), ("1 1 -1\n", 5, 10), ("1 1 -1\n", -1, 10),
        ("1 1 -1\n", 2, 0), ("1 1 -1\n", 2, 65), ("1 1 -1\n", 2, -3),
        ("", 2, 10), ("1 x\n", 2, 10), ("1 1/0\n", 2, 10),
        ("1 " * 1000 + "-1 " * 500 + "\n", 2, 10), ("1 1 -1\n", 2, 64),
        ("1 1 -1\n", 3, 20),
    ):
        cases.append((["rado-number", "--matrix", "m.txt", f"--colours={colours}",
                       f"--nmax={nmax}"], {"m.txt": matrix}))
    cases.append((["rado-number", "--matrix", "missing.txt", "--colours", "2",
                   "--nmax", "5"], {}))
    return cases


def cc_check_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for _ in range(25):
        matrix = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 6))
        cases.append((["cc-check", "--matrix", "m.txt"], {"m.txt": matrix}))
    for matrix in ("1 1 -1\n", "1 1 1\n", "1 -1 2 -2\n0 1 -1 0\n",
                   "1 2 -3 0\n0 0 1 -1\n", "0 0\n", "1 " * 16 + "-1 " * 16 + "\n",
                   "0 " * 33 + "\n", "1 " * 33 + "\n", "1 x\n", "1 1/0\n",
                   "1 2\n3\n", f"{LONG} 1\n", "", "# only\n"):
        cases.append((["cc-check", "--matrix", "m.txt"], {"m.txt": matrix}))
    cases.append((["cc-check", "--matrix", "missing.txt"], {}))
    return cases


SCHEDULES = ["qpow:2", "qpow:3", "qpow:5", "allprimes", "qpowpair:2",
             "qpowpair:3", "allprimespair", "file:d.txt"]
TABLES = ["1/2\n1/4\n1/8\n1/16\n1/32\n", "-1 2\n0 1/3\n5 -1/9\n1 1\n2 0\n"]


def random_schedule(rng: random.Random) -> tuple[str, str, dict[str, str]]:
    """A schedule flag, its arity as --alpha, and the files it reads."""
    schedule = rng.choice(SCHEDULES)
    if schedule == "file:d.txt":
        table = rng.choice(TABLES)
        return schedule, str(len(table.split("\n")[0].split())), {"d.txt": table}
    return schedule, "2" if "pair" in schedule else "1", {}


# (alpha, depth, schedule, files) for every command that builds a system
BAD_SYSTEMS = [
    ("1", "3", "qpow", {}), ("1", "3", "qpow:", {}), ("1", "3", "qpow:4", {}),
    ("1", "3", "qpow:x", {}), ("1", "3", "allprimes:3", {}),
    ("2", "3", "qpowpair:2:3", {}), ("1", "3", "bogus", {}),
    ("1", "3", "file:missing.txt", {}),
    ("1", "3", "file:d.txt", {"d.txt": "1 x\n"}),
    ("1", "3", "file:d.txt", {"d.txt": ""}),
    ("2", "3", "file:d.txt", {"d.txt": "1 2\n3\n"}),
    ("1", "7", "file:d.txt", {"d.txt": TABLES[0]}),
    ("2", "3", "qpow:2", {}), ("1", "3", "qpowpair:2", {}),
    ("0", "3", "qpow:2", {}), ("1", "1", "qpow:2", {}), ("1", "-4", "qpow:2", {}),
    ("1", "2", "qpow:+1_3", {}), ("2", "2", "qpowpair:+3", {}),
    ("1", "2", "qpow:-3", {}),
]


def build_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for command in ("build-system", "build-iab"):
        for _ in range(12):
            schedule, alpha, files = random_schedule(rng)
            depth = str(rng.randint(2, 6))
            cases.append(([command, "--alpha", alpha, "--depth", depth,
                           "--schedule", schedule], files))
        for alpha, depth, schedule, files in BAD_SYSTEMS + [
            # D(depth) too long to print, then an output over the entry limit
            ("1", "20000", "qpow:2", {}), ("1", "60", "allprimes", {}),
            ("1", "3000", "qpow:2", {}), ("2", "3000", "allprimespair", {}),
        ]:
            cases.append(([command, "--alpha", alpha, "--depth", depth,
                           "--schedule", schedule], files))
        cases.append(([command, "--alpha", "1", "--depth", "3", "--schedule",
                       "qpow:2", "--out", "missing/m.txt"], {}))
    return cases


def refute_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for _ in range(25):
        schedule, alpha, files = random_schedule(rng)
        primes = rng.choice(PRIME_SETS)
        y = ",".join(random_rat(rng, 12, 9) for _ in range(int(alpha)))
        cases.append((["refute", "--alpha", alpha, "--depth", "3", "--schedule",
                       schedule, f"--primes={primes}", f"--y={y}",
                       f"--nmax={rng.randint(0, 8)}"], files))
    for alpha, depth, schedule, files in BAD_SYSTEMS:
        cases.append((["refute", "--alpha", alpha, "--depth", depth, "--schedule",
                       schedule, "--primes=2", "--y=1", "--nmax=5"], files))
    table = {"d.txt": "1/3\n1/9\n"}
    for alpha, schedule, primes, y, nmax, files in (
        ("1", "qpow:3", "2", "1/3", "5", {}), ("1", "qpow:3", "2", "1/6", "5", {}),
        ("1", "qpow:2", "2", "1,2", "5", {}), ("2", "qpowpair:2", "", "1", "5", {}),
        ("2", "qpowpair:2", "", "2,1", "5", {}), ("1", "qpow:2", "2", "1.5", "5", {}),
        ("1", "qpow:2", "2", LONG, "5", {}), ("1", "qpow:2", "2", "1", "-1", {}),
        ("1", "qpow:2", "x", "1", "5", {}),
        ("1", "allprimes", "all-except:7919", "1", "2000", {}),
        ("1", "allprimes", "all-except:3", "1", "1", {}),
        ("1", "file:d.txt", "2", "1", "10", table),
        ("1", "file:d.txt", "3", "1", "10", table),
        ("1", "file:d.txt", "2", "1", "2", table),
    ):
        cases.append((["refute", "--alpha", alpha, "--depth", "2", "--schedule",
                       schedule, f"--primes={primes}", f"--y={y}",
                       f"--nmax={nmax}"], files))
    return cases


def nat_witness_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    cases = []
    for _ in range(12):
        schedule = rng.choice(("qpowpair:2", "qpowpair:3", "qpowpair:5",
                               "allprimespair"))
        cases.append((["nat-witness", "--alpha", "2", "--depth",
                       str(rng.randint(2, 6)), "--schedule", schedule], {}))
    for alpha, depth, schedule, files in BAD_SYSTEMS + [
        ("1", "3", "qpow:2", {}), ("1", "3", "allprimes", {}),
        ("1", "3", "file:d.txt", {"d.txt": TABLES[0]}),
        ("2", "3000", "allprimespair", {}),
    ]:
        cases.append((["nat-witness", "--alpha", alpha, "--depth", depth,
                       "--schedule", schedule], files))
    return cases


# each count option in a command line that reads it, "{}" standing for its
# token, and the files the command reads
COUNT_OPTIONS = [
    (["build-system", "--alpha={}", "--depth=3", "--schedule=file:d.txt"],
     {"d.txt": "1 1 -2\n1 -1 0\n"}),
    (["build-iab", "--alpha=1", "--depth={}", "--schedule=qpow:2"], {}),
    (["membership", "--value=3/2", "--primes=2", "--scale={}"], {}),
    (["pigeonhole", "--m={}", "--primes=all", "--values=1,2,3,4,5"], {}),
    (["refute", "--alpha=1", "--depth=2", "--schedule=qpow:3", "--primes=2",
      "--y=1", "--nmax={}"], {}),
    (["mono-search", "--matrix=m.txt", "--colouring=log2parity", "--ground=8",
      "--budget={}"], {"m.txt": "1 1 -1\n"}),
    (["rado-number", "--matrix=m.txt", "--colours={}", "--nmax=5"],
     {"m.txt": "1 1 -1\n"}),
    (["rado-number", "--matrix=m.txt", "--colours=2", "--nmax={}"],
     {"m.txt": "1 1 -1\n"}),
]


def count_option_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    """Integer tokens for the count options: `+`, `_`, a decimal point and
    more than 4300 digits are refused; surrounding whitespace, Unicode
    digits and a minus sign are read."""
    return [([arg.format(token) for arg in argv], files)
            for argv, files in COUNT_OPTIONS
            for token in ("+3", "1_0", "3.0", LONG, " 3 ", "٣", "-0")]


# Ragged files whose bad token lies past the short row: every token is read,
# in text order, before any row length is checked, so the token's error wins.
ERROR_ORDER_MATRICES = ["1 2 3\n4 5\n6 x 7\n", f"1 2 3\n4 5\n6 {LONG} 7\n",
                        f"1 2 3\n4 5\n6 1/{LONG} 7\n", "1 2 3\n4 5\n6 1/0 7\n"]


def error_order_cases(rng: random.Random) -> list[tuple[list[str], dict[str, str]]]:
    """Each command that reads a matrix file on each ERROR_ORDER_MATRICES file."""
    commands = [["cc-check"], ["fe-check"],
                ["mono-search", "--colouring", "log2parity", "--ground", "6"],
                ["rado-number", "--colours", "2", "--nmax", "5"]]
    return [([*command, "--matrix", "m.txt"], {"m.txt": matrix})
            for command in commands for matrix in ERROR_ORDER_MATRICES]


def corpus() -> list[tuple[list[str], dict[str, str]]]:
    rng = random.Random(20261019)
    return [case for make in (fe_check_cases, membership_cases, pigeonhole_cases,
                              mono_search_cases, rado_number_cases, cc_check_cases,
                              build_cases, refute_cases, nat_witness_cases,
                              count_option_cases, error_order_cases)
            for case in make(rng)]


def write() -> None:
    entries = [run(argv, files) for argv, files in corpus()]
    OUT.write_text(json.dumps(entries, indent=0, ensure_ascii=False) + "\n")
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
