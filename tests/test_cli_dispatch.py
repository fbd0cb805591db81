"""Differential test of the CLI's one-pass parse.

`cli._parse(argv)` reads an argv that names a command against that
command's option table (`cli._read_options`), hands what that reader does
not accept straight to the command's parser, and every other argv to the
top-level parser.  The reference here is the top-level parser's full `parse_args`, which reads the
command name and passes the rest to the same command parser.  On seeded
random argvs over every command, every option string, abbreviations, `=`
forms, `--`, `-h`, negative numbers and unknown tokens, both must give the
same exit code, stdout, stderr and namespace (less `command`, which only
the top-level pass sets and nothing reads).  A few outcomes are also pinned
as literal text.

This file runs under pytest, and also as a plain script that needs only the
standard library, so that the parse can be checked on every interpreter the
project supports:

    PYTHONPATH=src python3 tests/test_cli_dispatch.py

Run that way, it checks the differential and the pinned outcomes, replays
tests/data/cli_corpus.json through `cli.main`, prints one line per check
and exits 1 on any difference.
"""

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from radokit import cli

SEED = 20240611
COUNT = 20000
CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"

# Each command with an argv that parses, so that mutations of it reach
# every outcome: success, a missing or bad option, unknown tokens and help.
VALID = {
    "cc-check": ["--matrix", "m.txt"],
    "fe-check": ["--matrix", "m.txt", "--strict"],
    "build-system": ["--alpha", "1", "--depth", "3", "--schedule", "qpow:2",
                     "--out", "o.txt"],
    "build-iab": ["--alpha", "2", "--depth", "4", "--schedule", "allprimespair"],
    "membership": ["--value", "1/3", "--primes", "3", "--scale", "2"],
    "pigeonhole": ["--m", "3", "--primes", "all", "--values", "1,2,3"],
    "refute": ["--alpha", "1", "--depth", "3", "--schedule", "qpow:2",
               "--primes", "2", "--y", "1", "--nmax", "10"],
    "nat-witness": ["--alpha", "2", "--depth", "3", "--schedule", "qpowpair:3"],
    "mono-search": ["--matrix", "m.txt", "--colouring", "log2parity",
                    "--ground", "10", "--distinct", "--budget", "100"],
    "rado-number": ["--matrix", "m.txt", "--colours", "2", "--nmax", "10"],
}
OPTIONS = sorted({tok for argv in VALID.values() for tok in argv
                  if tok.startswith("--")} | {"-h", "--help"})
VALUES = ["m.txt", "1", "0", "3", "10", "-1", "-7/30", "-2", "1/2", "qpow:2",
          "log2parity", "all", "", "2,3", "1,-1", "x"]
UNKNOWN = ["extra", "--bogus", "-x", "-", "--", "cc-chek", "--cc-check",
           "--matrix-file", "-1x", "--=1", "---matrix"]


def random_argv(rng: random.Random) -> list[str]:
    """A valid argv mutated at random, or a short argv of random tokens."""
    commands = sorted(VALID)
    if rng.random() < 0.6:
        command = rng.choice(commands)
        argv = [command] + VALID[command]
        for _ in range(rng.randrange(4)):
            edit = rng.randrange(3)
            k = rng.randrange(len(argv) + 1)
            if edit == 0 and len(argv) > 1:
                del argv[max(k - 1, 1)]
            elif edit == 1:
                argv.insert(max(k, 1), token(rng))
            elif len(argv) > 1:
                argv[max(k - 1, 1)] = token(rng)
        return argv
    argv = [token(rng) for _ in range(rng.randrange(5))]
    if argv and rng.random() < 0.7:
        argv[0] = rng.choice(commands)
    return argv


def token(rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(OPTIONS)
    if kind == 1:  # an abbreviation, maybe ambiguous or too short to be one
        option = rng.choice(OPTIONS)
        return option[: rng.randrange(2, len(option) + 1)]
    if kind == 2:
        option = rng.choice(OPTIONS)
        cut = rng.randrange(min(3, len(option)), len(option) + 1)
        return f"{option[:cut]}={rng.choice(VALUES)}"
    if kind == 3:
        return rng.choice(VALUES)
    if kind == 4:
        return rng.choice(UNKNOWN)
    if kind == 5:
        return rng.choice(sorted(VALID))
    return rng.choice(["-h", "--help", "--", "-1", "-7/30"])


def reference(argv):
    return cli._build_parser()[0].parse_args(argv)


def outcome(parse, argv):
    """(exit code, stdout, stderr, namespace less `command`) of one parse;
    the exit code is None when the parse returns."""
    out, err = io.StringIO(), io.StringIO()
    code = fields = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            fields = {k: v for k, v in vars(args).items() if k != "command"}
    return code, out.getvalue(), err.getvalue(), fields


def columns(width: str):
    """argparse wraps its help and usage text to COLUMNS."""
    return mock.patch.dict(os.environ, COLUMNS=width)


def test_dispatch_matches_the_full_parse():
    rng = random.Random(SEED)
    codes = {}
    served = []
    read = cli._read_options

    def spy(command, tokens):
        args = read(command, tokens)
        served.append(args is not None)
        return args

    with columns("80"), mock.patch.object(cli, "_read_options", spy):
        for _ in range(COUNT):
            argv = random_argv(rng)
            expected = outcome(reference, argv)
            assert outcome(cli._parse, argv) == expected, argv
            command = argv[0] if argv and argv[0] in VALID else None
            codes.setdefault(command, set()).add(expected[0])
    # every command reaches a parse (None), help (0) and a usage error (2);
    # an argv that names no command only help and usage errors
    assert codes == {**dict.fromkeys(VALID, {None, 0, 2}), None: {0, 2}}
    # the differential covers both the reader's namespaces and argparse's
    assert 1000 < sum(served) < len(served) - 1000


# The top-level usage, as the parent printed it at COLUMNS=80; Python 3.13's
# argparse ends its second line with the "..." that earlier ones wrap.
COMMAND_LIST = ("{cc-check,fe-check,build-system,build-iab,membership,"
                "pigeonhole,refute,nat-witness,mono-search,rado-number}")
USAGE = (f"usage: radokit [-h]\n               {COMMAND_LIST} ...\n"
         if sys.version_info >= (3, 13) else
         f"usage: radokit [-h]\n               {COMMAND_LIST}\n               ...\n")


def choice_format() -> str:
    """How the running argparse names one choice in an invalid-choice
    error, as a format string: "'{}'" up to Python 3.13.0, "{}" in later
    releases, which print the choices unquoted.  Read off the error that a
    throwaway parser with the one choice "a" gives for "b"."""
    probe = argparse.ArgumentParser(prog="probe")
    probe.add_argument("x", choices=["a"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.suppress(SystemExit):
        probe.parse_args(["b"])
    listed = err.getvalue().rpartition("(choose from ")[2].rpartition(")")[0]
    return listed.replace("a", "{}")


def dash_dash_ends_options() -> bool:
    """Whether the running argparse reads a leading '--' as the end of the
    options, so that the word after it names the command (later 3.13
    releases), rather than as an invalid command '--' (3.10 to 3.13.0)."""
    probe = argparse.ArgumentParser(prog="probe")
    probe.add_subparsers(dest="command").add_parser("a")
    with contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
        return probe.parse_args(["--", "a"]).command == "a"
    return False


# the command names and their order are pinned; only the quoting is read
# from the running argparse
COMMANDS = ["cc-check", "fe-check", "build-system", "build-iab", "membership",
            "pigeonhole", "refute", "nat-witness", "mono-search", "rado-number"]
CHOICES = "(choose from " + ", ".join(map(choice_format().format, COMMANDS)) + ")"
REFUTE = ["refute", "--alpha", "1", "--depth", "3", "--schedule", "qpow:2",
          "--primes=2"]
REFUTE_ARGS = {"alpha": 1, "depth": 3, "schedule": "qpow:2", "primes": "2",
               "handler": cli._cmd_refute}
PINNED = [
    (["cc-check", "--matrix", "m.txt", "extra"],
     (2, "", USAGE + "radokit: error: unrecognized arguments: extra\n", None)),
    (["frobnicate"],
     (2, "", USAGE + "radokit: error: argument command: invalid choice: "
      f"'frobnicate' {CHOICES}\n", None)),
    ([],
     (2, "", USAGE + "radokit: error: the following arguments are required: "
      "command\n", None)),
    (["cc-check", "--mat", "m.txt"],
     (None, "", "", {"matrix": "m.txt", "handler": cli._cmd_cc_check})),
    (["cc-check", "-h"],
     (0, "usage: radokit cc-check [-h] --matrix MATRIX\n\n"
      "options:\n"
      "  -h, --help       show this help message and exit\n"
      "  --matrix MATRIX  matrix file\n", "", None)),
    (["--", "cc-check"],
     (2, "", "usage: radokit cc-check [-h] --matrix MATRIX\nradokit cc-check: "
      "error: the following arguments are required: --matrix\n", None)
     if dash_dash_ends_options() else
     (2, "", USAGE + "radokit: error: argument command: invalid choice: "
      f"'--' {CHOICES}\n", None)),
    # each occurrence of an option converts, the overridden one too
    (["membership", "--scale", "refute", "--value", "1/3", "--primes", "3",
      "--scale", "2"],
     (2, "", "usage: radokit membership [-h] --value VALUE --primes PRIMES "
      "[--scale SCALE]\nradokit membership: error: argument --scale: invalid "
      "int value: 'refute'\n", None)),
    (REFUTE + ["--y=-1,2", "--nmax", "10"],
     (None, "", "", {**REFUTE_ARGS, "y": "-1,2", "nmax": 10})),
    # a value that starts with '-' is argparse's to read
    (REFUTE + ["--y", "1", "--nmax", "-5"],
     (None, "", "", {**REFUTE_ARGS, "y": "1", "nmax": -5})),
    (["fe-check", "--matrix", "m.txt", "--strict="],
     (2, "", "usage: radokit fe-check [-h] --matrix MATRIX [--strict]\n"
      "radokit fe-check: error: argument --strict: ignored explicit argument "
      "''\n", None)),
    (["cc-check", "--matrix="],
     (None, "", "", {"matrix": "", "handler": cli._cmd_cc_check})),
]


def test_pinned_outcomes():
    with columns("80"):
        for argv, expected in PINNED:
            assert outcome(cli._parse, argv) == expected, argv
            assert outcome(reference, argv) == expected, argv


# One argv of each shape the benchmark's jobs send.
FAST = [
    ["cc-check", "--matrix", "m.txt"],
    REFUTE + ["--y=1,-1/2", "--nmax", "12"],
    ["mono-search", "--matrix", "m.txt", "--colouring", "log2parity",
     "--ground", "40,2", "--distinct"],
    ["build-system", "--alpha", "2", "--depth", "4", "--schedule", "qpow:3",
     "--out", "o.txt"],
    ["membership", "--value=-7/30", "--primes=2,3,101", "--scale", "6"],
    ["pigeonhole", "--m", "3", "--primes=2,3", "--values=1/2,-3,5/4"],
]
# argvs the reader leaves to the command's parser
DEFERRED = [
    ["cc-check", "--mat", "m.txt"],
    ["cc-check", "--matrix=--"],
    ["cc-check", "--", "--matrix", "m.txt"],
    ["rado-number", "--matrix", "m.txt", "--colours", "2", "--nmax", "-3"],
]


def test_reader_serves_the_benchmark_shapes_without_argparse():
    expected = [outcome(reference, argv) for argv in FAST + DEFERRED]
    calls = []
    parse = cli.argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    with mock.patch.object(cli.argparse.ArgumentParser, "parse_known_args", spy):
        for argv, want in zip(FAST, expected):
            assert outcome(cli._parse, argv) == want, argv
            assert want[0] is None and calls == [], argv
        for argv, want in zip(DEFERRED, expected[len(FAST):]):
            assert outcome(cli._parse, argv) == want, argv
            assert calls == [f"radokit {argv[0]}"], argv
            calls.clear()


def test_negative_nmax_reaches_the_handler():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(REFUTE + ["--y", "1", "--nmax", "-5"]) == 2
    assert err.getvalue() == "error: --nmax must be nonnegative, got -5\n"


def corpus_differences() -> list[str]:
    """The argv of each cli_corpus.json run whose exit code, stdout or stderr
    through cli.main differs from the corpus, each run in an empty directory
    holding its files, at the corpus's 200 columns."""
    bad = []
    cwd = os.getcwd()
    for entry in json.loads(CORPUS.read_text()):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as folder:
            os.chdir(folder)
            try:
                for name, text in entry["files"].items():
                    Path(name).write_text(text)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        columns("200"):
                    try:
                        code = cli.main(entry["argv"])
                    except SystemExit as exc:  # a usage error
                        code = exc.code
            finally:
                os.chdir(cwd)
        if (code, out.getvalue(), err.getvalue()) != (
                entry["exit"], entry["stdout"], entry["stderr"]):
            bad.append(" ".join(entry["argv"]))
    return bad


def main() -> int:
    failed = 0
    version = sys.version.split()[0]
    for test in (test_dispatch_matches_the_full_parse, test_pinned_outcomes,
                 test_reader_serves_the_benchmark_shapes_without_argparse,
                 test_negative_nmax_reaches_the_handler):
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__} on Python {version}: {exc}")
        else:
            print(f"ok   {test.__name__} on Python {version}")
    bad = corpus_differences()
    failed += len(bad)
    for argv in bad:
        print(f"FAIL cli_corpus.json run {argv!r} on Python {version}")
    if not bad:
        print(f"ok   cli_corpus.json replay on Python {version}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
