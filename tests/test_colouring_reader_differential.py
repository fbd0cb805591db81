"""The CLI's one-pass `file:` colouring reader against the reader it
replaced (tests/cli_reference.py), on seeded random files: each file gives
an equal Colouring under both, or the same error.  The files hold blank
and '#' lines, CRLF and lone CR line ends, tabs, lines of one or three
fields, bad values and bad colours on one line and on later lines, the
tokens -0, +1, 1_0 and 4301 digits, equal values written apart (1 and
2/2), zero, and the empty file."""

import random
from collections import Counter

import pytest

import cli_reference
from radokit.cli import _parse_colouring

BAD_VALUES = ["-0", "+1", "1_0", "1" * 4301, "2/2", "0", "1/0", "x", "1.5", "1/-2",
              "/2", "1/", "٣", "0/5", "-7/14", "9" * 4300]
BAD_COLOURS = ["-1", "+1", "1_0", "x", "1" * 4301, "-0", "1.0", "٣", "007"]
ENDS = ["\n", "\r\n", "\r"]
GAPS = [" ", "\t", "  ", " \t "]


def value(rng):
    """A value token, sometimes one of a few equal values written apart."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(["1", "2/2", "-3/6", "-1/2", "4/2", "2"])
    if roll < 0.55:
        return str(rng.randint(-99, 99))
    return f"{rng.randint(-40, 40)}/{rng.randint(1, 12)}"


def colour_file(rng) -> str:
    """A colouring file of 0 to 8 lines; in about half of them every line
    is blank, a comment or a well-formed 'value colour' line."""
    clean = rng.random() < 0.5
    lines = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
        elif roll < 0.2:
            lines.append(rng.choice(["# 1 0", "  # comment", "#"]))
        else:
            fields = [value(rng), str(rng.randint(0, 3))]
            if not clean:
                if rng.random() < 0.15:
                    fields[0] = rng.choice(BAD_VALUES)
                if rng.random() < 0.15:
                    fields[1] = rng.choice(BAD_COLOURS)
                if rng.random() < 0.1:
                    fields = rng.choice([fields[:1], fields + [str(rng.randint(0, 3))]])
            gap = rng.choice(GAPS)
            lines.append(rng.choice(["", " ", "\t"]) + gap.join(fields)
                         + rng.choice(["", " ", "\t"]))
    text = "".join(line + rng.choice(ENDS) for line in lines)
    return text[:-1] if lines and rng.random() < 0.2 else text


def outcome(read, spec):
    try:
        return read(spec)
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def kind(result) -> str:
    if not isinstance(result, str):
        return "colouring" if result.assignments else "empty colouring"
    for label in ("not a rational", "zero denominator", "cannot read",
                  "expected 'value colour'", "coloured twice", "cannot be coloured"):
        if label in result:
            return label
    return result


def test_random_files_match_the_reference(tmp_path):
    rng = random.Random(20261021)
    path = tmp_path / "c.txt"
    spec = f"file:{path}"
    seen = Counter()
    for _ in range(2400):
        path.write_bytes(colour_file(rng).encode())
        want = outcome(cli_reference._parse_colouring, spec)
        assert outcome(_parse_colouring, spec) == want, path.read_bytes()
        seen[kind(want)] += 1
    assert set(seen) == {"colouring", "empty colouring", "not a rational",
                         "zero denominator", "cannot read", "expected 'value colour'",
                         "coloured twice", "cannot be coloured"}, seen
    assert min(seen.values()) >= 15, seen


@pytest.mark.parametrize("text", [
    "", "\n\n", "# only a comment\r\n", "1 0\r2/2 1\r", "1 0\n2/2 1\n",
    "1/0 x\n", "x 0 0\n", "1/0\n", "1 x\n1/0 0\n", "1/0 0\n1 x\n",
    "2 0\n1\n2/2 1\n", "1 0\n2 -0\n", "-0 1\n", "+1 0\n", "1_0 0\n",
    "1" * 4301 + " 0\n", "1 " + "1" * 4301 + "\n", "0 1\n", "1\t2\r\n3 \t 0",
])
def test_chosen_files_match_the_reference(tmp_path, text):
    path = tmp_path / "c.txt"
    path.write_bytes(text.encode())
    spec = f"file:{path}"
    assert outcome(_parse_colouring, spec) == outcome(cli_reference._parse_colouring, spec)


@pytest.mark.parametrize("spec", ["log2parity", "rainbow", "file"])
def test_other_specs_match_the_reference(spec):
    assert outcome(_parse_colouring, spec) == outcome(cli_reference._parse_colouring, spec)
