"""Differential test of columns_condition's column insertion, built on
linalg's one row operation, against the Fraction rref and in_span it
replaced (tests/linalg_reference.py), of parse_matrix, which reads each
distinct token once, against the parser that read every token, and of
parse_integer_rows, which builds no Fraction, against _integer_rows of
parse_matrix.

The reduced row echelon form is unique for a given column order, so the
inserted rows, each divided by its pivot, must equal the reference's entry
for entry, whatever order the columns go in.  Inserting a prefix of the
columns, as columns_condition does, must give the reference's pivots on
that prefix, and residuals and witnesses that agree with the reference's
in_span.
"""

import json
import random
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest

import linalg_reference as ref
import radokit.linalg
import radokit.rings
from radokit.cli import main
from conftest import insert_columns
from radokit.linalg import (
    RatMatrix,
    _integer_rows,
    parse_integer_rows,
    parse_matrix,
    read_integer_rows,
    read_matrix,
)
from radokit.rado import _insert
from radokit.rings import DIGIT_LIMIT, parse_rat


def random_entry(rng: random.Random) -> F:
    kind = rng.random()
    if kind < 0.35:
        return F(0)
    if kind < 0.7:
        return F(rng.randint(-4, 4))
    if kind < 0.95:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def random_rows(rng: random.Random, u: int, v: int) -> list[list[F]]:
    """u x v rows with zero rows, zero columns and dependent rows mixed in."""
    rows = [[random_entry(rng) for _ in range(v)] for _ in range(u)]
    for j in range(v):
        if rng.random() < 0.15:
            for row in rows:
                row[j] = F(0)
    for i in range(u):
        roll = rng.random()
        if roll < 0.1:
            rows[i] = [F(0)] * v
        elif roll < 0.35 and i >= 2:
            a, b = rng.sample(range(i), 2)
            s, t = random_entry(rng), random_entry(rng)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


def test_rref_and_rank_match_the_fraction_reference():
    rng, orders = random.Random(20261018), random.Random(18)
    for _ in range(1000):
        u, v = rng.randint(0, 6), rng.randint(0, 7)
        M = RatMatrix.from_rows(random_rows(rng, u, v)) if u else RatMatrix(0, v, ())
        R, pivots = ref.rref(M)
        order = orders.sample(range(M.cols), M.cols)
        got, rows = insert_columns(_integer_rows(map(M.row, range(M.rows))), order)
        assert got == pivots, M
        assert [[F(x, row[c]) for x in row] for row, c in zip(rows, pivots)] \
            == R.to_lists()[:len(pivots)], M
        assert not any(map(any, rows[len(pivots):])), M


def random_int_columns(rng: random.Random, u: int, v: int) -> list[list[int]]:
    """v integer columns of height u, with zero, repeated and dependent
    columns mixed in."""
    cols: list[list[int]] = []
    for j in range(v):
        roll = rng.random()
        if roll < 0.1:
            col = [0] * u
        elif roll < 0.25 and j:
            col = list(rng.choice(cols))
        elif roll < 0.45 and j:
            a, b = rng.choice(cols), rng.choice(cols)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            col = [s * x + t * y for x, y in zip(a, b)]
        else:
            col = [rng.choice((0, rng.randint(-5, 5), rng.randint(-10**6, 10**6)))
                   for _ in range(u)]
        cols.append(col)
    return cols


def prefix_cases(seed: int):
    """800 seeded integer matrices wider than k, with the first k columns
    inserted in a random order, as columns_condition inserts its used
    columns: (rows, v, k, reduced copy, pivots), with zero rows, repeated
    and dependent columns, k = 0 and prefixes of full row rank."""
    rng, orders = random.Random(seed), random.Random(seed + 1)
    seen = {"k = 0": 0, "full row rank": 0, "zero row": 0}
    for _ in range(800):
        u, v = rng.randint(0, 5), rng.randint(1, 8)
        k = rng.randint(0, v - 1)
        cols = random_int_columns(rng, u, v)
        rows = [[col[i] for col in cols] for i in range(u)]
        for row in rows:
            if rng.random() < 0.1:
                row[:] = [0] * v
        pivots, reduced = insert_columns(rows, orders.sample(range(k), k))
        seen["k = 0"] += k == 0
        seen["full row rank"] += 0 < u == len(pivots)
        seen["zero row"] += not all(map(any, rows))
        yield rows, v, k, reduced, pivots
    assert min(seen.values()) >= 50, seen


def test_prefix_pivots_are_the_reference_pivots():
    """Inserting the first k columns picks the pivots that the reference
    rref picks on those k columns alone."""
    for rows, _, k, _, pivots in prefix_cases(23102026):
        prefix = [row[:k] for row in rows]
        expected = ref.rref(RatMatrix.from_rows(prefix) if rows else RatMatrix(0, k, ()))[1]
        assert pivots == expected, (rows, k)


def test_rows_past_the_rank_vanish_on_the_prefix():
    """Every row past the rank is zero on the first k columns, and the
    later columns took part in the row operations: the reduced rows span
    the same row space as the original ones."""
    for rows, _, k, reduced, pivots in prefix_cases(23102026):
        assert not any(any(row[:k]) for row in reduced[len(pivots):]), (rows, k)
        if rows:
            both = RatMatrix.from_rows(rows + reduced)
            assert ref.rank(both) == ref.rank(RatMatrix.from_rows(rows)) \
                == ref.rank(RatMatrix.from_rows(reduced)), (rows, k)


def test_residual_sums_decide_span_membership():
    """A subset of the later columns sums to zero in the rows past the rank
    exactly when its column sum lies in the span of the first k columns,
    and then the pivot rows give the reference in_span witness."""
    rng = random.Random(24102026)
    seen = {"inside": 0, "outside": 0}
    for rows, v, k, reduced, pivots in prefix_cases(23102026):
        rank = len(pivots)
        used = [[F(row[j]) for row in rows] for j in range(k)]
        for _ in range(6):
            subset = [j for j in range(k, v) if rng.random() < 0.5] or [k]
            target = [F(sum(row[j] for j in subset)) for row in rows]
            expected = ref.in_span(used, target)
            zero = all(sum(row[j] for j in subset) == 0 for row in reduced[rank:])
            assert zero == (expected is not None), (rows, k, subset)
            if zero:
                witness = [F(0)] * k
                for row, c in zip(reduced, pivots):
                    witness[c] = F(sum(row[j] for j in subset), row[c])
                assert witness == expected, (rows, k, subset)
            seen["inside" if zero else "outside"] += 1
    assert min(seen.values()) >= 1000, seen


def old_integer_rows(rows):
    """The normalizer before it read each denominator once."""
    out = []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def test_integer_rows_match_the_old_formula():
    rng = random.Random(19102026)
    cases = [[], [0, -3, 7], [F(4), F(-6, 3), F(0)], [3, F(1, 2), -1, F(-5, 6)],
             [F(10**12, 7), 10**12, F(0)], (), (0,), (5, -5, 0),
             [True, False, 2], [True], (False, False), [True, F(1, 2)],
             [10**40, -10**31 - 1, 0], [F(10**35, 3), 10**33],
             [F(2), 3, F(-4), 5], [1, F(0), 0]]
    for _ in range(800):
        v = rng.randint(0, 7)
        kind = rng.choice(("int", "integral", "mixed", "bool", "huge"))
        if kind == "int":
            row = [rng.randint(-10**12, 10**12) for _ in range(v)]
        elif kind == "integral":
            row = [F(rng.randint(-9, 9)) for _ in range(v)]
        elif kind == "mixed":
            row = [rng.choice((rng.randint(-9, 9), random_entry(rng)))
                   for _ in range(v)]
        elif kind == "bool":
            row = [rng.choice((True, False, rng.randint(-9, 9))) for _ in range(v)]
        else:
            row = [rng.choice((1, -1)) * rng.randint(10**30, 10**45)
                   for _ in range(v)]
            if row and rng.random() < 0.5:
                row[rng.randrange(v)] = F(rng.randint(1, 10**40), rng.randint(1, 99))
        cases.append(rng.choice((row, tuple(row))))
    got = _integer_rows(cases)
    assert got == old_integer_rows(cases)
    assert all(type(row) is list for row in got)
    assert all(type(x) is int for row in got for x in row)


def test_integer_rows_copy_int_rows():
    """An all-int row comes back as a new list, so that _insert, which
    works on the list in place, never writes into the caller's rows."""
    rows = [[1, 2, 3], [4, 5, 6]]
    got = _integer_rows(rows)
    assert got == rows
    assert all(out is not row for out, row in zip(got, rows))
    basis = []
    for j in range(3):
        _insert(basis, got, j)
    assert got == [] and rows == [[1, 2, 3], [4, 5, 6]]


# Tokens for the parse_matrix differential test: repeats, and equal values
# written in several ways.
EQUAL_SPELLINGS = ["0", "-0", "00", "-000", "0/5", "1", "01", "001", "2/2",
                   "7", "007", "-7", "-007", "14/2", "1/2", "2/4", "-1/2",
                   "-2/4", "03/06", "2", "4/2", "10/5", "-3", "-9/3"]


def random_token(rng):
    roll = rng.random()
    if roll < 0.7:
        return rng.choice(EQUAL_SPELLINGS)
    if roll < 0.9:
        return f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}"
    return str(rng.randint(-10**40, 10**40))


def random_matrix_text(rng):
    """Rows of tokens separated by runs of spaces and tabs, mixed with
    comment lines, blank and whitespace-only lines; a row is ragged now
    and then."""
    width = rng.randint(1, 7)
    lines = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(("# comment", "  #\tindented 1 x", "#", "#1/0")))
        elif roll < 0.2:
            lines.append(rng.choice(("", " ", "\t", " \t ")))
        else:
            v = width + (rng.choice((-1, 1)) if rng.random() < 0.08 else 0)
            seps = [rng.choice((" ", "  ", "\t", " \t")) for _ in range(v + 1)]
            toks = [random_token(rng) for _ in range(v)]
            line = "".join(s + t for s, t in zip(seps, toks))
            lines.append(line + rng.choice(("", " ", "\t")))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"error: {exc}"


def test_parse_matrix_matches_the_token_by_token_reference():
    rng = random.Random(22102026)
    kinds = {"matrix": 0, "ragged": 0}
    for _ in range(3000):
        text = random_matrix_text(rng)
        got = outcome(parse_matrix, text)
        assert got == outcome(ref.parse_matrix, text), text
        if isinstance(got, RatMatrix):
            kinds["matrix"] += 1
            assert all(type(x) is F for x in got.entries)
        else:
            kinds["ragged"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_parse_matrix_reads_each_distinct_token_once(monkeypatch):
    seen = []

    def counting(tok):
        seen.append(tok)
        return parse_rat(tok)

    monkeypatch.setattr(radokit.rings, "parse_rat", counting)
    M = parse_matrix("# 9 9\n1 2/4 1\n\t1/2 1 -0\n0 2/4  1/2\n")
    assert seen == ["1", "2/4", "1/2", "-0", "0"]
    assert M == ref.parse_matrix("1 1/2 1\n1/2 1 0\n0 1/2 1/2")
    # a repeated token is one shared Fraction
    assert M.at(0, 0) is M.at(0, 2) is M.at(1, 1)


TOO_LONG = "1" * (DIGIT_LIMIT + 1)
BAD_TOKENS = ["+1", "x", "1.5", "--1", "1/-2", "1/+2", "1/2/3", "1#", "٣/0",
              "1/0", "-3/00", "0/0", TOO_LONG, f"1/{TOO_LONG}", f"-{TOO_LONG}/0"]


@pytest.mark.parametrize("bad", BAD_TOKENS, ids=lambda t: t[:12])
@pytest.mark.parametrize("place", ["first", "after repeats", "twice",
                                   "before another bad token"])
def test_first_bad_token_error_is_the_reference_error(bad, place, tmp_path,
                                                      capsys):
    text = {
        "first": f"{bad} 1 2\n1 1 2\n",
        "after repeats": f"1 2 1\n2 1 2\n1 2 {bad}\n",
        "twice": f"# {bad}\n1 {bad} 2\n1 {bad} 2\n",
        "before another bad token": f"1 1\n2 {bad} y 1/0\n",
    }[place]
    with pytest.raises(ValueError) as want:
        ref.parse_matrix(text)
    assert outcome(parse_matrix, text) == f"error: {want.value}"
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert main(["cc-check", "--matrix", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {want.value}\n")


def integer_rows_of_parse_matrix(text):
    """What the CLI's three integer-row commands read before
    parse_integer_rows: the rows of parse_matrix, scaled by _integer_rows."""
    M = parse_matrix(text)
    return _integer_rows(M.row(i) for i in range(M.rows)), M.cols


def spelled(rng, x):
    """x written as a matrix token, now and then unreduced or signed zero."""
    roll = rng.random()
    if x == 0 and roll < 0.3:
        return rng.choice(("-0", "0/5", "00", "-0/7"))
    if roll < 0.2:
        k = rng.randint(2, 9)
        return f"{x.numerator * k}/{x.denominator * k}"
    return str(x)


def random_rows_text(rng):
    """random_rows written out with comment, blank and whitespace-only lines
    between the rows, and runs of spaces and tabs between the entries."""
    rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 8))
    lines = []
    for row in rows:
        if rng.random() < 0.3:
            lines.append(rng.choice(("# comment", "", " \t", "#1/0 x", "  # 6/4")))
        lines.append(rng.choice((" ", "\t", "  ")).join(spelled(rng, x) for x in row))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


def test_integer_rows_reader_matches_parse_matrix():
    texts = [entry["matrix"] for entry in json.loads(
        (Path(__file__).parent / "data" / "cc_corpus.json").read_text())]
    assert len(texts) == 588
    rng = random.Random(20261020)
    texts += [random_rows_text(rng) for _ in range(2000)]
    texts += ["", "# only\n", "\n\n", "-0 0/5 6/4 -6/4\n3/2 0 1 -1\n",
              "999999999999 -123456789012/7\n1 2\n", "٣ 1/２\n"]
    seen = {"fraction": 0, "12 digits": 0, "unreduced": 0}
    for text in texts:
        rows, cols = parse_integer_rows(text)
        assert (rows, cols) == integer_rows_of_parse_matrix(text), text
        assert all(type(row) is list and all(type(x) is int for x in row)
                   for row in rows), text
        seen["fraction"] += "/" in text
        seen["12 digits"] += any(len(tok.lstrip("-")) >= 12 for tok in text.split())
        seen["unreduced"] += "6/4" in text or any(
            F(tok).denominator != int(tok.partition("/")[2] or 1)
            for tok in text.split() if "/" in tok and "#" not in tok)
    assert min(seen.values()) >= 50, seen


BAD_MATRIX_TEXTS = [
    "1 x 2\n", "1 2\n1.5 2\n", "+1 1\n", "1 1/0\n", "1 -3/00\n",
    f"1 {TOO_LONG}\n", f"1 1/{TOO_LONG}\n", f"-{TOO_LONG}/0 1\n",
    "1 2 3\n4 5\n", "1 2\n3 4 5\n", "1 2 3\n4 5\n6 x 7\n",
    f"1 2 3\n4 5\n6 {TOO_LONG} 7\n", f"1 2 3\n4 5\n6 1/{TOO_LONG} 7\n",
    "1 2 3\n4 5\n6 1/0 7\n", "1 y 1/0\n2\n", "# 1 x\n1 1/0 x\n",
]


@pytest.mark.parametrize("text", BAD_MATRIX_TEXTS, ids=lambda t: t[:16])
def test_integer_rows_reader_raises_parse_matrix_error(text, tmp_path, capsys):
    with pytest.raises(ValueError) as want:
        parse_matrix(text)
    with pytest.raises(ValueError) as got:
        parse_integer_rows(text)
    assert str(got.value) == str(want.value)
    path = tmp_path / "m.txt"
    path.write_text(text)
    for command in (["cc-check"], ["rado-number", "--colours", "2", "--nmax", "5"],
                    ["mono-search", "--colouring", "log2parity", "--ground", "6"]):
        assert main([*command, "--matrix", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {want.value}\n")


@pytest.mark.parametrize("ends", ["\n", "\r\n", "\r"])
def test_file_readers_read_line_ends_as_text_mode(ends, tmp_path):
    text = ends.join(["# m", "1 -0 ٣", "", "6/4 2 1/２", "  0 0 0  "]) + ends
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode())
    with open(path) as f:  # text mode, universal newlines
        read = f.read()
    assert read_matrix(str(path)) == parse_matrix(read)
    assert read_integer_rows(str(path)) == integer_rows_of_parse_matrix(read) \
        == ([[1, 0, 3], [3, 4, 1], [0, 0, 0]], 3)


@pytest.fixture
def token_reads(monkeypatch):
    """Every token that linalg reads through _rat_parts, and every call of
    a Fraction-building reader: parse_rat, parse_matrix, _integer_rows,
    and Fraction in rings, which builds linalg's Fractions too."""
    reads = {"tokens": [], "fractions": 0}

    def counting(read):
        def spy(*args):
            reads["fractions"] += 1
            return read(*args)
        return spy

    def parts(tok):
        reads["tokens"].append(tok)
        return radokit.rings._rat_parts(tok)

    monkeypatch.setattr(radokit.linalg, "_rat_parts", parts)
    monkeypatch.setattr(radokit.rings, "parse_rat", counting(radokit.rings.parse_rat))
    monkeypatch.setattr(radokit.rings, "Fraction", counting(radokit.rings.Fraction))
    for name in ("parse_matrix", "_integer_rows"):
        read = getattr(radokit.linalg, name)
        monkeypatch.setattr(radokit.linalg, name, counting(read))
    return reads


INTEGER_COMMANDS = [["cc-check"], ["rado-number", "--colours", "2", "--nmax", "6"],
                    ["mono-search", "--colouring", "log2parity", "--ground", "4"]]


@pytest.mark.parametrize("command", INTEGER_COMMANDS, ids=lambda c: c[0])
def test_integer_file_builds_no_fraction(command, token_reads, tmp_path, capsys):
    """A 2 x 16 all-integer file: each distinct token is read once, and
    no Fraction is built from a matrix entry."""
    rng = random.Random(16)
    rows = [[rng.randint(-3, 3) for _ in range(16)] for _ in range(2)]
    path = tmp_path / "m.txt"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    assert main([*command, "--matrix", str(path)]) in (0, 1)
    assert capsys.readouterr().err == ""
    tokens = [str(x) for row in rows for x in row]
    assert token_reads == {"tokens": list(dict.fromkeys(tokens)), "fractions": 0}
    assert len(tokens) == 32 > len(token_reads["tokens"])


@pytest.mark.parametrize("command", INTEGER_COMMANDS, ids=lambda c: c[0])
def test_fraction_tokens_are_read_once_each(command, token_reads, tmp_path, capsys):
    """k = 3 distinct fraction tokens, 12 fraction entries: each is read
    once, and still no Fraction is built."""
    path = tmp_path / "m.txt"
    path.write_text("1/2 2/4 1/2 -3/6 1 1\n2/4 1/2 -3/6 1/2 2/4 -1\n"
                    "# 1/3\n1/2 -3/6 0 0 0 0\n")
    assert main([*command, "--matrix", str(path)]) in (0, 1)
    assert capsys.readouterr().err == ""
    fraction_reads = [t for t in token_reads["tokens"] if "/" in t]
    assert fraction_reads == ["1/2", "2/4", "-3/6"]
    assert token_reads["fractions"] == 0
