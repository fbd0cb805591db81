"""Differential test of the integer elimination and in_span against the
Fraction rref and in_span they replaced (tests/linalg_reference.py), and of
parse_matrix, which reads each distinct token once, against the parser that
read every token.

The reduced row echelon form is unique, so the elimination's rows, each
divided by its pivot, must equal the reference's entry for entry, and
every in_span output must be equal on every input.
"""

import copy
import random
from fractions import Fraction as F
from math import lcm

import pytest

import linalg_reference as ref
import radokit.linalg
from radokit.cli import main
from radokit.linalg import RatMatrix, _eliminate, _integer_rows, in_span, parse_matrix
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
    rng = random.Random(20261018)
    for _ in range(1000):
        u, v = rng.randint(0, 6), rng.randint(0, 7)
        M = RatMatrix.from_rows(random_rows(rng, u, v)) if u else RatMatrix(0, v, ())
        R, pivots = ref.rref(M)
        rows = _integer_rows(map(M.row, range(M.rows)))
        assert _eliminate(rows, M.cols) == pivots, M
        assert [[F(x, row[c]) for x in row] for row, c in zip(rows, pivots)] \
            == R.to_lists()[:len(pivots)], M
        assert not any(map(any, rows[len(pivots):])), M


def test_in_span_matches_the_fraction_reference():
    rng = random.Random(18102026)
    outcomes = {"inside": 0, "outside": 0, "empty": 0}
    for _ in range(1500):
        dim, k = rng.randint(0, 6), rng.randint(0, 6)
        columns = random_rows(rng, k, dim)
        roll = rng.random()
        if roll < 0.45 and k:
            coeffs = [random_entry(rng) for _ in range(k)]
            target = [sum((c * col[i] for c, col in zip(coeffs, columns)), F(0))
                      for i in range(dim)]
        elif roll < 0.55:
            target = [F(0)] * dim
        else:
            target = [random_entry(rng) for _ in range(dim)]
        got = in_span(columns, target)
        assert got == ref.in_span(columns, target), (columns, target)
        if dim == 0:
            outcomes["empty"] += 1
        else:
            outcomes["inside" if got is not None else "outside"] += 1
        if got is not None:
            assert all(type(x) is F for x in got)
            for i in range(dim):
                assert sum(c * col[i] for c, col in zip(got, columns)) == target[i]
    assert min(outcomes.values()) >= 100, outcomes


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
    """An all-int row comes back as a new list, so that _eliminate, which
    works in place, never writes into the caller's row."""
    rows = [[1, 2, 3], [4, 5, 6]]
    got = _integer_rows(rows)
    assert got == rows
    assert all(out is not row for out, row in zip(got, rows))
    _eliminate(got, 3)
    assert rows == [[1, 2, 3], [4, 5, 6]]


def test_in_span_leaves_int_vectors_unchanged():
    rng = random.Random(21102026)
    for _ in range(300):
        dim, k = rng.randint(1, 5), rng.randint(1, 5)
        vectors = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        target = [rng.randint(-4, 4) for _ in range(dim)]
        before = copy.deepcopy((vectors, target))
        expected = ref.in_span([[F(x) for x in vec] for vec in vectors],
                               [F(x) for x in target])
        assert in_span(vectors, target) == expected
        assert (vectors, target) == before


def test_in_span_ignores_entry_type_and_row_scaling():
    """Fraction vectors, the same vectors as ints, and every row of the
    vectors and target times one nonzero integer give one answer."""
    rng = random.Random(20102026)
    for _ in range(500):
        dim, k = rng.randint(1, 5), rng.randint(0, 5)
        ints = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        target = [rng.randint(-4, 4) for _ in range(dim)]
        if k and rng.random() < 0.5:
            coeffs = [rng.randint(-2, 2) for _ in range(k)]
            target = [sum(c * col[i] for c, col in zip(coeffs, ints))
                      for i in range(dim)]
        expected = ref.in_span([[F(x) for x in col] for col in ints],
                               [F(x) for x in target])
        assert in_span([[F(x) for x in col] for col in ints],
                       [F(x) for x in target]) == expected
        assert in_span(ints, target) == expected
        scale = [rng.choice((-10**12, -3, -1, 1, 2, 7)) for _ in range(dim)]
        assert in_span([[s * x for s, x in zip(scale, col)] for col in ints],
                       [s * x for s, x in zip(scale, target)]) == expected


def test_integer_inputs_are_accepted():
    assert in_span([(1, 0), (2, 0), (0, 1)], (3, 4)) == ref.in_span(
        [(1, 0), (2, 0), (0, 1)], (3, 4))
    assert in_span([(2, 4)], (1, 3)) is None


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

    monkeypatch.setattr(radokit.linalg, "parse_rat", counting)
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
