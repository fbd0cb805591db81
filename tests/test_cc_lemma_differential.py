"""Differential test of the sign and zero-residual lemmas in
columns_condition against the per-step elimination with no pruning
(tests/rado_reference.py), which packs every unused column and searches at
every step.

The lemmas only drop columns that no zero-sum block can hold, and skip the
search only where its answer is the least unused column, so both must give
the same certificate, compared by repr, on every matrix.  Five seeded
families, 2-4 rows by 2-16 columns:

  mixed-sign     random entries with repeated, negated and dependent columns;
  certified      blocks built to satisfy the columns condition, shuffled;
  positive-row   one row of one sign, so the first packing drops every column;
  pinned-pair    columns (1, 0, ...) and (-1, 0, ...) and columns whose
                 second row is positive: the first packing keeps only the
                 pair, and once the pair is taken the second row cuts all;
  late-one-signed  rows (1, -1, a...) and (-1, 1, b...) with a + b > 0 at
                 most columns, and multiples of them: no row is one-signed
                 until the first block, the pair, is eliminated.

Then `_least_zero_sum` is wrapped to record the length of its input:
positive-row never calls it, pinned-pair calls it once on 2 values, and on
those families and every tests/data/cc_corpus.json matrix no step's input is
longer than the reference's at that step.

This file runs under pytest, and also as a plain script that needs only the
standard library, so that the lemmas can be checked on every interpreter
the project supports:

    PYTHONPATH=src python3 tests/test_cc_lemma_differential.py

Run that way, it prints one line per check and exits 1 on any failure.
"""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import radokit.rado
import rado_reference as ref
from radokit.linalg import RatMatrix, parse_matrix

SEED = 20102026
PER_FAMILY = 640
CORPUS = Path(__file__).parent / "data" / "cc_corpus.json"


def entry(rng):
    roll = rng.random()
    if roll < 0.25:
        return F(0)
    if roll < 0.8:
        return F(rng.randint(-3, 3))
    return F(rng.randint(-9, 9), rng.randint(1, 6))


def scaled(rng, rows):
    """Each row times a random nonzero constant, in a random order."""
    scales = [rng.choice((1, -1, 2, -2, 3, F(-1, 2))) for _ in rows]
    rows = [[c * x for x in row] for c, row in zip(scales, rows)]
    rng.shuffle(rows)
    return RatMatrix.from_rows(rows)


def columns_to_matrix(rng, cols):
    return scaled(rng, [list(row) for row in zip(*cols)])


def mixed_sign(rng, u, v):
    cols = []
    for _ in range(v):
        roll = rng.random()
        if roll < 0.15 and cols:
            col = list(rng.choice(cols))
        elif roll < 0.3 and cols:
            col = [-x for x in rng.choice(cols)]
        elif roll < 0.4 and cols:
            a, b = rng.choice(cols), rng.choice(cols)
            col = [x + y for x, y in zip(a, b)]
        else:
            col = [entry(rng) for _ in range(u)]
        cols.append(col)
    return columns_to_matrix(rng, cols)


def certified(rng, u, v):
    cols = []
    while len(cols) < v:
        size = min(rng.randint(1, 4), v - len(cols))
        block = [[entry(rng) for _ in range(u)] for _ in range(size - 1)]
        target = [F(0)] * u
        for col in rng.sample(cols, min(len(cols), rng.randint(0, 2))):
            c = rng.randint(-2, 2)
            target = [t + c * x for t, x in zip(target, col)]
        block.append([t - sum(c) for t, *c in zip(target, *block)])
        cols += block
    rng.shuffle(cols)
    return columns_to_matrix(rng, cols)


def positive_row(rng, u, v):
    rows = [[F(rng.randint(1, 3)) for _ in range(v)]]
    rows += [[entry(rng) for _ in range(v)] for _ in range(u - 1)]
    return scaled(rng, rows)


def pinned_pair(rng, u, v):
    # at least one column past the pair, or the pair alone is a certificate
    cols = [[1, 0] + [0] * (u - 2), [-1, 0] + [0] * (u - 2)]
    cols += [[rng.randint(2, 3), rng.randint(1, 3)]
             + [entry(rng) for _ in range(u - 2)] for _ in range(max(v, 3) - 2)]
    rng.shuffle(cols)
    return columns_to_matrix(rng, cols)


def late_one_signed(rng, u, v):
    a = [rng.randint(-3, 3) for _ in range(v - 2)]
    b = [-x + (0 if rng.random() < 0.1 else rng.randint(1, 3)) for x in a]
    r1, r2 = [1, -1] + a, [-1, 1] + b
    rows = [r1, r2]
    for _ in range(u - 2):
        c = rng.choice((-2, -1, 1, 2))
        rows.append([c * x for x in rng.choice((r1, r2))])
    order = list(range(v))
    rng.shuffle(order)
    return scaled(rng, [[F(row[j]) for j in order] for row in rows])


FAMILIES = {"mixed-sign": mixed_sign, "certified": certified,
            "positive-row": positive_row, "pinned-pair": pinned_pair,
            "late-one-signed": late_one_signed}


def search_lengths(columns_condition, module, M):
    """The certificate columns_condition gives for M, and the length of the
    input of each _least_zero_sum call it makes, read from module."""
    lengths = []
    least = module._least_zero_sum

    def counting(values):
        lengths.append(len(values))
        return least(values)

    with mock.patch.object(module, "_least_zero_sum", counting):
        cert = columns_condition(M)
    return cert, lengths


def compare(M):
    """Certificates by repr, and the per-step search input lengths of
    columns_condition and of the reference."""
    cert, lengths = search_lengths(radokit.rado.columns_condition, radokit.rado, M)
    want, ref_lengths = search_lengths(ref.columns_condition, ref, M)
    assert repr(cert) == repr(want), M
    assert len(lengths) <= len(ref_lengths), M
    assert all(n <= m for n, m in zip(lengths, ref_lengths)), M
    return cert, lengths, ref_lengths


def pruned(cert, lengths, ref_lengths):
    """Whether the sign lemma shortened a search or refused before one: a
    step with no rest row is skipped only on the way to a certificate."""
    return (any(n < m for n, m in zip(lengths, ref_lengths))
            or cert is None and len(lengths) < len(ref_lengths))


def test_certificates_and_search_lengths_match_the_reference():
    rng = random.Random(SEED)
    seen = {name: {"certified": 0, "refused": 0, "pruned": 0}
            for name in FAMILIES}
    for name, family in FAMILIES.items():
        for _ in range(PER_FAMILY):
            u, v = rng.randint(2, 4), rng.randint(2, 16)
            M = family(rng, u, v)
            cert, lengths, ref_lengths = compare(M)
            if name == "positive-row":
                assert cert is None and lengths == [], M
            if name == "pinned-pair":
                assert cert is None and lengths == [2], M
            if name == "late-one-signed":
                assert lengths[0] == M.cols, M
            seen[name]["refused" if cert is None else "certified"] += 1
            seen[name]["pruned"] += pruned(cert, lengths, ref_lengths)
    assert sum(sum(c.values()) for c in seen.values()) >= 3000
    assert seen["mixed-sign"]["certified"] >= 100, seen
    assert seen["mixed-sign"]["pruned"] >= 100, seen
    assert seen["certified"]["refused"] == 0, seen
    assert seen["late-one-signed"]["certified"] >= 10, seen
    assert seen["late-one-signed"]["refused"] >= 500, seen
    assert seen["late-one-signed"]["pruned"] == seen["late-one-signed"]["refused"]
    for name in ("positive-row", "pinned-pair"):
        assert seen[name]["refused"] == PER_FAMILY, seen


def test_corpus_search_lengths_never_exceed_the_reference():
    """The sign lemma cuts on 201 corpus matrices, 153 random ones and the
    48 of the one-signed families, and 216 certificates end in steps with
    no rest row, which search nothing."""
    cut = skipped = 0
    for item in json.loads(CORPUS.read_text()):
        cert, lengths, ref_lengths = compare(parse_matrix(item["matrix"]))
        assert (cert is not None) == (item["exit"] == 0), item["matrix"]
        cut += pruned(cert, lengths, ref_lengths)
        skipped += cert is not None and len(lengths) < len(ref_lengths)
    assert (cut, skipped) == (201, 216), (cut, skipped)


def main() -> int:
    failed = 0
    version = sys.version.split()[0]
    for test in (test_certificates_and_search_lengths_match_the_reference,
                 test_corpus_search_lengths_never_exceed_the_reference):
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__} on Python {version}: {exc}")
        else:
            print(f"ok   {test.__name__} on Python {version}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
