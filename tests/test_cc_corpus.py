"""Differential test against a frozen corpus of `cc-check` outputs.

tests/data/cc_corpus.json was written by the backtracking search that
columns_condition replaced (see tests/data/make_cc_corpus.py), so every
certificate, witness and refusal must come out byte for byte the same.
"""

import json
from pathlib import Path

import pytest

import radokit.rado
from linalg_reference import rank
from radokit.cli import main
from radokit.linalg import parse_matrix
from radokit.rado import columns_condition, verify_cc_certificate

CORPUS = json.loads((Path(__file__).parent / "data" / "cc_corpus.json").read_text())
FAMILIES = sorted({entry["family"] for entry in CORPUS})


def test_corpus_covers_every_family():
    assert len(CORPUS) == 588
    assert sum(entry["exit"] == 0 for entry in CORPUS) == 238
    for prefix in ("random", "certified", "positive-row", "pinned-pair",
                   "qpow:2", "qpow:3", "qpowpair:2", "allprimes depth",
                   "allprimespair"):
        assert any(f.startswith(prefix) for f in FAMILIES), prefix


@pytest.mark.parametrize("family", FAMILIES)
def test_cc_check_output_is_frozen(family, tmp_path, capsys):
    path = tmp_path / "m.txt"
    for entry in CORPUS:
        if entry["family"] != family:
            continue
        path.write_text(entry["matrix"] + "\n")
        assert main(["cc-check", "--matrix", str(path)]) == entry["exit"]
        assert capsys.readouterr().out == entry["stdout"], entry["matrix"]


def test_each_column_inserted_once_and_at_most_rank_plus_one_packings(monkeypatch):
    """The carried rows take each column once, when its block is taken, and
    the residuals are packed once at the start and once after each step
    that adds a pivot and leaves a nonzero rest row, so at most rank + 1
    times, and at least once when a row of the matrix is nonzero."""
    inserted, packings = [], []
    insert, pack = radokit.rado._insert, radokit.rado._pack

    def counting_insert(basis, rest, j):
        inserted.append(j)
        return insert(basis, rest, j)

    def counting_pack(rest, cols):
        packings.append(1)
        return pack(rest, cols)

    monkeypatch.setattr(radokit.rado, "_insert", counting_insert)
    monkeypatch.setattr(radokit.rado, "_pack", counting_pack)
    certified = packed = 0
    for entry in CORPUS:
        M = parse_matrix(entry["matrix"])
        inserted.clear()
        packings.clear()
        cert = columns_condition(M)
        assert (cert is not None) == (entry["exit"] == 0)
        assert len(packings) <= rank(M) + 1, entry["matrix"]
        if any(M.entries):
            assert packings, entry["matrix"]
            packed += 1
        assert len(set(inserted)) == len(inserted), entry["matrix"]
        if cert is not None:
            certified += 1
            assert inserted == [j for block in cert.blocks for j in block]
            assert sorted(inserted) == list(range(M.cols))
            assert verify_cc_certificate(M, cert)
    assert certified == 238
    assert packed == 581
