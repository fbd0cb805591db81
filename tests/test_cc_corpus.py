"""Differential test against a frozen corpus of `cc-check` outputs.

tests/data/cc_corpus.json was written by the backtracking search that
columns_condition replaced (see tests/data/make_cc_corpus.py), so every
certificate, witness and refusal must come out byte for byte the same.
"""

import json
from pathlib import Path

import pytest

import radokit.rado
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


def test_one_in_span_call_per_later_block(monkeypatch):
    calls = []
    real = radokit.rado.in_span

    def counting(vectors, target):
        calls.append(1)
        return real(vectors, target)

    monkeypatch.setattr(radokit.rado, "in_span", counting)
    certified = 0
    for entry in CORPUS:
        M = parse_matrix(entry["matrix"])
        calls.clear()
        cert = columns_condition(M)
        assert (cert is not None) == (entry["exit"] == 0)
        if cert is not None:
            certified += 1
            assert len(calls) == len(cert.blocks) - 1
            assert verify_cc_certificate(M, cert)
    assert certified == 238
