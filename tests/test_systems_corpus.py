"""Differential test against a frozen corpus of system-builder and
`refute` outputs.

tests/data/systems_corpus.json was written by the Fraction builders and
the n = 2..nmax obstruction scan (see tests/data/make_systems_corpus.py),
so every matrix, witness, obstruction and error message must come out
byte for byte the same.
"""

import hashlib
import json
from pathlib import Path

import pytest

from radokit.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "systems_corpus.json").read_text())
COMMANDS = sorted({entry["argv"][0] for entry in CORPUS})


def test_corpus_covers_every_kind():
    assert len(CORPUS) == 942
    assert COMMANDS == ["build-iab", "build-system", "nat-witness", "refute"]
    refutes = [e for e in CORPUS if e["argv"][0] == "refute"]
    assert {e["exit"] for e in refutes} == {0, 1, 2}
    for kind in ("qpow:", "allprimes", "qpowpair:", "allprimespair"):
        assert any(e["argv"][6].startswith(kind) for e in refutes), kind
    for primes in ("--primes=", "--primes=all", "--primes=2", "--primes=all-except:"):
        assert any(e["argv"][7].startswith(primes) for e in refutes), primes


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_frozen(command, capsys):
    for entry in CORPUS:
        if entry["argv"][0] != command:
            continue
        assert main(entry["argv"]) == entry["exit"], entry["argv"]
        captured = capsys.readouterr()
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == entry["stdout_sha256"], entry["argv"]
        assert captured.err == entry["stderr"], entry["argv"]
