"""Differential test against a frozen corpus of `radokit` runs that the
cc and systems corpora leave out: every run of `fe-check`, `membership`,
`pigeonhole`, `mono-search` and `rado-number`, and the `cc-check`,
`build-system`, `build-iab`, `refute` and `nat-witness` runs on inputs
those corpora do not hold (`file:` schedules, limits and error paths).

tests/data/cli_corpus.json holds each run's argv, the files it reads and
the exit code, stdout and stderr it gave (see tests/data/make_cli_corpus.py),
so every answer and every `error:` line must come out byte for byte the
same.  Each run is replayed in an empty directory holding its files, since
the argv names them relative to the working directory, and at the 200
columns that make_cli_corpus.py sets for argparse's usage lines.
"""

import json
from pathlib import Path

import pytest

from radokit.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())
COMMANDS = sorted({entry["argv"][0] for entry in CORPUS})


def test_corpus_covers_every_command_and_outcome():
    assert len(CORPUS) == 541
    assert COMMANDS == ["build-iab", "build-system", "cc-check", "fe-check",
                        "membership", "mono-search", "nat-witness", "pigeonhole",
                        "rado-number", "refute"]
    never_1 = {"build-iab", "build-system", "nat-witness", "pigeonhole"}
    for command in COMMANDS:
        assert {e["exit"] for e in CORPUS if e["argv"][0] == command} == {0, 1, 2} - (
            {1} if command in never_1 else set()), command
    errors = "".join(e["stderr"] for e in CORPUS)
    for text in ("not a rational", "zero denominator", "more than 4300 digits",
                 "No such file", "exceeds budget", "more than the limit of 500",
                 "outside the subring", "colour count must be 1..4",
                 "n_max must be 1..64", "coloured twice", "ground set is",
                 "matrix has no rows", "handles at most 32 columns",
                 "too many to print", "more than the limit of 4500000",
                 "unknown schedule", "not an integer prime",
                 "explicit schedule defines n up to",
                 "y-values", "!= alpha", "needs a pair schedule",
                 "invalid int value"):
        assert text in errors, text


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_frozen(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    for k, entry in enumerate(CORPUS):
        if entry["argv"][0] != command:
            continue
        folder = tmp_path / str(k)
        folder.mkdir()
        monkeypatch.chdir(folder)
        for name, text in entry["files"].items():
            (folder / name).write_text(text)
        try:
            code = main(entry["argv"])
        except SystemExit as exc:  # a usage error
            code = exc.code
        assert code == entry["exit"], entry["argv"]
        captured = capsys.readouterr()
        assert captured.out == entry["stdout"], entry["argv"]
        assert captured.err == entry["stderr"], entry["argv"]
