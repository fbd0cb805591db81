"""The corpus scripts under tests/data write their JSON only when run with
no arguments.  Each run here is of a copy of the script in a temporary
directory, so the JSON it would write lands there, never over the
committed corpus.  The copy gets tests/ on its PYTHONPATH, since the
script imports the test references from there.  tests/code_lines.py,
which only reads src/, refuses arguments in the same way."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
DATA = TESTS / "data"
SRC = TESTS.parent / "src"


def run_copy(script: str, tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    shutil.copy(DATA / script, tmp_path / script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    return subprocess.run([sys.executable, str(tmp_path / script), *args],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("script", ["make_cc_corpus.py", "make_systems_corpus.py",
                                    "make_cli_corpus.py"])
class TestCorpusScripts:
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_the_docstring_and_writes_nothing(self, script, flag,
                                                           tmp_path):
        done = run_copy(script, tmp_path, flag)
        assert done.returncode == 0
        assert done.stdout.startswith("Write ")
        assert "PYTHONPATH=src python tests/data/" + script in done.stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == [script]

    @pytest.mark.parametrize("args", [["--out", "x.json"], ["-h", "extra"], ["1"]])
    def test_other_arguments_exit_2_and_write_nothing(self, script, args,
                                                      tmp_path):
        done = run_copy(script, tmp_path, *args)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "takes no arguments" in done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [script]


def test_code_lines_counts_every_module():
    done = subprocess.run([sys.executable, str(TESTS / "code_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    rows = [line.split() for line in done.stdout.splitlines()]
    names = [name for name, _ in rows]
    assert names == sorted(p.name for p in (SRC / "radokit").glob("*.py")) + ["total"]
    counts = [int(count) for _, count in rows]
    assert all(counts) and counts[-1] == sum(counts[:-1])


def test_code_lines_refuses_arguments():
    done = subprocess.run([sys.executable, str(TESTS / "code_lines.py"), "src"],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert "takes no arguments" in done.stderr
