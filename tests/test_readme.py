"""Every `$ radokit ...` example in README.md, run through the CLI: the
lines under it, up to the next example or the end of its code block, are
its output byte for byte, `error:` lines on stderr and the rest on stdout,
and the exit code is 2 exactly when there is an `error:` line.
The examples run in an empty directory whose schur.txt holds x + y = z.
The Python quick start runs too, each printed line equal to the value in
its `print` line's comment."""

import re
import shlex
from pathlib import Path

import pytest

from radokit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def examples() -> list[tuple[str, str]]:
    """(command line, output) of each example, in README order."""
    found = []
    for block in re.findall(r"^```\n(.*?)^```$", README, re.M | re.S):
        for command, output in re.findall(r"^\$ (radokit .*)\n((?:(?!\$ ).*\n)*)",
                                          block, re.M):
            found.append((command, output))
    return found


EXAMPLES = examples()


def test_every_example_is_found():
    assert len(EXAMPLES) == 13


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(command, output, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "schur.txt").write_text("1 1 -1\n")
    lines = output.splitlines(keepends=True)
    err = "".join(line for line in lines if line.startswith("error: "))
    out = "".join(line for line in lines if not line.startswith("error: "))
    code = main(shlex.split(command)[1:])
    assert (code == 2) == bool(err)
    assert capsys.readouterr() == (out, err)


def test_python_quick_start(capsys):
    [block] = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    # the comment opens with the value, then ":" or two spaces and a note
    comments = re.findall(r"^print\([^#]*#\s*(.*)$", block, re.M)
    expected = [re.match(r"(.*?)(?::\s|\s{2,}|$)", c).group(1) for c in comments]
    assert expected == ["((0, 2), (1,))", "True", "5", "(0, 1, 1, 0)"]
    exec(block, {})
    assert capsys.readouterr() == ("\n".join(expected) + "\n", "")
