"""Fuzz the size arguments of the system commands: any --depth and --alpha,
with every schedule kind, must end in exit 0, 1 or 2 within a time bound
and without a traceback.  Sizes past ENTRY_LIMIT are refused up front."""

import contextlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radokit.cli import main


class Discard(io.TextIOBase):
    """A stdout that keeps nothing, so a large accepted output costs no memory."""

    def write(self, text):
        return len(text)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Explicit schedules: one column with a zero, and two columns."""
    folder = tmp_path_factory.mktemp("schedules")
    one = folder / "one.txt"
    one.write_text("1/2\n0\n-3\n")
    two = folder / "two.txt"
    two.write_text("".join(f"{n}/7 -1/{n}\n" for n in range(2, 40)))
    return [f"file:{one}", f"file:{two}"]


SCHEDULES = ["qpow:2", "qpow:3", "qpow:4", "qpow:101", "allprimes",
             "qpowpair:2", "qpowpair:5", "allprimespair"]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["build-system", "build-iab", "nat-witness"]),
       depth=st.integers(-5, 10**9),
       alpha=st.integers(-1, 4),
       schedule=st.integers(0, len(SCHEDULES) + 1))
def test_size_arguments(tables, command, depth, alpha, schedule):
    schedule = (SCHEDULES + tables)[schedule]
    argv = [command, f"--alpha={alpha}", f"--depth={depth}", f"--schedule={schedule}"]
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(Discard()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 10, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
