"""Fuzz the size arguments of the CLI: any --depth and --alpha of the system
commands, with every schedule kind, and the sizes and budgets of the
search and refute commands must end in exit 0, 1 or 2 within a time bound
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


def run(argv):
    """Run the CLI on argv and check the exit code, stderr and time."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(Discard()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 10, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["build-system", "build-iab", "nat-witness"]),
       depth=st.integers(-5, 10**9),
       alpha=st.integers(-1, 4),
       schedule=st.integers(0, len(SCHEDULES) + 1))
def test_size_arguments(tables, command, depth, alpha, schedule):
    schedule = (SCHEDULES + tables)[schedule]
    run([command, f"--alpha={alpha}", f"--depth={depth}", f"--schedule={schedule}"])


@pytest.fixture(scope="module")
def search_files(tmp_path_factory):
    """The matrices x = 2y, x + y + z = 0, x_1 + ... + x_{m-1} = x_m for
    m = 6, 7, 4x + 4y = z and 2x + 4y + 2z = w, and a colouring of 1..40."""
    folder = tmp_path_factory.mktemp("search")
    paths = {}
    for name, text in (("x=2y", "1 -2\n"), ("x+y+z=0", "1 1 1\n"),
                       ("sum-m6", "1 1 1 1 1 -1\n"), ("sum-m7", "1 1 1 1 1 1 -1\n"),
                       ("4x+4y=z", "4 4 -1\n"), ("2x+4y+2z=w", "2 4 2 -1\n"),
                       ("table", "".join(f"{n} {n % 3}\n" for n in range(1, 41)))):
        paths[name] = folder / name
        paths[name].write_text(text)
    return paths


@settings(max_examples=200, deadline=None)
@given(matrix=st.sampled_from(["x=2y", "x+y+z=0", "sum-m6", "sum-m7",
                               "4x+4y=z", "2x+4y+2z=w"]),
       colours=st.integers(-2, 10),
       nmax=st.integers(-5, 64) | st.integers(-5, 10**9))
def test_rado_number_sizes(search_files, matrix, colours, nmax):
    run(["rado-number", f"--matrix={search_files[matrix]}",
         f"--colours={colours}", f"--nmax={nmax}"])


@settings(max_examples=300, deadline=None)
@given(matrix=st.sampled_from(["x=2y", "x+y+z=0"]),
       table=st.booleans(),
       n=st.integers(-5, 10**9),
       den=st.none() | st.integers(-2, 10**9),
       budget=st.integers(-5, 10**12))
def test_mono_search_sizes(search_files, matrix, table, n, den, budget):
    colouring = f"file:{search_files['table']}" if table else "log2parity"
    ground = str(n) if den is None else f"{n},{den}"
    run(["mono-search", f"--matrix={search_files[matrix]}", f"--colouring={colouring}",
         f"--ground={ground}", f"--budget={budget}"])


@settings(max_examples=200, deadline=None)
@given(schedule=st.integers(0, len(SCHEDULES) + 1),
       primes=st.sampled_from(["", "2", "3,5", "all", "all-except:2,3"]),
       y=st.sampled_from(["1", "2,1", "1,1", "1/2"]),
       nmax=st.integers(-5, 10**9))
def test_refute_sizes(tables, schedule, primes, y, nmax):
    schedule = (SCHEDULES + tables)[schedule]
    run(["refute", f"--alpha={y.count(',') + 1}", "--depth=5", f"--schedule={schedule}",
         f"--primes={primes}", f"--y={y}", f"--nmax={nmax}"])
