"""Check S(4) + 1 = 45, the 4-colour Rado number of x + y = z, end to end:
`radokit rado-number` on x + y = z with 4 colours up to 45 must print
`rado number: 45` and a colouring of 1..44, and `radokit mono-search` must
find no monochromatic solution under that colouring.  Each command runs
under a 600 s timeout; the script prints each one's wall time and exits 0
when both checks hold, 1 otherwise.  It takes minutes, so pytest does not
collect it.

    python tests/schur_four.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT = 600


def radokit(*args: str) -> subprocess.CompletedProcess:
    """Run the radokit CLI from this checkout's src/, timing it."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from radokit.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *args],
        capture_output=True, text=True, timeout=TIMEOUT,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    print(f"{args[0]}: exit {done.returncode} in {time.perf_counter() - start:.1f} s",
          flush=True)
    return done


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        matrix, witness = Path(work, "schur.txt"), Path(work, "witness.txt")
        matrix.write_text("1 1 -1\n")
        done = radokit("rado-number", "--matrix", str(matrix), "--colours", "4",
                       "--nmax", "45")
        lines = done.stdout.splitlines()
        if (done.returncode, lines[:2]) != (0, ["rado number: 45",
                                                "witness colouring of 1..44:"]) \
                or len(lines) != 46:
            print("rado-number did not print 45 with a 44-value witness:",
                  done.stdout[:200], done.stderr[-200:])
            return 1
        witness.write_text("\n".join(lines[2:]) + "\n")
        done = radokit("mono-search", "--matrix", str(matrix), "--colouring",
                       f"file:{witness}", "--ground", "44")
        if (done.returncode, done.stdout) != (1, "no monochromatic solution\n"):
            print("the witness has a monochromatic solution:", done.stdout,
                  done.stderr[-200:])
            return 1
    print("S(4) + 1 = 45, witness re-checked")
    return 0


if __name__ == "__main__":
    if sys.argv[1:]:
        print(f"{sys.argv[0]} takes no arguments", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
