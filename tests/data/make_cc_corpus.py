"""Write cc_corpus.json: matrices with the exact `radokit cc-check` output.

The committed corpus was written by the backtracking depth-first search
that `columns_condition` used before the greedy chain replaced it, so
test_cc_corpus.py holds the current code to that search's certificates
byte for byte.  The truncations come from the dense builder and the
matrix text from the formatter in the test references, one directory up.
Rerunning this script rewrites the file from whatever `columns_condition`
is installed; do that only on purpose.

    PYTHONPATH=src python tests/data/make_cc_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from linalg_reference import format_matrix  # noqa: E402
from radokit.cli import main  # noqa: E402
from radokit.linalg import RatMatrix  # noqa: E402
from radokit.systems import SystemSpec, parse_schedule  # noqa: E402
from systems_reference import dense_truncated_system  # noqa: E402

OUT = Path(__file__).with_name("cc_corpus.json")
SCALES = [Fraction(s) for s in (1, -1, 2, -2, 3, -3)] + [Fraction(1, 2), Fraction(-2, 3)]


def random_entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.2:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return Fraction(rng.randint(-3, 3))


def random_matrices(rng: random.Random, count: int) -> list[RatMatrix]:
    out = []
    for _ in range(count):
        u, v = rng.randint(1, 3), rng.randint(1, 9)
        out.append(RatMatrix.from_rows(
            [[random_entry(rng) for _ in range(v)] for _ in range(u)]))
    return out


def certified_matrix(rng: random.Random, u: int, v: int) -> RatMatrix:
    """Built block by block: the first block sums to zero and each later
    block sums to a small combination of the columns before it."""
    cols: list[list[Fraction]] = []
    while len(cols) < v:
        size = min(v - len(cols), rng.randint(1, 4 if not cols else 3))
        coeffs = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in cols]
        target = [sum((c * col[i] for c, col in zip(coeffs, cols)), Fraction(0))
                  for i in range(u)]
        block = [[random_entry(rng) for _ in range(u)] for _ in range(size - 1)]
        last = [target[i] - sum((b[i] for b in block), Fraction(0)) for i in range(u)]
        cols += block + [last]
    rng.shuffle(cols)
    return RatMatrix.from_rows([[col[i] for col in cols] for i in range(u)])


def no_certificate(rng: random.Random, family: str, v: int) -> RatMatrix:
    """positive-row: one row strictly positive, so no block sums to zero.
    pinned-pair: rows (1, -1, a...) and (0, 0, b...) with a >= 2, b >= 1,
    so {1, 2} is the only zero-sum block and nothing extends it."""
    if family == "positive-row":
        rows = [[rng.randint(1, 3) for _ in range(v)],
                [rng.randint(-3, 3) for _ in range(v)]]
        rng.shuffle(rows)
    else:
        cols = [(1, 0), (-1, 0)] + [(rng.randint(2, 3), rng.randint(1, 3))
                                    for _ in range(v - 2)]
        rng.shuffle(cols)
        rows = [[c[0] for c in cols], [c[1] for c in cols]]
    return RatMatrix.from_rows(rows)


def row_scaled(rng: random.Random, M: RatMatrix) -> RatMatrix:
    scales = [rng.choice(SCALES) for _ in range(M.rows)]
    return RatMatrix.from_rows([c * x for x in M.row(i)] for i, c in enumerate(scales))


def cc_check(M: RatMatrix, work: Path) -> tuple[int, str]:
    path = work / "m.txt"
    path.write_text(format_matrix(M) + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["cc-check", "--matrix", str(path)])
    return rc, out.getvalue()


def corpus() -> list[tuple[str, RatMatrix]]:
    rng = random.Random(20261017)
    cases = [("random", M) for M in random_matrices(rng, 400)]
    for _ in range(120):
        cases.append(("certified", certified_matrix(
            rng, rng.randint(1, 3), rng.randint(2, 12))))
    for family in ("positive-row", "pinned-pair"):
        for v in range(3, 15):
            for _ in range(2):
                cases.append((family, row_scaled(rng, no_certificate(rng, family, v))))
    for schedule in ("qpow:2", "qpow:3", "qpowpair:2", "allprimes", "allprimespair"):
        alpha = parse_schedule(schedule).arity
        for depth in range(2, 6):
            spec = SystemSpec(alpha, depth, parse_schedule(schedule))
            M = RatMatrix.from_rows(dense_truncated_system(spec))
            cases.append((f"{schedule} depth {depth}", row_scaled(rng, M)))
    return cases


def write() -> None:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for family, M in corpus():
            rc, stdout = cc_check(M, Path(tmp))
            entries.append({"family": family, "matrix": format_matrix(M),
                            "exit": rc, "stdout": stdout})
    OUT.write_text(json.dumps(entries, indent=0) + "\n")
    certified = sum(e["exit"] == 0 for e in entries)
    print(f"{len(entries)} matrices, {certified} certified -> {OUT}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] in (["-h"], ["--help"]):
        print(__doc__)
    elif sys.argv[1:]:
        print(f"usage: {Path(sys.argv[0]).name} takes no arguments "
              "(-h prints its description)", file=sys.stderr)
        sys.exit(2)
    else:
        write()
