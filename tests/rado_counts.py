"""Print the work of `min_rado_number` on a fixed list of cases: the calls
it makes to the kernel `_search` and to the kernel's enumeration `_extend`,
counted by wrapping both from outside, and its answer, the number (or
"none" when a colouring of the whole range survives) and the witness's
length.  The counts do not change from machine to machine, so a change to
the search can quote them; tests/test_search.py pins two of them.

    PYTHONPATH=src python tests/rado_counts.py

Not collected by pytest.
"""

from __future__ import annotations

import sys
from collections import Counter

from radokit import search

# name: (integer rows, colours, nmax)
CASES = {
    "x+y=z, r=3, nmax 16": ([[1, 1, -1]], 3, 16),
    "x+y=z, r=4, nmax 42": ([[1, 1, -1]], 4, 42),
    "x1+x2+x3=x4, r=3, nmax 43": ([[1, 1, 1, -1]], 3, 43),
    "x1+x2+x3+x4=x5, r=2, nmax 22": ([[1, 1, 1, 1, -1]], 2, 22),
    "4x+2y+2z=3w, r=3, nmax 34": ([[4, 2, 2, -3]], 3, 34),
}


def counts(run, *args) -> tuple[int, int, object]:
    """The `_search` and `_extend` calls that run(*args) makes, and its
    result; a search that looks the kernel up in `search` at each call
    (the library's, or one of tests/search_reference.py) is counted."""
    calls: Counter[str] = Counter()
    saved = search._search, search._extend

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    search._search = counted("_search", search._search)
    search._extend = counted("_extend", search._extend)
    try:
        result = run(*args)
    finally:
        search._search, search._extend = saved
    return calls["_search"], calls["_extend"], result


def main() -> None:
    print(f"{'case':30} {'number':>6} {'witness':>7} {'_search':>9} {'_extend':>9}")
    for name, (rows, r, n_max) in CASES.items():
        found, walked, result = counts(search.min_rado_number_rows, rows,
                                       len(rows[0]), r, n_max)
        number = "none" if result.number is None else result.number
        print(f"{name:30} {number:>6} {len(result.witness):>7} {found:>9} {walked:>9}",
              flush=True)


if __name__ == "__main__":
    if sys.argv[1:]:
        print(f"{sys.argv[0]} takes no arguments", file=sys.stderr)
        sys.exit(2)
    main()
