"""The CLI's `file:` colouring reader as it was before it read each line's
value and colour in one pass, kept verbatim as the reference that
tests/test_colouring_reader_differential.py compares the current reader
against.  It feeds the value tokens through parse_rats from a nested
generator, which checks each line's colour after parse_rats has read the
line's value, so errors come in text order.  Not collected by pytest.
"""

from __future__ import annotations

from collections.abc import Iterator

from radokit.linalg import _read_text
from radokit.rings import _parse_int, parse_rats
from radokit.search import Colouring


def _parse_colouring(spec: str) -> Colouring:
    if spec == "log2parity":
        return Colouring("log2parity")
    if spec.startswith("file:"):
        colours: list[int] = []

        def values() -> Iterator[str]:
            """The value tokens; parse_rats reads each before its line's
            colour is checked, so errors come in text order."""
            for line in _read_text(spec[len("file:"):]).splitlines():
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split()
                if len(parts) != 2:
                    raise ValueError(f"expected 'value colour', got {stripped!r}")
                yield parts[0]
                try:
                    # a colour is an integer token without a sign
                    if parts[1].startswith("-"):
                        raise ValueError
                    colours.append(_parse_int(parts[1]))
                except ValueError:  # or past the text-to-int digit limit
                    raise ValueError(
                        f"expected 'value colour', got {stripped!r}") from None

        return Colouring.table(parse_rats(values()), colours)
    raise ValueError(f"unknown colouring: {spec!r}")
