"""Spans around radokit's public functions, recorded from outside the program.

Every public module-level function of the layers below is replaced, at every
module that imported it, by a wrapper that records one span: name, start,
end, parent span and job id, plus whether the call returned a positive
result (anything but None or False).  Spans stay in memory until the run
ends.  Calls made outside a job (the benchmark's own checks) pass through
unrecorded, and uninstall() restores the original functions, so untraced
rounds run the unmodified program.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "rings", "linalg", "rado", "systems", "search")

# The text (de)serialisers are the CLI's parse and format cost: unwrapped,
# their time stays in cli.main's self time, and build-* jobs do not record
# one span per matrix entry.
TEXT_HELPERS = frozenset({"parse_rat", "format_rat", "parse_matrix",
                          "format_matrix", "parse_prime_set", "parse_schedule"})

# Public methods traced besides the module-level functions.
METHODS = (("search", "Colouring", "colour_of"),)


class Tracer:
    def __init__(self) -> None:
        package = importlib.import_module("radokit")
        modules = [package] + [importlib.import_module(f"radokit.{m}") for m in LAYERS]
        self.names: list[str] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.positive = array("b")
        # (owner, attribute, original, wrapper) for every import site
        self._sites: list[tuple[object, str, object, object]] = []
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in TEXT_HELPERS):
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    self._sites += [(m, a, fn, wrapper) for m in modules
                                    for a, v in vars(m).items() if v is fn]
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"radokit.{layer}"), cls_name)
            fn = vars(cls)[meth]
            self._sites.append((cls, meth, fn, self._wrap(f"{layer}.{meth}", fn)))

    def _wrap(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            i = len(self.name_id)
            self.name_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.job_id.append(self.job)
            self.end.append(0.0)
            self.positive.append(0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                self.positive[i] = result is not None and result is not False
                return result
            finally:
                self.end[i] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (children of one span never overlap: the program is single-threaded)."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated text, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("span\tname\tstart\tend\tparent\tjob\tpositive\n")
            for i in range(len(self.name_id)):
                f.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                        f"{self.end[i]!r}\t{self.parent[i]}\t{self.job_id[i]}\t"
                        f"{self.positive[i]}\n")


def layer_stats(tracer: Tracer, jobs_per_round: int) -> dict[int, dict[str, float]]:
    """Per traced round: calls and self seconds per layer and per function,
    and the useful-outcome ratios, keyed by round number."""
    selfs = tracer.self_times()
    names = tracer.names
    rounds: dict[int, dict[str, float]] = {}
    for i, sid in enumerate(tracer.name_id):
        stats = rounds.setdefault(tracer.job_id[i] // jobs_per_round, {})
        name = names[sid]
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            stats[f"{key}.calls"] = stats.get(f"{key}.calls", 0) + 1
            stats[f"{key}.self_s"] = stats.get(f"{key}.self_s", 0.0) + selfs[i]
        if name == "linalg.in_span":
            p = tracer.parent[i]
            if p >= 0 and names[tracer.name_id[p]] == "rado.columns_condition":
                stats["cc_in_span.calls"] = stats.get("cc_in_span.calls", 0) + 1
                stats["cc_in_span.hits"] = stats.get("cc_in_span.hits", 0) + tracer.positive[i]
        if name == "search.monochromatic_solution":
            stats["mono.found"] = stats.get("mono.found", 0) + tracer.positive[i]
    return rounds
