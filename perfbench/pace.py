"""Job times at reference speed, on a host whose speed drifts.

On a shared virtual machine the same Python code runs up to 1.8x slower for
tens of seconds at a time, and process CPU time drifts with wall time, so
neither tells the program's cost apart from the host's load.  This module
times a fixed kernel of pure-Python exact arithmetic -- nothing of radokit --
before, during and after every job, and scales the job's wall time by
REF_PACE_S / (the kernel's mean time over the job).  A drift that slows the
kernel and the program alike cancels; a change to the program does not.

During a job an interval timer samples the kernel every SAMPLE_EVERY_S
seconds from a signal handler.  The handler's own time is taken out of the
job's wall time.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from fractions import Fraction

# The kernel's time (best of three) on the 2-vCPU machine the benchmark was
# built on, in its faster phases.  It only sets the scale of the seconds
# reported.
REF_PACE_S = 0.0007
SAMPLE_EVERY_S = 0.05


def _kernel() -> int:
    """Fixed work in the style of the program: Fraction sums, a growing int,
    dict stores."""
    acc, n, seen = Fraction(0), 1, {}
    for i in range(1, 250):
        acc += Fraction(i % 7 - 3, i % 31 + 1)
        n = n * 7 + i
        seen[i % 64] = n & 0xFFFF
    return acc.numerator + n % 97 + len(seen)


def pace() -> float:
    """The kernel's time now: the best of three runs, which drops a run that
    was preempted.  The collector is off meanwhile, so the program's live
    objects never cost the kernel anything."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class JobClock:
    """Times one stretch of work at a time:

        clock = JobClock()
        with clock:
            work()
        clock.wall, clock.seconds   # wall time, and at reference speed

    The pace taken when one stretch ends is reused as the next one's start.
    With sample=False no timer runs (for traced rounds, whose spans would
    otherwise count the handler's time)."""

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.last_pace = pace()
        self.wall = self.seconds = 0.0
        self._paces: list[float] = []
        self._handler_spans: list[tuple[float, float]] = []

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._paces.append(pace())
        self._handler_spans.append((start, time.perf_counter()))

    def __enter__(self) -> JobClock:
        self._paces = [self.last_pace]
        self._handler_spans = []
        if self.sample:
            self._old = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        # A handler that ran after t1 (a signal already pending) is outside
        # the stretch; clip each handler span to [t0, t1].
        in_handler = sum(max(0.0, min(b, t1) - max(a, self._t0)) for a, b in self._handler_spans)
        self.wall = t1 - self._t0 - in_handler
        self.last_pace = pace()
        self._paces.append(self.last_pace)
        self.seconds = self.wall * REF_PACE_S / (sum(self._paces) / len(self._paces))
