"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py            # all tests, about four minutes
    python3 perfbench/selftest.py -k oracle  # a subset, by unittest -k

The file name keeps pytest from collecting it into the repository suite.
"""

from __future__ import annotations

import io
import contextlib
import json
import random
import shutil
import signal
import subprocess
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles as O  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from radokit import cli  # noqa: E402
from radokit.rings import parse_prime_set  # noqa: E402
from radokit.systems import SystemSpec, parse_schedule, refute_over_subring  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class TracedCountsRepeat(unittest.TestCase):
    def test_two_traced_runs_agree(self) -> None:
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                results = []
                for _ in range(2):
                    proc = run_bench("--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", "1")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(result["failed"], 0, proc.stdout)
                    results.append({k: v["value"] for k, v in result["metrics"].items()
                                    if k.endswith(".calls") or k == "rado.in_span_hit_ratio"})
                self.assertEqual(results[0], results[1])
                self.assertGreater(results[0]["cli.calls"], 0)


class ChecksRejectWrongOutput(unittest.TestCase):
    def test_every_workload(self) -> None:
        for workload in workloads.WORKLOADS:
            work = SCRATCH / workload
            try:
                for job in workloads.generate(workload, 3, work):
                    with self.subTest(workload=workload, argv=job.argv):
                        buf = io.StringIO()
                        with contextlib.redirect_stdout(buf):
                            rc = cli.main(job.argv)
                        out = buf.getvalue()
                        if job.after is not None:
                            job.after(out)
                        self.assertIsNone(job.check(rc, out))
                        self.assertIsNotNone(job.check(rc + 1, out))
                        if "--out" in job.argv:  # the answer is in the file
                            written = Path(job.argv[job.argv.index("--out") + 1])
                            text = written.read_text()
                            written.write_text(_corrupt(text))
                            self.assertFalse(self._passes(job, rc, out))
                            written.write_text(text)
                        else:
                            self.assertFalse(self._passes(job, rc, _corrupt(out)))
            finally:
                shutil.rmtree(work, ignore_errors=True)

    @staticmethod
    def _passes(job: workloads.Job, rc: int, out: str) -> bool:
        try:
            return job.check(rc, out) is None
        except (ValueError, IndexError, ZeroDivisionError):
            return False


def _corrupt(out: str) -> str:
    """Drop the last line of the output."""
    return "".join(out.splitlines(keepends=True)[:-1])


class ValuationOracle(unittest.TestCase):
    def test_matches_the_scan(self) -> None:
        rng = random.Random(0)
        for _ in range(300):
            schedule = rng.choice(("qpow:2", "qpow:3", "qpowpair:5", "allprimes", "allprimespair"))
            primes = frozenset(rng.sample((2, 3, 5, 7, 11), rng.randint(0, 3)))
            den = 1
            for p in primes:
                den *= p ** rng.randint(0, 2)
            y = [Fraction(rng.randint(-60, 60), den) for _ in O.schedule_parts(schedule)[0]]
            spec = SystemSpec(len(y), 3, parse_schedule(schedule))
            prime_set = parse_prime_set(",".join(map(str, sorted(primes))))
            self.assertEqual(O.first_obstruction(schedule, primes, y, 25),
                             refute_over_subring(spec, prime_set, tuple(y), 25),
                             (schedule, primes, y))


class PaceClock(unittest.TestCase):
    def test_samples_during_a_stretch_and_leaves_the_handler_out(self) -> None:
        before = signal.getsignal(signal.SIGALRM)
        clock = pace.JobClock()
        with clock:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(clock._paces), 2 + 4)  # both ends and the timer
        self.assertLess(clock.wall, 0.3)  # the handler ran inside those 0.3 s
        self.assertGreater(clock.wall, 0.2)
        self.assertAlmostEqual(clock.seconds, clock.wall * pace.REF_PACE_S
                               / (sum(clock._paces) / len(clock._paces)))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_no_timer_when_not_sampling(self) -> None:
        clock = pace.JobClock(sample=False)
        with clock:
            time.sleep(0.12)
        self.assertEqual(len(clock._paces), 2)


class MissingProgram(unittest.TestCase):
    def test_fails_without_sources(self) -> None:
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--workload", "cc-refuse", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
