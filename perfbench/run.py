"""radokit benchmark: one workload, one closed-loop client, in-process CLI jobs.

    python3 perfbench/run.py --workload cc-certify --seed 1 --seconds 20 --trace 0

Each job is one call to radokit.cli.main(argv) with stdout captured; the next
job starts when the previous one returns.  The workload's job list (a round)
repeats until --seconds have passed, at least three times.  Every job's
output is checked, untimed, against a reference computed by the benchmark.

Times are reported at reference speed (see pace.py): a fixed kernel is
timed before, during and after every job, and the job's wall time is scaled
by the kernel's reference time over its time then.  On a shared host the
same code drifts by up to 1.8x over tens of seconds; the scaling takes most
of that drift out and leaves the program's own cost.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans as tr  # noqa: E402
from pace import REF_PACE_S, JobClock  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
SETUP_REPEATS = 11
# The child paces itself only after the import: importing pace first would
# import fractions, which is part of radokit's import cost.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                "import radokit; t = time.perf_counter() - t; "
                "from pace import REF_PACE_S, pace; print(t * REF_PACE_S / pace())")


def import_seconds() -> float:
    """`import radokit` in a fresh interpreter, as a CLI user pays it, at
    reference speed."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)], check=True,
                         capture_output=True, text=True, timeout=60, cwd=ROOT)
    return float(out.stdout)


def setup(workload: str, seed: int, work: Path) -> tuple[list[workloads.Job], float]:
    """Generate the inputs SETUP_REPEATS times; set-up time is the median of
    (fresh-interpreter import + input generation and file writing), each
    at reference speed."""
    import_seconds()  # compiles bytecode once, as an installed package has it
    samples = []
    clock = JobClock(sample=False)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t_import = import_seconds()
        with clock:
            jobs = workloads.generate(workload, seed, work)
        samples.append(t_import + clock.seconds)
    return jobs, statistics.median(samples)


def inputs_digest(jobs: list[workloads.Job], work: Path) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update("\0".join(job.argv).replace(str(work), "$WORK").encode() + b"\n")
    for path in sorted(work.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_stamp() -> dict[str, str | None]:
    """A hash of the program's sources, and the git commit when the checkout
    has a .git directory with a loose ref for HEAD."""
    h = hashlib.sha256()
    for path in sorted((SRC / "radokit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            commit = ref  # detached HEAD
        elif (ref_file := ROOT / ".git" / ref[5:]).is_file():
            commit = ref_file.read_text().strip()
    return {"src_sha256": h.hexdigest(), "git_commit": commit}


class Runner:
    """Runs rounds of jobs and keeps per-job latencies (at reference speed,
    and as wall time) and failures.  A job with repeat > 1 runs that many
    times in a row in each round, each run one sample."""

    def __init__(self, jobs: list[workloads.Job]) -> None:
        from radokit import cli
        self.cli = cli
        self.jobs = jobs
        self.latency: list[list[list[float]]] = []  # [round][job][repeat], at reference speed
        self.wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct_seconds = 0.0
        self.failures: list[str] = []

    def round(self, tracer: tr.Tracer | None = None) -> float:
        """One pass over the jobs; returns the seconds spent inside jobs, at
        reference speed."""
        clock = JobClock(sample=tracer is None)
        base = len(self.latency) * len(self.jobs)
        times = []
        for k, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = base + k
            times.append([self.run(job, clock) for _ in range(job.repeat)])
            if tracer is not None:
                tracer.job = None
        gc.unfreeze()
        gc.collect()
        self.latency.append(times)
        return sum(map(sum, times))

    def run(self, job: workloads.Job, clock: JobClock) -> float:
        """One run of one job, checked; returns its time at reference speed."""
        # Each job starts, as a fresh CLI process would, with no garbage and
        # no old objects for the collector to walk: the benchmark's own heap
        # is frozen out of collections while the job runs.
        gc.collect()
        gc.freeze()
        out, err = io.StringIO(), io.StringIO()
        try:
            with clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(job.argv)
        except SystemExit as exc:  # argparse rejecting the argv
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        self.wall.append(clock.wall)
        self.attempted += 1
        why = f"exception: {err.getvalue()[-300:]}" if rc is None else None
        if why is None:
            try:
                why = job.check(rc, out.getvalue())
                if job.after is not None:
                    job.after(out.getvalue())
            except Exception as exc:  # malformed output is a wrong answer
                why = f"unreadable output ({exc!r})"
        if why is None:
            self.correct_seconds += clock.seconds
        else:
            self.failed += 1
            self.failures.append(f"{' '.join(job.argv)}: {why}")
        return clock.seconds


TAIL_BEYOND = 10


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Latencies are taken per job first: each job's median over all its
    runs.  A percentile of the pooled latencies would sit on the boundary
    between two jobs' samples and jump between their costs from run to run."""
    n = len(runner.jobs)
    per_job = sorted(statistics.median(t for r in runner.latency for t in r[k]) for k in range(n))
    tail_rank = n - TAIL_BEYOND  # 1-based: TAIL_BEYOND jobs are slower
    correct = runner.attempted - runner.failed
    wall = sum(runner.wall)
    scaled = sum(t for r in runner.latency for ts in r for t in ts)
    metrics = {
        "jobs_per_s": (correct / runner.correct_seconds if runner.correct_seconds else 0.0, "1/s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (per_job[tail_rank - 1], "s"),
        "job_max_s": (per_job[-1], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"closed loop, 1 client, {n} jobs per round ({sum(j.repeat for j in runner.jobs)} runs), "
        f"{len(runner.latency)} rounds",
        "job latencies are each job's median over its runs; job_p50_s is their median",
        f"job_tail_s is p{100 * (tail_rank - 0.5) / n:.1f} of the {n} job latencies "
        f"(rank {tail_rank}, {TAIL_BEYOND} jobs beyond it); job_max_s is the slowest",
        f"times at reference speed (pace kernel {REF_PACE_S} s); in wall time the jobs "
        f"took {wall!r} s, {wall / scaled!r} times as long",
        f"failed_frac {runner.failed / runner.attempted!r} ratio "
        f"({runner.failed} of {runner.attempted} jobs)",
    ]
    return metrics, notes


PER_LAYER = [f"{layer}.{kind}" for layer in tr.LAYERS for kind in ("calls", "self_s")] + [
    "linalg.in_span.calls", "linalg.in_span.self_s", "linalg.rref.calls", "linalg.rref.self_s",
    "rado.columns_condition.self_s",
    "search.min_rado_number.self_s", "search.monochromatic_solution.self_s",
    "search.colour_of.calls",
    "systems.schedule_value.calls", "systems.refute_over_subring.self_s",
    "systems.build_stacked_matrix.self_s",
    "rings.is_prime.calls", "rings.is_prime.self_s", "rings.in_subring.calls",
    "rings.in_subring.self_s",
    "cli.main.self_s",
]


def per_layer(stats: dict[int, dict[str, float]], untraced: list[float],
              traced: list[float]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Counts from one traced round (they repeat exactly); self times as the
    median over traced rounds; ratios with their base."""
    rounds = [stats[r] for r in sorted(stats)]
    first = rounds[0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            metrics[name] = (first.get(name, 0), "count")
        else:
            metrics[name] = (statistics.median(r.get(name, 0.0) for r in rounds), "s")
    hits, tries = first.get("cc_in_span.hits", 0), first.get("cc_in_span.calls", 0)
    found, searches = first.get("mono.found", 0), first.get("search.monochromatic_solution.calls", 0)
    metrics["rado.in_span_hit_ratio"] = (hits / tries if tries else 0.0, "ratio")
    metrics["search.monochromatic_solution.found_ratio"] = (found / searches if searches else 0.0, "ratio")
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")

    def counts(r: dict[str, float]) -> dict[str, float]:
        return {k: v for k, v in r.items() if not k.endswith("self_s")}

    calls_repeat = all(counts(r) == counts(first) for r in rounds)
    notes = [
        f"per round; {len(rounds)} traced and {len(untraced)} untraced rounds after a warm-up round",
        f"rado.in_span_hit_ratio {hits}/{tries}; "
        f"search.monochromatic_solution.found_ratio {found}/{searches}",
        f"call counts identical across traced rounds: {calls_repeat}",
        "no layer waits on another: one process, one thread, no queues",
    ]
    return metrics, notes


def measure(runner: Runner, seconds: float, tracer: tr.Tracer | None) -> tuple[list[float], list[float]]:
    """Rounds until `seconds` have passed (and at least MIN_ROUNDS).  With a
    tracer, round 0 warms up untraced, then traced and untraced rounds
    alternate.  Returns the (untraced, traced) in-job seconds per round,
    warm-up excluded when tracing."""
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:
        n = len(runner.latency)
        if tracer is not None and n % 2 == 1:
            tracer.install()
            try:
                traced.append(runner.round(tracer))
            finally:
                tracer.uninstall()
        else:
            took = runner.round()
            if tracer is None or n > 0:
                untraced.append(took)
        elapsed = time.perf_counter() - start
        n += 1
        if n >= MIN_ROUNDS and elapsed + elapsed / n / 2 >= seconds:
            return untraced, traced


def report(metrics: dict[str, tuple[float, str]], notes: list[str], runner: Runner,
           stamp: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for note in notes:
        print(f"# {note}")
    for failure in runner.failures[:10]:
        print(f"# FAILED {failure}")
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "radokit" / "cli.py").is_file():
        print(f"error: no radokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    try:
        jobs, setup_s = setup(args.workload, args.seed, work)
        stamp = {"workload": args.workload, "seed": args.seed,
                 "inputs_sha256": inputs_digest(jobs, work),
                 "python": platform.python_version(),
                 "nproc": len(os.sched_getaffinity(0)), **source_stamp()}
        runner = Runner(jobs)
        if args.trace:
            tracer = tr.Tracer()
            untraced, traced = measure(runner, args.seconds, tracer)
            stats = tr.layer_stats(tracer, len(jobs))
            metrics, notes = per_layer(stats, untraced, traced)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write(spans)
            notes.append(f"{len(tracer.name_id)} spans written to {spans.relative_to(ROOT)}")
        else:
            measure(runner, args.seconds, None)
            metrics, notes = end_to_end(runner, setup_s)
        report(metrics, notes, runner, stamp)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.rmdir()  # left in place when it holds span files
    return 0


if __name__ == "__main__":
    sys.exit(main())
