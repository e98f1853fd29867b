"""kgstab benchmark: end-to-end metrics, or per-layer metrics from a trace.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Run from a source checkout: kgstab is imported from ``src`` beside this
directory, never from an installed copy.  ``--trace 0`` times passes over
the workload's job list with nothing wrapped and reports the end-to-end
metrics.  ``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics; the spans and counts of every traced pass are written to
``.bench_trace/<workload>-seed<seed>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3          # untraced passes in a --trace 0 run
MIN_TRACE_PASSES = 2    # of each kind in a --trace 1 run

END_TO_END = {"setup_s": "s", "wall_s": "s", "pass_ratio": "ratio",
              "peak_rss_mib": "MiB"}


def cap_threads(environ) -> int:
    """Cap the BLAS/OpenMP pools at the CPUs this process may use.

    KGSTAB_THREADS is removed, so the sweep's pool takes the default size
    a user gets.  Returns that CPU count.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(environ.get(var, nproc))
        except ValueError:
            want = nproc
        environ[var] = str(max(1, min(want, nproc)))
    environ.pop("KGSTAB_THREADS", None)
    return nproc


def setup_seconds() -> float:
    """Median over fresh interpreters of importing kgstab and warming up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Run:
    """Passes over one job list, with every job's outcome checked."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}

    def timed_pass(self):
        """Run every job once, in order; returns (seconds, outcomes).

        Collects the previous pass's garbage first, so every pass starts
        from the same heap.
        """
        gc.collect()
        outcomes = []
        for job in self.jobs:
            result = error = None
            start = time.perf_counter()
            try:
                result = job.call()
            except Exception:  # a crashing job is a failed job, not a crash
                error = traceback.format_exc()
            outcomes.append((job, result, error, time.perf_counter() - start))
        return sum(o[-1] for o in outcomes), outcomes

    def check(self, outcomes) -> None:
        """Check each outcome; outside every timed region."""
        from workloads import CheckFailed

        for job, result, error, _ in outcomes:
            self.attempted += 1
            if error is None:
                try:
                    digest = job.check(result)
                except CheckFailed as exc:
                    error = f"check failed: {exc}"
                else:
                    first = self.digests.setdefault(job.name, digest)
                    if first != digest:
                        error = "output differs from the first pass"
            if error is not None:
                self.failed += 1
                print(f"job {job.name} failed: {error}", file=sys.stderr)


def _keep_going(start: float, last_cycle: float, seconds: float) -> bool:
    return time.perf_counter() - start + last_cycle <= seconds


def measure(run: Run, seconds: float) -> dict:
    """Untraced passes for ``seconds``; the end-to-end metrics but setup."""
    times = []
    peak_rss_mib = None
    start = time.perf_counter()
    last_cycle = 0.0
    while len(times) < MIN_PASSES or _keep_going(start, last_cycle, seconds):
        cycle = time.perf_counter()
        wall, outcomes = run.timed_pass()
        times.append(wall)
        if peak_rss_mib is None:
            # before the first check imports the checks' own libraries
            peak_rss_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.check(outcomes)
        last_cycle = time.perf_counter() - cycle
    print(f"passes: {len(times)}, wall_s: {times}", file=sys.stderr)
    return {"wall_s": statistics.median(times),
            "pass_ratio": (run.attempted - run.failed) / run.attempted,
            "peak_rss_mib": peak_rss_mib}


def measure_traced(run: Run, seconds: float, trace_path: Path):
    """Alternate plain and traced passes.

    Returns the per-layer metrics and whether every count repeated exactly
    on every traced pass.
    """
    import layers
    from tracer import Tracer

    plain, traced, per_pass, dumps = [], [], [], []
    start = time.perf_counter()
    last_cycle = 0.0
    while (len(plain) < MIN_TRACE_PASSES or len(traced) < MIN_TRACE_PASSES
           or _keep_going(start, last_cycle, seconds)):
        cycle = time.perf_counter()
        if len(plain) <= len(traced):
            wall, outcomes = run.timed_pass()
            plain.append(wall)
        else:
            tracer = Tracer()
            with tracer.installed(layers.make_targets(tracer), layers.PACKAGE):
                wall, outcomes = run.timed_pass()
            traced.append(wall)
            per_pass.append(layers.layer_metrics(tracer))
            dumps.append(_dump(tracer, wall))
        run.check(outcomes)
        last_cycle = time.perf_counter() - cycle
    print(f"plain: {plain}, traced: {traced}", file=sys.stderr)

    metrics = {"trace.overhead_ratio":
               statistics.median(traced) / statistics.median(plain) - 1.0}
    repeated = True
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if not layers.repeats_exactly(name):
            metrics[name] = statistics.median(values)
            continue
        metrics[name] = values[0]
        if any(v != values[0] for v in values):
            print(f"run.py: {name} differs between traced passes: {values}",
                  file=sys.stderr)
            repeated = False
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps({"passes": dumps, "metrics": metrics}))
    return metrics, repeated


def _dump(tracer, wall: float) -> dict:
    index = {id(span): i for i, span in enumerate(tracer.spans)}
    threads = {}
    spans = [[span.name,
              index[id(span.parent)] if span.parent is not None else None,
              span.start, span.end,
              threads.setdefault(span.thread, len(threads)),
              span.counted_s, span.attrs]
             for span in tracer.spans]
    return {"wall_s": wall,
            "span_fields": ["name", "parent", "start", "end", "thread",
                            "counted_s", "attrs"],
            "spans": spans, "counts": dict(tracer.counts),
            "counted_s": {str(k): v for k, v in tracer.counted_s.items()}}


def environment(nproc: int, kgstab) -> dict:
    return {"nproc": nproc,
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "using_numba": bool(getattr(kgstab, "USING_NUMBA", False)),
            "thread_cap": {var: os.environ[var] for var in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads(os.environ)  # before numpy is imported
    if not (SRC / "kgstab" / "__init__.py").is_file():
        print(f"run.py: no kgstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kgstab

    if Path(kgstab.__file__).resolve().parent != SRC / "kgstab":
        print(f"run.py: imported kgstab from {kgstab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from setup_probe import warm_up
    from workloads import WORKLOADS, make_jobs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {WORKLOADS}")
    print("env: " + json.dumps(environment(nproc, kgstab)))

    warm_up(kgstab)
    run = Run(make_jobs(args.workload, args.seed))
    correct = True
    if args.trace:
        from layers import METRICS as units

        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        values, correct = measure_traced(run, args.seconds, path)
    else:
        values = {"setup_s": setup_seconds(), **measure(run, args.seconds)}
        units = END_TO_END
    result = {
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
