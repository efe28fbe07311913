"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-dense --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded around the
program's public methods and prints the per-layer metrics instead, writing
the spans to ``.perfbench_out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it carry the run's details: inputs digest, host, per-phase ledger,
sample counts and every output check.

The module is importable without side effects: ``spawn`` worker processes
of the pool phase re-import it.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_info() -> dict:
    import numpy
    import scipy

    sha = ""
    if (ROOT / ".git").exists():  # a checkout without it may sit inside another repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unknown (not a git checkout)",
    }


def reap_children() -> None:
    """Stop every child process still running, and wait for each to end.

    The pool's ``spawn`` workers start multiprocessing's resource tracker
    as a child of this process; left alone it outlives this process until
    it notices the exit.  ``main`` registers this with ``atexit`` before
    ``multiprocessing`` is imported, so it runs after multiprocessing's own
    exit handler has released the pool's semaphores and joined its workers.
    What is left then is the tracker, which ends when its pipe closes, and,
    on a terminated run, a worker whose spawn the signal cut short.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    with contextlib.suppress(ChildProcessError):
        if tracker is not None:
            tracker._resource_tracker._stop()  # closes the pipe and waits; no public way exists
    for listing in Path("/proc/self/task").glob("*/children"):
        for pid in map(int, listing.read_text().split()):
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def declared_metrics(key: str) -> list:
    """``(name, unit)`` pairs declared in BENCHMARK.json under ``key``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in declared[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {source}; run from a full checkout", file=sys.stderr)
        return 2
    atexit.register(reap_children)
    sys.path[:0] = [str(source), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # A terminated run unwinds like a failed one, so the pool's workers and
    # the resource tracker are stopped on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, recorder = workloads.run(args.workload, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if recorder is not None:
        recorder.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    declared = declared_metrics("per_layer" if trace else "end_to_end")
    measured = result.layers if trace else result.metrics
    metrics, samples = {}, {}
    for name, unit in declared:
        if not trace and name not in measured:
            raise SystemExit(f"end-to-end metric {name} was not measured")
        # A layer the workload does not run reports 0 with no samples.
        value, measured_unit, count = measured.get(name, (0.0, unit, 0))
        if measured_unit != unit:
            raise SystemExit(f"metric {name}: measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = count
    correct = all(result.checks.values())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "phases": result.phases,
        "samples": samples,
        "checks": result.checks,
        **result.detail,
    }
    print(json.dumps({"detail": detail}, default=float))
    for name in metrics:
        print(f"  {name:34s} {metrics[name]['value']:14.6f} {metrics[name]['unit']:9s} n={samples[name]}")
    print(
        json.dumps(
            {"correct": correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
