"""Compare ``perfbench/run.py`` runs of a parent commit and a change, pair by pair.

Each input file holds the standard output of one or more runs of
``python3 perfbench/run.py --workload W --seed S ...``.  A run is its
``{"detail": ...}`` line, which names the workload and seed, followed by
its result line ``{"correct", "attempted", "failed", "metrics"}``.  Runs
of the two sides pair up by ``(workload, seed)``; a seed run on one side
only is left out.  The detail line's ``inputs_digest`` hashes the arrays
the run was fed: a pair whose two digests differ (say, one side ran with
another ``--seconds``) did not run the same inputs, and fails the
comparison.  A run without a digest counts as unknown and pairs as usual.

For each workload and each end-to-end metric declared in
``BENCHMARK.json`` the report gives both medians and quartiles, the
change's median against the parent's, the parent's quartile spread, the
pairs the change won and a verdict:

* ``gain`` — the change wins at least nine tenths of at least ten pairs
  (ties count for neither side) and its median beats the parent's by more
  than the parent's quartile spread;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's own quartile spread exceeds the bound,
  so a worsening within it could not be told apart, unless every change
  run reads better than every parent run;
* ``within bound`` — otherwise.

Spreads and differences are fractions of the parent's median, like the
bounds.  Each workload's line also counts failed operations against the
attempted ones and the runs whose output checks failed.  Every run with
failed operations then gets a ``FAILED`` line naming its side and seed:
its stream failures by phase and kind (shed, deadline, error, or not run
at all), from the detail line's ``phases`` ledger (and the traced pool
phase's, prefixed ``pool.``), and the rest of ``failed`` (publishes and
training operations).  A run without a ledger reports its stream failures
as unknown.

Usage::

    python benchmarks/compare_pairs.py --parent parent/*.txt --change change/*.txt

The exit status is 1 when the comparison fails (a ``regression`` verdict,
an incorrect change run, a larger failed share on the change side, or a
pair whose inputs digests differ), 2
when no ``(workload, seed)`` pair was run on both sides, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A gain needs this share of the pairs won, over at least MIN_PAIRS pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


@dataclass
class Run:
    """One benchmark run: its checks, its operation counts and its metrics."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    inputs_digest: Optional[str] = None
    #: Request outcome counts by stream phase (``{phase: {"sent", "ok",
    #: "shed", ...}}``), or None when the detail line carries no ledger.
    phases: Optional[Dict[str, Dict[str, int]]] = None


@dataclass
class MetricRow:
    name: str
    parent: Tuple[float, float, float]  # q1, median, q3
    change: Tuple[float, float, float]
    difference: float  # (change - parent) / parent median, signed
    spread: float  # parent (q3 - q1) / parent median
    wins: int
    pairs: int
    bound: float
    verdict: str


@dataclass
class WorkloadReport:
    workload: str
    pairs: int
    failed: Tuple[int, int]  # parent, change
    attempted: Tuple[int, int]
    incorrect: Tuple[int, int]
    rows: List[MetricRow] = field(default_factory=list)
    #: ``(seed, parent digest, change digest)`` of each pair whose inputs differ.
    inputs_differ: List[Tuple[int, str, str]] = field(default_factory=list)
    #: ``(side, seed, where the failures were)`` of each run with failed operations.
    failures: List[Tuple[str, int, str]] = field(default_factory=list)

    @property
    def failed_comparison(self) -> bool:
        """A regression verdict, an incorrect change run, a risen failed share or unequal inputs."""
        regressed = any(row.verdict == "regression" for row in self.rows)
        unequal_inputs = bool(self.inputs_differ)
        return regressed or self.incorrect[1] > 0 or self.failure_share_rose or unequal_inputs

    @property
    def failure_share_rose(self) -> bool:
        """Whether the change fails a larger share of attempted operations."""
        parent = self.failed[0] / max(self.attempted[0], 1)
        return self.failed[1] / max(self.attempted[1], 1) > parent


def _ledger(detail: dict) -> Optional[Dict[str, Dict[str, int]]]:
    """The detail line's phase ledger, with a traced pool phase's as ``pool.<phase>``."""
    phases = detail.get("phases")
    if phases is None:
        return None
    pool = (detail.get("pool") or {}).get("phases") or {}
    return {**phases, **{f"pool.{phase}": row for phase, row in pool.items()}}


def describe_failures(run: Run) -> str:
    """Where a run's failed operations were: stream phase and kind, then the rest.

    A phase's failures are its ``sent`` requests that are not ``ok``, named
    by the row's other outcome columns; a request in none of them never ran.
    """
    if run.phases is None:
        return f"{run.failed} failed; stream failures unknown (no phases ledger)"
    parts = []
    stream = 0
    for phase, row in run.phases.items():
        failed = row["sent"] - row["ok"]
        stream += failed
        kinds = {kind: count for kind, count in row.items() if kind not in ("sent", "ok")}
        kinds["not run"] = failed - sum(kinds.values())
        parts += [f"{phase} {kind} {count}" for kind, count in kinds.items() if count]
    parts.append(f"publishes and training {run.failed - stream}")
    return f"{run.failed} failed: " + ", ".join(parts)


def parse_runs(lines: Iterable[str]) -> Dict[Tuple[str, int], Run]:
    """``{(workload, seed): Run}`` from the output lines of ``perfbench/run.py``."""
    runs: Dict[Tuple[str, int], Run] = {}
    key: Optional[Tuple[str, int]] = None
    digest: Optional[str] = None
    phases: Optional[Dict[str, Dict[str, int]]] = None
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "detail" in record:
            key = (str(record["detail"]["workload"]), int(record["detail"]["seed"]))
            digest = record["detail"].get("inputs_digest")
            phases = _ledger(record["detail"])
        elif "correct" in record:
            if key is None:
                raise ValueError("a result line precedes any detail line")
            if key in runs:
                raise ValueError(f"workload {key[0]} seed {key[1]} appears twice on one side")
            runs[key] = Run(
                correct=bool(record["correct"]),
                attempted=int(record["attempted"]),
                failed=int(record["failed"]),
                metrics={name: float(m["value"]) for name, m in record["metrics"].items()},
                inputs_digest=digest,
                phases=phases,
            )
            key = None
    return runs


def read_runs(paths: Sequence[Path]) -> Dict[Tuple[str, int], Run]:
    """The runs in a set of output files, one side of the comparison."""
    return parse_runs(line for path in paths for line in Path(path).read_text().splitlines())


def _relative(value: float, base: float) -> float:
    if base == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return value / abs(base)


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, int, float, float]:
    """``(verdict, wins, signed difference, parent spread)`` of paired values."""
    sign = 1.0 if better == "lower" else -1.0
    parent_q1, parent_median, parent_q3 = np.percentile(parent, [25, 50, 75])
    difference = _relative(float(np.median(change)) - parent_median, parent_median)
    spread = _relative(parent_q3 - parent_q1, parent_median)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    worse_by = sign * difference
    pairs = len(parent)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and -worse_by > spread:
        return "gain", wins, difference, spread
    if worse_by > bound:
        return "regression", wins, difference, spread
    every_change_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not every_change_run_better:
        return "unresolved", wins, difference, spread
    return "within bound", wins, difference, spread


def compare(
    parent_runs: Dict[Tuple[str, int], Run],
    change_runs: Dict[Tuple[str, int], Run],
    end_to_end: Sequence[dict],
) -> List[WorkloadReport]:
    """One report per workload over the ``(workload, seed)`` keys both sides ran."""
    reports = []
    workloads = sorted({key[0] for key in parent_runs.keys() & change_runs.keys()})
    for workload in workloads:
        keys = sorted(k for k in parent_runs.keys() & change_runs.keys() if k[0] == workload)
        parent = [parent_runs[k] for k in keys]
        change = [change_runs[k] for k in keys]
        report = WorkloadReport(
            workload=workload,
            pairs=len(keys),
            failed=(sum(r.failed for r in parent), sum(r.failed for r in change)),
            attempted=(sum(r.attempted for r in parent), sum(r.attempted for r in change)),
            incorrect=(sum(not r.correct for r in parent), sum(not r.correct for r in change)),
            inputs_differ=[
                (key[1], p.inputs_digest, c.inputs_digest)
                for key, p, c in zip(keys, parent, change)
                if p.inputs_digest and c.inputs_digest and p.inputs_digest != c.inputs_digest
            ],
            failures=[
                (side, key[1], describe_failures(run))
                for side, runs in (("parent", parent), ("change", change))
                for key, run in zip(keys, runs)
                if run.failed
            ],
        )
        for metric in end_to_end:
            name = metric["name"]
            parent_values = [r.metrics[name] for r in parent]
            change_values = [r.metrics[name] for r in change]
            label, wins, difference, spread = verdict(
                parent_values, change_values, metric["better"], float(metric["bound"])
            )
            report.rows.append(
                MetricRow(
                    name=name,
                    parent=tuple(np.percentile(parent_values, [25, 50, 75])),
                    change=tuple(np.percentile(change_values, [25, 50, 75])),
                    difference=difference,
                    spread=spread,
                    wins=wins,
                    pairs=len(keys),
                    bound=float(metric["bound"]),
                    verdict=label,
                )
            )
        reports.append(report)
    return reports


def format_report(reports: Sequence[WorkloadReport]) -> str:
    out = []
    for report in reports:
        out.append(
            f"{report.workload}: {report.pairs} pairs; failed parent "
            f"{report.failed[0]}/{report.attempted[0]}, change {report.failed[1]}/{report.attempted[1]}; "
            f"incorrect runs parent {report.incorrect[0]}, change {report.incorrect[1]}"
            + ("; FAILURE SHARE ROSE" if report.failure_share_rose else "")
        )
        for side, seed, where in report.failures:
            out.append(f"  FAILED {side} seed {seed}: {where}")
        for seed, parent_digest, change_digest in report.inputs_differ:
            out.append(
                f"  INPUTS DIFFER: {report.workload} seed {seed}: parent inputs_digest "
                f"{parent_digest}, change {change_digest}"
            )
        out.append(
            f"  {'metric':14s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
            f"{'change':>8s} {'spread':>7s} {'bound':>6s} {'wins':>6s}  verdict"
        )
        for row in report.rows:
            parent = f"{row.parent[1]:.4g} [{row.parent[0]:.4g}, {row.parent[2]:.4g}]"
            change = f"{row.change[1]:.4g} [{row.change[0]:.4g}, {row.change[2]:.4g}]"
            out.append(
                f"  {row.name:14s} {parent:>30s} {change:>30s} {row.difference:+8.1%} "
                f"{row.spread:7.1%} {row.bound:6.0%} {row.wins:>3d}/{row.pairs:<2d}  {row.verdict}"
            )
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True, help="parent run outputs")
    parser.add_argument("--change", nargs="+", type=Path, required=True, help="change run outputs")
    parser.add_argument(
        "--benchmark", type=Path, default=REPO_ROOT / "BENCHMARK.json", help="metric bounds"
    )
    args = parser.parse_args(argv)
    end_to_end = json.loads(args.benchmark.read_text())["end_to_end"]
    reports = compare(read_runs(args.parent), read_runs(args.change), end_to_end)
    if not reports:
        print("no (workload, seed) pair was run on both sides", file=sys.stderr)
        return 2
    print(format_report(reports))
    return 1 if any(report.failed_comparison for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
