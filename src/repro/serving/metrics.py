"""Per-model serving metrics: request counters and latency histograms.

A fleet serving heavy traffic is debugged from its numbers — which model
takes the requests, how many rows each one serves, how often the catalog
pays a cold start or a hot-swap reload, and what the tail latency looks
like.  :class:`MetricsRegistry` collects exactly that, recorded in-line by
:class:`~repro.serving.gateway.ServingGateway` and
:class:`~repro.serving.catalog.ModelCatalog` with near-zero overhead:

* every counter bump is one lock acquisition plus integer adds;
* latencies land in a :class:`LatencyHistogram` — fixed log-spaced buckets
  (no per-sample storage, no sorting), from which p50/p95/p99 are
  estimated as the containing bucket's upper bound: conservatively high,
  by at most one bucket ratio (≈ +12%);
* :meth:`MetricsRegistry.snapshot` exports the whole registry as a plain
  nested dict, ready for ``json.dumps`` or a scrape endpoint — including
  each histogram's **raw bucket counts**, so snapshots from many serving
  worker processes can be combined with
  :meth:`MetricsRegistry.merge_snapshots` into one fleet-wide view whose
  counters are exact and whose percentiles are bucket-accurate (identical
  to a single histogram fed the union of all streams — naively averaging
  per-worker p99s, by contrast, is simply wrong).

Construct with ``enabled=False`` for a no-op registry (every record call
returns immediately) — the knob the overhead benchmark in
``benchmarks/test_catalog_serving.py`` measures against.

Usage — record a few requests and read the snapshot:

>>> registry = MetricsRegistry()
>>> registry.record_request("gbgcn", rows=256, seconds=0.004)
>>> registry.record_request("gbgcn", rows=256, seconds=0.006)
>>> registry.record_cold_start("gbgcn", seconds=0.060)
>>> snap = registry.snapshot()
>>> snap["models"]["gbgcn"]["requests"], snap["models"]["gbgcn"]["rows_served"]
(2, 512)
>>> snap["models"]["gbgcn"]["cold_starts"]
1
>>> 0.004 <= snap["models"]["gbgcn"]["request_latency"]["p50"] <= 0.008
True
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Tuple, Union

__all__ = ["COUNTERS", "LatencyHistogram", "ModelMetrics", "MetricsRegistry"]


def _log_spaced_bounds(lo: float = 1e-6, hi: float = 64.0, per_decade: int = 20) -> List[float]:
    """Bucket upper bounds from ``lo`` to ``hi`` seconds, log-spaced."""
    bounds = []
    value = lo
    factor = 10.0 ** (1.0 / per_decade)
    while value <= hi:
        bounds.append(value)
        value *= factor
    return bounds


#: Shared bucket upper bounds (seconds): 1 µs … 64 s at 20 buckets/decade
#: (bucket ratio 10^(1/20) ≈ 1.122), so a percentile estimate overshoots
#: the true value by at most one bucket ≈ 12% — and never undershoots.
_BOUNDS: List[float] = _log_spaced_bounds()


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimation.

    ``record`` costs one binary search over ~160 static bucket bounds plus
    an integer increment — no allocation, no per-sample retention — which
    is what lets the serving hot path keep metrics always-on.  Percentiles
    are read as the upper bound of the bucket containing the requested
    rank (clamped to the exact observed min/max), so estimates are
    conservative — at most one bucket ratio (≈ +12%) above the true value,
    never below it.

    Not internally locked: callers (:class:`MetricsRegistry`) serialize
    access.
    """

    __slots__ = ("counts", "count", "total_seconds", "min_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(_BOUNDS) + 1)  # last bucket: > _BOUNDS[-1]
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.counts[bisect_left(_BOUNDS, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile in seconds (0.0 when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, int(round(q / 100.0 * self.count)))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                upper = _BOUNDS[index] if index < len(_BOUNDS) else self.max_seconds
                return min(max(upper, self.min_seconds), self.max_seconds)
        return self.max_seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict summary: count, mean, min/max, p50/p95/p99 — and the raw data.

        Beyond the derived percentiles, the snapshot carries
        ``total_seconds`` and ``buckets`` — the non-zero raw bucket counts,
        keyed by stringified bucket index (JSON object keys are strings, so
        stringifying here keeps a snapshot identical across a
        ``json.dumps``/``loads`` round-trip).  Derived percentiles alone
        cannot be aggregated across processes (a mean of p99s is not a
        fleet p99); the raw counts are what make :meth:`merge` and
        :meth:`MetricsRegistry.merge_snapshots` exact.
        """
        return {
            "count": self.count,
            "mean": self.mean_seconds,
            "min": 0.0 if self.count == 0 else self.min_seconds,
            "max": self.max_seconds,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "total_seconds": self.total_seconds,
            "buckets": {str(index): count for index, count in enumerate(self.counts) if count},
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, object]) -> "LatencyHistogram":
        """Reconstruct a histogram from a :meth:`snapshot` dict.

        Raises ``ValueError`` for snapshots lacking raw ``buckets`` counts
        (produced by pre-merge library versions — they carry only derived
        percentiles, which cannot be merged) and for bucket data that does
        not add up to its recorded ``count``.
        """
        buckets = snapshot.get("buckets")
        if not isinstance(buckets, Mapping):
            raise ValueError(
                "histogram snapshot carries no raw bucket counts ('buckets'); it was "
                "produced by an older snapshot format and cannot be reconstructed or merged"
            )
        hist = cls()
        for key, value in buckets.items():
            index = int(key)
            if not 0 <= index < len(hist.counts):
                raise ValueError(
                    f"histogram snapshot bucket index {key!r} is out of range "
                    f"[0, {len(hist.counts)})"
                )
            hist.counts[index] = int(value)
        count = int(snapshot.get("count", 0))
        if sum(hist.counts) != count:
            raise ValueError(
                f"histogram snapshot is inconsistent: bucket counts sum to "
                f"{sum(hist.counts)} but count is {count}"
            )
        hist.count = count
        hist.total_seconds = float(snapshot.get("total_seconds", 0.0))
        if count:
            hist.min_seconds = float(snapshot["min"])
            hist.max_seconds = float(snapshot["max"])
        return hist

    def merge(self, other: Union["LatencyHistogram", Mapping[str, object]]) -> "LatencyHistogram":
        """Fold ``other`` (a histogram or a snapshot dict) into this one, in place.

        Counters (``count``, ``total_seconds``, per-bucket counts) merge
        *exactly*; min/max combine exactly; percentiles of the merged
        histogram are bucket-accurate — the same estimate a single
        histogram fed the union of both streams would report, because both
        sides share the static bucket bounds.  Returns ``self`` so merges
        chain.  Like all histogram mutation, not internally locked.
        """
        if not isinstance(other, LatencyHistogram):
            other = LatencyHistogram.from_snapshot(other)
        for index, bucket_count in enumerate(other.counts):
            if bucket_count:
                self.counts[index] += bucket_count
        self.count += other.count
        self.total_seconds += other.total_seconds
        if other.count:
            self.min_seconds = min(self.min_seconds, other.min_seconds)
            self.max_seconds = max(self.max_seconds, other.max_seconds)
        return self


#: Every per-model counter, in snapshot order.  One table drives
#: :class:`ModelMetrics`, :meth:`MetricsRegistry.record`, the snapshot
#: ``totals`` and :meth:`MetricsRegistry.merge_snapshots`.  The resilience
#: outcomes (``sheds`` … ``fallbacks_served``, see
#: :mod:`repro.serving.resilience`) count every deliberate fast-failure and
#: every degraded serve, so they reconcile exactly with the requests a
#: chaos run submitted — nothing fails silently.
COUNTERS: Tuple[str, ...] = (
    "requests",
    "rows_served",
    "cold_starts",
    "reloads",
    "evictions",
    "errors",
    "sheds",
    "deadline_exceeded",
    "breaker_opens",
    "fallbacks_served",
)

# Per-model latency histograms, in snapshot order.
_HISTOGRAMS: Tuple[str, ...] = ("request_latency", "cold_start_latency")


class ModelMetrics:
    """One model's :data:`COUNTERS` and latency histograms (see :class:`MetricsRegistry`)."""

    __slots__ = ("counts", "request_latency", "cold_start_latency")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.request_latency = LatencyHistogram()
        self.cold_start_latency = LatencyHistogram()

    def snapshot(self) -> Dict[str, object]:
        return {
            **self.counts,
            "request_latency": self.request_latency.snapshot(),
            "cold_start_latency": self.cold_start_latency.snapshot(),
        }


class MetricsRegistry:
    """Thread-safe per-model serving metrics with a plain-dict export.

    One registry serves one catalog/gateway pair (the catalog creates its
    own by default and the gateway records into the catalog's).  All
    mutation goes through :meth:`record_request`, :meth:`record_cold_start`
    (both also feed a latency histogram) and :meth:`record` (every other
    counter in :data:`COUNTERS`), each a single short critical section;
    :meth:`snapshot` returns a JSON-ready nested dict and never exposes
    internal state.

    ``enabled=False`` turns every record call into an immediate return —
    a measurable no-op for overhead comparisons.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._models: Dict[str, ModelMetrics] = {}
        # A fork mid-record would hand the child a permanently-held _lock;
        # the forksafe hook swaps in a fresh one inside the child.
        from . import forksafe

        forksafe.protect(self)

    def _reinit_after_fork_in_child(self) -> None:
        """Replace the lock a fork may have copied in a held state (child only)."""
        self._lock = threading.Lock()

    def _model(self, name: str) -> ModelMetrics:
        # Callers hold self._lock.
        metrics = self._models.get(name)
        if metrics is None:
            metrics = self._models[name] = ModelMetrics()
        return metrics

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def record_request(self, name: str, rows: int, seconds: float) -> None:
        """One served request batch: ``rows`` result rows in ``seconds``."""
        if not self.enabled:
            return
        with self._lock:
            metrics = self._model(name)
            metrics.counts["requests"] += 1
            metrics.counts["rows_served"] += rows
            metrics.request_latency.record(seconds)

    def record_cold_start(self, name: str, seconds: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            metrics = self._model(name)
            metrics.counts["cold_starts"] += 1
            metrics.cold_start_latency.record(seconds)

    def record(self, name: str, counter: str) -> None:
        """Add one to model ``name``'s ``counter`` (one of :data:`COUNTERS`).

        The counter-only events: ``reloads`` and ``evictions`` (catalog),
        ``errors``, ``sheds``, ``deadline_exceeded``, ``breaker_opens``
        (counted against the model whose breaker tripped) and
        ``fallbacks_served`` (counted against the model that needed
        rescuing).  An unknown counter raises ``ValueError``.
        """
        if not self.enabled:
            return
        if counter not in COUNTERS:
            raise ValueError(f"unknown counter {counter!r}; expected one of {COUNTERS}")
        with self._lock:
            self._model(name).counts[counter] += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The whole registry as a plain nested dict (JSON-serializable)."""
        with self._lock:
            models = {name: metrics.snapshot() for name, metrics in self._models.items()}
        totals = {key: sum(m[key] for m in models.values()) for key in COUNTERS}
        return {"enabled": self.enabled, "models": models, "totals": totals}

    @staticmethod
    def merge_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
        """Combine per-process :meth:`snapshot` dicts into one fleet-wide view.

        The cross-process aggregation path for a
        :class:`~repro.serving.workers.WorkerPool`: each worker snapshots
        its own registry, the parent merges.  Counters sum exactly;
        latency histograms merge through their raw bucket counts
        (:meth:`LatencyHistogram.merge`), so the fleet p50/p95/p99 equal
        what one process observing all requests would have reported — not
        an average of per-worker percentiles.  The result has the same
        shape as :meth:`snapshot` plus a ``workers`` count, and its
        ``totals`` section gains fleet-wide ``request_latency`` /
        ``cold_start_latency`` histograms (a single-process snapshot keeps
        latency per model only).  The snapshots come from other processes,
        so they are checked: a model entry without a histogram, or a
        histogram without raw bucket counts, raises ``ValueError``.

        >>> a, b = MetricsRegistry(), MetricsRegistry()
        >>> a.record_request("gbgcn", rows=10, seconds=0.001)
        >>> b.record_request("gbgcn", rows=30, seconds=0.100)
        >>> fleet = MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])
        >>> fleet["workers"], fleet["totals"]["requests"], fleet["totals"]["rows_served"]
        (2, 2, 40)
        >>> fleet["models"]["gbgcn"]["request_latency"]["count"]
        2
        >>> 0.1 <= fleet["totals"]["request_latency"]["p99"] <= 0.113
        True
        """
        snapshots = list(snapshots)
        merged: Dict[str, Dict[str, object]] = {}
        histograms: Dict[Tuple[str, str], LatencyHistogram] = {}
        for snap in snapshots:
            for name, model in dict(snap.get("models", {})).items():
                out = merged.setdefault(name, dict.fromkeys(COUNTERS, 0))
                for key in COUNTERS:
                    out[key] += int(model.get(key, 0))
                for key in _HISTOGRAMS:
                    histogram = model.get(key)
                    if not isinstance(histogram, Mapping):
                        raise ValueError(
                            f"snapshot of model {name!r} has no {key!r} histogram; "
                            f"only snapshots carrying raw bucket counts can be merged"
                        )
                    histograms.setdefault((name, key), LatencyHistogram()).merge(histogram)
        fleet = {key: LatencyHistogram() for key in _HISTOGRAMS}
        for (name, key), histogram in histograms.items():
            merged[name][key] = histogram.snapshot()
            fleet[key].merge(histogram)
        totals: Dict[str, object] = {
            key: sum(model[key] for model in merged.values()) for key in COUNTERS
        }
        for key in _HISTOGRAMS:
            totals[key] = fleet[key].snapshot()
        return {
            "enabled": any(bool(snap.get("enabled")) for snap in snapshots),
            "workers": len(snapshots),
            "models": merged,
            "totals": totals,
        }

    def reset(self) -> None:
        """Drop every recorded value (counters restart from zero)."""
        with self._lock:
            self._models.clear()

    def __repr__(self) -> str:
        with self._lock:
            names = sorted(self._models)
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, models={names})"
