"""Histogram snapshots carry raw buckets; merging them is exact (regression).

The original ``LatencyHistogram.snapshot()`` exported only *derived*
statistics (p50/p95/p99/mean).  Those cannot be aggregated: averaging
per-worker p99s under-reports the fleet tail whenever load or latency is
uneven across workers.  The fixed snapshot carries the raw bucket counts
and ``total_seconds``, making a merged histogram *identical* — bucket by
bucket, and therefore percentile by percentile — to one histogram that
observed the union of the streams.

``test_snapshot_without_buckets_is_rejected`` is the format regression
(pre-fix snapshots fail loudly rather than merging wrongly); the
union-stream tests are the correctness oracle.  ``TestCounterTable``
pins the one ``COUNTERS`` table every counter path reads.
"""

import json

import numpy as np
import pytest

from repro.serving import LatencyHistogram, MetricsRegistry
from repro.serving.metrics import COUNTERS


def _samples(seed: int, count: int) -> np.ndarray:
    """Log-normal latencies spanning several histogram decades."""
    return np.random.default_rng(seed).lognormal(mean=-6.0, sigma=2.0, size=count)


class TestSnapshotFormat:
    def test_snapshot_carries_raw_buckets_and_total(self):
        hist = LatencyHistogram()
        for value in _samples(0, 100):
            hist.record(float(value))
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["total_seconds"] == pytest.approx(hist.total_seconds)
        assert snap["buckets"], "snapshot must carry non-empty raw bucket counts"
        assert sum(snap["buckets"].values()) == 100
        assert all(isinstance(key, str) for key in snap["buckets"])

    def test_snapshot_survives_json_roundtrip(self):
        hist = LatencyHistogram()
        for value in _samples(1, 500):
            hist.record(float(value))
        restored = LatencyHistogram.from_snapshot(json.loads(json.dumps(hist.snapshot())))
        assert restored.counts == hist.counts
        assert restored.count == hist.count
        assert restored.min_seconds == hist.min_seconds
        assert restored.max_seconds == hist.max_seconds
        for q in (50.0, 95.0, 99.0):
            assert restored.percentile(q) == hist.percentile(q)

    def test_snapshot_without_buckets_is_rejected(self):
        """REGRESSION — the pre-fix snapshot format cannot be merged.

        A snapshot with only derived percentiles must raise, not silently
        merge as an empty histogram (which would *drop* that worker's
        latency data from the fleet view).
        """
        legacy = {"count": 12, "mean": 0.01, "p50": 0.01, "p95": 0.02, "p99": 0.03}
        with pytest.raises(ValueError, match="bucket"):
            LatencyHistogram.from_snapshot(legacy)
        with pytest.raises(ValueError, match="bucket"):
            LatencyHistogram().merge(legacy)

    def test_inconsistent_bucket_sum_is_rejected(self):
        snap = LatencyHistogram().snapshot()
        snap["count"] = 3
        snap["buckets"] = {"5": 2}
        with pytest.raises(ValueError, match="inconsistent"):
            LatencyHistogram.from_snapshot(snap)

    def test_out_of_range_bucket_index_is_rejected(self):
        snap = {"count": 1, "min": 0.1, "max": 0.1, "buckets": {"100000": 1}}
        with pytest.raises(ValueError, match="out of range"):
            LatencyHistogram.from_snapshot(snap)


class TestMergeIsExact:
    def test_merged_shards_equal_the_union_stream(self):
        """The oracle: percentiles of merged shards == union-stream percentiles."""
        stream = _samples(2, 5000)
        union = LatencyHistogram()
        for value in stream:
            union.record(float(value))

        shards = [LatencyHistogram() for _ in range(4)]
        for index, value in enumerate(stream):
            shards[index % 4].record(float(value))

        merged = LatencyHistogram()
        for shard in shards:
            # Through the JSON round-trip — the actual cross-process path.
            merged.merge(json.loads(json.dumps(shard.snapshot())))

        assert merged.counts == union.counts
        assert merged.count == union.count
        assert merged.total_seconds == pytest.approx(union.total_seconds)
        assert merged.min_seconds == union.min_seconds
        assert merged.max_seconds == union.max_seconds
        for q in (10.0, 50.0, 90.0, 95.0, 99.0, 99.9):
            assert merged.percentile(q) == union.percentile(q), f"p{q} diverged"

    def test_uneven_shards_still_merge_exactly(self):
        """The failure mode averaging would hit: one slow, lightly-loaded worker."""
        fast, slow = LatencyHistogram(), LatencyHistogram()
        union = LatencyHistogram()
        for value in _samples(3, 900) * 0.001:  # fast worker: ~1000x smaller latencies
            fast.record(float(value))
            union.record(float(value))
        for value in _samples(4, 100):
            slow.record(float(value))
            union.record(float(value))

        merged = LatencyHistogram().merge(fast).merge(slow)
        assert merged.percentile(99.0) == union.percentile(99.0)
        # An average of per-worker p99s is nowhere near the truth here.
        averaged = (fast.percentile(99.0) + slow.percentile(99.0)) / 2.0
        assert abs(averaged - union.percentile(99.0)) > abs(
            merged.percentile(99.0) - union.percentile(99.0)
        )

    def test_merge_chains_and_returns_self(self):
        hist = LatencyHistogram()
        other = LatencyHistogram()
        other.record(0.5)
        assert hist.merge(other) is hist
        assert hist.count == 1


class TestRegistryMergeSnapshots:
    def _loaded_registry(self, seed: int, requests: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        rng = np.random.default_rng(seed)
        for _ in range(requests):
            registry.record_request("gbgcn", rows=4, seconds=float(rng.lognormal(-6, 2)))
        registry.record_cold_start("gbgcn", seconds=0.05)
        registry.record_request("mf", rows=2, seconds=0.001)
        return registry

    def test_counters_sum_exactly(self):
        registries = [self._loaded_registry(seed, requests=50) for seed in range(3)]
        fleet = MetricsRegistry.merge_snapshots([r.snapshot() for r in registries])
        assert fleet["workers"] == 3
        assert fleet["totals"]["requests"] == 3 * 51
        assert fleet["totals"]["rows_served"] == 3 * (50 * 4 + 2)
        assert fleet["totals"]["cold_starts"] == 3
        assert fleet["models"]["gbgcn"]["requests"] == 150
        assert fleet["models"]["mf"]["requests"] == 3

    def test_fleet_percentiles_equal_one_observer(self):
        union = MetricsRegistry()
        shards = [MetricsRegistry() for _ in range(4)]
        values = _samples(7, 2000)
        for index, value in enumerate(values):
            shards[index % 4].record_request("gbgcn", rows=1, seconds=float(value))
            union.record_request("gbgcn", rows=1, seconds=float(value))

        fleet = MetricsRegistry.merge_snapshots(
            [json.loads(json.dumps(shard.snapshot())) for shard in shards]
        )
        expected = union.snapshot()["models"]["gbgcn"]["request_latency"]
        got_model = fleet["models"]["gbgcn"]["request_latency"]
        got_totals = fleet["totals"]["request_latency"]
        for key in ("count", "p50", "p95", "p99", "min", "max"):
            assert got_model[key] == expected[key], key
            assert got_totals[key] == expected[key], key

    def test_totals_gain_fleet_latency_sections(self):
        fleet = MetricsRegistry.merge_snapshots([self._loaded_registry(0, 10).snapshot()])
        assert "request_latency" in fleet["totals"]
        assert "cold_start_latency" in fleet["totals"]
        assert fleet["totals"]["request_latency"]["count"] == 11

    def test_merging_zero_snapshots_is_empty_but_valid(self):
        fleet = MetricsRegistry.merge_snapshots([])
        assert fleet["workers"] == 0
        assert fleet["models"] == {}
        assert fleet["totals"]["requests"] == 0

    def test_model_without_histogram_is_rejected(self):
        """Worker snapshots are outside input: a missing histogram is a ValueError."""
        snap = self._loaded_registry(0, 5).snapshot()
        del snap["models"]["mf"]["request_latency"]
        with pytest.raises(ValueError, match="'mf'.*'request_latency'"):
            MetricsRegistry.merge_snapshots([snap])


class TestCounterTable:
    def test_snapshot_keys_keep_their_order(self):
        assert COUNTERS == (
            "requests", "rows_served", "cold_starts", "reloads", "evictions",
            "errors", "sheds", "deadline_exceeded", "breaker_opens", "fallbacks_served",
        )
        registry = MetricsRegistry()
        registry.record_request("m", rows=1, seconds=0.001)
        snap = registry.snapshot()
        assert list(snap) == ["enabled", "models", "totals"]
        assert list(snap["models"]["m"]) == [*COUNTERS, "request_latency", "cold_start_latency"]
        assert list(snap["totals"]) == list(COUNTERS)

    @pytest.mark.parametrize("counter", COUNTERS)
    def test_counter_records_totals_and_merges_exactly(self, counter):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, name, times in ((a, "m", 3), (b, "m", 1), (b, "n", 2)):
            for _ in range(times):
                registry.record(name, counter)
        assert a.snapshot()["models"]["m"][counter] == 3
        assert b.snapshot()["totals"][counter] == 3
        fleet = MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])
        assert fleet["models"]["m"][counter] == 4
        assert fleet["models"]["n"][counter] == 2
        assert fleet["totals"] == {
            **dict.fromkeys(COUNTERS, 0),
            counter: 6,
            "request_latency": fleet["totals"]["request_latency"],
            "cold_start_latency": fleet["totals"]["cold_start_latency"],
        }

    def test_unknown_counter_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown counter 'request_latency'"):
            registry.record("m", "request_latency")
        assert registry.snapshot()["models"] == {}
