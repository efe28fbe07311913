"""MetricsRegistry / LatencyHistogram: counters, percentiles, thread safety."""

import json
import threading

import numpy as np
import pytest

from repro.serving import LatencyHistogram, MetricsRegistry


class TestLatencyHistogram:
    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.percentile(50.0) == 0.0
        assert histogram.snapshot()["p99"] == 0.0

    def test_single_sample_everything_is_that_sample(self):
        histogram = LatencyHistogram()
        histogram.record(0.005)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == 0.005
        # Percentiles clamp to the exact observed range.
        assert 0.005 <= snap["p50"] <= 0.005
        assert snap["p99"] == 0.005

    def test_percentiles_within_one_bucket_of_truth(self):
        histogram = LatencyHistogram()
        rng = np.random.default_rng(7)
        samples = rng.uniform(1e-4, 1e-1, size=5000)
        for sample in samples:
            histogram.record(float(sample))
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(samples, q))
            estimate = histogram.percentile(q)
            # Upper-bound reporting over log buckets (ratio 1.122): at most
            # one bucket high, and (modulo rank rounding) never low.
            assert exact * 0.85 <= estimate <= exact * 1.13, (q, exact, estimate)

    def test_mean_and_extremes_are_exact(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.009):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.mean_seconds == pytest.approx(0.004)
        assert histogram.min_seconds == 0.001
        assert histogram.max_seconds == 0.009

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            LatencyHistogram().percentile(101.0)

    def test_outlier_beyond_last_bucket_reports_max(self):
        histogram = LatencyHistogram()
        histogram.record(120.0)  # beyond the 64 s top bound
        assert histogram.percentile(99.0) == 120.0


class TestMetricsRegistry:
    def test_counters_accumulate_per_model(self):
        registry = MetricsRegistry()
        registry.record_request("a", rows=10, seconds=0.01)
        registry.record_request("a", rows=5, seconds=0.02)
        registry.record_request("b", rows=1, seconds=0.001)
        registry.record_cold_start("a", seconds=0.05)
        registry.record("a", "reloads")
        registry.record("b", "evictions")
        registry.record("b", "errors")

        snap = registry.snapshot()
        assert snap["models"]["a"]["requests"] == 2
        assert snap["models"]["a"]["rows_served"] == 15
        assert snap["models"]["a"]["cold_starts"] == 1
        assert snap["models"]["a"]["reloads"] == 1
        assert snap["models"]["b"]["evictions"] == 1
        assert snap["models"]["b"]["errors"] == 1
        assert snap["totals"]["requests"] == 3
        assert snap["totals"]["rows_served"] == 16

    def test_snapshot_is_json_serializable_and_detached(self):
        registry = MetricsRegistry()
        registry.record_request("a", rows=2, seconds=0.003)
        snap = registry.snapshot()
        json.dumps(snap)  # plain dict all the way down
        snap["models"]["a"]["requests"] = 999  # mutating the export...
        assert registry.snapshot()["models"]["a"]["requests"] == 1  # ...changes nothing

    def test_disabled_registry_is_a_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.record_request("a", rows=10, seconds=0.01)
        registry.record_cold_start("a", seconds=0.05)
        snap = registry.snapshot()
        assert snap["models"] == {}
        assert snap["enabled"] is False

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.record_request("a", rows=1, seconds=0.001)
        registry.reset()
        assert registry.snapshot()["models"] == {}

    def test_concurrent_recording_loses_no_increment(self):
        registry = MetricsRegistry()
        per_thread, num_threads = 500, 8
        barrier = threading.Barrier(num_threads)

        def hammer(name):
            barrier.wait()
            for _ in range(per_thread):
                registry.record_request(name, rows=1, seconds=0.001)
                registry.record(name, "evictions")

        threads = [
            threading.Thread(target=hammer, args=(f"m{i % 2}",)) for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snap = registry.snapshot()
        assert snap["totals"]["requests"] == per_thread * num_threads
        assert snap["totals"]["evictions"] == per_thread * num_threads
        total_latency = sum(
            snap["models"][name]["request_latency"]["count"] for name in snap["models"]
        )
        assert total_latency == per_thread * num_threads
