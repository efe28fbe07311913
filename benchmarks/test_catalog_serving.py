"""Multi-model catalog serving benchmark: cold-start latency + mixed traffic.

Writes ``BENCH_serving.json`` at the repo root — the perf-trajectory record
for the serving path (the training trajectory lives in
``BENCH_training.json``).  Two measurements over a three-model catalog
(GBGCN, GBGCN-pretrain, MF) at the repo's 2000-user serving scale:

* **cold-start latency** — ``ModelCatalog.warm`` per model (artifact load
  + one propagation), min of 3 cold starts each;
* **mixed-traffic throughput** — a deterministic scenario-engine stream
  (``repro.serving.loadgen.TrafficModel``) of single-user top-10 requests
  routed across all three models by weight, served in batches through
  ``ServingGateway.top_k_mixed`` (grouped: one dense block per model per
  batch) vs the naive per-request loop on the same stream;
* **metrics overhead** — the same grouped stream against a catalog with
  metrics collection enabled vs ``MetricsRegistry(enabled=False)``; the
  recorded overhead must stay a small fraction of grouped throughput;
* **warm vs cold request latency** — p50/p95/p99 of single-user requests
  against a warm (resident, ``CatalogWarmer``-maintained) catalog vs
  requests that pay the cold start in-line — the tail-latency cliff the
  background warmer exists to remove.

The grouped path must beat per-request serving by a wide margin; the
asserted floor (3x) is far below typical measurements so the test only
fails on a real regression.  Marked ``slow``: set ``REPRO_RUN_SLOW=1``.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import GroupBuyingDataset, leave_one_out_split
from repro.data.schema import GroupBuyingBehavior, SocialEdge
from repro.models import ModelSettings, build_model
from repro.persist import save_model
from repro.serving import (
    CatalogWarmer,
    EmbeddingStore,
    MetricsRegistry,
    ModelCatalog,
    ServingGateway,
    TopKRecommender,
    TrafficConfig,
    TrafficModel,
)

from _bench import SERVING_SCHEMA, write_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"

NUM_USERS = 2000
NUM_ITEMS = 1500
NUM_BEHAVIORS = 10000
EMBEDDING_DIM = 16
TOP_K = 10
REQUEST_BATCH = 256
NUM_MIXED_REQUESTS = 4096

CATALOG_MODELS = {"gbgcn": "GBGCN", "gbgcn-pretrain": "GBGCN-pretrain", "mf": "MF"}
SPLIT_WEIGHTS = {"gbgcn": 0.6, "gbgcn-pretrain": 0.2, "mf": 0.2}

_RESULTS = {}


def _mixed_requests():
    """The shared scenario-engine stream, flattened to (model, user) pairs.

    Replaces the hand-rolled rng + sticky-split loop this benchmark used
    to build its workload with the deterministic
    :class:`~repro.serving.loadgen.TrafficModel` rig — same stream shape
    the replay benchmarks drive, here consumed closed-loop in grouped
    batches.
    """
    stream = TrafficModel(
        TrafficConfig(
            duration_seconds=10.0,
            base_rate_per_second=520.0,  # Poisson ~5200 >> the 4096 consumed
            diurnal_amplitude=0.2,
            diurnal_period_seconds=10.0,
            model_weights=tuple(sorted(SPLIT_WEIGHTS.items())),
            seed=3,
        )
    ).generate(num_users=NUM_USERS, num_items=NUM_ITEMS)
    assert len(stream) >= NUM_MIXED_REQUESTS
    return [
        (stream.model_name(index), int(stream.users[index]))
        for index in range(NUM_MIXED_REQUESTS)
    ]


def _serving_scale_split(seed=11):
    rng = np.random.default_rng(seed)
    initiators = rng.integers(0, NUM_USERS, size=NUM_BEHAVIORS)
    items = rng.integers(0, NUM_ITEMS, size=NUM_BEHAVIORS)
    behaviors = []
    for initiator, item in zip(initiators, items):
        count = int(rng.integers(0, 3))
        participants = tuple(
            int(p) for p in rng.integers(0, NUM_USERS, size=count) if p != initiator
        )
        behaviors.append(
            GroupBuyingBehavior(
                initiator=int(initiator), item=int(item), participants=participants, threshold=1
            )
        )
    edges = [
        SocialEdge(int(a), int(b))
        for a, b in rng.integers(0, NUM_USERS, size=(3 * NUM_USERS, 2))
        if a != b
    ]
    dataset = GroupBuyingDataset(NUM_USERS, NUM_ITEMS, behaviors, edges, name="catalog-bench")
    return leave_one_out_split(dataset, seed=1)


@pytest.fixture(scope="module")
def catalog_setup(tmp_path_factory):
    split = _serving_scale_split()
    directory = tmp_path_factory.mktemp("catalog-bench")
    settings = ModelSettings(embedding_dim=EMBEDDING_DIM)
    for stem, model_name in CATALOG_MODELS.items():
        path = directory / f"{stem}.npz"
        save_model(build_model(model_name, split.train, settings), path)
        # Age the artifacts past the content-check grace window so the
        # timings measure steady-state serving (stat-only freshness checks),
        # not the brief just-published window where every access re-reads
        # the npz central directory.
        aged_ns = os.stat(path).st_mtime_ns - int(600 * 1e9)
        os.utime(path, ns=(aged_ns, aged_ns))
    return directory, split


@pytest.mark.slow
def test_cold_start_latency(catalog_setup):
    directory, split = catalog_setup
    catalog = ModelCatalog(directory, split.train)
    latencies = {}
    for name in catalog.names:
        samples = []
        for _ in range(3):
            catalog.evict(name)
            samples.append(catalog.warm(name))
        latencies[name] = min(samples)
        print(f"\nBENCH catalog cold start {name}: {latencies[name] * 1000:.1f} ms")
    artifact_kib = {
        name: round((directory / f"{name}.npz").stat().st_size / 1024, 1) for name in catalog.names
    }
    _RESULTS["cold_start"] = {
        name: {
            "seconds": round(seconds, 4),
            "artifact_kib": artifact_kib[name],
        }
        for name, seconds in latencies.items()
    }
    # Cold start must stay interactive (load + one propagation), far under
    # any retraining path; generous bound for machine noise.
    assert all(seconds < 30.0 for seconds in latencies.values())


@pytest.mark.slow
def test_mixed_traffic_throughput(catalog_setup):
    directory, split = catalog_setup
    catalog = ModelCatalog(directory, split.train)
    gateway = ServingGateway(catalog, default_model="gbgcn")
    requests = _mixed_requests()

    catalog.warm_all()  # measure steady-state routing, not cold starts

    started = time.perf_counter()
    batched_results = [
        gateway.top_k_mixed(requests[start : start + REQUEST_BATCH], k=TOP_K)
        for start in range(0, len(requests), REQUEST_BATCH)
    ]
    grouped_seconds = time.perf_counter() - started
    grouped_rps = len(requests) / grouped_seconds

    # The naive path: one recommend call per request (what serving without
    # the gateway's per-model grouping would do).  Timed on a slice and
    # scaled, to keep the benchmark quick.
    naive_slice = requests[:512]
    started = time.perf_counter()
    for name, user in naive_slice:
        catalog.recommender(name).recommend(np.asarray([user], dtype=np.int64), k=TOP_K)
    naive_seconds = (time.perf_counter() - started) * (len(requests) / len(naive_slice))
    naive_rps = len(requests) / naive_seconds

    # Parity: grouped rows match a dedicated per-model store, bitwise.
    sample = batched_results[0]
    for stem in CATALOG_MODELS:
        rows = np.asarray([i for i, name in enumerate(sample.models) if name == stem])
        if rows.size == 0:
            continue
        store = EmbeddingStore.from_artifact(directory / f"{stem}.npz", split.train)
        reference = TopKRecommender(store, k=TOP_K, dataset=split.train).recommend(
            sample.users[rows]
        )
        assert np.array_equal(sample.items[rows], reference.items)

    share = {
        name: sum(1 for model, _ in requests if model == name)
        for name in sorted(SPLIT_WEIGHTS)
    }
    print(
        f"\nBENCH mixed traffic: {grouped_rps:,.0f} req/s grouped vs "
        f"{naive_rps:,.0f} req/s per-request ({grouped_rps / naive_rps:.1f}x), "
        f"{len(requests)} requests, split {share}"
    )
    _RESULTS["mixed_traffic"] = {
        "num_requests": len(requests),
        "request_batch": REQUEST_BATCH,
        "top_k": TOP_K,
        "traffic_split": SPLIT_WEIGHTS,
        "requests_per_second_grouped": round(grouped_rps, 1),
        "requests_per_second_per_request_loop": round(naive_rps, 1),
        "grouped_speedup": round(grouped_rps / naive_rps, 2),
    }
    # Per-model gateway metrics for the grouped run (the observability the
    # fleet exports in production): requests, rows, latency percentiles.
    snapshot = gateway.metrics.snapshot()
    _RESULTS["gateway_metrics"] = {
        name: {
            "requests": model["requests"],
            "rows_served": model["rows_served"],
            "request_p50_ms": round(model["request_latency"]["p50"] * 1000, 3),
            "request_p99_ms": round(model["request_latency"]["p99"] * 1000, 3),
        }
        for name, model in snapshot["models"].items()
    }
    assert grouped_rps >= naive_rps * 3.0


@pytest.mark.slow
def test_metrics_collection_overhead(catalog_setup):
    """Metrics must cost a small fraction of grouped-batch throughput."""
    directory, split = catalog_setup
    requests = _mixed_requests()

    def make_gateway(metrics):
        catalog = ModelCatalog(directory, split.train, metrics=metrics)
        gateway = ServingGateway(catalog, default_model="gbgcn")
        catalog.warm_all()
        return gateway

    def one_trial(gateway):
        started = time.perf_counter()
        for start in range(0, len(requests), REQUEST_BATCH):
            gateway.top_k_mixed(requests[start : start + REQUEST_BATCH], k=TOP_K)
        return len(requests) / (time.perf_counter() - started)

    disabled_gateway = make_gateway(MetricsRegistry(enabled=False))
    enabled_gateway = make_gateway(MetricsRegistry(enabled=True))
    # Interleave the trials (after one untimed warm-up each) so run-order
    # cache/turbo bias cannot masquerade as — or hide — metrics overhead.
    one_trial(disabled_gateway), one_trial(enabled_gateway)
    rps_disabled = rps_enabled = 0.0
    for _ in range(3):
        rps_disabled = max(rps_disabled, one_trial(disabled_gateway))
        rps_enabled = max(rps_enabled, one_trial(enabled_gateway))
    overhead_pct = max(0.0, (rps_disabled - rps_enabled) / rps_disabled * 100.0)
    print(
        f"\nBENCH metrics overhead: {rps_enabled:,.0f} req/s with metrics vs "
        f"{rps_disabled:,.0f} req/s without ({overhead_pct:.2f}% overhead)"
    )
    _RESULTS["metrics_overhead"] = {
        "requests_per_second_metrics_enabled": round(rps_enabled, 1),
        "requests_per_second_metrics_disabled": round(rps_disabled, 1),
        "overhead_pct": round(overhead_pct, 2),
    }
    # The acceptance target is < 5%; the hard gate is looser so shared-CI
    # timer noise cannot flake the suite on a non-regression.
    assert overhead_pct < 15.0


@pytest.mark.slow
def test_warm_vs_cold_request_latency(catalog_setup):
    """The tail-latency cliff the background warmer removes, quantified."""
    directory, split = catalog_setup
    catalog = ModelCatalog(directory, split.train)
    gateway = ServingGateway(catalog)
    rng = np.random.default_rng(9)
    users = rng.integers(0, NUM_USERS, size=256).astype(np.int64)

    # Warm path: residency maintained off-request by a warmer cycle.
    warmer = CatalogWarmer(catalog)
    warmer.run_once()
    for user in users:
        gateway.top_k(np.asarray([user]), k=TOP_K, model="gbgcn")
    warm = catalog.metrics.snapshot()["models"]["gbgcn"]["request_latency"]

    # Cold path: every request pays the artifact load + propagation in-line
    # (what serving without the warmer risks after every hot-swap/eviction).
    cold_metrics = MetricsRegistry()
    cold_catalog = ModelCatalog(directory, split.train, metrics=cold_metrics)
    cold_gateway = ServingGateway(cold_catalog)
    for user in users[:24]:
        cold_catalog.evict("gbgcn")
        cold_gateway.top_k(np.asarray([user]), k=TOP_K, model="gbgcn")
    cold = cold_metrics.snapshot()["models"]["gbgcn"]["request_latency"]

    print(
        f"\nBENCH warm vs cold p99: {warm['p99'] * 1000:.2f} ms warm vs "
        f"{cold['p99'] * 1000:.2f} ms cold "
        f"({cold['p99'] / max(warm['p99'], 1e-9):.0f}x cliff removed by the warmer)"
    )
    _RESULTS["warm_vs_cold_latency"] = {
        "model": "gbgcn",
        "warm_requests": warm["count"],
        "cold_requests": cold["count"],
        "warm_p50_ms": round(warm["p50"] * 1000, 3),
        "warm_p95_ms": round(warm["p95"] * 1000, 3),
        "warm_p99_ms": round(warm["p99"] * 1000, 3),
        "cold_p50_ms": round(cold["p50"] * 1000, 3),
        "cold_p95_ms": round(cold["p95"] * 1000, 3),
        "cold_p99_ms": round(cold["p99"] * 1000, 3),
    }
    # A warm request must be far below the cold-start cliff.
    assert warm["p99"] < cold["p99"]


@pytest.mark.slow
def test_write_bench_serving_json():
    """Persist the trajectory point (runs after the timing tests)."""
    if not _RESULTS:
        pytest.skip("no timings collected in this run")
    # Other benchmarks write their own sections on their own cadence; the
    # merge keeps them.  The file's config is this bench's.
    config = {
        "num_users": NUM_USERS,
        "num_items": NUM_ITEMS,
        "num_behaviors": NUM_BEHAVIORS,
        "embedding_dim": EMBEDDING_DIM,
        "catalog_models": CATALOG_MODELS,
    }
    write_sections(OUTPUT_PATH, SERVING_SCHEMA, _RESULTS, config=config)
