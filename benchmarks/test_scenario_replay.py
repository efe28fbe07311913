"""Scenario engine at full scale: million-user population + SLO replay.

The standing stress rig ROADMAP item 3 calls for, in three measurements:

* **population generation** — a >= 1M-user :class:`SyntheticPopulation`
  generated in blocks; records wall time, peak RSS
  (``resource.ru_maxrss``) and a linearity check against a 250k-user run
  (block streaming must scale ~linearly — a quadratic path would blow
  the ratio out immediately);
* **gateway replay** — a diurnal + flash-burst :class:`RequestStream`
  replayed open-loop against a warm :class:`ServingGateway` over a
  training-sized slice of the population; per-phase p50/p95/p99, offered
  vs achieved req/s, and the burst-phase ok-p99 SLO gate
  (:data:`BURST_OK_P99_GATE_MS`) this file encodes and
  ``tests/serving/test_bench_schema.py`` re-validates against the
  committed artifact;
* **worker-pool replay** — the same traffic shape against a 2-worker
  :class:`WorkerPool` over dir-layout (mmap) artifacts, exercising the
  cross-process metrics merge under scheduled arrivals.

Results land in ``BENCH_serving.json`` under ``results.scenario``
(schema ``repro-serving-bench/v6``), co-preserving every other writer's
section.  Slow-gated: ``REPRO_RUN_SLOW=1``.
"""

import resource
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import PopulationGenerator, ScenarioConfig
from repro.models import ModelSettings, build_model
from repro.persist import LAYOUT_DIR, save_model
from repro.serving import (
    FlashBurst,
    ModelCatalog,
    ReplayHarness,
    ServingGateway,
    TrafficConfig,
    TrafficModel,
    WorkerPool,
)

from _bench import SERVING_SCHEMA, write_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"

#: The acceptance gate this benchmark encodes: during the flash burst,
#: successfully served requests must keep p99 under this bound.
BURST_OK_P99_GATE_MS = 50.0

POPULATION_CONFIG = ScenarioConfig.million_users()
LINEARITY_FACTOR = 0.25          # the smaller run the 1M timing is compared to
LINEARITY_SLACK = 3.0            # tolerated super-linearity (sort in dedup, noise)
PEAK_RSS_GATE_MIB = 6144.0       # 1M users must never need quadratic memory

#: Serving slice of the population (matches the other benchmarks' scale).
SERVE_USERS = 2000
SERVE_ITEMS = 1500
EMBEDDING_DIM = 16
TOP_K = 10

_RESULTS = {}


def _traffic(seed: int, base_rate: float, burst_multiplier: float) -> TrafficConfig:
    """The rig's canonical shape: one diurnal cycle + one flash burst."""
    return TrafficConfig(
        duration_seconds=20.0,
        base_rate_per_second=base_rate,
        diurnal_amplitude=0.3,
        diurnal_period_seconds=20.0,
        bursts=(
            FlashBurst(
                start_seconds=8.0,
                multiplier=burst_multiplier,
                rise_seconds=1.0,
                hold_seconds=4.0,
                decay_seconds=1.0,
                name="flash",
                hot_item_fraction=0.8,
                hot_items=16,
                deadline_seconds=0.20,
            ),
        ),
        deadline_seconds=0.5,
        item_exponent=POPULATION_CONFIG.item_exponent,
        seed=seed,
    )


@pytest.fixture(scope="module")
def population():
    return PopulationGenerator(POPULATION_CONFIG).generate()


@pytest.fixture(scope="module")
def serving_split(population):
    from repro.data import leave_one_out_split

    dataset = population.to_dataset(
        num_users=SERVE_USERS, num_items=SERVE_ITEMS, name="scenario-bench"
    )
    return leave_one_out_split(dataset, seed=1)


@pytest.mark.slow
@pytest.mark.scenario
def test_million_user_population_in_blocks(population):
    """>= 1M users generated block-streamed: linear-ish time, bounded RSS."""
    small_config = POPULATION_CONFIG.scaled(LINEARITY_FACTOR)
    started = time.perf_counter()
    PopulationGenerator(small_config).generate()
    small_seconds = time.perf_counter() - started

    generator = PopulationGenerator(POPULATION_CONFIG)
    started = time.perf_counter()
    full = generator.generate()
    full_seconds = time.perf_counter() - started
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    assert full.num_users >= 1_000_000
    assert full.digest() == population.digest()  # block-streamed AND deterministic

    scale = 1.0 / LINEARITY_FACTOR
    linearity_ratio = full_seconds / (small_seconds * scale)
    print(
        f"\nBENCH scenario population: {full.num_users:,} users / "
        f"{full.num_edges:,} edges / {full.num_behaviors:,} behaviors in "
        f"{full_seconds:.1f}s ({generator.user_blocks_generated} user blocks), "
        f"peak RSS {peak_rss_mib:,.0f} MiB, linearity ratio "
        f"{linearity_ratio:.2f} vs the {int(LINEARITY_FACTOR * 100)}% run"
    )
    _RESULTS["population"] = {
        "num_users": full.num_users,
        "num_items": full.num_items,
        "num_behaviors": full.num_behaviors,
        "num_edges": full.num_edges,
        "block_size": POPULATION_CONFIG.block_size,
        "digest": full.digest(),
        "generate_seconds": round(full_seconds, 2),
        "small_run_seconds": round(small_seconds, 2),
        "linearity_ratio": round(linearity_ratio, 2),
        "peak_rss_mib": round(peak_rss_mib, 1),
        "rss_gate_mib": PEAK_RSS_GATE_MIB,
    }
    # No quadratic blowup: 4x the users must not cost much more than 4x the
    # time (the slack covers the O(E log E) edge dedup and timer noise) ...
    assert linearity_ratio < LINEARITY_SLACK, (
        f"1M-user generation is {linearity_ratio:.1f}x super-linear — "
        f"a quadratic path crept in"
    )
    # ... nor quadratic memory.
    assert peak_rss_mib < PEAK_RSS_GATE_MIB


@pytest.fixture(scope="module")
def gateway_setup(tmp_path_factory, serving_split):
    directory = tmp_path_factory.mktemp("scenario-gateway")
    settings = ModelSettings(embedding_dim=EMBEDDING_DIM)
    save_model(build_model("MF", serving_split.train, settings), directory / "mf.npz")
    catalog = ModelCatalog(directory, serving_split.train)
    gateway = ServingGateway(catalog, default_model="mf")
    gateway.top_k(np.array([0]), k=TOP_K)  # absorb the cold start
    return gateway


@pytest.mark.slow
@pytest.mark.scenario
def test_replay_against_gateway(gateway_setup):
    """Diurnal + flash-burst stream, open-loop, against the warm gateway."""
    stream = TrafficModel(_traffic(seed=71, base_rate=60.0, burst_multiplier=5.0)).generate(
        num_users=SERVE_USERS, num_items=SERVE_ITEMS
    )
    report = ReplayHarness(
        gateway_setup, stream, k=TOP_K, speed=2.0, concurrency=4
    ).run()

    baseline = report.phase("baseline")
    flash = report.phase("flash")
    print(
        f"\nBENCH scenario gateway replay: {report.total_requests:,} requests "
        f"in {report.wall_seconds:.1f}s — baseline {baseline.achieved_rps:,.0f}/"
        f"{baseline.offered_rps:,.0f} req/s (p99 {baseline.ok_p99_ms:.1f} ms), "
        f"flash {flash.achieved_rps:,.0f}/{flash.offered_rps:,.0f} req/s "
        f"(p99 {flash.ok_p99_ms:.1f} ms, gate {BURST_OK_P99_GATE_MS:.0f} ms)"
    )
    _RESULTS["gateway_replay"] = {
        "target": "gateway",
        "burst_ok_p99_gate_ms": BURST_OK_P99_GATE_MS,
        **report.as_bench_section(),
    }
    assert report.ledger_reconciles, "replay ledger must balance per phase"
    assert report.total_requests == len(stream)
    # The SLO gate the schema test re-validates against the committed file.
    assert flash.ok_p99_ms < BURST_OK_P99_GATE_MS, (
        f"burst ok-p99 {flash.ok_p99_ms:.1f} ms breaches the "
        f"{BURST_OK_P99_GATE_MS:.0f} ms gate"
    )
    # Open loop kept up: the gateway served what the stream offered.
    assert flash.achieved_rps > 0.5 * flash.offered_rps


@pytest.mark.slow
@pytest.mark.scenario
def test_replay_against_worker_pool(tmp_path_factory, serving_split):
    """The same traffic shape against a 2-worker pool (mmap dir artifacts)."""
    directory = tmp_path_factory.mktemp("scenario-pool")
    settings = ModelSettings(embedding_dim=EMBEDDING_DIM)
    save_model(
        build_model("MF", serving_split.train, settings),
        directory / "mf.npyd",
        layout=LAYOUT_DIR,
    )
    stream = TrafficModel(_traffic(seed=72, base_rate=25.0, burst_multiplier=4.0)).generate(
        num_users=SERVE_USERS, num_items=SERVE_ITEMS
    )
    with WorkerPool(
        directory,
        serving_split.train,
        workers=2,
        default_model="mf",
        default_k=TOP_K,
        request_timeout=120.0,
    ) as pool:
        pool.top_k(np.array([0]))  # absorb worker cold starts
        report = ReplayHarness(pool, stream, k=TOP_K, speed=2.0, concurrency=2).run()
        fleet = pool.fleet_metrics()

    flash = report.phase("flash")
    print(
        f"\nBENCH scenario pool replay (2 workers): {report.total_requests:,} "
        f"requests in {report.wall_seconds:.1f}s — flash "
        f"{flash.achieved_rps:,.0f}/{flash.offered_rps:,.0f} req/s "
        f"(p99 {flash.ok_p99_ms:.1f} ms), fleet served "
        f"{fleet['totals']['requests']} requests across {fleet['workers']} workers"
    )
    _RESULTS["worker_pool_replay"] = {
        "target": "worker_pool",
        "workers": 2,
        "fleet_requests": int(fleet["totals"]["requests"]),
        **report.as_bench_section(),
    }
    assert report.ledger_reconciles
    assert report.total_requests == len(stream)
    # Every ok request the replay counted was actually served by a worker.
    ok_total = sum(p.ok for p in report.phases)
    assert int(fleet["totals"]["requests"]) >= ok_total


@pytest.mark.slow
@pytest.mark.scenario
def test_write_scenario_into_bench_json():
    """Merge the section into BENCH_serving.json (runs after the replays)."""
    if not _RESULTS:
        pytest.skip("no scenario measurements collected in this run")
    scenario = {
        "population_config": {
            "num_users": POPULATION_CONFIG.num_users,
            "num_items": POPULATION_CONFIG.num_items,
            "num_behaviors": POPULATION_CONFIG.num_behaviors,
            "num_communities": POPULATION_CONFIG.num_communities,
            "seed": POPULATION_CONFIG.seed,
        },
        "serve_users": SERVE_USERS,
        "serve_items": SERVE_ITEMS,
        **_RESULTS,
    }
    write_sections(OUTPUT_PATH, SERVING_SCHEMA, {"scenario": scenario})
