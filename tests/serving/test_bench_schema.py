"""The committed BENCH_serving.json must be a valid v6 trajectory record.

Tier-1 guard for the benchmark artifact the serving benchmarks co-write:
``benchmarks/test_catalog_serving.py`` (catalog/gateway numbers),
``benchmarks/test_retrieval_scaling.py`` (the retrieval scaling curve),
``benchmarks/test_worker_scaling.py`` (multi-process worker scaling),
``benchmarks/test_resilience_overhead.py`` (resilience-layer cost + SLO)
and ``benchmarks/test_scenario_replay.py`` (million-user scenario engine
replay).  A partial rewrite that drops another writer's section, or a
schema bump without regenerating the file, fails here instead of going
stale silently.
"""

import json
from pathlib import Path

import pytest

BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_serving.json"

SCHEMA = "repro-serving-bench/v6"
REQUIRED_SECTIONS = {
    "cold_start",
    "mixed_traffic",
    "warm_vs_cold_latency",
    "retrieval_scaling",
    "worker_scaling",
    "resilience",
    "scenario",
}
REQUIRED_POINT_KEYS = {
    "num_items",
    "num_cells",
    "nprobe",
    "index_build_seconds",
    "recall_at_10",
    "dense_request_ms",
    "retrieval_request_ms",
    "speedup",
}


@pytest.fixture(scope="module")
def bench():
    assert BENCH_PATH.exists(), f"{BENCH_PATH} missing; run the slow serving benchmarks"
    return json.loads(BENCH_PATH.read_text())


def test_schema_is_v6(bench):
    assert bench["schema"] == SCHEMA


def test_required_sections_present(bench):
    assert REQUIRED_SECTIONS <= set(bench["results"])


def test_scaling_curve_shape(bench):
    curve = bench["results"]["retrieval_scaling"]
    points = curve["points"]
    assert len(points) >= 3
    sizes = [point["num_items"] for point in points]
    assert sizes == sorted(sizes)
    assert sizes[-1] >= 1_000_000
    for point in points:
        assert REQUIRED_POINT_KEYS <= set(point), f"point {point['num_items']} missing keys"


@pytest.mark.parametrize(
    "section",
    [
        "retrieval_scaling",
        "cold_start",
        "mixed_traffic",
        "gateway_metrics",
        "metrics_overhead",
        "warm_vs_cold_latency",
    ],
)
def test_section_records_its_host(bench, section):
    host = bench["results"][section]["host"]
    assert {"nproc", "python", "numpy", "scipy", "git_sha"} <= set(host)


def test_warm_vs_cold_compares_cold_starts(bench):
    # Timed around the whole gateway call, a cold request pays the load
    # and refresh; even the warm tail sits below its median.
    section = bench["results"]["warm_vs_cold_latency"]
    assert section["warm_requests"] >= 1000, "too few warm requests for a p99"
    assert section["warm_p99_ms"] < section["cold_p50_ms"] <= section["cold_max_ms"]


def test_recall_gate_held_at_every_scale(bench):
    for point in bench["results"]["retrieval_scaling"]["points"]:
        assert point["recall_at_10"] >= 0.95, f"{point['num_items']} items: {point['recall_at_10']}"


def test_retrieval_beats_dense_at_scale(bench):
    # The PR's acceptance criterion: at >= 100k items, shortlist-then-rescore
    # must beat the dense per-request scan.
    at_scale = [
        point
        for point in bench["results"]["retrieval_scaling"]["points"]
        if point["num_items"] >= 100_000
    ]
    assert at_scale, "curve records no >=100k-item point"
    for point in at_scale:
        assert point["retrieval_request_ms"] < point["dense_request_ms"]
        assert point["speedup"] > 1.0


WORKER_POINT_KEYS = {
    "workers",
    "cpu_bound_req_s",
    "io_stall_req_s",
    "io_stall_speedup_vs_1",
    "cpu_bound_speedup_vs_1",
    "io_stall_fleet_p50_ms",
    "io_stall_fleet_p99_ms",
}


def test_worker_scaling_shape(bench):
    section = bench["results"]["worker_scaling"]
    # The environment the curve was measured on must be recorded: a flat
    # cpu-bound curve on 1 CPU and a flat one on 16 CPUs mean different things.
    assert section["cpus"] >= 1
    assert section["io_stall_ms"] > 0.0
    assert section["artifact_layout"] == "dir"
    points = section["points"]
    workers = [point["workers"] for point in points]
    assert workers == sorted(workers)
    assert workers[0] == 1 and workers[-1] >= 4
    for point in points:
        assert WORKER_POINT_KEYS <= set(point), f"{point['workers']}-worker point missing keys"
        assert point["io_stall_req_s"] > 0.0
        assert point["cpu_bound_req_s"] > 0.0


RESILIENCE_OVERHEAD_KEYS = {
    "plain_req_s",
    "resilient_req_s",
    "overhead_pct",
    "gate_pct",
    "trials",
}
RESILIENCE_SLO_KEYS = {
    "requests",
    "deadline_ms",
    "stall_ms",
    "stall_probability",
    "ok",
    "deadline_exceeded",
    "ok_p50_ms",
    "ok_p99_ms",
    "failure_p99_ms",
}


def test_resilience_section_shape(bench):
    section = bench["results"]["resilience"]
    assert RESILIENCE_OVERHEAD_KEYS <= set(section["overhead"])
    assert RESILIENCE_SLO_KEYS <= set(section["slo_under_stalls"])
    slo = section["slo_under_stalls"]
    assert slo["ok"] + slo["deadline_exceeded"] == slo["requests"]
    assert slo["deadline_exceeded"] > 0, "the recorded storm broke no deadlines"


def test_resilience_overhead_gate_held(bench):
    # The PR's acceptance criterion: the fully-armed resilience layer
    # (deadline + admission + breaker + fault probe) costs < 10% on the
    # happy path of the recorded run.
    overhead = bench["results"]["resilience"]["overhead"]
    assert overhead["overhead_pct"] < overhead["gate_pct"] == 10.0


SCENARIO_PHASE_KEYS = {
    "phase",
    "requests",
    "ok",
    "sheds",
    "deadline_exceeded",
    "errors",
    "ok_p50_ms",
    "ok_p95_ms",
    "ok_p99_ms",
    "offered_rps",
    "achieved_rps",
}


def _scenario_replays(bench):
    scenario = bench["results"]["scenario"]
    return scenario["gateway_replay"], scenario["worker_pool_replay"]


def test_scenario_population_shape(bench):
    population = bench["results"]["scenario"]["population"]
    # The acceptance criterion: the recorded run generated a >= 1M-user
    # population in blocks, with bounded memory and no quadratic blowup.
    assert population["num_users"] >= 1_000_000
    assert population["num_edges"] > 0 and population["num_behaviors"] > 0
    assert population["block_size"] < population["num_users"], (
        "the population must have been generated in blocks, not one pass"
    )
    assert len(population["digest"]) == 64  # the golden-seed sha256
    assert 0.0 < population["peak_rss_mib"] < population["rss_gate_mib"]
    assert population["linearity_ratio"] < 3.0


def test_scenario_replay_sections_shape(bench):
    for replay in _scenario_replays(bench):
        assert replay["ledger_reconciles"] is True
        assert replay["total_requests"] > 0
        phases = {entry["phase"]: entry for entry in replay["phases"]}
        assert {"baseline", "flash"} <= set(phases)
        for entry in phases.values():
            assert SCENARIO_PHASE_KEYS <= set(entry), f"phase {entry.get('phase')} missing keys"
            # Per-phase ledger balances: requests == ok + sheds + deadline + errors.
            assert entry["requests"] == (
                entry["ok"] + entry["sheds"] + entry["deadline_exceeded"] + entry["errors"]
            )
            assert entry["offered_rps"] > 0.0


def test_scenario_burst_ok_p99_gate_held(bench):
    # The PR's acceptance criterion: during the recorded flash burst the
    # gateway kept ok-request p99 under the gate the benchmark encodes.
    replay = bench["results"]["scenario"]["gateway_replay"]
    gate_ms = replay["burst_ok_p99_gate_ms"]
    assert gate_ms == 50.0
    flash = next(entry for entry in replay["phases"] if entry["phase"] == "flash")
    assert 0.0 < flash["ok_p99_ms"] < gate_ms
    # And the burst actually stressed the target: its offered rate must
    # exceed the baseline's (the multiplier was real).
    baseline = next(entry for entry in replay["phases"] if entry["phase"] == "baseline")
    assert flash["offered_rps"] > 2.0 * baseline["offered_rps"]


def test_scenario_achieved_vs_offered_recorded(bench):
    for replay in _scenario_replays(bench):
        for entry in replay["phases"]:
            assert entry["achieved_rps"] >= 0.0
            # Open-loop replay can lag but must not silently thin traffic:
            # achieved counts only ok requests, offered counts all.
            assert entry["achieved_rps"] <= entry["offered_rps"] * 1.05


def test_worker_scaling_io_stall_speedup_gate(bench):
    # The PR's acceptance criterion: with per-request blocking IO in the
    # picture, 4 workers must deliver >= 1.5x single-worker throughput.
    points = bench["results"]["worker_scaling"]["points"]
    top = max(points, key=lambda point: point["workers"])
    assert top["io_stall_speedup_vs_1"] >= 1.5, (
        f"{top['workers']}-worker io-stall speedup {top['io_stall_speedup_vs_1']:.2f}x "
        f"below the 1.5x gate"
    )
