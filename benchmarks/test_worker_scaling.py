"""Throughput vs. worker count for the multi-process serving tier.

Measures ``WorkerPool`` request throughput at 1, 2 and 4 workers over the
same dir-layout (mmap-backed) artifacts, under two request profiles:

* **cpu-bound** — pure scoring, no artificial stall.  On a box with a
  single CPU this curve is expected to be flat (or slightly worse, from
  queue hops): worker processes cannot out-multiply the cores.
* **io-stall** — every request carries a fixed ``simulate_io_seconds``
  sleep, standing in for the per-request blocking IO a real deployment
  sees (feature fetches, remote stores).  Stalls overlap across
  processes, so this curve must scale: the 4-worker point is gated at
  >= 1.5x the 1-worker point regardless of core count.

Each point also records what one worker costs: ``start_s``, the wall
time of ``WorkerPool.start()`` (the faster of the point's two pools), and
the largest worker ``VmRSS`` and ``RssAnon`` after warm-up, read from
``/proc/<pid>/status`` of this process's ``spawn_main`` children.

Results land in ``BENCH_serving.json`` under ``results.worker_scaling``
(schema ``repro-serving-bench/v6``) with the host they were measured on,
alongside the single-process serving and retrieval sections.
Slow-gated: ``REPRO_RUN_SLOW=1``.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import GroupBuyingDataset, leave_one_out_split
from repro.data.schema import GroupBuyingBehavior, SocialEdge
from repro.models import ModelSettings, build_model
from repro.persist import LAYOUT_DIR, save_model
from repro.serving import WorkerPool

from _bench import SERVING_SCHEMA, host_block, write_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"

NUM_USERS = 2000
NUM_ITEMS = 1500
NUM_BEHAVIORS = 10000
EMBEDDING_DIM = 16
TOP_K = 10

WORKER_COUNTS = [1, 2, 4]
IO_STALL_SECONDS = 0.003  # per-request synthetic blocking IO (3 ms)
BATCH_USERS = 48          # users per request
NUM_REQUESTS = 96         # timed requests per (workers, profile) point
WARMUP_REQUESTS = 8

_RESULTS = {}


def _bench_split():
    rng = np.random.default_rng(4242)
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
    dataset = GroupBuyingDataset(NUM_USERS, NUM_ITEMS, behaviors, edges, name="worker-bench")
    return leave_one_out_split(dataset, seed=7)


@pytest.fixture(scope="module")
def pool_setup(tmp_path_factory):
    split = _bench_split()
    directory = tmp_path_factory.mktemp("worker-scaling")
    settings = ModelSettings(embedding_dim=EMBEDDING_DIM)
    model = build_model("MF", split.train, settings)
    save_model(model, directory / "mf.npyd", layout=LAYOUT_DIR)
    return directory, split


def _request_batches(split, count):
    rng = np.random.default_rng(99)
    return [
        rng.integers(0, split.train.num_users, size=BATCH_USERS) for _ in range(count)
    ]


def _worker_memory_mib():
    """Largest ``VmRSS`` and ``RssAnon`` (MiB) over this process's spawn workers."""
    largest = {"VmRSS": 0.0, "RssAnon": 0.0}
    workers = 0
    for status_path in Path("/proc").glob("[0-9]*/status"):
        try:
            status = status_path.read_text()
            cmdline = (status_path.parent / "cmdline").read_bytes()
        except OSError:  # the process ended while we looked
            continue
        fields = dict(line.split(":", 1) for line in status.splitlines() if ":" in line)
        if int(fields["PPid"]) != os.getpid() or b"spawn_main" not in cmdline:
            continue
        workers += 1
        for key in largest:
            largest[key] = max(largest[key], int(fields[key].split()[0]) / 1024.0)
    return workers, largest["VmRSS"], largest["RssAnon"]


def _measure(directory, split, workers, simulate_io_seconds):
    """req/s, fleet latency, start time and worker memory for one (workers, profile) point."""
    batches = _request_batches(split, NUM_REQUESTS)
    pool = WorkerPool(
        directory,
        split.train,
        workers=workers,
        default_model="mf",
        default_k=TOP_K,
        request_timeout=120.0,
        simulate_io_seconds=simulate_io_seconds,
    )
    started = time.perf_counter()
    pool.start()
    start_s = time.perf_counter() - started
    try:
        pool.top_k_many(batches[:WARMUP_REQUESTS])
        found, vmrss_mib, rss_anon_mib = _worker_memory_mib()
        start = time.perf_counter()
        results = pool.top_k_many(batches)
        elapsed = time.perf_counter() - start
        fleet = pool.fleet_metrics()
    finally:
        pool.stop()
    assert found == workers, f"found {found} spawn workers, expected {workers}"
    assert len(results) == NUM_REQUESTS
    latency = fleet["totals"]["request_latency"]
    return {
        "req_s": NUM_REQUESTS / elapsed,
        "elapsed_s": elapsed,
        "fleet_p50_ms": latency["p50"] * 1000.0,
        "fleet_p99_ms": latency["p99"] * 1000.0,
        "start_s": start_s,
        "worker_vmrss_mib": vmrss_mib,
        "worker_rss_anon_mib": rss_anon_mib,
    }


@pytest.mark.slow
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_worker_scaling_point(pool_setup, workers):
    directory, split = pool_setup
    cpu_bound = _measure(directory, split, workers, simulate_io_seconds=0.0)
    io_stall = _measure(directory, split, workers, simulate_io_seconds=IO_STALL_SECONDS)
    _RESULTS[workers] = {
        "workers": workers,
        "cpu_bound_req_s": cpu_bound["req_s"],
        "io_stall_req_s": io_stall["req_s"],
        "io_stall_fleet_p50_ms": io_stall["fleet_p50_ms"],
        "io_stall_fleet_p99_ms": io_stall["fleet_p99_ms"],
        "start_s": min(cpu_bound["start_s"], io_stall["start_s"]),
        "worker_vmrss_mib": max(cpu_bound["worker_vmrss_mib"], io_stall["worker_vmrss_mib"]),
        "worker_rss_anon_mib": max(
            cpu_bound["worker_rss_anon_mib"], io_stall["worker_rss_anon_mib"]
        ),
    }
    point = _RESULTS[workers]
    print(
        f"\nworkers={workers}: cpu-bound {cpu_bound['req_s']:.1f} req/s, "
        f"io-stall {io_stall['req_s']:.1f} req/s "
        f"(p50 {io_stall['fleet_p50_ms']:.2f} ms, p99 {io_stall['fleet_p99_ms']:.2f} ms); "
        f"start {point['start_s']:.2f} s, worker RSS {point['worker_vmrss_mib']:.1f} MiB "
        f"({point['worker_rss_anon_mib']:.1f} MiB anonymous)"
    )


@pytest.mark.slow
def test_io_stall_throughput_scales(pool_setup):
    """The headline gate: overlapping stalls buy >= 1.5x at 4 workers."""
    if set(WORKER_COUNTS) - set(_RESULTS):
        pytest.skip("scaling points did not all run in this session")
    base = _RESULTS[1]["io_stall_req_s"]
    top = _RESULTS[max(WORKER_COUNTS)]["io_stall_req_s"]
    speedup = top / base
    print(f"\nio-stall speedup at {max(WORKER_COUNTS)} workers: {speedup:.2f}x")
    assert speedup >= 1.5, (
        f"io-stall throughput at {max(WORKER_COUNTS)} workers is only {speedup:.2f}x "
        f"the single-worker baseline (gate: 1.5x)"
    )


@pytest.mark.slow
def test_write_worker_scaling_into_bench_json(pool_setup):
    """Merge the curve into BENCH_serving.json (runs after the points)."""
    if not _RESULTS:
        pytest.skip("no scaling points collected in this run")
    points = [_RESULTS[w] for w in sorted(_RESULTS)]
    base = points[0]["io_stall_req_s"]
    cpu_base = points[0]["cpu_bound_req_s"]
    for point in points:
        point["io_stall_speedup_vs_1"] = point["io_stall_req_s"] / base
        point["cpu_bound_speedup_vs_1"] = point["cpu_bound_req_s"] / cpu_base
    worker_scaling = {
        "host": host_block(),
        "cpus": os.cpu_count(),
        "io_stall_ms": IO_STALL_SECONDS * 1000.0,
        "embedding_dim": EMBEDDING_DIM,
        "num_items": NUM_ITEMS,
        "num_users": NUM_USERS,
        "batch_users": BATCH_USERS,
        "requests_per_point": NUM_REQUESTS,
        "top_k": TOP_K,
        "model": "MF",
        "artifact_layout": "dir",
        "points": points,
    }
    write_sections(OUTPUT_PATH, SERVING_SCHEMA, {"worker_scaling": worker_scaling})
