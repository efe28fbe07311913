"""Seeded multi-thread stress suite for the serving runtime (``-m stress``).

The catalog's thread-safety contract, checked head-on:

* **oracle parity** — N threads hammering a ``resident_budget=2`` catalog
  with mixed ``top_k``/``warm``/``evict``/hot-swap traffic produce results
  bitwise identical to replaying the same ops sequentially on a fresh
  catalog (serving results depend only on the artifact bytes, never on
  residency state or interleaving);
* **single-flight cold starts** — two threads never load the same artifact
  concurrently (per-entry load locks; the loser of the race reuses the
  winner's resident);
* **no torn reads** — requests racing a hot-swap return either the old or
  the new model's lists, never a mixture.

Collected by the tier-1 run at small scale (a few seconds); the `stress`
marker selects the suite alone (``pytest -m stress``).
"""

import threading
from collections import defaultdict

import numpy as np
import pytest

import repro.persist as persist
from repro.models import ModelSettings, build_model
from repro.persist import copy_artifact, save_model
from repro.serving import EmbeddingStore, ModelCatalog, ServingGateway, TopKRecommender, TrafficSplit

pytestmark = pytest.mark.stress

SETTINGS = ModelSettings(embedding_dim=8)
CATALOG_MODELS = {"gbgcn": "GBGCN", "mf": "MF", "itempop": "ItemPop"}
NUM_THREADS = 4
OPS_PER_THREAD = 24


@pytest.fixture()
def catalog_dir(small_split, tmp_path):
    directory = tmp_path / "models"
    for stem, model_name in CATALOG_MODELS.items():
        save_model(build_model(model_name, small_split.train, SETTINGS), directory / f"{stem}.npz")
    return directory


def _run_threads(workers):
    """Start, join, and re-raise the first exception from any worker."""
    failures = []

    def guarded(worker):
        def run():
            try:
                worker()
            except BaseException as error:  # noqa: BLE001 — surfaced below
                failures.append(error)

        return run

    threads = [threading.Thread(target=guarded(worker)) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


class _SingleFlightProbe:
    """Wraps ``load_model`` to detect concurrent loads of the same artifact."""

    def __init__(self, real_load):
        self.real_load = real_load
        self.lock = threading.Lock()
        self.in_flight = set()
        self.loads = defaultdict(int)
        self.violations = []

    def __call__(self, path, dataset):
        name = path.stem
        with self.lock:
            if name in self.in_flight:
                self.violations.append(name)
            self.in_flight.add(name)
            self.loads[name] += 1
        try:
            return self.real_load(path, dataset)
        finally:
            with self.lock:
                self.in_flight.discard(name)


def _mixed_ops(seed, count, users_pool):
    """Deterministic mixed op stream: (kind, model, users)."""
    rng = np.random.default_rng(seed)
    names = sorted(CATALOG_MODELS)
    ops = []
    for _ in range(count):
        name = names[int(rng.integers(len(names)))]
        roll = float(rng.random())
        if roll < 0.70:
            users = rng.choice(users_pool, size=int(rng.integers(1, 9)), replace=False)
            ops.append(("top_k", name, np.sort(users).astype(np.int64)))
        elif roll < 0.85:
            ops.append(("warm", name, None))
        else:
            ops.append(("evict", name, None))
    return ops


class TestMixedTrafficOracleParity:
    def test_concurrent_results_bitwise_identical_to_sequential_replay(
        self, catalog_dir, small_split, monkeypatch, lock_watchdog
    ):
        users_pool = np.asarray(sorted(small_split.test))[:24]
        per_thread_ops = [
            _mixed_ops(seed=1000 + index, count=OPS_PER_THREAD, users_pool=users_pool)
            for index in range(NUM_THREADS)
        ]

        # Sequential oracle: one thread, one catalog, ops in order.
        oracle = ModelCatalog(catalog_dir, small_split.train, resident_budget=2)
        expected = [
            [
                oracle.recommender(name).recommend(users) if kind == "top_k" else None
                for kind, name, users in ops
            ]
            for ops in per_thread_ops
        ]

        probe = _SingleFlightProbe(persist.load_model)
        monkeypatch.setattr(persist, "load_model", probe)
        catalog = ModelCatalog(catalog_dir, small_split.train, resident_budget=2)
        lock_watchdog.watch_stack(catalog)
        results = [[None] * OPS_PER_THREAD for _ in range(NUM_THREADS)]
        barrier = threading.Barrier(NUM_THREADS)

        def worker(index):
            def run():
                barrier.wait()
                for op_index, (kind, name, users) in enumerate(per_thread_ops[index]):
                    if kind == "top_k":
                        results[index][op_index] = catalog.recommender(name).recommend(users)
                    elif kind == "warm":
                        catalog.warm(name)
                    else:
                        catalog.evict(name)

            return run

        _run_threads([worker(index) for index in range(NUM_THREADS)])

        # No torn reads, no interleaving effects: every op's result equals
        # the sequential replay's, bitwise.
        for thread_results, thread_expected in zip(results, expected):
            for result, reference in zip(thread_results, thread_expected):
                if reference is None:
                    continue
                assert np.array_equal(result.items, reference.items)
                assert np.array_equal(result.scores, reference.scores)

        # No model was ever cold-started by two threads at once.
        assert probe.violations == []
        # Internal accounting stayed consistent under the races.
        assert catalog.stats.cold_starts == sum(probe.loads.values())
        assert len(catalog.resident_names) <= 2

    def test_thundering_herd_cold_starts_exactly_once(
        self, catalog_dir, small_split, monkeypatch, lock_watchdog
    ):
        probe = _SingleFlightProbe(persist.load_model)
        monkeypatch.setattr(persist, "load_model", probe)
        catalog = ModelCatalog(catalog_dir, small_split.train)
        lock_watchdog.watch_stack(catalog)
        users = np.asarray(sorted(small_split.test))[:8]
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        results = [None] * num_threads

        def worker(index):
            def run():
                barrier.wait()
                results[index] = catalog.recommender("gbgcn").recommend(users)

            return run

        _run_threads([worker(index) for index in range(num_threads)])

        assert probe.loads["gbgcn"] == 1  # the herd shared one load
        assert catalog.stats.cold_starts == 1
        assert catalog.stats.hits == num_threads - 1
        for result in results[1:]:
            assert np.array_equal(result.items, results[0].items)


class TestHotSwapUnderTraffic:
    def test_requests_racing_a_swap_see_old_or_new_never_torn(
        self, catalog_dir, small_split, tmp_path
    ):
        users = np.asarray(sorted(small_split.test))[:12]
        path = catalog_dir / "mf.npz"

        # Pre-build every version the publisher will push, plus its
        # reference result set.
        versions_dir = tmp_path / "versions"
        references = []
        for version_seed in range(4):
            model = build_model(
                "MF", small_split.train, SETTINGS, rng=np.random.default_rng(version_seed)
            )
            version_path = versions_dir / f"v{version_seed}.npz"
            save_model(model, version_path)
            store = EmbeddingStore.from_artifact(version_path, small_split.train)
            reference = TopKRecommender(store, k=10, dataset=small_split.train).recommend(users)
            references.append(reference)
        copy_artifact(versions_dir / "v0.npz", path)

        catalog = ModelCatalog(catalog_dir, small_split.train)
        catalog.warm("mf")
        stop = threading.Event()
        observed = []
        observed_lock = threading.Lock()

        def serve():
            while not stop.is_set():
                result = catalog.recommender("mf").recommend(users)
                with observed_lock:
                    observed.append(result)

        def publish():
            for version_seed in range(1, 4):
                copy_artifact(versions_dir / f"v{version_seed}.npz", path)
                catalog.reload("mf")  # take the swap now (as a warmer cycle would)
            stop.set()

        _run_threads([serve, serve, publish])

        assert len(observed) >= 3
        reference_items = [reference.items for reference in references]
        for result in observed:
            matches = [np.array_equal(result.items, items) for items in reference_items]
            assert any(matches), "request returned lists matching no published version (torn read)"
        # The final state serves the last published version.
        final = catalog.recommender("mf").recommend(users)
        assert np.array_equal(final.items, reference_items[-1])


class TestGatewayConcurrency:
    def test_split_traffic_from_many_threads_counts_every_row(self, catalog_dir, small_split):
        catalog = ModelCatalog(catalog_dir, small_split.train, resident_budget=2)
        gateway = ServingGateway(catalog, default_model="mf")
        split = TrafficSplit({"mf": 0.5, "gbgcn": 0.3, "itempop": 0.2}, seed=9)
        users = np.asarray(sorted(small_split.test))[:20]
        num_threads, rounds = 4, 6
        barrier = threading.Barrier(num_threads)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                gateway.top_k_split(split, users, k=5)

        _run_threads([worker] * num_threads)

        total_rows = num_threads * rounds * users.size
        snap = gateway.metrics.snapshot()
        assert snap["totals"]["rows_served"] == total_rows
