"""ModelCatalog: scan, lazy cold-start, LRU budget, hot-swap, parity."""

import os

import numpy as np
import pytest

from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
from repro.graph import BipartiteGraph, FriendshipGraph, SharingGraph, build_hetero_graph
from repro.models import ModelSettings, build_model
from repro.persist import load_model, save_model
from repro.serving import (
    CatalogError,
    CircuitOpenError,
    EmbeddingStore,
    ModelCatalog,
    ResiliencePolicy,
    RetrievalPolicy,
    ServingGateway,
    TopKRecommender,
    UnknownCatalogModelError,
)

SETTINGS = ModelSettings(embedding_dim=8)
CATALOG_MODELS = {"gbgcn": "GBGCN", "gbgcn-pretrain": "GBGCN-pretrain", "mf": "MF"}


def write_artifacts(directory, split):
    for stem, model_name in CATALOG_MODELS.items():
        save_model(build_model(model_name, split.train, SETTINGS), directory / f"{stem}.npz")


@pytest.fixture()
def catalog_dir(small_split, tmp_path):
    directory = tmp_path / "models"
    write_artifacts(directory, small_split)
    return directory


@pytest.fixture()
def catalog(catalog_dir, small_split):
    return ModelCatalog(catalog_dir, small_split.train)


def some_users(split):
    return np.asarray(sorted(split.test))[:16]


class TestScan:
    def test_lists_all_servable_artifacts(self, catalog):
        assert catalog.names == sorted(CATALOG_MODELS)
        assert len(catalog) == 3
        assert "gbgcn" in catalog
        assert catalog.rejected == {}

    def test_nothing_is_loaded_before_first_request(self, catalog):
        assert catalog.resident_names == []
        assert catalog.stats.cold_starts == 0

    def test_unknown_name_error_lists_catalog(self, catalog):
        with pytest.raises(UnknownCatalogModelError, match=r"gbgcn.*mf"):
            catalog.entry("nope")

    def test_garbage_file_is_rejected_with_reason(self, catalog_dir, small_split):
        (catalog_dir / "junk.npz").write_bytes(b"zzz")
        catalog = ModelCatalog(catalog_dir, small_split.train)
        assert catalog.names == sorted(CATALOG_MODELS)
        assert "junk.npz" in catalog.rejected

    def test_wrong_dataset_artifact_is_rejected(self, catalog_dir, small_split):
        other = leave_one_out_split(
            generate_dataset(BeibeiLikeConfig(num_users=50, num_items=25, num_behaviors=220, seed=123))
        )
        save_model(build_model("MF", other.train, SETTINGS), catalog_dir / "foreign.npz")
        catalog = ModelCatalog(catalog_dir, small_split.train)
        assert "foreign" not in catalog.names
        assert "different dataset" in catalog.rejected["foreign.npz"]

    def test_unknown_model_name_is_rejected_with_registry_names(self, catalog_dir, small_split):
        model = build_model("MF", small_split.train, SETTINGS)
        save_model(model, catalog_dir / "fancy.npz", model_name="FancyNet")
        catalog = ModelCatalog(catalog_dir, small_split.train)
        assert "fancy" not in catalog.names
        assert "FancyNet" in catalog.rejected["fancy.npz"]
        assert "GBGCN" in catalog.rejected["fancy.npz"]

    def test_rescan_picks_up_new_artifact(self, catalog, catalog_dir, small_split):
        assert "itempop" not in catalog
        save_model(build_model("ItemPop", small_split.train, SETTINGS), catalog_dir / "itempop.npz")
        catalog.scan()
        assert "itempop" in catalog

    def test_rescan_drops_removed_artifact_and_evicts(self, catalog, catalog_dir, small_split):
        catalog.warm("mf")
        (catalog_dir / "mf.npz").unlink()
        catalog.scan()
        assert "mf" not in catalog
        assert "mf" not in catalog.resident_names


class TestLazyColdStartAndParity:
    def test_first_request_loads_only_that_model(self, catalog, small_split):
        users = some_users(small_split)
        catalog.recommender("mf").recommend(users)
        assert catalog.resident_names == ["mf"]
        assert catalog.stats.cold_starts == 1
        assert catalog.entry("mf").last_cold_start_seconds > 0.0

    @pytest.mark.parametrize("stem", sorted(CATALOG_MODELS))
    def test_results_bitwise_identical_to_per_model_store(
        self, stem, catalog, catalog_dir, small_split
    ):
        users = some_users(small_split)
        result = catalog.recommender(stem, k=10).recommend(users)
        reference_store = EmbeddingStore.from_artifact(catalog_dir / f"{stem}.npz", small_split.train)
        reference = TopKRecommender(reference_store, k=10, dataset=small_split.train).recommend(users)
        assert np.array_equal(result.items, reference.items)
        assert np.array_equal(result.scores, reference.scores)

    def test_recommender_is_reused_across_requests(self, catalog, small_split):
        first = catalog.recommender("mf")
        assert catalog.recommender("mf") is first
        assert catalog.stats.cold_starts == 1
        assert catalog.stats.hits >= 1

    def test_k_override_does_not_clobber_cached_recommender(self, catalog, small_split):
        users = some_users(small_split)
        cached = catalog.recommender("mf")
        assert cached.k == catalog.default_k
        override = catalog.recommender("mf", k=3)
        assert override is not cached
        assert override.k == 3
        assert override._observed_matrix is cached._observed_matrix  # still shared
        # Later k-less calls keep the catalog default, unaffected by the override.
        assert catalog.recommender("mf") is cached
        assert catalog.recommender("mf").recommend(users).items.shape[1] == catalog.default_k

    def test_observed_matrix_shared_across_models(self, catalog):
        first = catalog.recommender("mf")._observed_matrix
        second = catalog.recommender("gbgcn")._observed_matrix
        assert first is second


class TestResidencyBudget:
    def test_lru_eviction_over_budget(self, catalog_dir, small_split):
        catalog = ModelCatalog(catalog_dir, small_split.train, resident_budget=2)
        catalog.warm("gbgcn")
        catalog.warm("mf")
        catalog.warm("gbgcn-pretrain")  # budget 2: 'gbgcn' is LRU, evicted
        assert catalog.resident_names == ["mf", "gbgcn-pretrain"]
        assert catalog.stats.evictions == 1

    def test_access_refreshes_recency(self, catalog_dir, small_split):
        catalog = ModelCatalog(catalog_dir, small_split.train, resident_budget=2)
        users = some_users(small_split)
        catalog.warm("gbgcn")
        catalog.warm("mf")
        catalog.recommender("gbgcn").recommend(users)  # gbgcn now most recent
        catalog.warm("gbgcn-pretrain")
        assert catalog.resident_names == ["gbgcn", "gbgcn-pretrain"]

    def test_evicted_model_cold_starts_again_with_identical_results(
        self, catalog_dir, small_split
    ):
        catalog = ModelCatalog(catalog_dir, small_split.train, resident_budget=1)
        users = some_users(small_split)
        before = catalog.recommender("mf").recommend(users)
        catalog.recommender("gbgcn").recommend(users)  # evicts mf
        assert catalog.resident_names == ["gbgcn"]
        after = catalog.recommender("mf").recommend(users)
        assert np.array_equal(before.items, after.items)
        assert catalog.stats.cold_starts == 3

    def test_warm_returns_cold_start_seconds_once(self, catalog):
        first = catalog.warm("mf")
        assert first > 0.0
        assert catalog.warm("mf") == 0.0

    def test_explicit_evict(self, catalog):
        catalog.warm("mf")
        assert catalog.evict("mf")
        assert catalog.resident_names == []
        assert not catalog.evict("mf")  # already gone

    def test_warm_all_and_evict_all(self, catalog):
        seconds = catalog.warm_all()
        assert sorted(seconds) == sorted(CATALOG_MODELS)
        assert all(value > 0.0 for value in seconds.values())
        catalog.evict_all()
        assert catalog.resident_names == []

    def test_budget_must_be_positive(self, catalog_dir, small_split):
        with pytest.raises(ValueError, match="resident_budget"):
            ModelCatalog(catalog_dir, small_split.train, resident_budget=0)


class TestHotSwap:
    def test_replaced_artifact_is_reloaded_with_version_bump(
        self, catalog, catalog_dir, small_split
    ):
        users = some_users(small_split)
        before = catalog.recommender("mf").recommend(users)
        assert catalog.entry("mf").version == 1

        # Publish a differently-initialized MF into the same file (atomic
        # replace, exactly what ModelCheckpoint's catalog publishing does).
        replacement = build_model(
            "MF", small_split.train, SETTINGS, rng=np.random.default_rng(2024)
        )
        save_model(replacement, catalog_dir / "mf.npz")

        after = catalog.recommender("mf").recommend(users)
        assert catalog.entry("mf").version == 2
        assert catalog.stats.reloads == 1
        assert not np.array_equal(before.scores, after.scores)

        reference_store = EmbeddingStore.from_artifact(catalog_dir / "mf.npz", small_split.train)
        reference = TopKRecommender(reference_store, k=10, dataset=small_split.train).recommend(users)
        assert np.array_equal(after.items, reference.items)

    def test_vanished_artifact_raises_and_drops_entry(self, catalog, catalog_dir, small_split):
        catalog.warm("mf")
        (catalog_dir / "mf.npz").unlink()
        with pytest.raises(CatalogError, match="disappeared"):
            catalog.store("mf")
        assert "mf" not in catalog
        assert "mf" not in catalog.resident_names

    def test_swapped_in_unservable_artifact_fails_loudly(
        self, catalog, catalog_dir, small_split
    ):
        catalog.warm("mf")
        (catalog_dir / "mf.npz").write_bytes(b"corrupted by a partial copy")
        with pytest.raises(CatalogError):
            catalog.store("mf")
        assert "mf" not in catalog
        assert "mf.npz" in catalog.rejected

    def test_pinned_mtime_same_size_replacement_is_still_swapped(
        self, catalog, catalog_dir, small_split
    ):
        # Regression: the staleness check used to trust (st_size, st_mtime_ns)
        # alone, so a same-size replacement landing within one mtime tick
        # (coarse-mtime filesystems, fast CI) served stale weights forever.
        # The content token (npz CRC digest) must catch it.
        users = some_users(small_split)
        path = catalog_dir / "mf.npz"
        before = catalog.recommender("mf").recommend(users)
        stat = os.stat(path)

        replacement = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(77))
        save_model(replacement, path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # pin the stat identity
        pinned = os.stat(path)
        assert (pinned.st_size, pinned.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)

        after = catalog.recommender("mf").recommend(users)
        assert catalog.entry("mf").version == 2
        assert catalog.stats.reloads == 1
        assert not np.array_equal(before.scores, after.scores)
        reference_store = EmbeddingStore.from_artifact(path, small_split.train)
        reference = TopKRecommender(reference_store, k=10, dataset=small_split.train).recommend(users)
        assert np.array_equal(after.items, reference.items)

    def test_rescan_detects_pinned_mtime_replacement(self, catalog, catalog_dir, small_split):
        # The warmer path: scan() itself must version-bump a stat-identical
        # replacement so the background cycle reloads it off the request path.
        catalog.warm("mf")
        path = catalog_dir / "mf.npz"
        stat = os.stat(path)
        replacement = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(78))
        save_model(replacement, path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        catalog.scan()
        assert catalog.entry("mf").version == 2

    def test_stale_mtime_outside_grace_window_skips_token_but_scan_catches(
        self, catalog_dir, small_split
    ):
        # Steady state (mtime far in the past) is stat-only on access; a
        # back-dated pinned replacement is then invisible per-access but
        # still caught by scan() — the warmer's job.
        users = some_users(small_split)
        path = catalog_dir / "mf.npz"
        old_ns = os.stat(path).st_mtime_ns - int(300 * 1e9)  # 5 minutes ago
        os.utime(path, ns=(old_ns, old_ns))
        catalog = ModelCatalog(catalog_dir, small_split.train)
        before = catalog.recommender("mf").recommend(users)

        replacement = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(81))
        save_model(replacement, path)
        os.utime(path, ns=(old_ns, old_ns))  # back-date past the grace window
        assert np.array_equal(catalog.recommender("mf").recommend(users).items, before.items)
        assert catalog.entry("mf").version == 1  # access-time fast path trusted stat

        catalog.scan()  # the rescan always compares content tokens
        assert catalog.entry("mf").version == 2
        assert not np.array_equal(catalog.recommender("mf").recommend(users).scores, before.scores)

    def test_periodic_recheck_finds_idle_tail_swap_within_one_grace_period(
        self, catalog_dir, small_split
    ):
        # A same-tick swap whose first access comes long after the grace
        # window must still be found by the once-per-grace-period re-check
        # (simulated by expiring the entry's last verification time).
        users = some_users(small_split)
        path = catalog_dir / "mf.npz"
        old_ns = os.stat(path).st_mtime_ns - int(300 * 1e9)
        os.utime(path, ns=(old_ns, old_ns))
        catalog = ModelCatalog(catalog_dir, small_split.train)
        before = catalog.recommender("mf").recommend(users)

        replacement = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(82))
        save_model(replacement, path)
        os.utime(path, ns=(old_ns, old_ns))
        catalog.entry("mf").last_content_check_ns = 0  # a grace period elapses
        after = catalog.recommender("mf").recommend(users)
        assert catalog.entry("mf").version == 2
        assert not np.array_equal(after.scores, before.scores)

    def test_reload_scans_for_a_name_published_after_construction(
        self, catalog_dir, small_split, tmp_path
    ):
        # The on_publish wiring must work for a model's *first* publish:
        # reload of a never-indexed name scans the directory first.
        empty = tmp_path / "empty-fleet"
        empty.mkdir()
        catalog = ModelCatalog(empty, small_split.train)
        assert catalog.names == []
        save_model(build_model("MF", small_split.train, SETTINGS), empty / "mf.npz")
        assert catalog.reload("mf", force=True) == 2
        users = some_users(small_split)
        assert catalog.recommender("mf").recommend(users).items.shape[1] == catalog.default_k
        with pytest.raises(UnknownCatalogModelError):
            catalog.reload("never-published", force=True)

    def test_reload_without_force_runs_ordinary_freshness_check(
        self, catalog, catalog_dir, small_split
    ):
        catalog.warm("mf")
        assert catalog.reload("mf") == 1  # nothing changed
        replacement = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(80))
        save_model(replacement, catalog_dir / "mf.npz")
        assert catalog.reload("mf") == 2  # swap taken now, off the request path
        assert catalog.reload("mf", force=True) == 3  # force always re-reads

    def test_file_vanishing_during_cold_start_degrades_to_catalog_error(
        self, catalog, catalog_dir, small_split, monkeypatch
    ):
        # TOCTOU: freshness check passes, then the file is deleted before
        # load_model reads the weights.  The serving request must see a
        # CatalogError (entry dropped), never a raw FileNotFoundError.
        import repro.persist as persist

        real_load = persist.load_model

        def delete_then_load(path, dataset):
            os.unlink(path)
            return real_load(path, dataset)

        monkeypatch.setattr(persist, "load_model", delete_then_load)
        with pytest.raises(CatalogError, match="disappeared"):
            catalog.store("mf")
        assert "mf" not in catalog
        assert "mf" not in catalog.resident_names


class TestColdStartAfterLoadFails:
    """A failure after ``load_model`` (factors, index) is typed, counted and breakable."""

    @pytest.fixture()
    def failing_index(self, monkeypatch):
        import repro.persist as persist
        import repro.serving.catalog as catalog_module

        loads = []
        real_load = persist.load_model

        def counting_load(path, dataset):
            loads.append(path)
            return real_load(path, dataset)

        def no_memory(*args, **kwargs):
            raise MemoryError("no room for the index")

        monkeypatch.setattr(persist, "load_model", counting_load)
        monkeypatch.setattr(catalog_module, "build_index_for_model", no_memory)
        return loads

    def test_the_error_is_typed_counted_and_keeps_the_entry(self, catalog_dir, small_split, failing_index):
        catalog = ModelCatalog(catalog_dir, small_split.train, retrieval=RetrievalPolicy(num_cells=4, nprobe=2))
        with pytest.raises(CatalogError, match="no room for the index") as raised:
            catalog.store("gbgcn")
        assert isinstance(raised.value.__cause__, MemoryError)
        assert catalog.metrics.snapshot()["models"]["gbgcn"]["errors"] == 1
        assert catalog.resident_names == []
        assert catalog.stats.cold_starts == 0
        assert "gbgcn" in catalog and catalog.rejected == {}

    def test_an_open_breaker_stops_the_reloads(self, catalog_dir, small_split, failing_index):
        catalog = ModelCatalog(catalog_dir, small_split.train, retrieval=RetrievalPolicy(num_cells=4, nprobe=2))
        gateway = ServingGateway(catalog, policy=ResiliencePolicy(breaker_failure_threshold=3))
        for call in range(5):
            with pytest.raises(CircuitOpenError):
                gateway.top_k(np.asarray([0]), model="gbgcn")
            assert len(failing_index) == min(call + 1, 3)
        assert catalog.metrics.snapshot()["models"]["gbgcn"]["breaker_opens"] == 1


class TestSharedGraph:
    def test_gbgcn_residents_share_the_datasets_graph(self, catalog, catalog_dir, small_split):
        graph = build_hetero_graph(catalog.train_dataset)
        assert catalog.store("gbgcn").model.graph is graph
        pretrain = catalog.store("gbgcn-pretrain").model
        assert pretrain._social_normalized is graph.friendship.normalized()

        replacement = build_model("GBGCN", small_split.train, SETTINGS, rng=np.random.default_rng(31))
        save_model(replacement, catalog_dir / "gbgcn.npz")
        swapped = catalog.store("gbgcn")
        assert catalog.entry("gbgcn").version == 2
        assert swapped.model.graph is graph

    def test_loads_after_the_first_build_no_graph(self, catalog_dir, small_split, monkeypatch):
        load_model(catalog_dir / "gbgcn.npz", small_split.train)
        built = []
        for graph_class in (BipartiteGraph, SharingGraph, FriendshipGraph):

            def counting_init(self, *args, _init=graph_class.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(graph_class, "__init__", counting_init)
        for stem in ("gbgcn", "gbgcn-pretrain", "gbgcn"):
            load_model(catalog_dir / f"{stem}.npz", small_split.train)
        assert built == []


class TestMetricsIntegration:
    def test_catalog_records_lifecycle_metrics(self, catalog_dir, small_split):
        catalog = ModelCatalog(catalog_dir, small_split.train, resident_budget=1)
        catalog.warm("mf")
        catalog.warm("gbgcn")  # evicts mf
        replacement = build_model("GBGCN", small_split.train, SETTINGS)
        save_model(replacement, catalog_dir / "gbgcn.npz")
        catalog.store("gbgcn")  # hot-swap reload

        snap = catalog.metrics.snapshot()
        assert snap["models"]["mf"]["cold_starts"] == 1
        assert snap["models"]["mf"]["evictions"] == 1
        assert snap["models"]["gbgcn"]["cold_starts"] == 2
        assert snap["models"]["gbgcn"]["reloads"] == 1
        assert snap["models"]["gbgcn"]["cold_start_latency"]["count"] == 2
        assert snap["models"]["gbgcn"]["cold_start_latency"]["p99"] > 0.0
        assert snap["totals"]["cold_starts"] == 3

    def test_disabled_registry_records_nothing(self, catalog_dir, small_split):
        from repro.serving import MetricsRegistry

        catalog = ModelCatalog(
            catalog_dir, small_split.train, metrics=MetricsRegistry(enabled=False)
        )
        catalog.warm("mf")
        snap = catalog.metrics.snapshot()
        assert snap["models"] == {}
        assert snap["enabled"] is False
        # The plain CatalogStats counters still work regardless.
        assert catalog.stats.cold_starts == 1
