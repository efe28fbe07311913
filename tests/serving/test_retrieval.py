"""IVF retrieval: index mechanics, recall-vs-exact parity, serving wiring."""

import numpy as np
import pytest

from repro.models import ModelSettings, build_model
from repro.models.registry import SERVABLE_MODEL_NAMES
from repro.persist import DIR_SUFFIX, LAYOUT_DIR, read_retrieval_state, save_model
from repro.serving import (
    EmbeddingStore,
    ModelCatalog,
    RetrievalIndex,
    RetrievalIndexError,
    RetrievalPolicy,
    ServingGateway,
    TopKRecommender,
    build_index_for_model,
)
from repro.serving.retrieval import _TRAIN_SAMPLE

SETTINGS = ModelSettings(embedding_dim=8)

#: Every servable model must clear this recall@10 bar against exact search
#: (the retrieval layer's correctness gate; tune nprobe, never lower this).
RECALL_FLOOR = 0.95


@pytest.fixture(scope="module")
def item_factors():
    return np.random.default_rng(7).normal(size=(500, 8))


class TestRetrievalIndex:
    def test_build_is_deterministic(self, item_factors):
        first = RetrievalIndex.build(item_factors, num_cells=16, seed=3)
        second = RetrievalIndex.build(item_factors, num_cells=16, seed=3)
        assert np.array_equal(first.centroids, second.centroids)
        assert np.array_equal(first.cell_offsets, second.cell_offsets)
        assert np.array_equal(first.cell_items, second.cell_items)

    def test_cells_partition_the_catalog(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=16, seed=0)
        assert index.num_items == item_factors.shape[0]
        assert sorted(index.cell_items.tolist()) == list(range(item_factors.shape[0]))

    def test_full_probe_shortlists_everything(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=16, nprobe=16, seed=0)
        shortlist = index.shortlist(item_factors[:3])
        for candidates in shortlist:
            assert sorted(candidates.tolist()) == list(range(item_factors.shape[0]))

    def test_narrow_probe_keeps_the_best_cell(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=16, seed=0)
        query = np.random.default_rng(1).normal(size=(1, 8))
        candidates = index.shortlist(query, nprobe=1)[0]
        assert 0 < candidates.size < item_factors.shape[0]

    def test_default_cells_scale_with_sqrt(self, item_factors):
        index = RetrievalIndex.build(item_factors, seed=0)
        assert index.num_cells == int(round(500 ** 0.5))

    def test_invalid_inputs_raise(self, item_factors):
        with pytest.raises(RetrievalIndexError, match="2-D"):
            RetrievalIndex.build(np.zeros(5))
        with pytest.raises(RetrievalIndexError, match="num_cells"):
            RetrievalIndex.build(item_factors, num_cells=0)
        with pytest.raises(RetrievalIndexError, match="num_cells"):
            RetrievalIndex.build(item_factors, num_cells=501)
        index = RetrievalIndex.build(item_factors, num_cells=8)
        with pytest.raises(RetrievalIndexError, match="dim"):
            index.shortlist(np.zeros((1, 3)))
        with pytest.raises(RetrievalIndexError, match="nprobe"):
            index.shortlist(item_factors[:1], nprobe=0)

    def test_state_roundtrip(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=16, nprobe=5, seed=9)
        clone = RetrievalIndex.from_state(index.params(), index.state_arrays())
        assert clone.nprobe == 5
        assert clone.seed == 9
        assert np.array_equal(clone.centroids, index.centroids)
        assert np.array_equal(clone.cell_items, index.cell_items)

    def test_from_state_rejects_foreign_kind(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=8)
        params = dict(index.params(), kind="hnsw/v9")
        with pytest.raises(RetrievalIndexError, match="hnsw/v9"):
            RetrievalIndex.from_state(params, index.state_arrays())

    def test_from_state_rejects_missing_arrays(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=8)
        arrays = dict(index.state_arrays())
        del arrays["centroids"]
        with pytest.raises(RetrievalIndexError, match="centroids"):
            RetrievalIndex.from_state(index.params(), arrays)

    def test_from_state_rejects_item_count_mismatch(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=8)
        params = dict(index.params(), num_items=index.num_items + 1)
        with pytest.raises(RetrievalIndexError, match="declares"):
            RetrievalIndex.from_state(params, index.state_arrays())


def _reference_nearest_cell(points, centroids, block=16384):
    """Reference assignment over 16384-row blocks, the size the build must not depend on."""
    half_norms = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    out = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], block):
        affinity = points[start : start + block] @ centroids.T
        affinity -= half_norms[None, :]
        out[start : start + block] = np.argmax(affinity, axis=1)
    return out


def _reference_build(item_factors, num_cells, seed=0, iterations=8):
    """Reference Lloyd loop with the ``np.add.at`` update the CSR fold must match.

    Returns ``(centroids, cell_offsets, cell_items, reseeded)``, where
    ``reseeded`` counts the empty cells the loop drew new centroids for.
    """
    items = np.ascontiguousarray(item_factors, dtype=np.float64)
    num_items = items.shape[0]
    rng = np.random.default_rng(seed)
    train = items
    if num_items > _TRAIN_SAMPLE:
        train = items[rng.choice(num_items, size=_TRAIN_SAMPLE, replace=False)]
    centroids = train[rng.choice(train.shape[0], size=num_cells, replace=False)].copy()
    reseeded = 0
    for _ in range(max(1, iterations)):
        assignment = _reference_nearest_cell(train, centroids)
        counts = np.bincount(assignment, minlength=num_cells).astype(np.float64)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, train)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        empty = np.flatnonzero(~occupied)
        if empty.size:
            centroids[empty] = train[rng.integers(0, train.shape[0], size=empty.size)]
            reseeded += empty.size
    assignment = _reference_nearest_cell(items, centroids)
    cell_items = np.argsort(assignment, kind="stable").astype(np.int64)
    counts = np.bincount(assignment, minlength=num_cells)
    cell_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return centroids, cell_offsets, cell_items, reseeded


def _normal(rows, dim, seed):
    return np.random.default_rng(seed).normal(size=(rows, dim))


def _duplicated_points():
    # 12 distinct points, 40 copies each: the initial centroids repeat, so
    # every repeat loses its points to the first copy and must be reseeded.
    return np.repeat(_normal(12, 4, seed=5), 40, axis=0)


class TestBuildMatchesReference:
    """The fold and the cache-sized blocks change speed, never the index."""

    @pytest.mark.parametrize(
        "factors,num_cells,reseeds",
        [
            # More items than _TRAIN_SAMPLE: Lloyd runs on a seeded sample.
            pytest.param(lambda: _normal(70_000, 8, seed=1), 100, False, id="sampled-70k-x8"),
            pytest.param(lambda: _normal(4000, 96, seed=2), 63, False, id="96-wide"),
            pytest.param(_duplicated_points, 30, True, id="duplicates-reseed"),
            pytest.param(lambda: _normal(300, 6, seed=4), 300, False, id="cells-equal-items"),
        ],
    )
    def test_build_equals_the_add_at_reference(self, factors, num_cells, reseeds):
        items = factors()
        centroids, cell_offsets, cell_items, reseeded = _reference_build(items, num_cells, seed=7)
        assert (reseeded > 0) == reseeds
        index = RetrievalIndex.build(items, num_cells=num_cells, seed=7)
        assert index.cell_offsets.dtype == cell_offsets.dtype
        assert index.cell_offsets.tobytes() == cell_offsets.tobytes()
        assert index.cell_items.dtype == cell_items.dtype
        assert index.cell_items.tobytes() == cell_items.tobytes()
        # np.array_equal: the fold may differ from np.add.at in a zero's sign only.
        assert np.array_equal(index.centroids, centroids)

    @pytest.mark.parametrize("block", [1, 2048, 5000, 5001, 16384])
    def test_assignment_is_independent_of_the_block(self, block):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(5000, 16))  # 2048-row blocks end on a 904-row block
        centroids = rng.normal(size=(100, 16))
        expected = _reference_nearest_cell(points, centroids)
        assigned = RetrievalIndex._nearest_cell(points, centroids, block=block)
        assert np.array_equal(assigned, expected)


class TestRejectsCorruptIndexState:
    """``from_state`` refuses arrays or headers that would serve wrong items."""

    @pytest.fixture()
    def state(self):
        index = RetrievalIndex.build(np.random.default_rng(0).normal(size=(20, 4)), num_cells=4)
        return index.params(), index.state_arrays()

    @staticmethod
    def _with_item(arrays, old, new):
        cell_items = arrays["cell_items"].copy()
        cell_items[cell_items == old] = new
        return dict(arrays, cell_items=cell_items)

    def test_negative_alias_is_rejected(self, state):
        params, arrays = state
        with pytest.raises(RetrievalIndexError, match="-16 outside range"):
            RetrievalIndex.from_state(params, self._with_item(arrays, 4, -16))

    def test_out_of_range_id_is_rejected(self, state):
        params, arrays = state
        with pytest.raises(RetrievalIndexError, match="20 outside range"):
            RetrievalIndex.from_state(params, self._with_item(arrays, 4, 20))

    def test_duplicated_id_is_rejected(self, state):
        params, arrays = state
        with pytest.raises(RetrievalIndexError, match="repeats item ID 5"):
            RetrievalIndex.from_state(params, self._with_item(arrays, 4, 5))

    def test_declared_dim_mismatch_is_rejected(self, state):
        params, arrays = state
        with pytest.raises(RetrievalIndexError, match="dim=5"):
            RetrievalIndex.from_state(dict(params, dim=5), arrays)

    def test_declared_cell_count_mismatch_is_rejected(self, state):
        params, arrays = state
        with pytest.raises(RetrievalIndexError, match="num_cells=3"):
            RetrievalIndex.from_state(dict(params, num_cells=3), arrays)


def _recall_vs_exact(dense, approx, k=10):
    """Tie-tolerant recall@k: an approx item counts when its (exact) score
    reaches the dense k-th best score — ANN recall must not be penalized
    for returning a different member of a score tie.  A small relative
    tolerance absorbs the few-ULP drift between the dense GEMM and the
    per-row rescore (different BLAS reduction orders)."""
    hits = 0
    total = 0
    for row in range(dense.items.shape[0]):
        threshold = dense.scores[row, k - 1]
        tolerance = 1e-9 * max(1.0, abs(threshold)) if np.isfinite(threshold) else 0.0
        hits += int(np.sum(approx.scores[row, :k] >= threshold - tolerance))
        total += k
    return hits / total


class TestRecallParity:
    @pytest.mark.parametrize("model_name", SERVABLE_MODEL_NAMES)
    def test_recall_at_10_meets_floor(self, small_split, model_name):
        model = build_model(model_name, small_split.train, SETTINGS, rng=np.random.default_rng(0))
        store = EmbeddingStore(model)
        # A 40-item catalog is IVF's worst case (each cell holds ~12% of
        # the catalog), so the floor needs a generous-but-not-exhaustive
        # probe: 7 of 8 cells.  At production scale the same floor holds
        # with a ~5% shortlist — see benchmarks/test_retrieval_scaling.py.
        index = build_index_for_model(model, num_cells=8, nprobe=7, seed=0)
        dense = TopKRecommender(store, k=10, dataset=small_split.full)
        users = np.arange(small_split.train.num_users, dtype=np.int64)
        exact = dense.recommend(users)
        if index is None:
            # No inner-product factorization: the recommender transparently
            # serves the dense path, so recall is 1.0 by construction.
            approx = TopKRecommender(store, k=10, dataset=small_split.full).recommend(users)
            assert np.array_equal(approx.items, exact.items)
            return
        fast = TopKRecommender(store, k=10, dataset=small_split.full, retriever=index)
        approx = fast.recommend(users)
        recall = _recall_vs_exact(exact, approx, k=10)
        assert recall >= RECALL_FLOOR, f"{model_name}: recall@10 {recall:.3f} < {RECALL_FLOOR}"

    def test_full_probe_is_exact_parity(self, small_split):
        model = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
        store = EmbeddingStore(model)
        index = build_index_for_model(model, num_cells=6, nprobe=6, seed=0)
        users = np.arange(small_split.train.num_users, dtype=np.int64)
        exact = TopKRecommender(store, k=10, dataset=small_split.full).recommend(users)
        approx = TopKRecommender(store, k=10, dataset=small_split.full, retriever=index).recommend(users)
        assert _recall_vs_exact(exact, approx, k=10) == 1.0
        assert np.allclose(
            np.sort(exact.scores, axis=1), np.sort(approx.scores, axis=1), equal_nan=True
        )

    def test_retriever_catalog_size_mismatch_rejected(self, small_split):
        model = build_model("MF", small_split.train, SETTINGS)
        store = EmbeddingStore(model)
        foreign = RetrievalIndex.build(np.random.default_rng(0).normal(size=(99, 8)))
        with pytest.raises(ValueError, match="99 items"):
            TopKRecommender(store, retriever=foreign, exclude_observed=False)


@pytest.fixture()
def fleet_dir(small_split, tmp_path):
    directory = tmp_path / "fleet"
    for stem, name in {"mf": "MF", "gbgcn": "GBGCN", "itemknn": "ItemKNN"}.items():
        save_model(
            build_model(name, small_split.train, SETTINGS, rng=np.random.default_rng(0)),
            directory / f"{stem}.npz",
        )
    return directory


class TestCatalogIntegration:
    def test_cold_start_builds_index_per_policy(self, fleet_dir, small_split):
        catalog = ModelCatalog(
            fleet_dir, small_split.train, retrieval=RetrievalPolicy(num_cells=6, nprobe=6)
        )
        assert catalog.retriever("mf") is not None
        assert catalog.retriever("mf").num_items == small_split.train.num_items
        # Sparse-similarity models expose no factors: dense fallback, no index.
        assert catalog.retriever("itemknn") is None

    def test_no_policy_means_no_index(self, fleet_dir, small_split):
        catalog = ModelCatalog(fleet_dir, small_split.train)
        assert catalog.retriever("mf") is None

    def test_min_items_gate_skips_small_catalogs(self, fleet_dir, small_split):
        catalog = ModelCatalog(
            fleet_dir, small_split.train, retrieval=RetrievalPolicy(min_items=10_000)
        )
        assert catalog.retriever("mf") is None

    def test_gateway_parity_with_retrieval(self, fleet_dir, small_split):
        users = np.arange(16, dtype=np.int64)
        plain = ServingGateway(ModelCatalog(fleet_dir, small_split.train), default_model="mf")
        fast = ServingGateway(
            ModelCatalog(
                fleet_dir, small_split.train, retrieval=RetrievalPolicy(num_cells=6, nprobe=6)
            ),
            default_model="mf",
        )
        assert np.array_equal(plain.top_k(users, k=5).items, fast.top_k(users, k=5).items)

    def test_mixed_batch_routes_through_retrievers(self, fleet_dir, small_split):
        catalog = ModelCatalog(
            fleet_dir, small_split.train, retrieval=RetrievalPolicy(num_cells=6, nprobe=6)
        )
        gateway = ServingGateway(catalog)
        requests = [("mf", 1), ("gbgcn", 2), ("mf", 3), ("itemknn", 1)]
        result = gateway.top_k_mixed(requests, k=5)
        assert result.models == ["mf", "gbgcn", "mf", "itemknn"]
        assert result.items.shape == (4, 5)
        assert (result.for_request(0) >= 0).all()

    def test_hot_swap_rebuilds_index(self, fleet_dir, small_split):
        catalog = ModelCatalog(
            fleet_dir, small_split.train, retrieval=RetrievalPolicy(num_cells=6, nprobe=6)
        )
        before = catalog.retriever("mf")
        save_model(
            build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(5)),
            fleet_dir / "mf.npz",
        )
        catalog.reload("mf", force=True)
        after = catalog.retriever("mf")
        assert after is not None
        assert after is not before
        assert not np.array_equal(before.centroids, after.centroids)


class TestArtifactEmbeddedIndex:
    def test_roundtrip_through_artifact(self, small_split, tmp_path):
        model = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
        index = build_index_for_model(model, num_cells=6, nprobe=4, seed=11)
        path = tmp_path / "mf.npz"
        header = save_model(model, path, retrieval_index=index)
        assert header.retrieval["num_cells"] == 6
        params, arrays = read_retrieval_state(path)
        restored = RetrievalIndex.from_state(params, arrays)
        assert restored.seed == 11
        assert np.array_equal(restored.centroids, index.centroids)
        assert np.array_equal(restored.cell_items, index.cell_items)

    def test_plain_artifact_has_no_index(self, small_split, tmp_path):
        model = build_model("MF", small_split.train, SETTINGS)
        path = tmp_path / "mf.npz"
        save_model(model, path)
        assert read_retrieval_state(path) is None

    def test_catalog_prefers_embedded_index(self, small_split, tmp_path):
        directory = tmp_path / "fleet"
        model = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
        embedded = build_index_for_model(model, num_cells=4, nprobe=4, seed=42)
        save_model(model, directory / "mf.npz", retrieval_index=embedded)
        catalog = ModelCatalog(
            directory, small_split.train, retrieval=RetrievalPolicy(num_cells=6, seed=0)
        )
        # The seed proves provenance: the policy would rebuild with seed=0,
        # the artifact's sidecar was built with seed=42.
        assert catalog.retriever("mf").seed == 42
        assert catalog.retriever("mf").num_cells == 4

    def test_policy_can_force_rebuild(self, small_split, tmp_path):
        directory = tmp_path / "fleet"
        model = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
        embedded = build_index_for_model(model, num_cells=4, nprobe=4, seed=42)
        save_model(model, directory / "mf.npz", retrieval_index=embedded)
        catalog = ModelCatalog(
            directory,
            small_split.train,
            retrieval=RetrievalPolicy(num_cells=6, seed=0, prefer_artifact_index=False),
        )
        assert catalog.retriever("mf").seed == 0
        assert catalog.retriever("mf").num_cells == 6

    def test_catalog_rebuilds_an_index_that_aliases_an_item(self, small_split, tmp_path):
        model = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
        embedded = build_index_for_model(model, num_cells=4, nprobe=4, seed=42)
        tampered = tmp_path / "tampered"
        path = tampered / f"mf{DIR_SUFFIX}"
        save_model(model, path, retrieval_index=embedded, layout=LAYOUT_DIR)
        member = path / "index" / "cell_items.npy"
        cell_items = np.load(member)
        # numpy's wrap-around indexing would score the alias as item 4 and
        # serve the negative ID.
        cell_items[cell_items == 4] = 4 - model.num_items
        member.unlink()
        np.save(member, cell_items)
        plain = tmp_path / "plain"
        save_model(model, plain / "mf.npz")
        policy = RetrievalPolicy(num_cells=4, nprobe=4, seed=0)
        catalog = ModelCatalog(tampered, small_split.train, retrieval=policy)
        fresh = ModelCatalog(plain, small_split.train, retrieval=policy)
        # The seed proves provenance: 42 is the embedded index, 0 the policy's build.
        assert catalog.retriever("mf").seed == 0
        assert np.array_equal(catalog.retriever("mf").cell_items, fresh.retriever("mf").cell_items)
        users = np.arange(small_split.train.num_users, dtype=np.int64)
        served = ServingGateway(catalog, default_model="mf").top_k(users, k=5).items
        assert (served >= 0).all()
        expected = ServingGateway(fresh, default_model="mf").top_k(users, k=5).items
        assert np.array_equal(served, expected)

    def test_checkpoint_publishes_retrieval_index(self, small_split, tmp_path):
        from repro.training.callbacks import ModelCheckpoint

        model = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
        checkpoint = ModelCheckpoint(
            tmp_path / "best.npz",
            save_best_only=False,
            publish_retrieval=True,
            retrieval_num_cells=4,
        )

        class _Trainer:
            pass

        trainer = _Trainer()
        trainer.model = model
        checkpoint._save(trainer)
        params, _ = read_retrieval_state(tmp_path / "best.npz")
        assert params["num_cells"] == 4

    def test_checkpoint_retrieval_knobs_need_opt_in(self, tmp_path):
        from repro.training.callbacks import ModelCheckpoint

        with pytest.raises(ValueError, match="publish_retrieval"):
            ModelCheckpoint(tmp_path / "best.npz", retrieval_num_cells=4)
