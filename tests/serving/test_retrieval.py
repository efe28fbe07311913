"""IVF retrieval: index mechanics, recall-vs-exact parity, serving wiring."""

import json
import zipfile
import zlib

import numpy as np
import pytest

from repro.models import ModelSettings, build_model
from repro.models.registry import SERVABLE_MODEL_NAMES
from repro.persist import (
    DIR_SUFFIX,
    LAYOUT_DIR,
    LAYOUT_NPZ,
    load_model,
    migrate_artifact,
    read_artifact_header,
    save_model,
)
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

    def test_public_arrays_rebuild_the_same_index(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=16, nprobe=5, seed=9)
        clone = RetrievalIndex(index.centroids, index.cell_offsets, index.cell_items, index.nprobe)
        assert clone.nprobe == 5
        assert np.array_equal(clone.cell_rows, index.cell_rows)
        queries = item_factors[:4]
        assert np.array_equal(clone.probe(queries), index.probe(queries))
        for copied, built in zip(clone.shortlist(queries), index.shortlist(queries)):
            assert np.array_equal(copied, built)

    def test_nprobe_is_capped_at_the_cell_count(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=8, seed=0)
        capped = RetrievalIndex(index.centroids, index.cell_offsets, index.cell_items, nprobe=99)
        assert capped.nprobe == 8

    def test_cell_table_rejects_factors_of_another_item_count(self, item_factors):
        index = RetrievalIndex.build(item_factors, num_cells=8, seed=0)
        with pytest.raises(RetrievalIndexError, match="hold 499 items but the index covers 500"):
            index.cell_table(item_factors[:-1], version=0)


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
    """The constructor refuses arrays that would serve wrong items."""

    @pytest.fixture()
    def index(self):
        return RetrievalIndex.build(np.random.default_rng(0).normal(size=(20, 4)), num_cells=4)

    @staticmethod
    def _with_item(index, old, new):
        cell_items = index.cell_items.copy()
        cell_items[cell_items == old] = new
        return RetrievalIndex(index.centroids, index.cell_offsets, cell_items, index.nprobe)

    def test_negative_alias_is_rejected(self, index):
        with pytest.raises(RetrievalIndexError, match="-16 outside range"):
            self._with_item(index, 4, -16)

    def test_out_of_range_id_is_rejected(self, index):
        with pytest.raises(RetrievalIndexError, match="20 outside range"):
            self._with_item(index, 4, 20)

    def test_duplicated_id_is_rejected(self, index):
        with pytest.raises(RetrievalIndexError, match="repeats item ID 5"):
            self._with_item(index, 4, 5)

    def test_centroids_of_another_rank_are_rejected(self, index):
        with pytest.raises(RetrievalIndexError, match="centroids must be 2-D"):
            RetrievalIndex(index.centroids.ravel(), index.cell_offsets, index.cell_items, 1)

    def test_offsets_for_another_cell_count_are_rejected(self, index):
        # Centroids for three cells against the offsets of four.
        with pytest.raises(RetrievalIndexError, match=r"num_cells \+ 1 = 4 entries"):
            RetrievalIndex(index.centroids[:3], index.cell_offsets, index.cell_items, 1)

    def test_offsets_that_miss_an_item_are_rejected(self, index):
        # The offsets tile 20 items; a 21st would sit in no cell.
        cell_items = np.append(index.cell_items, 20)
        with pytest.raises(RetrievalIndexError, match="do not tile"):
            RetrievalIndex(index.centroids, index.cell_offsets, cell_items, 1)

    def test_offsets_not_starting_at_zero_are_rejected(self, index):
        cell_offsets = index.cell_offsets.copy()
        cell_offsets[0] = 1
        with pytest.raises(RetrievalIndexError, match="do not tile"):
            RetrievalIndex(index.centroids, cell_offsets, index.cell_items, 1)

    def test_decreasing_offsets_are_rejected(self, index):
        cell_offsets = np.array([0, 12, 8, 16, 20])
        with pytest.raises(RetrievalIndexError, match="non-decreasing"):
            RetrievalIndex(index.centroids, cell_offsets, index.cell_items, 1)

    def test_cell_items_of_another_rank_are_rejected(self, index):
        cell_items = index.cell_items.reshape(4, 5)
        with pytest.raises(RetrievalIndexError, match="cell_items must be 1-D"):
            RetrievalIndex(index.centroids, index.cell_offsets, cell_items, 1)

    def test_non_positive_nprobe_is_rejected(self, index):
        with pytest.raises(RetrievalIndexError, match="nprobe must be positive, got 0"):
            RetrievalIndex(index.centroids, index.cell_offsets, index.cell_items, 0)


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

    def test_unbuildable_policy_fails_at_construction(self, fleet_dir, small_split):
        num_items = small_split.train.num_items
        for field_name in ("num_cells", "nprobe"):
            with pytest.raises(ValueError, match=field_name):
                RetrievalPolicy(**{field_name: 0})
        too_many = RetrievalPolicy(num_cells=num_items + 1)
        with pytest.raises(ValueError, match=f"num_cells={num_items + 1}"):
            ModelCatalog(fleet_dir, small_split.train, retrieval=too_many)
        # Below min_items no index is built, so the same cell count never runs.
        skipped = RetrievalPolicy(num_cells=num_items + 1, min_items=num_items + 1)
        assert ModelCatalog(fleet_dir, small_split.train, retrieval=skipped).retriever("mf") is None
        one_per_item = RetrievalPolicy(num_cells=num_items)
        catalog = ModelCatalog(fleet_dir, small_split.train, retrieval=one_per_item)
        assert catalog.retriever("mf").num_cells == num_items

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


def _store_index_the_old_way(path, index, seed, cell_items=None, **declared_fields):
    """Add ``index`` to the plain artifact at ``path`` the way earlier versions stored one.

    Three ``index/`` members, a header ``retrieval`` object declaring the
    index and, in the ``dir`` layout, manifest entries for the new members.
    ``cell_items`` replaces the stored member and ``declared_fields``
    override the header's, so a test can store an index no model could use.
    """
    arrays = {
        "index/centroids": index.centroids,
        "index/cell_offsets": index.cell_offsets,
        "index/cell_items": index.cell_items if cell_items is None else cell_items,
    }
    declared = {
        "kind": "ivf-flat-ip/v1",
        "num_cells": index.num_cells,
        "num_items": index.num_items,
        "dim": index.dim,
        "nprobe": index.nprobe,
        "seed": seed,
        **declared_fields,
    }
    if path.is_dir():
        header = path / "header.json"
        payload = json.loads(header.read_text("utf-8"))
        for key, array in arrays.items():
            member = path / f"{key}.npy"
            member.parent.mkdir(exist_ok=True)
            np.save(member, array)
            payload["members"][f"{key}.npy"] = {
                "crc32": zlib.crc32(member.read_bytes()),
                "size": member.stat().st_size,
            }
        payload["retrieval"] = declared
        header.write_text(json.dumps(payload, sort_keys=True), "utf-8")
        return
    with np.load(path) as archive:
        members = {key: archive[key] for key in archive.files}
    payload = json.loads(bytes(members["__header__"]).decode("utf-8"))
    payload["retrieval"] = declared
    members["__header__"] = np.frombuffer(
        json.dumps(payload, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **members, **arrays)


def _member_names(path):
    if path.is_dir():
        return [member.relative_to(path).as_posix() for member in path.rglob("*.npy")]
    with zipfile.ZipFile(path) as archive:
        return archive.namelist()


def _header_fields(path):
    """The artifact's header document as written, unknown fields included."""
    if path.is_dir():
        return json.loads((path / "header.json").read_text("utf-8"))
    with np.load(path) as archive:
        return json.loads(bytes(archive["__header__"]).decode("utf-8"))


@pytest.mark.parametrize("layout", [LAYOUT_NPZ, LAYOUT_DIR])
def test_a_saved_artifact_carries_no_index(small_split, tmp_path, layout):
    model = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
    path = tmp_path / f"mf{DIR_SUFFIX if layout == LAYOUT_DIR else '.npz'}"
    save_model(model, path, layout=layout)
    assert not any(name.startswith("index/") for name in _member_names(path))
    assert "retrieval" not in _header_fields(path)


@pytest.mark.parametrize("layout", [LAYOUT_NPZ, LAYOUT_DIR])
def test_an_artifact_with_a_stored_index_serves_the_policys_index(small_split, tmp_path, layout):
    model = build_model("GBGCN", small_split.train, SETTINGS, rng=np.random.default_rng(0))
    suffix, other = (DIR_SUFFIX, LAYOUT_NPZ) if layout == LAYOUT_DIR else (".npz", LAYOUT_DIR)
    old = tmp_path / "old" / f"gbgcn{suffix}"
    save_model(model, old, layout=layout)
    # Seeded unlike the policy and probed at fewer than all its cells, so
    # serving it would change the lists.
    stored = build_index_for_model(model, num_cells=4, nprobe=2, seed=42)
    _store_index_the_old_way(old, stored, seed=42)
    assert any(name.startswith("index/") for name in _member_names(old))
    save_model(model, tmp_path / "plain" / f"gbgcn{suffix}", layout=layout)

    assert read_artifact_header(old).model_name == "GBGCN"
    loaded = load_model(old, small_split.train).state_arrays()
    assert all(np.array_equal(loaded[key], value) for key, value in model.state_arrays().items())

    policy = RetrievalPolicy(num_cells=6, nprobe=2, seed=0)
    catalog = ModelCatalog(tmp_path / "old", small_split.train, retrieval=policy)
    plain = ModelCatalog(tmp_path / "plain", small_split.train, retrieval=policy)
    assert catalog.rejected == {} and catalog.names == ["gbgcn"]
    users = np.arange(small_split.train.num_users, dtype=np.int64)
    served = catalog.recommender("gbgcn").recommend(users)
    expected = plain.recommender("gbgcn").recommend(users)
    assert np.array_equal(served.items, expected.items)
    assert np.array_equal(served.scores, expected.scores)

    migrated = migrate_artifact(old, to_layout=other)
    assert not any(name.startswith("index/") for name in _member_names(migrated))
    assert "retrieval" not in _header_fields(migrated)


#: The ways a stored index could disagree with the model saved beside it.
#: Each once needed its own fallback in the catalog; a reader that reads
#: only ``state/`` serves the policy's index whatever the group holds.
STORED_INDEX_FAULTS = ["another-width", "aliased-item", "foreign-kind", "contradicting-header"]


@pytest.mark.parametrize("fault", STORED_INDEX_FAULTS)
@pytest.mark.parametrize("layout", [LAYOUT_NPZ, LAYOUT_DIR])
def test_a_stored_index_the_model_cannot_use_never_reaches_serving(
    small_split, tmp_path, layout, fault
):
    model = build_model("GBGCN", small_split.train, SETTINGS, rng=np.random.default_rng(0))
    suffix = DIR_SUFFIX if layout == LAYOUT_DIR else ".npz"
    old = tmp_path / "old" / f"gbgcn{suffix}"
    save_model(model, old, layout=layout)
    save_model(model, tmp_path / "plain" / f"gbgcn{suffix}", layout=layout)
    stored = build_index_for_model(model, num_cells=4, nprobe=2, seed=42)
    cell_items, declared_fields = None, {}
    if fault == "another-width":
        # An MF index over the same items: the item count matches, the width does not.
        mf = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
        stored = build_index_for_model(mf, num_cells=4, nprobe=2, seed=42)
        assert stored.dim != model.scoring_factors()[1].shape[1]
    elif fault == "aliased-item":
        # numpy's wrap-around indexing would score the alias as item 4 and
        # serve the negative ID.
        cell_items = stored.cell_items.copy()
        cell_items[cell_items == 4] = 4 - model.num_items
    elif fault == "foreign-kind":
        declared_fields["kind"] = "hnsw/v9"
    else:
        declared_fields.update(
            num_cells=stored.num_cells + 1, num_items=stored.num_items + 1, dim=stored.dim + 1
        )
    _store_index_the_old_way(old, stored, seed=42, cell_items=cell_items, **declared_fields)

    policy = RetrievalPolicy(num_cells=6, nprobe=2, seed=0)
    catalog = ModelCatalog(tmp_path / "old", small_split.train, retrieval=policy)
    plain = ModelCatalog(tmp_path / "plain", small_split.train, retrieval=policy)
    assert catalog.rejected == {}
    users = np.arange(small_split.train.num_users, dtype=np.int64)
    served = ServingGateway(catalog, default_model="gbgcn").top_k(users, k=5)
    expected = ServingGateway(plain, default_model="gbgcn").top_k(users, k=5)
    assert np.array_equal(served.items, expected.items)
    assert np.array_equal(served.scores, expected.scores)
    assert np.array_equal(
        catalog.retriever("gbgcn").cell_items, plain.retriever("gbgcn").cell_items
    )
