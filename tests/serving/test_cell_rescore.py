"""Cell-slice rescore: the retrieval path serves the lists of the gather path.

The retrieval path scores each probed cell as a slice of the index's
cell-ordered item table and masks observed items at their cell-order rows.
These tests hold it to a test-side copy of the path it replaced: list the
shortlist's IDs, drop observed ones with ``np.isin``, gather their factor
rows and multiply.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.dataset import observed_item_matrix
from repro.models import ModelSettings, build_model
from repro.models.registry import SERVABLE_MODEL_NAMES
from repro.optim import SGD
from repro.persist import save_model
from repro.serving import (
    EmbeddingStore,
    ModelCatalog,
    RetrievalIndex,
    RetrievalPolicy,
    ServingGateway,
    TopKRecommender,
    build_index_for_model,
)
from repro.training import Trainer, build_batch_iterator

SETTINGS = ModelSettings(embedding_dim=8)
#: Models whose score is not an inner product: no index, dense serving.
NON_FACTOR_MODELS = {"NCF", "ItemKNN", "AGREE"}
FACTOR_MODELS = [name for name in SERVABLE_MODEL_NAMES if name not in NON_FACTOR_MODELS]


def observed_of(dataset):
    return observed_item_matrix(
        dataset.user_item_set(include_participants=True), dataset.num_users, dataset.num_items
    )


def gather_top_k(store, index, observed, users, k):
    """The gather path: shortlist IDs, ``np.isin`` filter, gathered product."""
    user_factors, item_factors = store.scoring_factors()
    items = np.full((users.size, k), -1, dtype=np.int64)
    scores = np.full((users.size, k), -np.inf)
    for row, (user, candidates) in enumerate(zip(users, index.shortlist(user_factors[users]))):
        seen = observed.indices[observed.indptr[user] : observed.indptr[user + 1]]
        candidates = candidates[~np.isin(candidates, seen)]
        if candidates.size == 0:
            continue
        candidate_scores = (user_factors[[user]] @ item_factors[candidates].T)[0]
        take = min(k, candidates.size)
        if take < candidates.size:
            best = np.argpartition(-candidate_scores, take - 1)[:take]
        else:
            best = np.arange(candidates.size)
        chosen = best[np.argsort(-candidate_scores[best], kind="stable")]
        items[row, :take] = candidates[chosen]
        scores[row, :take] = candidate_scores[chosen]
    return items, scores


def assert_same_lists(result, expected_items, expected_scores, store):
    """Equal lists except at exact score ties; scores equal at rel 1e-12."""
    finite = np.isfinite(expected_scores)
    assert np.array_equal(np.isfinite(result.scores), finite)
    assert (result.items[~finite] == -1).all()
    np.testing.assert_allclose(result.scores[finite], expected_scores[finite], rtol=1e-12, atol=0)
    user_factors, item_factors = store.scoring_factors()
    for row, col in zip(*np.nonzero(result.items != expected_items)):
        # A different item in one slot: both must score exactly that slot's score.
        user = result.users[row]
        for item in (result.items[row, col], expected_items[row, col]):
            assert user_factors[user] @ item_factors[item] == expected_scores[row, col]


@pytest.mark.parametrize("nprobe", [3, 8], ids=["narrow", "every-cell"])
@pytest.mark.parametrize("model_name", FACTOR_MODELS)
def test_cell_slices_serve_the_gather_path_lists(small_split, model_name, nprobe):
    model = build_model(model_name, small_split.train, SETTINGS, rng=np.random.default_rng(0))
    store = EmbeddingStore(model)
    index = build_index_for_model(model, num_cells=8, nprobe=nprobe, seed=0)
    observed = observed_of(small_split.full)
    users = np.arange(small_split.train.num_users, dtype=np.int64)
    recommender = TopKRecommender(store, k=5, dataset=small_split.full, retriever=index)
    result = recommender.recommend(users)
    assert_same_lists(result, *gather_top_k(store, index, observed, users, 5), store)
    if nprobe == index.num_cells:
        # Every cell probed: the lists are the dense path's.
        dense = TopKRecommender(store, k=5, dataset=small_split.full).recommend(users)
        assert_same_lists(result, dense.items, dense.scores, store)


@pytest.fixture()
def mf(small_split):
    model = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(3))
    store = EmbeddingStore(model)
    return store, build_index_for_model(model, num_cells=8, nprobe=2, seed=0)


def _observing(num_users, num_items, user, items):
    """An observed matrix in which only ``user`` observed ``items``."""
    rows = np.full(len(items), user)
    data = np.ones(len(items), dtype=bool)
    return sp.csr_matrix((data, (rows, items)), shape=(num_users, num_items))


def test_observed_items_inside_and_outside_the_probed_cells(mf):
    store, index = mf
    user_factors, item_factors = store.scoring_factors()
    user = 4
    probed = index.shortlist(user_factors[[user]])[0]
    unprobed = np.setdiff1d(np.arange(index.num_items), probed)
    # The two best probed items would top the list unmasked.
    best_probed = probed[np.argsort(-(item_factors[probed] @ user_factors[user]))[:2]]
    seen = np.concatenate([best_probed, unprobed[:3]])
    observed = _observing(store.model.num_users, index.num_items, user, seen)
    unmasked = TopKRecommender(store, k=3, exclude_observed=False, retriever=index)
    assert set(best_probed) <= set(unmasked.recommend_user(user))
    recommender = TopKRecommender(store, k=3, observed_matrix=observed, retriever=index)
    result = recommender.recommend(np.asarray([user, user + 1]))
    assert not set(seen) & set(result.for_user(user))
    assert_same_lists(
        result, *gather_top_k(store, index, observed, result.users, 3), store
    )


def test_a_user_who_observed_the_whole_shortlist_gets_padding(mf):
    store, index = mf
    user = 2
    probed = index.shortlist(store.scoring_factors()[0][[user]])[0]
    observed = _observing(store.model.num_users, index.num_items, user, probed)
    result = TopKRecommender(store, k=4, observed_matrix=observed, retriever=index).recommend(
        np.asarray([user])
    )
    assert (result.items == -1).all()
    assert np.isneginf(result.scores).all()


def test_k_beyond_the_shortlist_pads(mf, small_split):
    store, index = mf
    observed = observed_of(small_split.full)
    users = np.arange(12, dtype=np.int64)
    shortlists = index.shortlist(store.scoring_factors()[0][users])
    shortest = min(candidates.size for candidates in shortlists)
    k = shortest + 4
    recommender = TopKRecommender(store, k=k, dataset=small_split.full, retriever=index)
    result = recommender.recommend(users)
    assert result.items.shape == (users.size, k)
    assert (result.items == -1).any()
    assert_same_lists(result, *gather_top_k(store, index, observed, users, k), store)
    # Past the catalog size too: the padding keeps the requested width.
    wide = recommender.recommend(users, k=index.num_items + 3)
    assert wide.items.shape == (users.size, index.num_items + 3)
    assert (wide.items[:, index.num_items :] == -1).all()


@pytest.mark.parametrize("nprobe", [10, 4])
def test_empty_cells_hold_no_rows(mf, small_split, nprobe):
    store, built = mf
    # Two empty cells: new cell 0, and new cell 5 between two occupied ones.
    offsets = np.insert(built.cell_offsets, [0, 4], [0, built.cell_offsets[4]])
    centroids = np.insert(built.centroids, [0, 4], built.centroids[[0, 4]], axis=0)
    index = RetrievalIndex(centroids, offsets, built.cell_items, nprobe=nprobe)
    assert index.num_cells == 10 and (np.diff(index.cell_offsets) == 0).sum() == 2
    users = np.arange(small_split.train.num_users, dtype=np.int64)
    result = TopKRecommender(store, k=5, dataset=small_split.full, retriever=index).recommend(users)
    expected = gather_top_k(store, index, observed_of(small_split.full), users, 5)
    assert_same_lists(result, *expected, store)


def test_new_parameters_are_rescored_after_a_refresh(mf, small_split):
    store, index = mf
    observed = observed_of(small_split.full)
    users = np.arange(small_split.train.num_users, dtype=np.int64)
    recommender = TopKRecommender(store, k=5, dataset=small_split.full, retriever=index)
    before = recommender.recommend(users)
    old_table = index.cell_table(store.scoring_factors()[1], store.model.factor_version)
    retrained = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(11))
    store.model.load_state_dict(retrained.state_dict())
    store.refresh()
    after = recommender.recommend(users)
    new_table = index.cell_table(store.scoring_factors()[1], store.model.factor_version)
    assert new_table is not old_table
    assert np.array_equal(new_table, store.scoring_factors()[1][index.cell_items])
    assert not np.array_equal(before.items, after.items)
    assert_same_lists(after, *gather_top_k(store, index, observed, users, 5), store)


def test_a_plain_trainer_fit_is_served_fresh(mf, small_split):
    # MF hands out its live embedding tables, and sparse SGD updates their
    # rows in place: the factor array is the same object after training.
    # No serving callback: the table is keyed on the model's factor version,
    # which the recomputation after training bumps.
    store, index = mf
    observed = observed_of(small_split.full)
    users = np.arange(small_split.train.num_users, dtype=np.int64)
    recommender = TopKRecommender(store, k=5, dataset=small_split.full, retriever=index)
    before = recommender.recommend(users)
    item_factors = store.scoring_factors()[1]
    batches = build_batch_iterator(store.model, small_split.train, batch_size=64, seed=0)
    Trainer(store.model, SGD(store.model.parameters(), lr=0.5), batches).fit(num_epochs=2)
    assert store.scoring_factors()[1] is item_factors
    after = recommender.recommend(users)
    assert not np.array_equal(before.scores, after.scores)
    assert_same_lists(after, *gather_top_k(store, index, observed, users, 5), store)


@pytest.mark.parametrize("retire", ["hot-swap", "reload", "evict"])
def test_a_retired_resident_drops_its_table_and_still_serves(small_split, tmp_path, retire):
    directory = tmp_path / "fleet"
    def build(seed):
        return build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(seed))

    save_model(build(0), directory / "mf.npz")
    policy = RetrievalPolicy(num_cells=6, nprobe=2)
    catalog = ModelCatalog(directory, small_split.train, retrieval=policy)
    users = np.arange(small_split.train.num_users, dtype=np.int64)
    # Held like the gateway's last-good fallback holds it.
    old = catalog.recommender("mf")
    served = old.recommend(users)
    item_factors, version = old.store.scoring_factors()[1], old.store.model.factor_version
    table = weakref.ref(old.retriever.cell_table(item_factors, version))
    if retire == "hot-swap":
        save_model(build(1), directory / "mf.npz")
    elif retire == "reload":
        catalog.reload("mf", force=True)
    else:
        catalog.evict("mf")
    catalog.recommender("mf").recommend(users[:1])
    gc.collect()
    assert table() is None
    again = old.recommend(users)
    assert np.array_equal(again.items, served.items)
    expected = gather_top_k(old.store, old.retriever, observed_of(small_split.train), users, 10)
    assert_same_lists(again, *expected, old.store)


def test_retire_churn_from_many_threads_never_changes_a_list(small_split, tmp_path):
    directory = tmp_path / "fleet"
    for stem, name in (("mf", "MF"), ("gbgcn", "GBGCN")):
        model = build_model(name, small_split.train, SETTINGS, rng=np.random.default_rng(0))
        save_model(model, directory / f"{stem}.npz")
    policy = RetrievalPolicy(num_cells=6, nprobe=2)
    catalog = ModelCatalog(directory, small_split.train, resident_budget=1, retrieval=policy)
    users = np.arange(16, dtype=np.int64)
    names = ("mf", "gbgcn")
    # Keyed by whether the recommender retrieves: a resident retired between
    # the catalog's store and recommender lookups gets a one-off dense
    # recommender, whose lists are the exact ones.
    expected = {}
    for name in names:
        expected[name, True] = catalog.recommender(name).recommend(users).items
        dense = TopKRecommender(catalog.store(name), k=catalog.default_k, dataset=small_split.train)
        expected[name, False] = dense.recommend(users).items
    # Retired by the budget of one, and held the way last-good fallback holds one.
    held = {name: catalog.recommender(name) for name in names}
    failures = []

    def churn(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(24):
                name, roll = names[int(rng.integers(2))], float(rng.random())
                if roll < 0.15:
                    catalog.evict(name)
                elif roll < 0.25:
                    catalog.reload(name, force=True)
                else:
                    recommender = held[name] if roll < 0.45 else catalog.recommender(name)
                    served = recommender.recommend(users).items
                    assert np.array_equal(served, expected[name, recommender.retriever is not None])
        except BaseException as error:  # noqa: BLE001 — surfaced below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]


def test_recommenders_over_one_resident_share_one_table(small_split, tmp_path):
    directory = tmp_path / "fleet"
    save_model(build_model("GBGCN", small_split.train, SETTINGS), directory / "gbgcn.npz")
    policy = RetrievalPolicy(num_cells=6, nprobe=2)
    catalog = ModelCatalog(directory, small_split.train, retrieval=policy)
    cached, one_off = catalog.recommender("gbgcn"), catalog.recommender("gbgcn", k=3)
    assert one_off is not cached and one_off.retriever is cached.retriever
    item_factors, version = cached.store.scoring_factors()[1], cached.store.model.factor_version
    table = cached.retriever.cell_table(item_factors, version)
    assert one_off.retriever.cell_table(item_factors, version) is table


def test_an_embedded_index_of_another_width_is_rebuilt(small_split, tmp_path):
    gbgcn = build_model("GBGCN", small_split.train, SETTINGS, rng=np.random.default_rng(0))
    mf = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(0))
    # An MF index over the same items: the item count matches, the width does not.
    foreign = build_index_for_model(mf, num_cells=6, nprobe=2, seed=42)
    assert foreign.dim != gbgcn.scoring_factors()[1].shape[1]
    save_model(gbgcn, tmp_path / "embedded" / "gbgcn.npz", retrieval_index=foreign)
    save_model(gbgcn, tmp_path / "plain" / "gbgcn.npz")
    policy = RetrievalPolicy(num_cells=6, nprobe=2, seed=0)
    embedded = ModelCatalog(tmp_path / "embedded", small_split.train, retrieval=policy)
    rebuilt = ModelCatalog(
        tmp_path / "plain",
        small_split.train,
        retrieval=RetrievalPolicy(num_cells=6, nprobe=2, seed=0, prefer_artifact_index=False),
    )
    users = np.arange(small_split.train.num_users, dtype=np.int64)
    served = ServingGateway(embedded, default_model="gbgcn").top_k(users, k=5).items
    expected = ServingGateway(rebuilt, default_model="gbgcn").top_k(users, k=5).items
    assert np.array_equal(served, expected)
    assert embedded.retriever("gbgcn").seed == 0  # the policy's build, not the embedded 42
