"""Serving layer: EmbeddingStore lifecycle and TopKRecommender correctness."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import observed_item_matrix
from repro.models import SERVABLE_MODEL_NAMES, build_model
from repro.models.base import RecommenderModel
from repro.optim import Adam
from repro.serving import EmbeddingStore, TopKRecommender
from repro.serving.retrieval import build_index_for_model
from repro.training import Trainer, build_batch_iterator


@pytest.fixture()
def gbgcn(small_split):
    return build_model("GBGCN", small_split.train, rng=np.random.default_rng(0))


@pytest.fixture()
def store(gbgcn):
    return EmbeddingStore(gbgcn)


class TestEmbeddingStore:
    def test_refresh_recomputes_the_models_pair(self, store):
        assert store.model._eval_cache is None
        store.refresh()
        first = store.model._eval_cache
        assert first is not None and store.model.factor_version == 1
        store.refresh()
        assert store.model._eval_cache is not first and store.model.factor_version == 2

    def test_a_read_recomputes_a_dropped_cache(self, small_split, store):
        users = np.asarray([0, 1], dtype=np.int64)
        block = store.score_all_items(users)
        assert store.model._eval_cache is not None
        assert block.shape == (2, small_split.train.num_items)
        store.model.invalidate_cache()
        assert store.score_all_items(users).tobytes() == block.tobytes()
        assert store.model.factor_version == 2

    def test_scores_subset(self, store):
        block = store.scores(np.asarray([2]), np.asarray([0, 3, 1]))
        assert block.shape == (1, 3)

    def test_dense_scores_follow_a_plain_trainer_fit(self, small_split, gbgcn):
        store = EmbeddingStore(gbgcn)
        store.refresh()
        before = store.score_all_items(np.asarray([0]))

        iterator = build_batch_iterator(gbgcn, small_split.train, batch_size=64, seed=0)
        Trainer(gbgcn, Adam(gbgcn.parameters(), lr=0.05), iterator).fit(num_epochs=1)

        # No serving callback: the epoch dropped the model's cache, so the
        # store serves the trained parameters, not the pre-training pair.
        after = store.score_all_items(np.asarray([0]))
        assert not np.allclose(before, after)
        store.refresh()
        assert store.score_all_items(np.asarray([0])).tobytes() == after.tobytes()

    def test_serving_runs_in_eval_mode_and_restores_state(self, gbgcn):
        store = EmbeddingStore(gbgcn)
        # A caller in train mode gets train mode back ...
        gbgcn.train()
        store.score_all_items(np.asarray([0]))
        assert gbgcn.training
        # ... and a caller in eval mode is not clobbered back to train.
        gbgcn.eval()
        store.refresh()
        store.score_all_items(np.asarray([0]))
        assert not gbgcn.training
        gbgcn.train()

    def test_a_model_in_eval_mode_is_not_walked_again(self, gbgcn, monkeypatch):
        store = EmbeddingStore(gbgcn)
        gbgcn.eval()
        store.refresh()
        calls = []
        monkeypatch.setattr(gbgcn, "eval", lambda: calls.append("eval"))
        monkeypatch.setattr(gbgcn, "train", lambda: calls.append("train"))
        store.score_all_items(np.asarray([0]))
        store.scores(np.asarray([1]), np.asarray([0, 2]))
        assert calls == []
        assert not gbgcn.training


class TestTopKRecommender:
    def test_requires_dataset_for_exclusion(self, store):
        with pytest.raises(ValueError):
            TopKRecommender(store, k=5)

    def test_invalid_k(self, small_split, store):
        with pytest.raises(ValueError):
            TopKRecommender(store, k=0, dataset=small_split.full)

    def test_agrees_with_full_argsort(self, small_split, store):
        k = 7
        recommender = TopKRecommender(store, k=k, exclude_observed=False)
        users = np.asarray(sorted(small_split.test), dtype=np.int64)[:12]
        result = recommender.recommend(users)
        assert result.items.shape == (users.size, k)

        scores = store.score_all_items(users)
        for row in range(users.size):
            full_order = np.argsort(-scores[row], kind="stable")[:k]
            # Set equality on the chosen items plus exact score ordering
            # (argpartition may tie-break differently than argsort).
            assert set(result.items[row].tolist()) == set(full_order.tolist()) or np.allclose(
                scores[row][result.items[row]], scores[row][full_order]
            )
            assert (np.diff(result.scores[row]) <= 1e-12).all()

    def test_observed_items_excluded(self, small_split, store):
        recommender = TopKRecommender(store, k=10, dataset=small_split.full)
        observed = small_split.full.user_item_set(include_participants=True)
        users = np.asarray([user for user in sorted(observed) if observed[user]][:8], dtype=np.int64)
        result = recommender.recommend(users)
        for row, user in enumerate(users):
            recommended = set(int(i) for i in result.items[row] if i >= 0)
            assert not recommended & observed[int(user)]

    def test_k_larger_than_catalog_pads(self, small_split, store):
        # The result keeps the requested width; the impossible tail is
        # explicit -1 / -inf padding, never a silently shrunk shape.
        num_items = small_split.full.num_items
        recommender = TopKRecommender(store, k=num_items + 5, exclude_observed=False)
        result = recommender.recommend(np.asarray([0], dtype=np.int64))
        assert result.items.shape == (1, num_items + 5)
        assert (result.items[0, num_items:] == -1).all()
        assert np.isneginf(result.scores[0, num_items:]).all()
        assert (result.items[0, :num_items] >= 0).all()

    def test_recommend_user_convenience(self, small_split, store):
        recommender = TopKRecommender(store, k=5, dataset=small_split.full)
        items = recommender.recommend_user(0)
        assert items.ndim == 1
        assert 0 < items.size <= 5

    def test_for_user_unknown_raises(self, small_split, store):
        recommender = TopKRecommender(store, k=3, exclude_observed=False)
        result = recommender.recommend(np.asarray([1], dtype=np.int64))
        with pytest.raises(KeyError):
            result.for_user(999)

    def test_chunked_recommendation_matches_single_block(self, small_split, store):
        users = np.asarray(sorted(small_split.test), dtype=np.int64)[:10]
        chunked = TopKRecommender(
            store, k=5, dataset=small_split.full, batch_size=3
        ).recommend(users)
        single = TopKRecommender(
            store, k=5, dataset=small_split.full, batch_size=1024
        ).recommend(users)
        assert np.array_equal(chunked.items, single.items)
        np.testing.assert_allclose(chunked.scores, single.scores)

    def test_invalid_batch_size(self, small_split, store):
        with pytest.raises(ValueError):
            TopKRecommender(store, k=3, dataset=small_split.full, batch_size=0)

    def test_empty_user_batch(self, small_split, store):
        recommender = TopKRecommender(store, k=4, dataset=small_split.full)
        result = recommender.recommend(np.zeros(0, dtype=np.int64))
        assert result.items.shape == (0, 4)
        assert result.scores.shape == (0, 4)

    def test_works_for_every_registry_model(self, small_split):
        # The serving layer is model-agnostic: spot-check a pure-CF, a
        # social, and a group model beyond GBGCN.
        for name in ("MF", "DiffNet", "SIGR"):
            model = build_model(name, small_split.train, rng=np.random.default_rng(1))
            store = EmbeddingStore(model)
            recommender = TopKRecommender(store, k=4, dataset=small_split.full)
            result = recommender.recommend(np.asarray([0, 1, 2], dtype=np.int64))
            assert result.items.shape == (3, 4)


def reference_top_k(scores, observed, k):
    """Reference dense top-k: a dense ``np.where`` over ``observed.toarray()``
    as the mask, then the same partial select and stable sort of the
    winners as the recommender."""
    masked = np.where(observed.toarray(), -np.inf, scores)
    top = np.argpartition(-masked, k - 1, axis=1)[:, :k]
    rows = np.arange(masked.shape[0])[:, None]
    items = top[rows, np.argsort(-masked[rows, top], axis=1, kind="stable")]
    top_scores = masked[rows, items]
    return np.where(np.isfinite(top_scores), items, -1), top_scores


class TestDenseTopKParity:
    """In-place masking serves exactly the lists the dense ``np.where`` did."""

    K = 10
    #: A repeated user (0), a user with nothing observed (1) and a user
    #: with fewer than K unobserved items (2).
    USERS = np.asarray([0, 1, 2, 0, 7], dtype=np.int64)

    @pytest.fixture(scope="class")
    def observed(self, small_split):
        full = small_split.full
        observed = {user: set(items) for user, items in full.user_item_set(include_participants=True).items()}
        observed[1] = set()
        observed[2] = set(range(full.num_items - self.K + 3))
        return observed_item_matrix(observed, full.num_users, full.num_items)

    @pytest.mark.parametrize("name", SERVABLE_MODEL_NAMES)
    def test_matches_the_dense_where_reference(self, small_split, observed, name):
        model = build_model(name, small_split.train, rng=np.random.default_rng(29))
        store = EmbeddingStore(model)
        state = {key: value.tobytes() for key, value in model.state_dict().items()}
        result = TopKRecommender(store, k=self.K, observed_matrix=observed).recommend(self.USERS)

        scores = np.array(store.score_all_items(self.USERS))
        items, top_scores = reference_top_k(scores, observed[self.USERS], self.K)
        assert np.array_equal(result.items, items)
        assert result.scores.tobytes() == top_scores.tobytes()
        # The winners' scores are the K best of a full stable sort.
        masked = np.where(observed[self.USERS].toarray(), -np.inf, scores)
        assert np.array_equal(result.scores, -np.sort(-masked, axis=1, kind="stable")[:, : self.K])
        assert np.array_equal(result.items[0], result.items[3])
        unobserved = self.K - 3
        assert (result.items[2, :unobserved] >= 0).all() and (result.items[2, unobserved:] == -1).all()
        # Scoring and masking wrote into nothing the model keeps.
        assert {key: value.tobytes() for key, value in model.state_dict().items()} == state


class KeptScoresModel(RecommenderModel):
    """Serves one-user blocks as writable views of a score table it keeps."""

    def __init__(self, num_users, num_items):
        super().__init__(num_users, num_items)
        self.kept = np.arange(num_users * num_items, dtype=np.float64).reshape(num_users, num_items)

    def score_batch(self, users, item_ids=None):
        (user,) = np.asarray(users, dtype=np.int64)
        block = self.kept[user : user + 1]
        return block if item_ids is None else block[:, item_ids]


class BroadcastScoresModel(RecommenderModel):
    """Serves every user one score row it keeps, as a read-only broadcast view."""

    def __init__(self, num_users, num_items):
        super().__init__(num_users, num_items)
        self.row = np.arange(num_items, dtype=np.float64)

    def score_batch(self, users, item_ids=None):
        row = self.row if item_ids is None else self.row[item_ids]
        return np.broadcast_to(row, (np.asarray(users).size, row.size))


class TestInPlaceMaskEdges:
    def test_read_only_block_is_masked_on_a_copy(self):
        model = BroadcastScoresModel(num_users=3, num_items=6)
        store = EmbeddingStore(model)
        users = np.asarray([0, 1], dtype=np.int64)
        assert not store.score_all_items(users).flags.writeable
        row = model.row.copy()
        observed = sp.csr_matrix(np.asarray([[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0], [0] * 6], dtype=bool))
        result = TopKRecommender(store, k=3, observed_matrix=observed).recommend(users)
        assert result.items.tolist() == [[4, 3, 2], [5, 3, 2]]
        assert np.array_equal(model.row, row)

    def test_never_writes_into_an_array_the_model_keeps(self):
        model = KeptScoresModel(num_users=3, num_items=6)
        kept = model.kept.copy()
        observed = sp.csr_matrix(np.asarray([[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 1], [0] * 6], dtype=bool))
        recommender = TopKRecommender(EmbeddingStore(model), k=6, observed_matrix=observed)
        assert recommender.recommend_user(1).tolist() == [4, 3, 2, 1]
        assert np.array_equal(model.kept, kept)

    @staticmethod
    def _marked(num_users, num_items, user, entries):
        """A CSR whose row ``user`` stores ``entries`` ((item, value) pairs) as given."""
        items = np.asarray([item for item, _ in entries], dtype=np.int32)
        values = np.asarray([value for _, value in entries])
        indptr = np.zeros(num_users + 1, dtype=np.int32)
        indptr[user + 1 :] = len(entries)
        return sp.csr_matrix((values, items, indptr), shape=(num_users, num_items))

    @pytest.mark.parametrize(
        "entries",
        [
            [(2, True), (5, False)],  # an explicit False is stored, not observed
            [(2, 1), (5, 1), (5, -1)],  # duplicates summing to zero observe nothing
        ],
        ids=["explicit-false", "duplicates-sum-to-zero"],
    )
    def test_observed_matrix_masks_what_toarray_marks(self, small_split, entries):
        model = build_model("MF", small_split.train, rng=np.random.default_rng(2))
        store = EmbeddingStore(model)
        num_items = model.num_items
        observed = self._marked(model.num_users, num_items, 4, entries)
        stored = (observed.data.copy(), observed.indices.copy(), observed.indptr.copy())
        assert observed.toarray()[4].nonzero()[0].tolist() == [2]

        dense = TopKRecommender(store, k=num_items, observed_matrix=observed)
        index = build_index_for_model(model, num_cells=2, nprobe=2)
        shortlist = TopKRecommender(store, k=num_items, observed_matrix=observed, retriever=index)
        for recommender in (dense, shortlist):
            items = recommender.recommend_user(4).tolist()
            assert 2 not in items and 5 in items
            assert len(items) == num_items - 1
        # The caller's matrix is left exactly as it was passed.
        for before, after in zip(stored, (observed.data, observed.indices, observed.indptr)):
            assert np.array_equal(before, after)
