"""Regression tests: the batched full-ranking path must match the per-user
reference oracle exactly, and ``score_batch`` must match ``rank_scores``.

The batched evaluator replaces per-user Python loops with block matrix
products; these tests pin the contract that the refactor changes *speed
only* — metrics, ranks and scores are identical on seeded synthetic data
for GBGCN and the baselines.
"""

import numpy as np
import pytest

from repro.eval import FullRankingEvaluator
from repro.models import SERVABLE_MODEL_NAMES, build_model
from repro.models.base import RecommenderModel, item_rows
from repro.persist import LAYOUT_DIR, load_model, save_model

#: GBGCN plus at least two baselines (per the regression-test requirement);
#: the extra rows cover every distinct score_batch implementation shape.
PARITY_MODELS = [
    "GBGCN",
    "MF",
    "LightGCN",
    "GBMF",
    "SIGR",
    "NCF",
    "ItemPop",
    "ItemKNN",
]


@pytest.fixture(scope="module")
def models(small_split):
    return {
        name: build_model(name, small_split.train, rng=np.random.default_rng(17))
        for name in PARITY_MODELS
    }


class TestFullRankingParity:
    @pytest.mark.parametrize("name", PARITY_MODELS)
    def test_test_holdout_identical(self, small_split, models, name):
        model = models[name]
        evaluator = FullRankingEvaluator(small_split, batch_size=32)
        batched = evaluator.evaluate_test(model)
        reference = evaluator.evaluate_test_loop(model)
        assert np.array_equal(batched.ranks, reference.ranks)
        assert batched.metrics == reference.metrics
        assert batched.num_users == reference.num_users

    @pytest.mark.parametrize("name", ["GBGCN", "MF", "LightGCN"])
    def test_validation_holdout_identical(self, small_split, models, name):
        model = models[name]
        evaluator = FullRankingEvaluator(small_split, batch_size=7)
        batched = evaluator.evaluate_validation(model)
        reference = evaluator.evaluate_validation_loop(model)
        assert np.array_equal(batched.ranks, reference.ranks)
        assert batched.metrics == reference.metrics

    @pytest.mark.parametrize("name", ["GBGCN", "MF"])
    def test_without_observed_exclusion(self, small_split, models, name):
        model = models[name]
        evaluator = FullRankingEvaluator(small_split, exclude_observed=False, batch_size=16)
        batched = evaluator.evaluate_test(model)
        reference = evaluator.evaluate_test_loop(model)
        assert np.array_equal(batched.ranks, reference.ranks)
        assert batched.metrics == reference.metrics

    def test_block_size_does_not_matter(self, small_split, models):
        model = models["GBGCN"]
        ranks_per_size = [
            FullRankingEvaluator(small_split, batch_size=size).evaluate_test(model).ranks
            for size in (1, 3, 1024)
        ]
        assert np.array_equal(ranks_per_size[0], ranks_per_size[1])
        assert np.array_equal(ranks_per_size[0], ranks_per_size[2])

    def test_batch_size_none_selects_reference_path(self, small_split, models):
        model = models["MF"]
        evaluator = FullRankingEvaluator(small_split, batch_size=None)
        result = evaluator.evaluate_test(model)
        reference = evaluator.evaluate_test_loop(model)
        assert np.array_equal(result.ranks, reference.ranks)

    def test_invalid_batch_size_rejected(self, small_split):
        with pytest.raises(ValueError):
            FullRankingEvaluator(small_split, batch_size=0)


class TestScoreBatchParity:
    @pytest.mark.parametrize("name", PARITY_MODELS)
    def test_rows_match_rank_scores(self, small_split, models, name):
        model = models[name]
        num_items = small_split.train.num_items
        users = np.asarray([0, 3, 11, 42 % small_split.train.num_users], dtype=np.int64)
        item_ids = np.arange(num_items, dtype=np.int64)
        model.prepare_for_evaluation()
        block = model.score_batch(users, item_ids)
        assert block.shape == (users.size, num_items)
        for row, user in enumerate(users):
            expected = np.asarray(model.rank_scores(int(user), item_ids), dtype=np.float64)
            np.testing.assert_allclose(block[row], expected, rtol=1e-10, atol=1e-12)

    def test_item_subset_block(self, small_split, models):
        model = models["GBGCN"]
        users = np.asarray([1, 2], dtype=np.int64)
        item_ids = np.asarray([5, 0, 9], dtype=np.int64)
        block = model.score_batch(users, item_ids)
        assert block.shape == (2, 3)
        full = model.score_all_items(users)
        np.testing.assert_allclose(block, full[:, item_ids], rtol=1e-10, atol=1e-12)

    def test_empty_user_block(self, small_split, models):
        model = models["MF"]
        block = model.score_batch(np.zeros(0, dtype=np.int64), np.arange(4))
        assert block.shape == (0, 4)

    def test_agree_uses_per_user_fallback(self, small_split):
        # AGREE has no cacheable user-independent embedding; the base-class
        # fallback must still produce a correct block.
        model = build_model("AGREE", small_split.train, rng=np.random.default_rng(3))
        users = np.asarray([0, 5], dtype=np.int64)
        item_ids = np.arange(min(8, small_split.train.num_items), dtype=np.int64)
        block = model.score_batch(users, item_ids)
        for row, user in enumerate(users):
            np.testing.assert_allclose(
                block[row], np.asarray(model.rank_scores(int(user), item_ids), dtype=np.float64)
            )


class TestWholeCatalogScoring:
    """``score_all_items`` reads item tables in place, with the gathered bytes."""

    @staticmethod
    def _users(dataset):
        # A repeated user, the first and the last user.
        return np.asarray([0, 5, 5, dataset.num_users - 1], dtype=np.int64)

    @pytest.mark.parametrize("name", SERVABLE_MODEL_NAMES)
    def test_bytes_equal_the_gathered_block(self, small_split, name):
        model = build_model(name, small_split.train, rng=np.random.default_rng(23))
        model.eval()
        users = self._users(small_split.train)
        whole = model.score_all_items(users)
        gathered = model.score_batch(users, np.arange(model.num_items, dtype=np.int64))
        assert whole.dtype == gathered.dtype
        assert whole.tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("name", SERVABLE_MODEL_NAMES)
    def test_bytes_equal_after_mmap_dir_load(self, small_split, tmp_path, name):
        model = build_model(name, small_split.train, rng=np.random.default_rng(23))
        save_model(model, tmp_path / "model.npyd", layout=LAYOUT_DIR)
        loaded = load_model(tmp_path / "model.npyd", small_split.train)
        loaded.eval()
        users = self._users(small_split.train)
        whole = loaded.score_all_items(users)
        gathered = loaded.score_batch(users, np.arange(loaded.num_items, dtype=np.int64))
        assert whole.tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("name", SERVABLE_MODEL_NAMES)
    def test_no_model_overrides_score_all_items(self, small_split, name):
        model = build_model(name, small_split.train, rng=np.random.default_rng(23))
        assert type(model).score_all_items is RecommenderModel.score_all_items

    def test_item_rows_returns_the_table_itself_for_the_whole_catalog(self):
        table = np.arange(12.0).reshape(4, 3)
        assert item_rows(table, None) is table
        np.testing.assert_array_equal(item_rows(table, [2, 0]), table[[2, 0]])
