"""The factor pair is the one score definition of every inner-product model.

``compute_scoring_factors`` returns ``(user_factors, item_factors)``;
``RecommenderModel`` caches that pair and derives ``score_batch``,
``rank_scores`` and ``scoring_factors`` from it, so dense serving,
retrieval rescoring and both evaluator paths compute the same product.
"""

import numpy as np
import pytest

from repro.core import GBGCN, GBGCNPretrainModel
from repro.models import GBMF, SERVABLE_MODEL_NAMES, build_model
from repro.models.base import RecommenderModel

#: Models whose score is not an inner product; they keep their own scoring.
NON_FACTOR_MODELS = {"NCF", "ItemKNN", "AGREE"}
FACTOR_MODELS = [name for name in SERVABLE_MODEL_NAMES if name not in NON_FACTOR_MODELS]


def _users(dataset):
    return np.asarray([0, 7, 7, dataset.num_users - 1], dtype=np.int64)


@pytest.mark.parametrize("name", SERVABLE_MODEL_NAMES)
def test_factors_exist_exactly_for_inner_product_models(small_split, name):
    model = build_model(name, small_split.train, rng=np.random.default_rng(31))
    factors = model.scoring_factors()
    assert (factors is None) == (name in NON_FACTOR_MODELS)


@pytest.mark.parametrize("name", FACTOR_MODELS)
def test_score_batch_is_the_factor_product(small_split, name):
    model = build_model(name, small_split.train, rng=np.random.default_rng(31))
    model.eval()
    users = _users(small_split.train)
    user_factors, item_factors = model.scoring_factors()
    subset = np.asarray([9, 0, 3, 3, model.num_items - 1], dtype=np.int64)
    expected = user_factors[users] @ item_factors[subset].T
    assert model.score_batch(users, subset).tobytes() == expected.tobytes()
    whole = user_factors[users] @ item_factors.T
    assert model.score_batch(users, None).tobytes() == whole.tobytes()


@pytest.mark.parametrize("name", FACTOR_MODELS)
def test_factor_models_define_scoring_only_through_the_hook(small_split, name):
    model = build_model(name, small_split.train, rng=np.random.default_rng(31))
    for method in ("score_batch", "rank_scores", "scoring_factors"):
        assert getattr(type(model), method) is getattr(RecommenderModel, method), method


@pytest.mark.parametrize("name", FACTOR_MODELS)
def test_prepare_replaces_the_cached_pair(small_split, name):
    model = build_model(name, small_split.train, rng=np.random.default_rng(31))
    model.prepare_for_evaluation()
    first = model._eval_cache
    assert first is model.scoring_factors()
    model.prepare_for_evaluation()
    assert model._eval_cache is not first
    model.invalidate_cache()
    assert model._eval_cache is None


class TestEq9Oracle:
    """The folded pair against Eq. 9 written out: two products plus the blend."""

    @staticmethod
    def _eq9(alpha, users, own_users, friend_average, item_initiator, item_participant):
        own = own_users[users] @ item_initiator.T
        friends = friend_average[users] @ item_participant.T
        return (1.0 - alpha) * own + alpha * friends

    def _check(self, model, expected_of_users, dataset):
        users = _users(dataset)
        np.testing.assert_allclose(model.score_batch(users), expected_of_users(users), rtol=1e-9)
        subset = np.asarray([4, 1, 1, dataset.num_items - 1], dtype=np.int64)
        np.testing.assert_allclose(
            model.score_batch(users, subset), expected_of_users(users)[:, subset], rtol=1e-9
        )

    def test_gbgcn(self, small_split):
        model = build_model("GBGCN", small_split.train, rng=np.random.default_rng(32))
        assert isinstance(model, GBGCN)
        model.eval()
        views = model.propagate()
        social = model._social_normalized
        friend_average = social @ views.user_participant.data
        self._check(
            model,
            lambda users: self._eq9(
                model.config.alpha,
                users,
                views.user_initiator.data,
                friend_average,
                views.item_initiator.data,
                views.item_participant.data,
            ),
            small_split.train,
        )

    def test_gbgcn_pretrain(self, small_split):
        model = build_model("GBGCN-pretrain", small_split.train, rng=np.random.default_rng(33))
        assert isinstance(model, GBGCNPretrainModel)
        users_table = model.user_embedding.weight.data
        items_table = model.item_embedding.weight.data
        friend_average = model._social_normalized @ users_table
        self._check(
            model,
            lambda users: self._eq9(
                model.config.alpha, users, users_table, friend_average, items_table, items_table
            ),
            small_split.train,
        )

    def test_gbmf(self, small_split):
        model = build_model("GBMF", small_split.train, rng=np.random.default_rng(34))
        assert isinstance(model, GBMF)
        users_table = model.user_embedding.weight.data
        items_table = model.item_embedding.weight.data
        friend_average = model.friendship.normalized() @ users_table
        self._check(
            model,
            lambda users: self._eq9(
                model.alpha, users, users_table, friend_average, items_table, items_table
            ),
            small_split.train,
        )
