"""Every Table III baseline: construction, loss, learning signal, scoring."""

import numpy as np
import pytest

from repro.data import to_fixed_groups, to_user_item_interactions, TrainingNegativeSampler
from repro.graph import BipartiteGraph, FriendshipGraph
from repro.models import (
    AGREE,
    DataMode,
    GBMF,
    MatrixFactorization,
    NCF,
    NGCF,
    SIGR,
    SocialMF,
    DiffNet,
)
from repro.optim import Adam
from repro.training import (
    FixedGroupBatchIterator,
    GroupBuyingBatchIterator,
    InteractionBatchIterator,
)


@pytest.fixture(scope="module")
def train(small_split):
    return small_split.train


@pytest.fixture(scope="module")
def friendship(train):
    return FriendshipGraph([e.as_tuple() for e in train.social_edges], train.num_users)


@pytest.fixture(scope="module")
def interaction_graph(train):
    conversion = to_user_item_interactions(train, mode="both")
    return BipartiteGraph(conversion.pairs, train.num_users, train.num_items)


@pytest.fixture(scope="module")
def groups(train):
    return to_fixed_groups(train)


@pytest.fixture(scope="module")
def interaction_batch(train):
    conversion = to_user_item_interactions(train, mode="both")
    sampler = TrainingNegativeSampler(train, seed=0)
    return next(iter(InteractionBatchIterator(conversion, sampler, batch_size=128, seed=0)))


@pytest.fixture(scope="module")
def group_batch(groups):
    return next(iter(FixedGroupBatchIterator(groups, batch_size=128, seed=0)))


@pytest.fixture(scope="module")
def group_buying_batch(train):
    sampler = TrainingNegativeSampler(train, seed=0)
    return next(iter(GroupBuyingBatchIterator(train, sampler, batch_size=128, seed=0)))


def assert_learns(model, batch, steps=12, lr=0.05):
    """The batch loss must decrease after a few optimizer steps."""
    optimizer = Adam(model.parameters(), lr=lr)
    initial = float(model.batch_loss(batch).data)
    for _ in range(steps):
        optimizer.zero_grad()
        loss = model.batch_loss(batch)
        loss.backward()
        optimizer.step()
    model.invalidate_cache()
    assert float(model.batch_loss(batch).data) < initial


class TestMatrixFactorization:
    def test_data_mode_per_conversion(self, train):
        assert MatrixFactorization(train.num_users, train.num_items, 8, interaction_mode="oi").data_mode == DataMode.INTERACTIONS_OI
        assert MatrixFactorization(train.num_users, train.num_items, 8).data_mode == DataMode.INTERACTIONS_BOTH

    def test_invalid_mode(self, train):
        with pytest.raises(ValueError):
            MatrixFactorization(train.num_users, train.num_items, 8, interaction_mode="bad")

    def test_learns(self, train, interaction_batch):
        model = MatrixFactorization(train.num_users, train.num_items, 8, rng=np.random.default_rng(0))
        assert_learns(model, interaction_batch)

    def test_rank_scores_match_dot_product(self, train):
        model = MatrixFactorization(train.num_users, train.num_items, 8, rng=np.random.default_rng(1))
        items = np.array([0, 3, 5])
        scores = model.rank_scores(2, items)
        expected = model.item_embedding.weight.data[items] @ model.user_embedding.weight.data[2]
        assert np.allclose(scores, expected)

    def test_names(self, train):
        assert MatrixFactorization(train.num_users, train.num_items, 8, interaction_mode="oi").name == "MF(oi)"
        assert MatrixFactorization(train.num_users, train.num_items, 8).name == "MF"


class TestNCF:
    def test_learns(self, train, interaction_batch):
        model = NCF(train.num_users, train.num_items, 8, rng=np.random.default_rng(2))
        assert_learns(model, interaction_batch)

    def test_rank_scores_finite(self, train):
        model = NCF(train.num_users, train.num_items, 8, rng=np.random.default_rng(3))
        scores = model.rank_scores(1, np.arange(train.num_items))
        assert scores.shape == (train.num_items,)
        assert np.isfinite(scores).all()

    def test_has_separate_branch_embeddings(self, train):
        model = NCF(train.num_users, train.num_items, 8, rng=np.random.default_rng(4))
        assert not np.allclose(model.gmf_user_embedding.weight.data, model.mlp_user_embedding.weight.data)


class TestNGCF:
    def test_graph_shape_validation(self, train, interaction_graph):
        with pytest.raises(ValueError):
            NGCF(train.num_users + 1, train.num_items, interaction_graph, 8)

    def test_learns(self, train, interaction_graph, interaction_batch):
        model = NGCF(train.num_users, train.num_items, interaction_graph, 8, rng=np.random.default_rng(5))
        assert_learns(model, interaction_batch, steps=8)

    def test_eval_cache_lifecycle(self, train, interaction_graph):
        model = NGCF(train.num_users, train.num_items, interaction_graph, 8, rng=np.random.default_rng(6))
        model.prepare_for_evaluation()
        assert model._eval_cache is not None
        model.invalidate_cache()
        assert model._eval_cache is None

    def test_propagated_dimension(self, train, interaction_graph):
        model = NGCF(train.num_users, train.num_items, interaction_graph, 8, num_layers=2, rng=np.random.default_rng(7))
        out = model.propagate()
        assert out.shape == (train.num_users + train.num_items, 8 * 3)


class TestSocialMF:
    def test_learns(self, train, friendship, interaction_batch):
        model = SocialMF(train.num_users, train.num_items, friendship, 8, rng=np.random.default_rng(8))
        assert_learns(model, interaction_batch)

    def test_friendship_validation(self, train):
        with pytest.raises(ValueError):
            SocialMF(train.num_users, train.num_items, FriendshipGraph([], train.num_users + 1), 8)


class TestDiffNet:
    def test_learns(self, train, friendship, interaction_graph, interaction_batch):
        model = DiffNet(train.num_users, train.num_items, friendship, interaction_graph, 8,
                        rng=np.random.default_rng(9))
        assert_learns(model, interaction_batch, steps=8)

    def test_diffusion_uses_social_network(self, train, friendship, interaction_graph):
        model = DiffNet(train.num_users, train.num_items, friendship, interaction_graph, 8,
                        rng=np.random.default_rng(10))
        diffused = model.diffuse_users().data
        assert not np.allclose(diffused, model.user_embedding.weight.data)


class TestAGREE:
    def test_learns(self, train, groups, group_batch):
        model = AGREE(train.num_users, train.num_items, groups, 8, rng=np.random.default_rng(11))
        assert_learns(model, group_batch, steps=8)

    def test_rank_scores_for_known_and_unknown_user(self, train, groups):
        model = AGREE(train.num_users, train.num_items, groups, 8, rng=np.random.default_rng(12))
        known_user = next(iter(groups.group_of_user))
        unknown_user = train.num_users - 1 if train.num_users - 1 not in groups.group_of_user else 0
        for user in (known_user, unknown_user):
            scores = model.rank_scores(user, np.arange(6))
            assert scores.shape == (6,)
            assert np.isfinite(scores).all()


class TestSIGR:
    def test_learns(self, train, groups, friendship, interaction_graph, group_batch):
        model = SIGR(train.num_users, train.num_items, groups, friendship, interaction_graph, 8,
                     rng=np.random.default_rng(13))
        assert_learns(model, group_batch, steps=8)

    def test_group_representations_shape(self, train, groups, friendship, interaction_graph):
        model = SIGR(train.num_users, train.num_items, groups, friendship, interaction_graph, 8,
                     rng=np.random.default_rng(14))
        assert model.group_representations().shape == (groups.num_groups, 8)


class TestGBMF:
    def test_learns(self, train, friendship, group_buying_batch):
        model = GBMF(train.num_users, train.num_items, friendship, 8, alpha=0.5,
                     rng=np.random.default_rng(15))
        assert_learns(model, group_buying_batch)

    def test_alpha_validation(self, train, friendship):
        with pytest.raises(ValueError):
            GBMF(train.num_users, train.num_items, friendship, 8, alpha=1.5)

    def test_alpha_zero_matches_plain_mf_scoring(self, train, friendship):
        model = GBMF(train.num_users, train.num_items, friendship, 8, alpha=0.0,
                     rng=np.random.default_rng(16))
        items = np.arange(5)
        expected = model.item_embedding.weight.data[items] @ model.user_embedding.weight.data[3]
        assert np.allclose(model.rank_scores(3, items), expected)

    def test_alpha_one_uses_only_friends(self, train, friendship):
        model = GBMF(train.num_users, train.num_items, friendship, 8, alpha=1.0,
                     rng=np.random.default_rng(17))
        model.prepare_for_evaluation()
        items = np.arange(5)
        expected = model.item_embedding.weight.data[items] @ model.friend_average_users().data[3]
        assert np.allclose(model.rank_scores(3, items), expected)
