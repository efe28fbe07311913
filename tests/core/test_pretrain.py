"""Pre-training model and embedding transfer."""

import numpy as np
import pytest

from repro.core import GBGCN, GBGCNConfig, GBGCNPretrainModel, transfer_pretrained_embeddings
from repro.data import TrainingNegativeSampler
from repro.training import GroupBuyingBatchIterator


@pytest.fixture(scope="module")
def pretrain_model(small_split, small_graph):
    train = small_split.train
    return GBGCNPretrainModel(
        train.num_users, train.num_items, small_graph,
        config=GBGCNConfig(embedding_dim=8), rng=np.random.default_rng(0),
    )


class TestPretrainModel:
    def test_has_no_propagation_parameters(self, pretrain_model):
        names = [name for name, _ in pretrain_model.named_parameters()]
        assert all("transform" not in name for name in names)
        assert len(names) == 2

    def test_batch_loss_finite(self, pretrain_model, small_split):
        train = small_split.train
        sampler = TrainingNegativeSampler(train, seed=0)
        batch = next(iter(GroupBuyingBatchIterator(train, sampler, batch_size=32, seed=0)))
        loss = pretrain_model.batch_loss(batch)
        assert np.isfinite(loss.data)

    def test_rank_scores(self, pretrain_model):
        scores = pretrain_model.rank_scores(0, np.arange(5))
        assert scores.shape == (5,)

    def test_normalize_embeddings(self, pretrain_model):
        pretrain_model.normalize_embeddings()
        assert np.allclose(np.linalg.norm(pretrain_model.user_embedding.weight.data, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(pretrain_model.item_embedding.weight.data, axis=1), 1.0)

    def test_normalize_drops_scores_prepared_before_it(self, small_split, small_graph):
        # A model scored before normalising must not keep serving the old
        # friend average next to the normalised own-terms.
        train = small_split.train
        model = GBGCNPretrainModel(
            train.num_users, train.num_items, small_graph,
            config=GBGCNConfig(embedding_dim=8), rng=np.random.default_rng(4),
        )
        items = np.arange(train.num_items)
        model.prepare_for_evaluation()
        model.normalize_embeddings()
        after_normalize = [model.rank_scores(user, items) for user in range(train.num_users)]
        model.prepare_for_evaluation()
        for user in range(train.num_users):
            assert after_normalize[user].tobytes() == model.rank_scores(user, items).tobytes()


class TestTransfer:
    def test_transfer_copies_raw_embeddings(self, small_split, small_graph, pretrain_model):
        train = small_split.train
        full = GBGCN(train.num_users, train.num_items, small_graph,
                     config=GBGCNConfig(embedding_dim=8), rng=np.random.default_rng(1))
        before = full.cross_view.transform_vi_ui.weight.data.copy()
        transfer_pretrained_embeddings(pretrain_model, full)
        assert np.allclose(full.user_embedding.weight.data, pretrain_model.user_embedding.weight.data)
        assert np.allclose(full.item_embedding.weight.data, pretrain_model.item_embedding.weight.data)
        # FC layers are untouched by the transfer.
        assert np.allclose(full.cross_view.transform_vi_ui.weight.data, before)

    def test_transfer_is_a_copy_not_a_view(self, small_split, small_graph, pretrain_model):
        train = small_split.train
        full = GBGCN(train.num_users, train.num_items, small_graph,
                     config=GBGCNConfig(embedding_dim=8), rng=np.random.default_rng(2))
        transfer_pretrained_embeddings(pretrain_model, full)
        full.user_embedding.weight.data[0, 0] = 123.0
        assert pretrain_model.user_embedding.weight.data[0, 0] != 123.0
