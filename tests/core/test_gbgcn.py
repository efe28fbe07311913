"""The full GBGCN model."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.autograd import cache_transpose
from repro.core import ABLATION_VARIANTS, GBGCN, GBGCNConfig, build_ablation_model
from repro.data import GroupBuyingDataset, TrainingNegativeSampler
from repro.graph import build_hetero_graph
from repro.models import ModelSettings, build_model
from repro.optim import SGD, Adam
from repro.training import GroupBuyingBatchIterator, Trainer, build_batch_iterator


@pytest.fixture(scope="module")
def model(small_split, small_graph):
    train = small_split.train
    return GBGCN(
        train.num_users,
        train.num_items,
        small_graph,
        config=GBGCNConfig(embedding_dim=8, num_layers=2),
        rng=np.random.default_rng(0),
    )


@pytest.fixture(scope="module")
def batch(small_split):
    train = small_split.train
    sampler = TrainingNegativeSampler(train, seed=0)
    iterator = GroupBuyingBatchIterator(train, sampler, batch_size=64, seed=0)
    return next(iter(iterator))


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            GBGCNConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            GBGCNConfig(num_layers=0)
        with pytest.raises(ValueError):
            GBGCNConfig(alpha=2.0)
        with pytest.raises(ValueError):
            GBGCNConfig(beta=-1.0)


class TestForward:
    def test_propagate_dimensions(self, model, small_split):
        embeddings = model.propagate()
        assert embeddings.user_initiator.shape == (small_split.train.num_users, model.final_dim)
        assert embeddings.item_participant.shape == (small_split.train.num_items, model.final_dim)

    def test_final_dim_formula(self, model):
        assert model.final_dim == 2 * (2 + 1) * 8

    def test_batch_loss_is_finite_scalar(self, model, batch):
        loss = model.batch_loss(batch)
        assert loss.data.shape == ()
        assert np.isfinite(loss.data)

    def test_training_step_reduces_loss(self, small_split, small_graph, batch):
        train = small_split.train
        model = GBGCN(train.num_users, train.num_items, small_graph,
                      config=GBGCNConfig(embedding_dim=8), rng=np.random.default_rng(1))
        optimizer = Adam(model.parameters(), lr=0.01)
        initial = float(model.batch_loss(batch).data)
        for _ in range(15):
            optimizer.zero_grad()
            loss = model.batch_loss(batch)
            loss.backward()
            optimizer.step()
        final = float(model.batch_loss(batch).data)
        assert final < initial

    def test_gradients_reach_raw_embeddings_and_fc(self, model, batch):
        model.zero_grad()
        model.batch_loss(batch).backward()
        assert model.user_embedding.weight.grad is not None
        assert model.item_embedding.weight.grad is not None
        assert model.cross_view.transform_ui_up.weight.grad is not None


class TestEvaluation:
    def test_rank_scores_shape(self, model, small_split):
        user = next(iter(small_split.test))
        scores = model.rank_scores(user, np.arange(10))
        assert scores.shape == (10,)
        assert np.isfinite(scores).all()

    def test_cache_is_used_and_invalidated(self, model):
        model.prepare_for_evaluation()
        assert model._eval_cache is not None
        model.invalidate_cache()
        assert model._eval_cache is None

    def test_final_embeddings_keys(self, model):
        embeddings = model.final_embeddings()
        assert set(embeddings) == {
            "user_initiator", "item_initiator", "user_participant", "item_participant",
        }


class TestAblation:
    def test_all_variants_build(self, small_split, small_graph):
        train = small_split.train
        for variant in ABLATION_VARIANTS:
            model = build_ablation_model(
                variant, train.num_users, train.num_items, small_graph,
                config=GBGCNConfig(embedding_dim=4), rng=np.random.default_rng(2),
            )
            assert isinstance(model, GBGCN)

    def test_variant_names(self, small_split, small_graph):
        train = small_split.train
        model = build_ablation_model(
            "Without User Roles", train.num_users, train.num_items, small_graph,
            config=GBGCNConfig(embedding_dim=4),
        )
        assert "w/o user roles" in model.name

    def test_unknown_variant_rejected(self, small_split, small_graph):
        with pytest.raises(ValueError):
            build_ablation_model("bogus", 10, 10, small_graph)

    def test_pooled_variant_has_equal_view_embeddings(self, small_split, small_graph):
        train = small_split.train
        model = build_ablation_model(
            "Without Item and User Roles", train.num_users, train.num_items, small_graph,
            config=GBGCNConfig(embedding_dim=4), rng=np.random.default_rng(3),
        )
        out = model.in_view_embeddings()
        # Raw embeddings (layer 0 block) are shared; the propagated blocks are pooled.
        assert np.allclose(out.user_initiator.data, out.user_participant.data)
        assert np.allclose(out.item_initiator.data, out.item_participant.data)


def graph_digest(graph) -> str:
    """SHA-256 over every propagation matrix of ``graph`` and its cached transpose."""
    hasher = hashlib.sha256()
    matrices = [graph.friendship.normalized()]
    for view in (graph.initiator_view, graph.participant_view):
        matrices += [view.user_to_item_propagation(), view.item_to_user_propagation()]
    matrices += [graph.sharing.outgoing_propagation(), graph.sharing.incoming_propagation()]
    for matrix in matrices + [cache_transpose(matrix) for matrix in matrices]:
        for part in (matrix.indptr, matrix.indices, matrix.data):
            hasher.update(part.tobytes())
    return hasher.hexdigest()


class TestSharedGraph:
    def test_training_leaves_the_shared_graph_unchanged(self, small_split):
        # Every model built on one dataset reads the same matrices, so a
        # model writing into one would corrupt all the others.
        train = small_split.train
        before = graph_digest(build_hetero_graph(train))
        settings = ModelSettings(embedding_dim=8, seed=0)
        pretrain = build_model("GBGCN-pretrain", train, settings)
        Trainer(pretrain, Adam(pretrain.parameters(), lr=0.01), build_batch_iterator(pretrain, train, seed=0)).train_epoch()
        model = build_model("GBGCN", train, settings)
        Trainer(model, SGD(model.parameters(), lr=0.05), build_batch_iterator(model, train, seed=1)).train_epoch()
        assert model.graph is build_hetero_graph(train)
        assert graph_digest(build_hetero_graph(train)) == before

    def test_scoring_factor_transient_stays_under_bound(self):
        # A long-tail catalog: 20k items, most never bought, and dim 8.
        # Computing the pair used to hold 2.63x its bytes at the peak; the
        # in-place sigmoid and the freed item messages bring it to 2.20x.
        rng = np.random.default_rng(0)
        num_users, num_items, num_behaviors = 5000, 20_000, 12_000
        initiators = rng.integers(0, num_users, num_behaviors)
        participants = [
            [int(p) for p in rng.integers(0, num_users, rng.integers(0, 3)) if p != m] for m in initiators
        ]
        social = [(int(a), int(b)) for a, b in rng.integers(0, num_users, (3 * num_users, 2)) if a != b]
        dataset = GroupBuyingDataset.from_arrays(
            num_users, num_items, initiators, rng.integers(0, num_items, num_behaviors),
            participants, [1] * num_behaviors, social,
        )
        model = build_model("GBGCN", dataset, ModelSettings(embedding_dim=8, seed=0))
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            user_factors, item_factors = model.scoring_factors()
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak / (user_factors.nbytes + item_factors.nbytes) < 2.4
