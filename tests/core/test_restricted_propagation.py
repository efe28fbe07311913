"""Row-restricted cross-view propagation: compact rows == full-table rows."""

import numpy as np
import pytest

from repro.autograd import Tensor, sparse_matmul
from repro.core import CrossViewPropagation, GBGCN, GBGCNConfig, InViewPropagation
from repro.graph import build_hetero_graph
from repro.models import ModelSettings, build_model
from repro.training.factory import build_batch_iterator


@pytest.fixture(scope="module")
def graph(small_split):
    return build_hetero_graph(small_split.train)


@pytest.fixture(scope="module")
def stages(graph, small_split):
    rng = np.random.default_rng(0)
    train = small_split.train
    in_view = InViewPropagation(graph, num_layers=2)
    cross_view = CrossViewPropagation(graph, feature_dim=3 * 8, rng=rng)
    users = Tensor(rng.normal(size=(train.num_users, 8)))
    items = Tensor(rng.normal(size=(train.num_items, 8)))
    return cross_view, in_view(users, items)


def test_restricted_rows_match_full_output(stages, small_split):
    cross_view, in_view_out = stages
    train = small_split.train
    user_rows = np.array(sorted({0, 2, train.num_users - 1}))
    item_rows = np.array(sorted({1, train.num_items - 1}))
    full = cross_view(in_view_out)
    restricted = cross_view(in_view_out, user_initiator_rows=user_rows, item_rows=item_rows)
    assert restricted.user_initiator.shape == (user_rows.size, full.user_initiator.shape[1])
    np.testing.assert_allclose(
        restricted.user_initiator.data, full.user_initiator.data[user_rows], rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(
        restricted.item_initiator.data, full.item_initiator.data[item_rows], rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(
        restricted.item_participant.data, full.item_participant.data[item_rows], rtol=1e-12, atol=1e-14
    )
    # The participant-view users feed the friend average and stay full-width.
    assert restricted.user_participant.shape == full.user_participant.shape
    np.testing.assert_allclose(
        restricted.user_participant.data, full.user_participant.data, rtol=0, atol=0
    )


@pytest.mark.parametrize(
    "share_user_roles, share_item_roles",
    [(True, False), (False, True), (True, True)],
)
def test_shared_role_ablations_still_train(small_split, share_user_roles, share_item_roles):
    train = small_split.train
    config = GBGCNConfig(
        embedding_dim=8,
        share_user_roles=share_user_roles,
        share_item_roles=share_item_roles,
    )
    model = GBGCN(
        train.num_users,
        train.num_items,
        graph=build_hetero_graph(train),
        config=config,
        rng=np.random.default_rng(0),
    )
    batch = next(iter(build_batch_iterator(model, train, batch_size=32, seed=0)))
    loss = model.batch_loss(batch)
    loss.backward()
    assert np.isfinite(float(loss.data))
    assert model.user_embedding.weight.grad is not None


def test_gbgcn_training_matches_unrestricted_scores(small_split):
    """The restricted training path scores the same pairs as full propagation."""
    train = small_split.train
    model = build_model("GBGCN", train, ModelSettings(embedding_dim=8))
    batch = next(iter(build_batch_iterator(model, train, batch_size=32, seed=1)))
    loss_restricted = float(model.batch_loss(batch).data)

    # Reference: full propagation + an unfused Eq. 9 score per pair.
    embeddings = model.propagate()
    friend_average = sparse_matmul(model._social_normalized, embeddings.user_participant)
    alpha = model.config.alpha

    def score_pairs(users, items):
        own = (embeddings.user_initiator[users] * embeddings.item_initiator[items]).sum(axis=-1)
        friends = (friend_average[users] * embeddings.item_participant[items]).sum(axis=-1)
        return own * (1.0 - alpha) + friends * alpha

    def score_pair_difference(users, positive_items, negative_items):
        return score_pairs(users, positive_items) - score_pairs(users, negative_items)

    reference_loss = model.loss_function(batch, score_pair_difference)
    touched_users = np.unique(
        np.concatenate([batch.initiators, batch.participants, batch.failed_friends])
    )
    touched_items = np.unique(np.concatenate([batch.items, batch.negative_items]))
    from repro.nn import social_regularization

    reference = float(
        (
            reference_loss
            + model.regularization(
                [model.user_embedding(touched_users), model.item_embedding(touched_items)]
            )
            * (1.0 / len(batch))
            + social_regularization(
                model.user_embedding.weight,
                model._social_normalized,
                weight=model.config.social_weight,
                user_indices=batch.initiators,
            )
            * (1.0 / len(batch))
        ).data
    )
    assert loss_restricted == pytest.approx(reference, rel=1e-12)
