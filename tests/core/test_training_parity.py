"""Eq. 9's one training form reproduces the two-gather composition bit for bit.

GBGCN and GBGCN-pretrain train through
:func:`repro.core.role_weighted_difference`.  GBGCN restricts all four
score tables to the batch's touched rows, the friend average included (it
averages through the touched rows of the averaging matrix).  The
references below compose the same loss the way the models did before
that: the own view on the restricted rows, the friend average computed
full-width and indexed by global user IDs.  Loss and every parameter
gradient must be equal, not close.  GBMF's fused loss is checked against
the unfused per-pair Eq. 9 BPR formula.
"""

import dataclasses

import numpy as np
import pytest

from repro.autograd import Tensor, gathered_dot_difference, grad_to_dense, sparse_matmul
from repro.core import GBGCN, GBGCNConfig
from repro.graph import build_hetero_graph
from repro.models import ModelSettings, build_model
from repro.nn import bpr_loss, social_regularization
from repro.training.factory import build_batch_iterator


def two_gather_difference(
    alpha, own_user, own_item, friend_average, friend_item, user_rows, friend_users, pos, neg
):
    """Eq. 9 difference with separate user index arrays for the two views."""
    own = gathered_dot_difference(own_user, own_item, user_rows, pos, neg)
    friends = gathered_dot_difference(friend_average, friend_item, friend_users, pos, neg)
    return own * (1.0 - alpha) + friends * alpha


def reference_gbgcn_loss(model, batch):
    """GBGCN's loss with a full-width friend average indexed by global user IDs."""
    touched_users = np.unique(np.concatenate([batch.initiators, batch.participants, batch.failed_friends]))
    touched_items = np.unique(np.concatenate([batch.items, batch.negative_items]))
    restrict_users = not model.config.share_user_roles
    restrict_items = not model.config.share_item_roles
    in_view = model.in_view(model.user_embedding.weight, model.item_embedding.weight)
    embeddings = model.cross_view(
        in_view,
        user_initiator_rows=touched_users if restrict_users else None,
        item_rows=touched_items if restrict_items else None,
    )
    friend_average = sparse_matmul(model._social_normalized, embeddings.user_participant)

    def score_pair_difference(users, positive_items, negative_items):
        user_rows = np.searchsorted(touched_users, users) if restrict_users else users
        positive_rows = np.searchsorted(touched_items, positive_items) if restrict_items else positive_items
        negative_rows = np.searchsorted(touched_items, negative_items) if restrict_items else negative_items
        return two_gather_difference(
            model.config.alpha,
            embeddings.user_initiator,
            embeddings.item_initiator,
            friend_average,
            embeddings.item_participant,
            user_rows,
            users,
            positive_rows,
            negative_rows,
        )

    scale = 1.0 / max(len(batch), 1)
    loss = model.loss_function(batch, score_pair_difference)
    regularizer = model.regularization(
        [model.user_embedding(touched_users), model.item_embedding(touched_items)]
    ) * scale
    social_term = social_regularization(
        model.user_embedding.weight,
        model._social_normalized,
        weight=model.config.social_weight,
        user_indices=batch.initiators,
    ) * scale
    return loss + regularizer + social_term


def reference_pretrain_loss(model, batch):
    """GBGCN-pretrain's loss as the two-gather composition over the raw tables."""
    users = model.user_embedding.weight
    items = model.item_embedding.weight
    friend_average = sparse_matmul(model._social_normalized, users)

    def score_pair_difference(user_ids, positive_items, negative_items):
        return two_gather_difference(
            model.config.alpha, users, items, friend_average, items, user_ids, user_ids, positive_items,
            negative_items,
        )

    touched_items = np.unique(np.concatenate([batch.items, batch.negative_items]))
    regularizer = model.regularization(
        [model.user_embedding(batch.initiators), model.item_embedding(touched_items)]
    ) * (1.0 / max(len(batch), 1))
    return model.loss_function(batch, score_pair_difference) + regularizer


def loss_and_gradients(model, loss_fn, batch):
    model.zero_grad()
    loss = loss_fn(batch)
    loss.backward()
    grads = {
        name: None if parameter.grad is None else grad_to_dense(parameter.grad)
        for name, parameter in model.named_parameters()
    }
    model.zero_grad()
    return float(loss.data), grads


def without_participants_or_failed_friends(batch):
    empty = np.array([], dtype=np.int64)
    return dataclasses.replace(
        batch, participants=empty, participant_segment=empty, failed_friends=empty, failed_friend_segment=empty
    )


def assert_same_training_step(model, reference, batch):
    loss, grads = loss_and_gradients(model, model.batch_loss, batch)
    expected_loss, expected_grads = loss_and_gradients(model, lambda b: reference(model, b), batch)
    assert loss == expected_loss
    assert set(grads) == set(expected_grads)
    for name, expected in expected_grads.items():
        if expected is None:
            assert grads[name] is None, name
        else:
            assert np.array_equal(grads[name], expected), f"gradient of {name} differs"


def first_batch(model, train):
    batch = next(iter(build_batch_iterator(model, train, batch_size=64, seed=3)))
    assert batch.participants.size and batch.failed_friends.size
    return batch


@pytest.mark.parametrize("strip_context", [False, True], ids=["full-batch", "initiators-only"])
@pytest.mark.parametrize(
    "share_user_roles, share_item_roles",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["default", "share-users", "share-items", "share-both"],
)
def test_gbgcn_step_matches_two_gather_composition(
    small_split, share_user_roles, share_item_roles, strip_context
):
    train = small_split.train
    config = GBGCNConfig(embedding_dim=8, share_user_roles=share_user_roles, share_item_roles=share_item_roles)
    model = GBGCN(
        train.num_users, train.num_items, build_hetero_graph(train), config=config, rng=np.random.default_rng(7)
    )
    batch = first_batch(model, train)
    if strip_context:
        batch = without_participants_or_failed_friends(batch)
    assert_same_training_step(model, reference_gbgcn_loss, batch)


@pytest.mark.parametrize("strip_context", [False, True], ids=["full-batch", "initiators-only"])
def test_pretrain_step_matches_two_gather_composition(small_split, strip_context):
    train = small_split.train
    model = build_model("GBGCN-pretrain", train, ModelSettings(embedding_dim=8))
    batch = first_batch(model, train)
    if strip_context:
        batch = without_participants_or_failed_friends(batch)
    assert_same_training_step(model, reference_pretrain_loss, batch)


def test_gbmf_loss_matches_unfused_eq9_bpr(small_split):
    train = small_split.train
    model = build_model("GBMF", train, ModelSettings(embedding_dim=8))
    batch = next(iter(build_batch_iterator(model, train, batch_size=64, seed=3)))
    users = model.user_embedding.weight.data
    items = model.item_embedding.weight.data
    friend_average = model._social_normalized @ users

    def eq9(user_ids, item_ids):
        own = (users[user_ids] * items[item_ids]).sum(axis=-1)
        friends = (friend_average[user_ids] * items[item_ids]).sum(axis=-1)
        return own * (1.0 - model.alpha) + friends * model.alpha

    bpr = bpr_loss(Tensor(eq9(batch.initiators, batch.items)), Tensor(eq9(batch.initiators, batch.negative_items)))
    regularizer = model.regularization(
        [
            model.user_embedding(batch.initiators),
            model.item_embedding(batch.items),
            model.item_embedding(batch.negative_items),
        ]
    ) * (1.0 / len(batch))
    expected = float((bpr + regularizer).data)
    assert float(model.batch_loss(batch).data) == pytest.approx(expected, rel=1e-12)
