"""The double-pairwise fine-grained loss (Eq. 10-12)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import DoublePairwiseLoss
from repro.training.batches import GroupBuyingBatch


def make_batch():
    """One successful behavior (row 0) and one failed behavior (row 1)."""
    return GroupBuyingBatch(
        initiators=np.array([0, 1]),
        items=np.array([0, 1]),
        negative_items=np.array([2, 3]),
        success=np.array([True, False]),
        participants=np.array([2, 3]),          # both belong to the successful row 0
        participant_segment=np.array([0, 0]),
        failed_friends=np.array([4, 5]),         # friends of the failed row 1
        failed_friend_segment=np.array([1, 1]),
    )


def scorer_from_table(table):
    """Build a score function from a {(user, item): score} dict."""
    def score(users, items):
        return Tensor(np.array([table[(int(u), int(i))] for u, i in zip(users, items)]))
    return score


def as_difference(score):
    """Adapt a per-pair score function to the loss's ``score(u, pos) - score(u, neg)`` protocol."""
    def score_pair_difference(users, positive_items, negative_items):
        return score(users, positive_items) - score(users, negative_items)
    return score_pair_difference


def log_sigmoid(x):
    return float(np.log(1.0 / (1.0 + np.exp(-x))))


class TestDoublePairwiseLoss:
    def setup_method(self):
        self.table = {
            (0, 0): 2.0, (0, 2): -1.0,   # initiator of successful behavior
            (1, 1): 1.0, (1, 3): 0.5,    # initiator of failed behavior
            (2, 0): 1.5, (2, 2): 0.0,    # participants of successful behavior
            (3, 0): 0.5, (3, 2): 1.0,
            (4, 1): 0.2, (4, 3): 0.1,    # friends of failed initiator
            (5, 1): -0.3, (5, 3): 0.4,
        }

    def manual_loss(self, beta):
        value = 0.0
        # Initiator BPR terms of both behaviors.
        value += -log_sigmoid(2.0 - (-1.0))
        value += -log_sigmoid(1.0 - 0.5)
        # Participant terms of the successful behavior.
        value += -log_sigmoid(1.5 - 0.0)
        value += -log_sigmoid(0.5 - 1.0)
        # Reversed friend terms of the failed behavior.
        value += beta * (-log_sigmoid(0.1 - 0.2))
        value += beta * (-log_sigmoid(0.4 - (-0.3)))
        return value / 2  # mean over the two behaviors

    def test_matches_manual_computation(self):
        loss = DoublePairwiseLoss(beta=0.05)(make_batch(), as_difference(scorer_from_table(self.table)))
        assert np.isclose(float(loss.data), self.manual_loss(0.05), rtol=1e-8)

    def test_beta_zero_drops_friend_term(self):
        loss = DoublePairwiseLoss(beta=0.0)(make_batch(), as_difference(scorer_from_table(self.table)))
        assert np.isclose(float(loss.data), self.manual_loss(0.0), rtol=1e-8)

    def test_larger_beta_increases_loss_when_friends_prefer_item(self):
        table = dict(self.table)
        table[(4, 1)] = 5.0  # friend strongly likes the failed item -> penalized more
        small = DoublePairwiseLoss(beta=0.01)(make_batch(), as_difference(scorer_from_table(table)))
        large = DoublePairwiseLoss(beta=0.5)(make_batch(), as_difference(scorer_from_table(table)))
        assert float(large.data) > float(small.data)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            DoublePairwiseLoss(beta=-0.1)

    def test_empty_participants_and_friends(self):
        batch = GroupBuyingBatch(
            initiators=np.array([0]),
            items=np.array([0]),
            negative_items=np.array([2]),
            success=np.array([True]),
            participants=np.array([], dtype=np.int64),
            participant_segment=np.array([], dtype=np.int64),
            failed_friends=np.array([], dtype=np.int64),
            failed_friend_segment=np.array([], dtype=np.int64),
        )
        loss = DoublePairwiseLoss(beta=0.05)(batch, as_difference(scorer_from_table(self.table)))
        assert np.isclose(float(loss.data), -log_sigmoid(2.0 - (-1.0)), rtol=1e-8)

    def test_gradients_flow_through_score_function(self):
        scores = Tensor(np.linspace(-1.0, 1.0, 12), requires_grad=True)
        counter = {"next": 0}

        def score(users, items):
            start = counter["next"]
            counter["next"] += len(users)
            return scores[np.arange(start, start + len(users))]

        loss = DoublePairwiseLoss(beta=0.1)(make_batch(), as_difference(score))
        loss.backward()
        assert scores.grad is not None
        assert np.any(scores.grad != 0)
