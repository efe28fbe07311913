"""SocialMF [Jamali & Ester, RecSys 2010].

A matrix-factorization model with trust propagation: the preference vector
of each user is regularized towards the average preference of their
friends.  Following the paper's setup it is trained with BPR over
flattened user-item interactions plus the social regularization term.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor
from ..graph.social import FriendshipGraph
from ..nn import Embedding, bpr_loss, social_regularization
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch
from .base import DataMode, RecommenderModel

__all__ = ["SocialMF"]


class SocialMF(RecommenderModel):
    """BPR-MF plus the friend-average social regularizer."""

    data_mode = DataMode.INTERACTIONS_BOTH

    def __init__(
        self,
        num_users: int,
        num_items: int,
        friendship: FriendshipGraph,
        embedding_dim: int = 32,
        l2_weight: float = 1e-4,
        social_weight: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=l2_weight)
        if friendship.num_users != num_users:
            raise ValueError("friendship graph does not match the user universe")
        self.embedding_dim = embedding_dim
        self.social_weight = social_weight
        self.friendship = friendship
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=rng)
        self._social_normalized: sp.csr_matrix = friendship.normalized()

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return (self.user_embedding(users) * self.item_embedding(items)).sum(axis=-1)

    def batch_loss(self, batch: InteractionBatch) -> Tensor:
        positive = self.score_pairs(batch.users, batch.positive_items)
        negative = self.score_pairs(batch.users, batch.negative_items)
        loss = bpr_loss(positive, negative)
        social_term = social_regularization(
            self.user_embedding.weight,
            self._social_normalized,
            weight=self.social_weight,
            user_indices=batch.users,
        ) * (1.0 / max(len(batch), 1))
        regularizer = self.regularization(
            [
                self.user_embedding(batch.users),
                self.item_embedding(batch.positive_items),
                self.item_embedding(batch.negative_items),
            ]
        ) * (1.0 / max(len(batch), 1))
        return loss + social_term + regularizer

    def compute_scoring_factors(self):
        return self.user_embedding.weight.data, self.item_embedding.weight.data

    @property
    def name(self) -> str:
        return "SocialMF"
