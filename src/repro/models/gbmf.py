"""GBMF — Group-Buying Matrix Factorization (the paper's intuitive baseline).

GBMF keeps plain MF embeddings but scores a candidate launch with the same
role-weighted prediction GBGCN uses (Eq. 9): the initiator's own interest
plus the average interest of their friends, combined by the role
coefficient ``alpha``.  It is trained with the standard BPR loss over
group-buying behaviors and is the strongest baseline in Table III.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, no_grad, sparse_matmul
from ..graph.social import FriendshipGraph
from ..nn import Embedding, bpr_loss
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import GroupBuyingBatch
from .base import DataMode, RecommenderModel, item_rows

__all__ = ["GBMF"]


class GBMF(RecommenderModel):
    """MF embeddings + role-weighted friend-average prediction + BPR."""

    data_mode = DataMode.GROUP_BUYING

    def __init__(
        self,
        num_users: int,
        num_items: int,
        friendship: FriendshipGraph,
        embedding_dim: int = 32,
        alpha: float = 0.5,
        l2_weight: float = 1e-4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=l2_weight)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if friendship.num_users != num_users:
            raise ValueError("friendship graph does not match the user universe")
        self.embedding_dim = embedding_dim
        self.alpha = alpha
        self.friendship = friendship
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=rng)
        self._social_normalized: sp.csr_matrix = friendship.normalized()
        self._eval_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def friend_average_users(self) -> Tensor:
        """Per-user mean of their friends' embeddings (zero for friendless users)."""
        return sparse_matmul(self._social_normalized, self.user_embedding.weight)

    def score_pairs(self, users: np.ndarray, items: np.ndarray, friend_matrix: Optional[Tensor] = None) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        friend_matrix = friend_matrix if friend_matrix is not None else self.friend_average_users()
        own = (self.user_embedding(users) * self.item_embedding(items)).sum(axis=-1)
        friends = (friend_matrix[users] * self.item_embedding(items)).sum(axis=-1)
        return own * (1.0 - self.alpha) + friends * self.alpha

    def batch_loss(self, batch: GroupBuyingBatch) -> Tensor:
        friend_matrix = self.friend_average_users()
        positive = self.score_pairs(batch.initiators, batch.items, friend_matrix)
        negative = self.score_pairs(batch.initiators, batch.negative_items, friend_matrix)
        loss = bpr_loss(positive, negative)
        regularizer = self.regularization(
            [
                self.user_embedding(batch.initiators),
                self.item_embedding(batch.items),
                self.item_embedding(batch.negative_items),
            ]
        ) * (1.0 / max(len(batch), 1))
        return loss + regularizer

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def prepare_for_evaluation(self) -> None:
        with no_grad():
            self._eval_cache = self.friend_average_users().data

    def invalidate_cache(self) -> None:
        self._eval_cache = None

    def rank_scores(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        if self._eval_cache is None:
            self.prepare_for_evaluation()
        item_ids = np.asarray(item_ids, dtype=np.int64)
        item_vectors = self.item_embedding.weight.data[item_ids]
        own = item_vectors @ self.user_embedding.weight.data[user]
        friends = item_vectors @ self._eval_cache[user]
        return (1.0 - self.alpha) * own + self.alpha * friends

    def score_batch(self, users: np.ndarray, item_ids: Optional[np.ndarray] = None) -> np.ndarray:
        if self._eval_cache is None:
            self.prepare_for_evaluation()
        users = np.asarray(users, dtype=np.int64)
        item_vectors = item_rows(self.item_embedding.weight.data, item_ids)
        own = self.user_embedding.weight.data[users] @ item_vectors.T
        friends = self._eval_cache[users] @ item_vectors.T
        return (1.0 - self.alpha) * own + self.alpha * friends

    def scoring_factors(self):
        # The role blend is linear, so it folds into a concatenated factor
        # pair: [(1-a)*u, a*friend_avg(u)] · [v, v].
        if self._eval_cache is None:
            self.prepare_for_evaluation()
        item_vectors = self.item_embedding.weight.data
        user_factors = np.hstack(
            [(1.0 - self.alpha) * self.user_embedding.weight.data, self.alpha * self._eval_cache]
        )
        return user_factors, np.hstack([item_vectors, item_vectors])

    @property
    def name(self) -> str:
        return "GBMF"
