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

from ..autograd import Tensor, sparse_matmul
from ..core.prediction import role_weighted_difference, role_weighted_factors
from ..graph.social import FriendshipGraph
from ..nn import Embedding, bpr_difference_loss
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import GroupBuyingBatch
from .base import DataMode, RecommenderModel

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

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def friend_average_users(self) -> Tensor:
        """Per-user mean of their friends' embeddings (zero for friendless users)."""
        return sparse_matmul(self._social_normalized, self.user_embedding.weight)

    def batch_loss(self, batch: GroupBuyingBatch) -> Tensor:
        item_table = self.item_embedding.weight
        differences = role_weighted_difference(
            self.alpha,
            self.user_embedding.weight,
            self.friend_average_users(),
            item_table,
            item_table,
            batch.initiators,
            batch.items,
            batch.negative_items,
        )
        loss = bpr_difference_loss(differences)
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
    def compute_scoring_factors(self):
        # The same Eq. 9 fold as GBGCN, with one item table for both views.
        item_vectors = self.item_embedding.weight.data
        return role_weighted_factors(
            self.alpha,
            self.user_embedding.weight.data,
            self.friend_average_users().data,
            item_vectors,
            item_vectors,
        )

    @property
    def name(self) -> str:
        return "GBMF"
