"""DiffNet [Wu et al., SIGIR 2019].

DiffNet simulates recursive social influence diffusion: user embeddings are
repeatedly propagated over the social network (each layer blends a user's
own state with the mean of their friends' states), and the diffused user
representation is fused with the mean embedding of the user's consumed
items before the inner-product ranking.  It is the strongest social
baseline in the paper's Table III.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, sparse_matmul
from ..graph.bipartite import BipartiteGraph
from ..graph.social import FriendshipGraph
from ..nn import Embedding, bpr_loss
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch
from .base import DataMode, RecommenderModel

__all__ = ["DiffNet"]


class DiffNet(RecommenderModel):
    """Social-influence diffusion over the friendship network + item fusion."""

    data_mode = DataMode.INTERACTIONS_BOTH

    def __init__(
        self,
        num_users: int,
        num_items: int,
        friendship: FriendshipGraph,
        interaction_graph: BipartiteGraph,
        embedding_dim: int = 32,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=l2_weight)
        if friendship.num_users != num_users:
            raise ValueError("friendship graph does not match the user universe")
        if interaction_graph.num_users != num_users or interaction_graph.num_items != num_items:
            raise ValueError("interaction graph does not match the user/item universe")
        self.embedding_dim = embedding_dim
        self.num_layers = num_layers
        self.friendship = friendship
        self.interaction_graph = interaction_graph
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=rng)
        self._social_normalized: sp.csr_matrix = friendship.normalized()
        self._user_to_item: sp.csr_matrix = interaction_graph.user_to_item_propagation()

    # ------------------------------------------------------------------
    # Diffusion
    # ------------------------------------------------------------------
    def diffuse_users(self) -> Tensor:
        """Return the diffusion-refined user embedding matrix."""
        current = self.user_embedding.weight
        for _ in range(self.num_layers):
            neighbor_mean = sparse_matmul(self._social_normalized, current)
            current = current + neighbor_mean
        # Fuse with the mean embedding of the items each user interacted with.
        consumed_mean = sparse_matmul(self._user_to_item, self.item_embedding.weight)
        return current + consumed_mean

    def batch_loss(self, batch: InteractionBatch) -> Tensor:
        user_matrix = self.diffuse_users()
        users = user_matrix[batch.users]
        positives = self.item_embedding(batch.positive_items)
        negatives = self.item_embedding(batch.negative_items)
        positive_scores = (users * positives).sum(axis=-1)
        negative_scores = (users * negatives).sum(axis=-1)
        loss = bpr_loss(positive_scores, negative_scores)
        regularizer = self.regularization(
            [
                self.user_embedding(batch.users),
                self.item_embedding(batch.positive_items),
                self.item_embedding(batch.negative_items),
            ]
        ) * (1.0 / max(len(batch), 1))
        return loss + regularizer

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compute_scoring_factors(self):
        return self.diffuse_users().data, self.item_embedding.weight.data

    @property
    def name(self) -> str:
        return "DiffNet"
