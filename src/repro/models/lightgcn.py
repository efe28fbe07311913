"""LightGCN [He et al., SIGIR 2020].

LightGCN is the simplified GCN collaborative-filtering model the paper's
in-view propagation is modelled after ("we devise graph convolution layers
without FC layers following [26]").  It propagates embeddings over the
symmetric-normalized user-item bipartite graph with no transformation, no
non-linearity and no self-connection, and averages the layer outputs.

It is not one of the Table III rows, but it is the natural extra baseline
for this reproduction: comparing GBGCN against LightGCN isolates the value
of the multi-view / cross-view design from the value of mere linear
propagation.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, concat, gathered_dot_difference, sparse_matmul
from ..graph.bipartite import BipartiteGraph
from ..nn import Embedding, bpr_difference_loss
from .base import DataMode, RecommenderModel

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch

__all__ = ["LightGCN"]


class LightGCN(RecommenderModel):
    """Linear embedding propagation with mean layer combination."""

    data_mode = DataMode.INTERACTIONS_BOTH

    def __init__(
        self,
        num_users: int,
        num_items: int,
        graph: BipartiteGraph,
        embedding_dim: int = 32,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=l2_weight)
        if graph.num_users != num_users or graph.num_items != num_items:
            raise ValueError("graph shape does not match the user/item universe")
        if num_layers < 1:
            raise ValueError("num_layers must be at least 1")
        self.embedding_dim = embedding_dim
        self.num_layers = num_layers
        self.graph = graph
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=rng)
        self._propagation: sp.csr_matrix = graph.symmetric_normalized()

    # ------------------------------------------------------------------
    # Embedding propagation
    # ------------------------------------------------------------------
    def propagate(self) -> Tensor:
        """Mean of the 0..L layer embeddings for users then items."""
        ego = concat([self.user_embedding.weight, self.item_embedding.weight], axis=0)
        accumulated = ego
        current = ego
        for _ in range(self.num_layers):
            current = sparse_matmul(self._propagation, current)
            accumulated = accumulated + current
        return accumulated * (1.0 / (self.num_layers + 1))

    def _split(self, embeddings: Tensor):
        users = embeddings[np.arange(self.num_users)]
        items = embeddings[np.arange(self.num_users, self.num_users + self.num_items)]
        return users, items

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def batch_loss(self, batch: "InteractionBatch") -> Tensor:
        embeddings = self.propagate()
        user_embeddings, item_embeddings = self._split(embeddings)
        differences = gathered_dot_difference(
            user_embeddings,
            item_embeddings,
            batch.users,
            batch.positive_items,
            batch.negative_items,
        )
        loss = bpr_difference_loss(differences)
        # LightGCN regularizes the *ego* embeddings of the sampled triples.
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
        embeddings = self.propagate().data
        return embeddings[: self.num_users], embeddings[self.num_users :]

    @property
    def name(self) -> str:
        return "LightGCN"
