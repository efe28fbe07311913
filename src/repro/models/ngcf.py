"""Neural Graph Collaborative Filtering (NGCF) [Wang et al., SIGIR 2019].

NGCF propagates embeddings over the user-item bipartite graph with
per-layer transformation matrices and an affinity (elementwise product)
term, concatenating all layer outputs as the final representation.  It is
the strongest pure-CF GNN baseline in the paper's Table III.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, concat, leaky_relu, sparse_matmul
from ..graph.bipartite import BipartiteGraph
from ..nn import Embedding, Linear, bpr_loss
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch
from .base import DataMode, RecommenderModel

__all__ = ["NGCF"]


class NGCF(RecommenderModel):
    """NGCF with symmetric-normalized propagation and layer concatenation."""

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
        self.embedding_dim = embedding_dim
        self.num_layers = num_layers
        self.graph = graph
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=rng)
        #: W1 of Eq. (7) in the NGCF paper — transforms aggregated neighbors.
        self.aggregate_transforms = [Linear(embedding_dim, embedding_dim, rng=rng) for _ in range(num_layers)]
        #: W2 — transforms the elementwise affinity term.
        self.affinity_transforms = [Linear(embedding_dim, embedding_dim, rng=rng) for _ in range(num_layers)]
        self._propagation: sp.csr_matrix = graph.symmetric_normalized()

    # ------------------------------------------------------------------
    # Embedding propagation
    # ------------------------------------------------------------------
    def propagate(self) -> Tensor:
        """Return the concatenated multi-layer embeddings for users then items."""
        ego = concat([self.user_embedding.weight, self.item_embedding.weight], axis=0)
        layer_outputs: List[Tensor] = [ego]
        current = ego
        for layer in range(self.num_layers):
            aggregated = sparse_matmul(self._propagation, current)
            affinity = aggregated * current
            transformed = self.aggregate_transforms[layer](aggregated) + self.affinity_transforms[layer](affinity)
            current = leaky_relu(transformed, negative_slope=0.2)
            layer_outputs.append(current)
        return concat(layer_outputs, axis=-1)

    def _split(self, embeddings: Tensor) -> tuple:
        users = embeddings[np.arange(self.num_users)]
        items = embeddings[np.arange(self.num_users, self.num_users + self.num_items)]
        return users, items

    def batch_loss(self, batch: InteractionBatch) -> Tensor:
        embeddings = self.propagate()
        user_embeddings, item_embeddings = self._split(embeddings)
        users = user_embeddings[batch.users]
        positives = item_embeddings[batch.positive_items]
        negatives = item_embeddings[batch.negative_items]
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
        embeddings = self.propagate().data
        return embeddings[: self.num_users], embeddings[self.num_users :]

    @property
    def name(self) -> str:
        return "NGCF"
