"""Neural Collaborative Filtering (NCF / NeuMF) [He et al., WWW 2017].

NCF ensembles Generalized Matrix Factorization (an elementwise product
branch) with a Multi-Layer Perceptron over concatenated user/item
embeddings, modelling non-linear user-item interactions.  Following the
paper's experimental setup all ranking baselines are trained with pairwise
ranking over sampled negatives, so NCF's prediction head is used inside a
BPR objective here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor, concat, no_grad
from ..nn import MLP, Embedding, Linear, bpr_loss
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch
from .base import DataMode, RecommenderModel

__all__ = ["NCF"]


class NCF(RecommenderModel):
    """NeuMF-style model: GMF branch + MLP branch + fusion layer."""

    data_mode = DataMode.INTERACTIONS_BOTH

    def __init__(
        self,
        num_users: int,
        num_items: int,
        embedding_dim: int = 32,
        mlp_layers: Sequence[int] = (64, 32, 16),
        l2_weight: float = 1e-4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=l2_weight)
        self.embedding_dim = embedding_dim
        # Separate embedding tables per branch, as in the original paper.
        self.gmf_user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.gmf_item_embedding = Embedding(num_items, embedding_dim, rng=rng)
        self.mlp_user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.mlp_item_embedding = Embedding(num_items, embedding_dim, rng=rng)
        self.mlp = MLP([2 * embedding_dim, *mlp_layers], activation="relu", rng=rng)
        self.fusion = Linear(embedding_dim + mlp_layers[-1], 1, rng=rng)

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        gmf = self.gmf_user_embedding(users) * self.gmf_item_embedding(items)
        mlp_input = concat([self.mlp_user_embedding(users), self.mlp_item_embedding(items)], axis=-1)
        mlp_output = self.mlp(mlp_input)
        fused = concat([gmf, mlp_output], axis=-1)
        return self.fusion(fused).reshape(-1)

    def batch_loss(self, batch: InteractionBatch) -> Tensor:
        positive = self.score_pairs(batch.users, batch.positive_items)
        negative = self.score_pairs(batch.users, batch.negative_items)
        loss = bpr_loss(positive, negative)
        embedding_terms = [
            self.gmf_user_embedding(batch.users),
            self.gmf_item_embedding(batch.positive_items),
            self.gmf_item_embedding(batch.negative_items),
            self.mlp_user_embedding(batch.users),
            self.mlp_item_embedding(batch.positive_items),
            self.mlp_item_embedding(batch.negative_items),
        ]
        regularizer = self.regularization(embedding_terms) * (1.0 / max(len(batch), 1))
        return loss + regularizer

    def rank_scores(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        item_ids = np.asarray(item_ids, dtype=np.int64)
        users = np.full(item_ids.shape[0], user, dtype=np.int64)
        with no_grad():
            return self.score_pairs(users, item_ids).data

    def score_batch(self, users: np.ndarray, item_ids: Optional[np.ndarray] = None) -> np.ndarray:
        # The MLP head is pairwise, so the block is flattened into aligned
        # (user, item) arrays and pushed through one vectorized forward pass.
        users = np.asarray(users, dtype=np.int64)
        if item_ids is None:
            item_ids = np.arange(self.num_items, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        flat_users = np.repeat(users, item_ids.size)
        flat_items = np.tile(item_ids, users.size)
        with no_grad():
            flat_scores = self.score_pairs(flat_users, flat_items).data
        return flat_scores.reshape(users.size, item_ids.size)

    @property
    def name(self) -> str:
        return "NCF"
