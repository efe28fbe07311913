"""Matrix Factorization with BPR (the ``MF`` and ``MF(oi)`` rows of Table III).

MF exploits implicit feedback by embedding users and items in a shared
latent space and ranking with the inner product; training minimizes the
Bayesian Personalized Ranking loss over sampled (user, positive, negative)
triples.  The two conversion modes of the paper are selected with
``interaction_mode``: ``'oi'`` keeps only initiator-item interactions,
``'both'`` also uses participant-item interactions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..nn import Embedding, bpr_loss
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch
from .base import DataMode, RecommenderModel

__all__ = ["MatrixFactorization"]


class MatrixFactorization(RecommenderModel):
    """BPR-MF over flattened user-item interactions."""

    def __init__(
        self,
        num_users: int,
        num_items: int,
        embedding_dim: int = 32,
        l2_weight: float = 1e-4,
        interaction_mode: str = "both",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=l2_weight)
        if interaction_mode not in ("oi", "both"):
            raise ValueError("interaction_mode must be 'oi' or 'both'")
        self.embedding_dim = embedding_dim
        self.interaction_mode = interaction_mode
        self.data_mode = (
            DataMode.INTERACTIONS_OI if interaction_mode == "oi" else DataMode.INTERACTIONS_BOTH
        )
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=rng)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Inner-product scores for aligned (user, item) index arrays."""
        user_vectors = self.user_embedding(users)
        item_vectors = self.item_embedding(items)
        return (user_vectors * item_vectors).sum(axis=-1)

    def batch_loss(self, batch: InteractionBatch) -> Tensor:
        # MF is a Table III row: its loss keeps the seed composition (two
        # score_pairs calls) so reproduction trajectories stay bitwise
        # stable; the lookups still emit row-sparse gradients.
        positive = self.score_pairs(batch.users, batch.positive_items)
        negative = self.score_pairs(batch.users, batch.negative_items)
        loss = bpr_loss(positive, negative)
        regularizer = self.regularization(
            [
                self.user_embedding(batch.users),
                self.item_embedding(batch.positive_items),
                self.item_embedding(batch.negative_items),
            ]
        ) * (1.0 / max(len(batch), 1))
        return loss + regularizer

    def compute_scoring_factors(self):
        return self.user_embedding.weight.data, self.item_embedding.weight.data

    @property
    def name(self) -> str:
        return "MF(oi)" if self.interaction_mode == "oi" else "MF"
