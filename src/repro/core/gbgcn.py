"""GBGCN — Group-Buying Graph Convolutional Network (the paper's contribution).

The model cascades four stages (Figure 2 of the paper):

1. **Raw embedding layer** — one embedding per user and item, shared by
   both views.
2. **In-view propagation** (Eq. 1-3) — parameter-free mean aggregation on
   the initiator-view and participant-view bipartite graphs.
3. **Cross-view propagation** (Eq. 4-8) — FC-transformed message passing
   along the directed sharing graph plus another in-view pass.
4. **Prediction** (Eq. 9) — role-weighted combination of the initiator's
   own interest and the average interest of their friends.

Training minimizes the double-pairwise fine-grained loss (Eq. 10-12) plus
L2 and social regularization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, no_grad, sparse_matmul
from ..graph.hetero import HeteroGroupBuyingGraph
from ..models.base import DataMode, RecommenderModel
from ..nn import Embedding, social_regularization
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import GroupBuyingBatch
from .loss import DoublePairwiseLoss
from .prediction import role_weighted_difference, role_weighted_factors
from .propagation import CrossViewPropagation, InViewPropagation, ViewEmbeddings

__all__ = ["GBGCNConfig", "GBGCN"]


def _compact(rows: Optional[np.ndarray], ids: np.ndarray) -> np.ndarray:
    """Positions of global ``ids`` in the sorted restricted ``rows`` (``None``: full table)."""
    return ids if rows is None else np.searchsorted(rows, ids)


@dataclass
class GBGCNConfig:
    """Hyper-parameters of GBGCN (defaults follow Section IV-A of the paper)."""

    embedding_dim: int = 32
    num_layers: int = 2
    #: Role coefficient of Eq. 9 (paper's best value on Beibei: 0.6).
    alpha: float = 0.6
    #: Loss coefficient of Eq. 10 (paper's best value: 0.05).
    beta: float = 0.05
    l2_weight: float = 1e-4
    social_weight: float = 1e-3
    activation: str = "sigmoid"
    #: Table V ablations: average the two views' user/item embeddings.
    share_user_roles: bool = False
    share_item_roles: bool = False

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_layers < 1:
            raise ValueError("num_layers must be at least 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


class GBGCN(RecommenderModel):
    """The full GBGCN model over a :class:`HeteroGroupBuyingGraph`."""

    data_mode = DataMode.GROUP_BUYING

    def __init__(
        self,
        num_users: int,
        num_items: int,
        graph: HeteroGroupBuyingGraph,
        config: Optional[GBGCNConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        config = config or GBGCNConfig()
        super().__init__(num_users, num_items, l2_weight=config.l2_weight)
        if graph.num_users != num_users or graph.num_items != num_items:
            raise ValueError("graph shape does not match the user/item universe")
        self.config = config
        self.graph = graph

        self.user_embedding = Embedding(num_users, config.embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, config.embedding_dim, rng=rng)

        self.in_view = InViewPropagation(
            graph,
            num_layers=config.num_layers,
            share_user_roles=config.share_user_roles,
            share_item_roles=config.share_item_roles,
        )
        in_view_dim = (config.num_layers + 1) * config.embedding_dim
        self.cross_view = CrossViewPropagation(
            graph,
            feature_dim=in_view_dim,
            activation=config.activation,
            share_user_roles=config.share_user_roles,
            share_item_roles=config.share_item_roles,
            rng=rng,
        )
        self._social_normalized: sp.csr_matrix = graph.friendship.normalized()
        self.loss_function = DoublePairwiseLoss(beta=config.beta)

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------
    def propagate(self) -> ViewEmbeddings:
        """Run in-view then cross-view propagation over the full graph."""
        in_view = self.in_view(self.user_embedding.weight, self.item_embedding.weight)
        return self.cross_view(in_view)

    def in_view_embeddings(self) -> ViewEmbeddings:
        """Only the in-view stage (used by the embedding analysis, Figure 5)."""
        return self.in_view(self.user_embedding.weight, self.item_embedding.weight)

    @property
    def final_dim(self) -> int:
        """Dimensionality of the final per-view embeddings."""
        return 2 * (self.config.num_layers + 1) * self.config.embedding_dim

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def batch_loss(self, batch: GroupBuyingBatch) -> Tensor:
        touched_users = np.unique(
            np.concatenate([batch.initiators, batch.participants, batch.failed_friends])
        )
        touched_items = np.unique(np.concatenate([batch.items, batch.negative_items]))

        # Cross-view outputs are consumed only by the per-row score gathers
        # below, so the training pass restricts that stage, and the friend
        # average with it, to the touched rows (row-identical results,
        # O(batch) instead of O(table) FC transforms).  All four score
        # tables then share one compact row space.  The ablation flags need
        # full-width pooling, so the restriction is dropped for a shared view.
        user_rows = None if self.config.share_user_roles else touched_users
        item_rows = None if self.config.share_item_roles else touched_items
        in_view = self.in_view(self.user_embedding.weight, self.item_embedding.weight)
        embeddings = self.cross_view(in_view, user_initiator_rows=user_rows, item_rows=item_rows)
        social = self._social_normalized if user_rows is None else self._social_normalized[user_rows]
        friend_average = sparse_matmul(social, embeddings.user_participant)

        def score_pair_difference(users, positive_items, negative_items) -> Tensor:
            return role_weighted_difference(
                self.config.alpha,
                embeddings.user_initiator,
                friend_average,
                embeddings.item_initiator,
                embeddings.item_participant,
                _compact(user_rows, users),
                _compact(item_rows, positive_items),
                _compact(item_rows, negative_items),
            )

        loss = self.loss_function(batch, score_pair_difference)

        regularizer = self.regularization(
            [self.user_embedding(touched_users), self.item_embedding(touched_items)]
        ) * (1.0 / max(len(batch), 1))

        social_term = Tensor(0.0)
        if self.config.social_weight > 0:
            social_term = social_regularization(
                self.user_embedding.weight,
                self._social_normalized,
                weight=self.config.social_weight,
                user_indices=batch.initiators,
            ) * (1.0 / max(len(batch), 1))

        return loss + regularizer + social_term

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compute_scoring_factors(self):
        embeddings = self.propagate()
        friend_average = sparse_matmul(self._social_normalized, embeddings.user_participant)
        return role_weighted_factors(
            self.config.alpha,
            embeddings.user_initiator.data,
            friend_average.data,
            embeddings.item_initiator.data,
            embeddings.item_participant.data,
        )

    def final_embeddings(self) -> Dict[str, np.ndarray]:
        """Final per-view user/item embeddings as NumPy arrays (Figures 5-6)."""
        with no_grad():
            embeddings = self.propagate()
        return {
            "user_initiator": embeddings.user_initiator.data,
            "item_initiator": embeddings.item_initiator.data,
            "user_participant": embeddings.user_participant.data,
            "item_participant": embeddings.item_participant.data,
        }

    @property
    def name(self) -> str:
        if self.config.share_user_roles and self.config.share_item_roles:
            return "GBGCN (w/o user & item roles)"
        if self.config.share_user_roles:
            return "GBGCN (w/o user roles)"
        if self.config.share_item_roles:
            return "GBGCN (w/o item roles)"
        return "GBGCN"
