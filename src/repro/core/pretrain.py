"""The pre-training model of GBGCN (Section III-C3).

Because training embeddings and FC layers jointly from scratch is unstable
on sparse data, the paper first trains "an extremely simplified version of
GBGCN that removes all propagation layers" with Adam, L2-normalizes the
learned raw embeddings, and then fine-tunes the full model with SGD.

:class:`GBGCNPretrainModel` is exactly that simplified model: raw
embeddings scored with the role-weighted prediction function and trained
with the same double-pairwise loss.  Its embedding parameters share the
qualified names of GBGCN's raw embeddings so the state transfer is a
``load_state_dict(strict=False)``.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, sparse_matmul
from ..graph.hetero import HeteroGroupBuyingGraph
from ..models.base import DataMode, RecommenderModel
from ..nn import Embedding
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import GroupBuyingBatch
from .gbgcn import GBGCN, GBGCNConfig
from .loss import DoublePairwiseLoss
from .prediction import role_weighted_difference, role_weighted_factors

__all__ = ["GBGCNPretrainModel", "transfer_pretrained_embeddings"]


class GBGCNPretrainModel(RecommenderModel):
    """GBGCN with every propagation layer removed (raw embeddings only)."""

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
        self.config = config
        self.user_embedding = Embedding(num_users, config.embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, config.embedding_dim, rng=rng)
        self._social_normalized: sp.csr_matrix = graph.friendship.normalized()
        self.loss_function = DoublePairwiseLoss(beta=config.beta)

    def batch_loss(self, batch: GroupBuyingBatch) -> Tensor:
        # Both item views share one table, and the friend average spans
        # every user: the pretrain stage scores the raw embeddings.
        users = self.user_embedding.weight
        items = self.item_embedding.weight
        friend_average = sparse_matmul(self._social_normalized, users)
        loss = self.loss_function(
            batch, partial(role_weighted_difference, self.config.alpha, users, friend_average, items, items)
        )
        touched_items = np.unique(np.concatenate([batch.items, batch.negative_items]))
        regularizer = self.regularization(
            [self.user_embedding(batch.initiators), self.item_embedding(touched_items)]
        ) * (1.0 / max(len(batch), 1))
        return loss + regularizer

    def compute_scoring_factors(self):
        # GBGCN's Eq. 9 fold over the raw (un-propagated) embeddings the
        # pretrain stage scores with; both item views share one table here.
        friend_average = sparse_matmul(self._social_normalized, self.user_embedding.weight)
        item_vectors = self.item_embedding.weight.data
        return role_weighted_factors(
            self.config.alpha,
            self.user_embedding.weight.data,
            friend_average.data,
            item_vectors,
            item_vectors,
        )

    def normalize_embeddings(self) -> None:
        """L2-normalize the raw embeddings, as the paper does before fine-tuning."""
        self.user_embedding.normalize_()
        self.item_embedding.normalize_()
        self.invalidate_cache()

    @property
    def name(self) -> str:
        return "GBGCN-pretrain"


def transfer_pretrained_embeddings(pretrained: GBGCNPretrainModel, model: GBGCN) -> None:
    """Copy the (normalized) pre-trained raw embeddings into a full GBGCN."""
    state = {
        "user_embedding.weight": pretrained.user_embedding.weight.data,
        "item_embedding.weight": pretrained.item_embedding.weight.data,
    }
    model.load_state_dict(state, strict=False)
