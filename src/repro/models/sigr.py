"""SIGR — Social Influence-based Group Recommender [Yin et al., ICDE 2019].

SIGR learns user social influence with an attention mechanism over the
social network, embeds users and groups through a bipartite graph
(user-item and group-item interactions), and aggregates member embeddings
weighted by their learned influence to represent a group.  Training uses a
pointwise log-loss over positive and sampled negative group-item pairs,
matching the loss the GBGCN paper attributes to SIGR.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, concat, segment_sum, sparse_matmul
from ..data.converters import FixedGroupDataset
from ..graph.bipartite import BipartiteGraph
from ..graph.social import FriendshipGraph
from ..nn import MLP, Embedding, log_loss
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch
from .base import DataMode, RecommenderModel

__all__ = ["SIGR"]


class SIGR(RecommenderModel):
    """Influence-weighted group aggregation with bipartite-graph user embeddings."""

    data_mode = DataMode.FIXED_GROUPS

    def __init__(
        self,
        num_users: int,
        num_items: int,
        groups: FixedGroupDataset,
        friendship: FriendshipGraph,
        interaction_graph: BipartiteGraph,
        embedding_dim: int = 32,
        l2_weight: float = 1e-4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=l2_weight)
        self.embedding_dim = embedding_dim
        self.groups = groups
        self.friendship = friendship
        self.interaction_graph = interaction_graph
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=rng)
        self.group_embedding = Embedding(max(groups.num_groups, 1), embedding_dim, rng=rng)
        #: Attention network producing a per-user social-influence logit.
        self.influence_attention = MLP([2 * embedding_dim, embedding_dim, 1], activation="tanh", rng=rng)
        self._social_normalized: sp.csr_matrix = friendship.normalized()
        self._user_to_item: sp.csr_matrix = interaction_graph.user_to_item_propagation()

        members = []
        member_group = []
        for group_index, member_array in enumerate(groups.group_members):
            members.extend(int(u) for u in member_array)
            member_group.extend([group_index] * len(member_array))
        self._members = np.asarray(members, dtype=np.int64)
        self._member_group = np.asarray(member_group, dtype=np.int64)

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    def user_representations(self) -> Tensor:
        """Bipartite-graph enhanced user embeddings (own + consumed-item mean)."""
        consumed_mean = sparse_matmul(self._user_to_item, self.item_embedding.weight)
        return self.user_embedding.weight + consumed_mean

    def influence_logits(self, user_matrix: Tensor) -> Tensor:
        """Per-user social influence from own embedding and friends' mean."""
        friend_mean = sparse_matmul(self._social_normalized, user_matrix)
        features = concat([user_matrix, friend_mean], axis=-1)
        return self.influence_attention(features).reshape(-1)

    def group_representations(self) -> Tensor:
        """Influence-weighted aggregation of member embeddings per group."""
        user_matrix = self.user_representations()
        logits = self.influence_logits(user_matrix)
        member_logits = logits[self._members]
        exp_logits = (member_logits - member_logits.max()).exp()
        denominators = segment_sum(exp_logits.reshape(-1, 1), self._member_group, self.groups.num_groups)
        weights = exp_logits / denominators.reshape(-1)[self._member_group]
        weighted_members = user_matrix[self._members] * weights.reshape(-1, 1)
        aggregated = segment_sum(weighted_members, self._member_group, self.groups.num_groups)
        group_ids = np.arange(self.groups.num_groups, dtype=np.int64)
        return aggregated + self.group_embedding(group_ids)

    def score_pairs(self, group_ids: np.ndarray, item_ids: np.ndarray, group_matrix: Optional[Tensor] = None) -> Tensor:
        group_matrix = group_matrix if group_matrix is not None else self.group_representations()
        group_vectors = group_matrix[np.asarray(group_ids, dtype=np.int64)]
        item_vectors = self.item_embedding(np.asarray(item_ids, dtype=np.int64))
        return (group_vectors * item_vectors).sum(axis=-1)

    def batch_loss(self, batch: InteractionBatch) -> Tensor:
        group_matrix = self.group_representations()
        positive = self.score_pairs(batch.users, batch.positive_items, group_matrix)
        negative = self.score_pairs(batch.users, batch.negative_items, group_matrix)
        scores = concat([positive, negative], axis=0)
        labels = np.concatenate([np.ones(len(batch)), np.zeros(len(batch))])
        loss = log_loss(scores, labels)
        regularizer = self.regularization(
            [self.user_embedding(self._members), self.item_embedding(batch.positive_items)]
        ) * (1.0 / max(len(batch), 1))
        return loss + regularizer

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compute_scoring_factors(self):
        # A user scores through their group's representation; a cold user
        # (no group history) through their own raw embedding.
        user_factors = self.user_embedding.weight.data.copy()
        users = np.fromiter(self.groups.group_of_user.keys(), dtype=np.int64)
        groups = np.fromiter(self.groups.group_of_user.values(), dtype=np.int64)
        user_factors[users] = self.group_representations().data[groups]
        return user_factors, self.item_embedding.weight.data

    @property
    def name(self) -> str:
        return "SIGR"
