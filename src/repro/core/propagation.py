"""In-view and cross-view embedding propagation (Section III-B of the paper).

* :class:`InViewPropagation` implements Eq. 1-3: parameter-free mean
  aggregation over the initiator-view and participant-view user-item
  bipartite graphs, with all layer outputs concatenated.
* :class:`CrossViewPropagation` implements Eq. 4-8: FC-transformed message
  passing that moves information between the two views along the directed
  sharing graph ``G_s`` (plus another pass over the in-view graphs), again
  concatenated with its input.

Both layers support the multi-view ablations of Table V through the
``share_user_roles`` / ``share_item_roles`` flags: when a flag is set the
corresponding initiator-view and participant-view embeddings are replaced
by their average after every propagation step, which removes the role
distinction without changing model capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, cache_transpose, concat, sparse_matmul
from ..graph.hetero import HeteroGroupBuyingGraph
from ..nn import Linear, Module, resolve_activation

__all__ = ["ViewEmbeddings", "InViewPropagation", "CrossViewPropagation"]


@dataclass
class ViewEmbeddings:
    """Embeddings of users and items in both views (one propagation stage)."""

    user_initiator: Tensor
    item_initiator: Tensor
    user_participant: Tensor
    item_participant: Tensor

    def pooled(self, share_user_roles: bool, share_item_roles: bool) -> "ViewEmbeddings":
        """Average the two views per the Table V ablations (no-op if both flags are False)."""
        user_i, user_p = self.user_initiator, self.user_participant
        item_i, item_p = self.item_initiator, self.item_participant
        if share_user_roles:
            user_mean = (user_i + user_p) * 0.5
            user_i, user_p = user_mean, user_mean
        if share_item_roles:
            item_mean = (item_i + item_p) * 0.5
            item_i, item_p = item_mean, item_mean
        return ViewEmbeddings(user_i, item_i, user_p, item_p)


class InViewPropagation(Module):
    """Parameter-free LightGCN-style propagation inside each view (Eq. 1-3)."""

    def __init__(
        self,
        graph: HeteroGroupBuyingGraph,
        num_layers: int = 2,
        share_user_roles: bool = False,
        share_item_roles: bool = False,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one propagation layer")
        self.num_layers = num_layers
        self.share_user_roles = share_user_roles
        self.share_item_roles = share_item_roles
        # Row-normalized propagation matrices of both views.  Their CSR
        # transposes (the backward operand) are precomputed once here, not
        # re-derived on every backward call.
        self._init_user_from_item = graph.initiator_view.user_to_item_propagation()
        self._init_item_from_user = graph.initiator_view.item_to_user_propagation()
        self._part_user_from_item = graph.participant_view.user_to_item_propagation()
        self._part_item_from_user = graph.participant_view.item_to_user_propagation()
        for matrix in (
            self._init_user_from_item,
            self._init_item_from_user,
            self._part_user_from_item,
            self._part_item_from_user,
        ):
            cache_transpose(matrix)

    def forward(self, user_embedding: Tensor, item_embedding: Tensor) -> ViewEmbeddings:
        """Propagate raw embeddings and return per-view concatenated embeddings."""
        user_i, item_i = user_embedding, item_embedding
        user_p, item_p = user_embedding, item_embedding

        user_i_layers: List[Tensor] = [user_embedding]
        item_i_layers: List[Tensor] = [item_embedding]
        user_p_layers: List[Tensor] = [user_embedding]
        item_p_layers: List[Tensor] = [item_embedding]

        for _ in range(self.num_layers):
            next_user_i = sparse_matmul(self._init_user_from_item, item_i)
            next_item_i = sparse_matmul(self._init_item_from_user, user_i)
            next_user_p = sparse_matmul(self._part_user_from_item, item_p)
            next_item_p = sparse_matmul(self._part_item_from_user, user_p)

            stage = ViewEmbeddings(next_user_i, next_item_i, next_user_p, next_item_p).pooled(
                self.share_user_roles, self.share_item_roles
            )
            user_i, item_i = stage.user_initiator, stage.item_initiator
            user_p, item_p = stage.user_participant, stage.item_participant

            user_i_layers.append(user_i)
            item_i_layers.append(item_i)
            user_p_layers.append(user_p)
            item_p_layers.append(item_p)

        return ViewEmbeddings(
            user_initiator=concat(user_i_layers, axis=-1),
            item_initiator=concat(item_i_layers, axis=-1),
            user_participant=concat(user_p_layers, axis=-1),
            item_participant=concat(item_p_layers, axis=-1),
        )


class CrossViewPropagation(Module):
    """FC-transformed propagation across views along ``G_s`` (Eq. 4-8)."""

    def __init__(
        self,
        graph: HeteroGroupBuyingGraph,
        feature_dim: int,
        activation: str = "sigmoid",
        share_user_roles: bool = False,
        share_item_roles: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.feature_dim = feature_dim
        self.share_user_roles = share_user_roles
        self.share_item_roles = share_item_roles
        self._activation = resolve_activation(activation)

        # In-view propagation matrices reused for the preference supplement.
        self._init_user_from_item = graph.initiator_view.user_to_item_propagation()
        self._init_item_from_user = graph.initiator_view.item_to_user_propagation()
        self._part_user_from_item = graph.participant_view.user_to_item_propagation()
        self._part_item_from_user = graph.participant_view.item_to_user_propagation()
        # Directed sharing graph: outgoing (initiator -> their participants)
        # and incoming (participant <- initiators who shared to them).
        self._share_outgoing = graph.sharing.outgoing_propagation()
        self._share_incoming = graph.sharing.incoming_propagation()
        for matrix in (
            self._init_user_from_item,
            self._init_item_from_user,
            self._part_user_from_item,
            self._part_item_from_user,
            self._share_outgoing,
            self._share_incoming,
        ):
            cache_transpose(matrix)

        # Transformation matrices W_{source,target} with their biases.
        self.transform_vi_ui = Linear(feature_dim, feature_dim, rng=rng)
        self.transform_up_ui = Linear(feature_dim, feature_dim, rng=rng)
        self.transform_ui_vi = Linear(feature_dim, feature_dim, rng=rng)
        self.transform_vp_up = Linear(feature_dim, feature_dim, rng=rng)
        self.transform_ui_up = Linear(feature_dim, feature_dim, rng=rng)
        self.transform_up_vp = Linear(feature_dim, feature_dim, rng=rng)

    def forward(
        self,
        in_view: ViewEmbeddings,
        user_initiator_rows: Optional[np.ndarray] = None,
        item_rows: Optional[np.ndarray] = None,
    ) -> ViewEmbeddings:
        """Apply Eq. 4-7 and return the concatenation of input and output (Eq. 8).

        ``user_initiator_rows`` / ``item_rows`` optionally restrict the
        *output* stage to the given (sorted, unique) rows.  The cross-view
        stage is the last propagation step, so its initiator-view user rows
        and both item-view rows are consumed exclusively by per-row score
        gathers during training — computing the FC transform, activation and
        Eq. 8 concatenation only for the rows a mini-batch actually scores
        makes the stage cost ``O(batch)`` instead of ``O(table)``, with
        row-identical results (each output row depends only on its own
        slice of the propagation matrix).  The participant-view *user*
        embeddings are always computed in full: the role-weighted predictor
        averages them over every friend of a scored user.  Restricted rows
        come back as compact tensors (row ``k`` is table row
        ``user_initiator_rows[k]`` / ``item_rows[k]``); the default
        (``None``) keeps the full-table behavior, which evaluation and the
        Table V ablations use.  Row restriction is ignored for a view whose
        roles are shared (the pooling average needs aligned shapes).
        """
        activation = self._activation
        restrict_users = user_initiator_rows is not None and not self.share_user_roles
        restrict_items = item_rows is not None and not self.share_item_roles

        def maybe_rows(matrix, restrict: bool, rows):
            return matrix[rows] if restrict else matrix

        # Eq. 4: initiator-view users hear from their items and from the
        # participant-view embeddings of users they shared to.
        item_message_i = sparse_matmul(
            maybe_rows(self._init_user_from_item, restrict_users, user_initiator_rows),
            in_view.item_initiator,
        )
        shared_to_message = sparse_matmul(
            maybe_rows(self._share_outgoing, restrict_users, user_initiator_rows),
            in_view.user_participant,
        )
        user_initiator = activation(self.transform_vi_ui(item_message_i)) + activation(
            self.transform_up_ui(shared_to_message)
        )

        # Eq. 5: initiator-view items hear from initiator-view users.  The
        # item-sized messages of Eq. 5 and 7 are passed straight to their
        # transform, so no-grad scoring frees each before the next is made.
        item_initiator = activation(
            self.transform_ui_vi(
                sparse_matmul(
                    maybe_rows(self._init_item_from_user, restrict_items, item_rows),
                    in_view.user_initiator,
                )
            )
        )

        # Eq. 6: participant-view users hear from their items and from the
        # initiator-view embeddings of users who shared to them.
        item_message_p = sparse_matmul(self._part_user_from_item, in_view.item_participant)
        shared_from_message = sparse_matmul(self._share_incoming, in_view.user_initiator)
        user_participant = activation(self.transform_vp_up(item_message_p)) + activation(
            self.transform_ui_up(shared_from_message)
        )

        # Eq. 7: participant-view items hear from participant-view users.
        item_participant = activation(
            self.transform_up_vp(
                sparse_matmul(
                    maybe_rows(self._part_item_from_user, restrict_items, item_rows),
                    in_view.user_participant,
                )
            )
        )

        stage = ViewEmbeddings(user_initiator, item_initiator, user_participant, item_participant).pooled(
            self.share_user_roles, self.share_item_roles
        )

        # Eq. 8: concatenate the cross-view output with its input (gathered
        # down to the same rows when the stage is restricted).
        in_user_initiator = (
            in_view.user_initiator[user_initiator_rows] if restrict_users else in_view.user_initiator
        )
        in_item_initiator = in_view.item_initiator[item_rows] if restrict_items else in_view.item_initiator
        in_item_participant = (
            in_view.item_participant[item_rows] if restrict_items else in_view.item_participant
        )
        return ViewEmbeddings(
            user_initiator=concat([in_user_initiator, stage.user_initiator], axis=-1),
            item_initiator=concat([in_item_initiator, stage.item_initiator], axis=-1),
            user_participant=concat([in_view.user_participant, stage.user_participant], axis=-1),
            item_participant=concat([in_item_participant, stage.item_participant], axis=-1),
        )
