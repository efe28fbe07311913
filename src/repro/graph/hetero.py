"""The directed heterogeneous graph set ``G = {G_i, G_p, G_s}`` (Section III-A).

Given a training :class:`~repro.data.GroupBuyingDataset`, this module builds
the three graphs GBGCN propagates over:

* ``G_i`` — initiator view: a bidirectional edge between the initiator and
  the target item of each behavior;
* ``G_p`` — participant view: bidirectional edges between each participant
  and the target item;
* ``G_s`` — sharing relations: a directed edge from the initiator to every
  participant of each behavior.

The friendship network ``S`` (needed by the prediction function and the
social regularizer) is carried alongside.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..data.dataset import GroupBuyingDataset
from .bipartite import BipartiteGraph
from .social import FriendshipGraph, SharingGraph

__all__ = ["HeteroGroupBuyingGraph", "build_hetero_graph"]


class HeteroGroupBuyingGraph:
    """Container for ``{G_i, G_p, G_s}`` plus the friendship network ``S``."""

    def __init__(
        self,
        initiator_view: BipartiteGraph,
        participant_view: BipartiteGraph,
        sharing: SharingGraph,
        friendship: FriendshipGraph,
    ) -> None:
        if initiator_view.num_users != participant_view.num_users:
            raise ValueError("initiator and participant views must share the user universe")
        if initiator_view.num_items != participant_view.num_items:
            raise ValueError("initiator and participant views must share the item universe")
        if sharing.num_users != initiator_view.num_users:
            raise ValueError("sharing graph user count mismatch")
        if friendship.num_users != initiator_view.num_users:
            raise ValueError("friendship graph user count mismatch")
        self.initiator_view = initiator_view
        self.participant_view = participant_view
        self.sharing = sharing
        self.friendship = friendship

    @property
    def num_users(self) -> int:
        return self.initiator_view.num_users

    @property
    def num_items(self) -> int:
        return self.initiator_view.num_items

    def summary(self) -> dict:
        """Edge counts of every component graph."""
        return {
            "initiator_view_edges": self.initiator_view.num_edges,
            "participant_view_edges": self.participant_view.num_edges,
            "sharing_edges": self.sharing.num_edges,
            "friendship_edges": self.friendship.num_edges,
        }

    def __repr__(self) -> str:
        return (
            f"HeteroGroupBuyingGraph(users={self.num_users}, items={self.num_items}, "
            f"Gi={self.initiator_view.num_edges}, Gp={self.participant_view.num_edges}, "
            f"Gs={self.sharing.num_edges}, S={self.friendship.num_edges})"
        )


def build_hetero_graph(dataset: GroupBuyingDataset) -> HeteroGroupBuyingGraph:
    """Construct ``{G_i, G_p, G_s}`` and ``S`` from (training) behaviors.

    Built once per dataset instance and cached on it (datasets are
    immutable; splits and ``with_behaviors`` make new instances), so every
    model, load and training run over one dataset shares one graph with its
    row-normalised propagation matrices and their cached CSR transposes.
    Those matrices are read-only for every caller.  Two first calls racing
    on one dataset may both build; the graphs are equal.
    """
    cached = getattr(dataset, "_hetero_graph_cache", None)
    if cached is not None:
        return cached
    initiator_pairs = dataset.initiator_item_pairs()
    participant_pairs = dataset.participant_item_pairs()

    sharing_edges: List[Tuple[int, int]] = []
    for behavior in dataset.behaviors:
        sharing_edges.extend((behavior.initiator, participant) for participant in behavior.participants)

    friendship_edges = [edge.as_tuple() for edge in dataset.social_edges]

    graph = HeteroGroupBuyingGraph(
        initiator_view=BipartiteGraph(initiator_pairs, dataset.num_users, dataset.num_items),
        participant_view=BipartiteGraph(participant_pairs, dataset.num_users, dataset.num_items),
        sharing=SharingGraph(sharing_edges, dataset.num_users),
        friendship=FriendshipGraph(friendship_edges, dataset.num_users),
    )
    dataset._hetero_graph_cache = graph
    return graph
