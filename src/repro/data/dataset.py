"""The :class:`GroupBuyingDataset` container.

Holds the three inputs of the problem formulation in Section II of the
paper — the behavior set ``B``, the social network ``S`` and the user/item
universes — and exposes the derived structures every model needs: the
success/failure split of ``B``, sparse matrices, per-user friend lists and
per-user interacted-item sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from .schema import GroupBuyingBehavior, SocialEdge

__all__ = ["GroupBuyingDataset", "observed_item_matrix", "observed_positions"]


def observed_item_matrix(
    interactions: Dict[int, Set[int]], num_users: int, num_items: int
) -> sp.csr_matrix:
    """Boolean ``users x items`` membership matrix over an interaction dict.

    The shared building block for every vectorized observed-item lookup:
    batch negative sampling builds one over its own interaction sets, and
    :meth:`GroupBuyingDataset.observed_matrix` builds the one per dataset
    whose rows the evaluator's candidate rule and the serving layer's
    already-bought filter read (through :func:`observed_positions`)
    instead of testing per-user Python sets.
    """
    rows = []
    cols = []
    for user, items in interactions.items():
        rows.extend([user] * len(items))
        cols.extend(items)
    data = np.ones(len(rows), dtype=bool)
    return sp.csr_matrix((data, (rows, cols)), shape=(num_users, num_items), dtype=bool)


def observed_positions(observed: sp.csr_matrix, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, items)`` of the stored entries of ``observed[users]``.

    Reads the user block straight from the CSR's ``indptr``/``indices``
    instead of slicing the matrix: ``rows[j]`` is a position in ``users``
    (non-decreasing; a repeated user repeats its entries) and ``items[j]``
    an item that user observed.  Every stored entry counts, so a matrix
    holding explicit zeros must drop them first (``eliminate_zeros``).
    ``items`` may be a view of ``observed.indices``: read it, never write it.
    """
    users = np.asarray(users, dtype=np.int64)
    if users.size == 1:
        # One user per request is the serving norm: one slice, no gathers.
        user = int(users[0])
        items = observed.indices[observed.indptr[user] : observed.indptr[user + 1]]
        return np.zeros(items.size, dtype=np.int64), items
    starts = observed.indptr[users]
    counts = observed.indptr[users + 1] - starts
    rows = np.repeat(np.arange(users.size), counts)
    # Entry j of row r sits at starts[r] + (j - first entry of row r).
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, observed.indices[np.repeat(starts, counts) + offsets]


class GroupBuyingDataset:
    """Behaviors ``B`` + social network ``S`` over ``P`` users and ``Q`` items."""

    def __init__(
        self,
        num_users: int,
        num_items: int,
        behaviors: Sequence[GroupBuyingBehavior],
        social_edges: Sequence[SocialEdge],
        name: str = "group-buying",
    ) -> None:
        if num_users <= 0 or num_items <= 0:
            raise ValueError("the dataset must contain at least one user and one item")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.name = name
        self.behaviors: Tuple[GroupBuyingBehavior, ...] = tuple(behaviors)
        self.social_edges: Tuple[SocialEdge, ...] = tuple(dict.fromkeys(social_edges))
        self._validate()
        self._friends_cache: Optional[List[np.ndarray]] = None
        self._social_matrix_cache: Optional[sp.csr_matrix] = None
        self._observed_matrix_cache: Optional[sp.csr_matrix] = None
        #: Filled lazily by :func:`repro.persist.fingerprint.dataset_fingerprint`
        #: and :func:`repro.graph.build_hetero_graph`; safe to cache because
        #: behaviors/edges are immutable tuples.
        self._fingerprint_cache: Optional[Dict[str, object]] = None
        self._hetero_graph_cache = None

    def __getstate__(self) -> Dict[str, object]:
        # The cached graph and observed matrix are derived state: the graph
        # would grow the pickle about fivefold, and what a spawned worker
        # receives would depend on what the sending process happened to
        # build.  A receiver builds its own.
        state = self.__dict__.copy()
        state["_hetero_graph_cache"] = None
        state["_observed_matrix_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Validation and construction helpers
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for behavior in self.behaviors:
            if behavior.initiator >= self.num_users:
                raise ValueError(f"initiator {behavior.initiator} out of range (P={self.num_users})")
            if behavior.item >= self.num_items:
                raise ValueError(f"item {behavior.item} out of range (Q={self.num_items})")
            for participant in behavior.participants:
                if participant >= self.num_users:
                    raise ValueError(f"participant {participant} out of range (P={self.num_users})")
        for edge in self.social_edges:
            if edge.user_b >= self.num_users:
                raise ValueError(f"social edge {edge.as_tuple()} out of range (P={self.num_users})")

    @classmethod
    def from_arrays(
        cls,
        num_users: int,
        num_items: int,
        initiators: Sequence[int],
        items: Sequence[int],
        participant_lists: Sequence[Sequence[int]],
        thresholds: Sequence[int],
        social_pairs: Sequence[Tuple[int, int]],
        name: str = "group-buying",
    ) -> "GroupBuyingDataset":
        """Build a dataset from parallel arrays (the on-disk format)."""
        behaviors = [
            GroupBuyingBehavior(initiator=int(m), item=int(n), participants=tuple(p), threshold=int(t))
            for m, n, p, t in zip(initiators, items, participant_lists, thresholds)
        ]
        edges = [SocialEdge(int(a), int(b)) for a, b in social_pairs]
        return cls(num_users, num_items, behaviors, edges, name=name)

    # ------------------------------------------------------------------
    # Success / failure split
    # ------------------------------------------------------------------
    @property
    def successful_behaviors(self) -> List[GroupBuyingBehavior]:
        """``B+``: behaviors that clinched."""
        return [b for b in self.behaviors if b.is_successful]

    @property
    def failed_behaviors(self) -> List[GroupBuyingBehavior]:
        """``B-``: behaviors that did not gather enough participants."""
        return [b for b in self.behaviors if not b.is_successful]

    @property
    def num_behaviors(self) -> int:
        return len(self.behaviors)

    @property
    def num_social_edges(self) -> int:
        return len(self.social_edges)

    # ------------------------------------------------------------------
    # Social network
    # ------------------------------------------------------------------
    def social_matrix(self) -> sp.csr_matrix:
        """The symmetric binary ``P x P`` matrix ``S`` from the paper."""
        if self._social_matrix_cache is None:
            if self.social_edges:
                row_idx = np.concatenate([[e.user_a for e in self.social_edges], [e.user_b for e in self.social_edges]])
                col_idx = np.concatenate([[e.user_b for e in self.social_edges], [e.user_a for e in self.social_edges]])
                values = np.ones(len(row_idx), dtype=np.float64)
                matrix = sp.coo_matrix(
                    (values, (row_idx, col_idx)), shape=(self.num_users, self.num_users)
                ).tocsr()
                matrix.data[:] = 1.0
            else:
                matrix = sp.csr_matrix((self.num_users, self.num_users), dtype=np.float64)
            self._social_matrix_cache = matrix
        return self._social_matrix_cache

    def friends_of(self, user: int) -> np.ndarray:
        """IDs of the user's friends in the social network."""
        return self.friend_lists()[user]

    def friend_lists(self) -> List[np.ndarray]:
        """Friend ID arrays for every user (cached)."""
        if self._friends_cache is None:
            adjacency: List[List[int]] = [[] for _ in range(self.num_users)]
            for edge in self.social_edges:
                adjacency[edge.user_a].append(edge.user_b)
                adjacency[edge.user_b].append(edge.user_a)
            self._friends_cache = [np.asarray(sorted(set(f)), dtype=np.int64) for f in adjacency]
        return self._friends_cache

    # ------------------------------------------------------------------
    # Interaction views
    # ------------------------------------------------------------------
    def initiator_item_pairs(self) -> np.ndarray:
        """``(num_behaviors, 2)`` array of (initiator, item) interactions."""
        if not self.behaviors:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray([(b.initiator, b.item) for b in self.behaviors], dtype=np.int64)

    def participant_item_pairs(self) -> np.ndarray:
        """``(sum |M_p|, 2)`` array of (participant, item) interactions."""
        pairs = [(p, b.item) for b in self.behaviors for p in b.participants]
        if not pairs:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(pairs, dtype=np.int64)

    def user_item_set(self, include_participants: bool = True) -> Dict[int, Set[int]]:
        """Per-user set of interacted items (used to avoid false negatives)."""
        interactions: Dict[int, Set[int]] = {}
        for behavior in self.behaviors:
            interactions.setdefault(behavior.initiator, set()).add(behavior.item)
            if include_participants:
                for participant in behavior.participants:
                    interactions.setdefault(participant, set()).add(behavior.item)
        return interactions

    def observed_matrix(self) -> sp.csr_matrix:
        """Boolean ``P x Q`` CSR of the items each user initiated or joined (cached).

        The one observed-item matrix per dataset: the evaluator's candidate
        rule and every serving recommender over this dataset read it.
        Canonical, with no stored zeros.  Read it, never write it.  Two
        first calls racing may both build; the matrices are equal.
        """
        if self._observed_matrix_cache is None:
            self._observed_matrix_cache = observed_item_matrix(
                self.user_item_set(include_participants=True), self.num_users, self.num_items
            )
        return self._observed_matrix_cache

    def items_of_initiator(self, user: int) -> Set[int]:
        """Items the user interacted with as an initiator."""
        return {b.item for b in self.behaviors if b.initiator == user}

    def behaviors_of_initiator(self) -> Dict[int, List[GroupBuyingBehavior]]:
        """Group the behavior list by initiator (used by the splitter)."""
        grouped: Dict[int, List[GroupBuyingBehavior]] = {}
        for behavior in self.behaviors:
            grouped.setdefault(behavior.initiator, []).append(behavior)
        return grouped

    # ------------------------------------------------------------------
    # Subsetting
    # ------------------------------------------------------------------
    def with_behaviors(self, behaviors: Sequence[GroupBuyingBehavior], name: Optional[str] = None) -> "GroupBuyingDataset":
        """Return a dataset with the same universe/social net but new behaviors."""
        return GroupBuyingDataset(
            num_users=self.num_users,
            num_items=self.num_items,
            behaviors=behaviors,
            social_edges=self.social_edges,
            name=name or self.name,
        )

    def __len__(self) -> int:
        return len(self.behaviors)

    def __repr__(self) -> str:
        return (
            f"GroupBuyingDataset(name={self.name!r}, users={self.num_users}, "
            f"items={self.num_items}, behaviors={self.num_behaviors}, "
            f"social_edges={self.num_social_edges})"
        )
