"""Negative sampling for training and evaluation.

Two distinct samplers are needed:

* :class:`TrainingNegativeSampler` draws ``k`` unobserved items per
  observed behavior when constructing mini-batches (the paper uses a 1:1
  ratio).
* :class:`EvaluationCandidateSampler` draws the 999 unobserved items that
  are ranked together with the held-out test item (Section IV-A2).

Both samplers use *vectorized rejection sampling*: whole arrays of
candidates are drawn at once and filtered against the observed-interaction
structure with NumPy set operations, instead of testing candidates one by
one in a Python loop.  Batch membership tests go through a boolean CSR
``users x items`` matrix so a full mini-batch is resampled in a handful of
array operations.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from ..utils.rng import make_rng
from .dataset import GroupBuyingDataset, observed_item_matrix, observed_positions

__all__ = ["TrainingNegativeSampler", "EvaluationCandidateSampler"]


def _ordered_unique(values: np.ndarray) -> np.ndarray:
    """Unique values of ``values`` in order of first occurrence."""
    _, first_positions = np.unique(values, return_index=True)
    return values[np.sort(first_positions)]


class TrainingNegativeSampler:
    """Samples unobserved items for (user, positive item) training pairs."""

    def __init__(
        self,
        dataset: GroupBuyingDataset,
        num_items: Optional[int] = None,
        seed: int = 0,
        include_participants: bool = True,
    ) -> None:
        self.num_items = num_items or dataset.num_items
        self._interactions = dataset.user_item_set(include_participants=include_participants)
        self._rng = make_rng(seed)
        # The membership matrix spans the declared item universe even when it
        # is larger than the dataset's, so candidate lookups never go out of
        # bounds.
        self._matrix = observed_item_matrix(
            self._interactions, dataset.num_users, max(dataset.num_items, self.num_items)
        )
        #: Per-user observed count, clipped to the declared item universe so a
        #: smaller ``num_items`` override still detects exhausted users.
        self._observed_counts = np.zeros(dataset.num_users, dtype=np.int64)
        for user, items in self._interactions.items():
            self._observed_counts[user] = sum(1 for item in items if item < self.num_items)

    def observed_items(self, user: int) -> Set[int]:
        """Items the user has interacted with in the training data."""
        return self._interactions.get(user, set())

    def sample(self, user: int, count: int = 1) -> np.ndarray:
        """Draw ``count`` items the user has not interacted with."""
        observed = self._interactions.get(user, set())
        # Same (clipped) exhaustion criterion as ``sample_batch``: only
        # observed items inside the declared universe block sampling.
        if 0 <= user < self._observed_counts.size and self._observed_counts[user] >= self.num_items:
            raise ValueError(f"user {user} has interacted with every item; cannot sample negatives")
        observed_array = np.fromiter(observed, dtype=np.int64, count=len(observed))
        negatives = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            candidates = self._rng.integers(0, self.num_items, size=max(2 * (count - filled), 8))
            accepted = candidates[~np.isin(candidates, observed_array)][: count - filled]
            negatives[filled : filled + accepted.size] = accepted
            filled += accepted.size
        return negatives

    def sample_batch(self, users: Sequence[int], count: int = 1) -> np.ndarray:
        """One row of ``count`` negatives per user, resampled as one block.

        Rejection sampling over the whole ``(len(users), count)`` block: all
        still-unfilled cells draw a candidate in one call, and a single
        sparse-matrix lookup rejects the candidates their user has observed.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.size == 0:
            return np.zeros((0, count), dtype=np.int64)
        # Unknown user ids (outside the dataset universe) have no observed
        # items and sample freely, exactly like the per-user ``sample`` path.
        known = (users >= 0) & (users < self._observed_counts.size)
        exhausted = np.zeros(users.size, dtype=bool)
        exhausted[known] = self._observed_counts[users[known]] >= self.num_items
        if exhausted.any():
            user = int(users[int(np.argmax(exhausted))])
            raise ValueError(f"user {user} has interacted with every item; cannot sample negatives")

        negatives = np.empty((users.size, count), dtype=np.int64)
        pending_rows = np.repeat(np.arange(users.size), count)
        pending_cols = np.tile(np.arange(count), users.size)
        while pending_rows.size:
            candidates = self._rng.integers(0, self.num_items, size=pending_rows.size)
            rejected = np.zeros(pending_rows.size, dtype=bool)
            checkable = known[pending_rows]
            if checkable.any():
                rejected[checkable] = np.asarray(
                    self._matrix[users[pending_rows[checkable]], candidates[checkable]]
                ).ravel()
            negatives[pending_rows, pending_cols] = candidates
            pending_rows = pending_rows[rejected]
            pending_cols = pending_cols[rejected]
        return negatives


class EvaluationCandidateSampler:
    """Builds the 999-negative candidate list per test user.

    Candidate lists are sampled once (per seed) and cached so that every
    model is evaluated against exactly the same ranking task, as the paper
    requires for a fair comparison.  Negatives avoid every item the user
    initiated or joined (:meth:`GroupBuyingDataset.observed_matrix`).
    """

    def __init__(self, dataset: GroupBuyingDataset, num_negatives: int = 999, seed: int = 0) -> None:
        self.dataset = dataset
        self.num_negatives = num_negatives
        self.seed = seed
        self._observed = dataset.observed_matrix()
        self._cache: Dict[int, np.ndarray] = {}

    def candidates_for(self, user: int, positive_item: int) -> np.ndarray:
        """Return ``[positive_item, negative_1, ..., negative_K]`` for ``user``."""
        key = user
        if key not in self._cache:
            rng = make_rng((self.seed, user))
            observed_array = observed_positions(self._observed, np.asarray([user]))[1]
            available = self.dataset.num_items - observed_array.size
            count = min(self.num_negatives, max(available - 1, 0))
            negatives = np.zeros(0, dtype=np.int64)
            while negatives.size < count:
                batch = rng.integers(
                    0, self.dataset.num_items, size=max(4 * (count - negatives.size), 16)
                )
                fresh = batch[~np.isin(batch, observed_array) & ~np.isin(batch, negatives)]
                negatives = np.concatenate([negatives, _ordered_unique(fresh)])[:count]
            self._cache[key] = negatives
        negatives = self._cache[key]
        negatives = negatives[negatives != positive_item]
        return np.concatenate([[positive_item], negatives]).astype(np.int64)
