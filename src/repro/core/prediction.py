"""The role-weighted prediction function of GBGCN (Eq. 9).

The score of user ``m`` launching a successful group for item ``n`` blends
(1) the initiator-view affinity between ``m`` and ``n`` and (2) the average
participant-view affinity between ``m``'s friends and ``n``, weighted by the
role coefficient ``alpha``.

Training scores with :class:`RoleWeightedPredictor` (differentiable, per
sampled pair).  Evaluation and serving score with
:func:`role_weighted_factors`: the blend is linear in the two item views,
so it folds into one inner product of concatenated factors — the single
score definition GBGCN, GBGCN-pretrain and GBMF hand to
:class:`~repro.models.base.RecommenderModel`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, cache_transpose, gathered_dot_difference, sparse_matmul

__all__ = ["RoleWeightedPredictor", "role_weighted_factors"]


def role_weighted_factors(
    alpha: float,
    user_initiator: np.ndarray,
    friend_average_participant: np.ndarray,
    item_initiator: np.ndarray,
    item_participant: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 9 as one ``(user_factors, item_factors)`` pair.

    ``(1-alpha) * <u_i, v_i> + alpha * <f, v_p>`` equals
    ``<[(1-alpha) * u_i, alpha * f], [v_i, v_p]>``, so the score block of
    any users and items is one matrix product of the concatenated factors.
    """
    user_factors = np.hstack([(1.0 - alpha) * user_initiator, alpha * friend_average_participant])
    return user_factors, np.hstack([item_initiator, item_participant])


class RoleWeightedPredictor:
    """Computes ``y_mn = (1-alpha) * <u_i, v_i> + alpha * <mean_friends(u_p), v_p>``."""

    def __init__(self, social_normalized: sp.spmatrix, alpha: float) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.social_normalized = social_normalized.tocsr()
        # friend_average runs once per batch; precompute the CSR transpose
        # its backward needs instead of deriving it per call.
        cache_transpose(self.social_normalized)
        self.alpha = alpha

    # ------------------------------------------------------------------
    # Differentiable scoring (training)
    # ------------------------------------------------------------------
    def friend_average(self, user_participant: Tensor) -> Tensor:
        """Mean participant-view embedding of each user's friends."""
        return sparse_matmul(self.social_normalized, user_participant)

    def score_pairs(
        self,
        users: np.ndarray,
        items: np.ndarray,
        user_initiator: Tensor,
        item_initiator: Tensor,
        friend_average_participant: Tensor,
        item_participant: Tensor,
    ) -> Tensor:
        """Differentiable scores for aligned (user, item) arrays."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        own = (user_initiator[users] * item_initiator[items]).sum(axis=-1)
        friends = (friend_average_participant[users] * item_participant[items]).sum(axis=-1)
        return own * (1.0 - self.alpha) + friends * self.alpha

    def score_pair_difference(
        self,
        users: np.ndarray,
        positive_items: np.ndarray,
        negative_items: np.ndarray,
        user_initiator: Tensor,
        item_initiator: Tensor,
        friend_average_participant: Tensor,
        item_participant: Tensor,
    ) -> Tensor:
        """Differentiable ``score(u, pos) - score(u, neg)`` for aligned arrays.

        The pairwise-ranking hot path: both dots share one gather of the
        user-side rows and each embedding table receives a single fused
        scatter in the backward (see
        :func:`~repro.autograd.gathered_dot_difference`), instead of the
        four gathers and four scatters that two :meth:`score_pairs` calls
        would cost.
        """
        users = np.asarray(users, dtype=np.int64)
        positive_items = np.asarray(positive_items, dtype=np.int64)
        negative_items = np.asarray(negative_items, dtype=np.int64)
        own = gathered_dot_difference(user_initiator, item_initiator, users, positive_items, negative_items)
        friends = gathered_dot_difference(
            friend_average_participant, item_participant, users, positive_items, negative_items
        )
        return own * (1.0 - self.alpha) + friends * self.alpha
