"""The role-weighted prediction function of GBGCN (Eq. 9).

The score of user ``m`` launching a successful group for item ``n`` blends
(1) the initiator-view affinity between ``m`` and ``n`` and (2) the average
participant-view affinity between ``m``'s friends and ``n``, weighted by the
role coefficient ``alpha``.

Eq. 9 has two forms, shared by GBGCN, GBGCN-pretrain and GBMF.  Training
scores with :func:`role_weighted_difference` (differentiable, per sampled
pair).  Evaluation and serving score with :func:`role_weighted_factors`:
the blend is linear in the two item views, so it folds into one inner
product of concatenated factors — the single score definition the three
models hand to :class:`~repro.models.base.RecommenderModel`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..autograd import Tensor, gathered_dot_difference

__all__ = ["role_weighted_difference", "role_weighted_factors"]


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


def role_weighted_difference(
    alpha: float,
    user_initiator: Tensor,
    friend_average: Tensor,
    item_initiator: Tensor,
    item_participant: Tensor,
    users: np.ndarray,
    positive_items: np.ndarray,
    negative_items: np.ndarray,
) -> Tensor:
    """Differentiable Eq. 9 ``score(u, pos) - score(u, neg)`` for aligned index arrays.

    ``users`` index both user tables and the item arrays index both item
    tables, so the four tables share one row space (full tables, or the
    same compact rows of each).  Each view is one
    :func:`~repro.autograd.gathered_dot_difference`: the user-side rows are
    gathered once for the positive and the negative dot, and each table
    receives a single fused scatter in the backward.  The two views stay
    two calls: folding them into one gather of concatenated tables doubles
    every backward temporary for no step-time gain.
    """
    own = gathered_dot_difference(user_initiator, item_initiator, users, positive_items, negative_items)
    friends = gathered_dot_difference(friend_average, item_participant, users, positive_items, negative_items)
    return own * (1.0 - alpha) + friends * alpha
