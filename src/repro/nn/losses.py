"""Loss functions used by GBGCN and the baseline models.

* :func:`bpr_loss` — Bayesian Personalized Ranking (MF, NCF-as-ranker,
  NGCF, SocialMF, DiffNet, and the building block of GBGCN's
  fine-grained loss).
* :func:`bpr_difference_loss` — the same loss from precomputed
  ``pos - neg`` score differences (LightGCN, GBMF).
* :func:`log_loss` — pointwise binary cross entropy on scores (SIGR).
* :func:`regression_pairwise_loss` — the margin-regression pairwise loss
  used by AGREE.
* :func:`l2_regularization` — weight decay over an iterable of tensors.
* :func:`social_regularization` — the SocialMF-style constraint that pulls
  a user's embedding towards the mean of their friends' embeddings, which
  the paper adds to GBGCN's objective ("social regularization term
  proposed in [1]").
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, as_tensor, l2_norm_squared, log_sigmoid, sigmoid, sparse_matmul

__all__ = [
    "bpr_loss",
    "bpr_difference_loss",
    "log_loss",
    "regression_pairwise_loss",
    "l2_regularization",
    "social_regularization",
]


def bpr_loss(positive_scores: Tensor, negative_scores: Tensor) -> Tensor:
    """Mean BPR loss ``-log sigmoid(pos - neg)`` over paired score tensors."""
    positive_scores = as_tensor(positive_scores)
    negative_scores = as_tensor(negative_scores)
    if positive_scores.size == 0:
        return Tensor(0.0)
    return -log_sigmoid(positive_scores - negative_scores).mean()


def bpr_difference_loss(differences: Tensor) -> Tensor:
    """Mean BPR loss from precomputed ``pos - neg`` score differences.

    Models whose scores are embedding inner products feed this from
    :func:`~repro.autograd.gathered_dot_difference`, which shares the
    user-side gather between the positive and negative dot and emits one
    row-sparse scatter per table in the backward.  An empty batch yields a
    zero loss instead of a division by zero.
    """
    differences = as_tensor(differences)
    if differences.size == 0:
        return Tensor(0.0)
    return -log_sigmoid(differences).mean()


def log_loss(scores: Tensor, labels: np.ndarray, eps: float = 1e-9) -> Tensor:
    """Binary cross-entropy of sigmoid(scores) against 0/1 ``labels``."""
    scores = as_tensor(scores)
    labels = np.asarray(labels, dtype=np.float64)
    probabilities = sigmoid(scores).clip(eps, 1.0 - eps)
    losses = -(as_tensor(labels) * probabilities.log() + as_tensor(1.0 - labels) * (1.0 - probabilities).log())
    return losses.mean()


def regression_pairwise_loss(positive_scores: Tensor, negative_scores: Tensor, margin: float = 1.0) -> Tensor:
    """AGREE's regression-based pairwise loss ``(pos - neg - margin)^2``."""
    positive_scores = as_tensor(positive_scores)
    negative_scores = as_tensor(negative_scores)
    return ((positive_scores - negative_scores - margin) ** 2).mean()


def l2_regularization(parameters: Iterable[Tensor], weight: float) -> Tensor:
    """``weight * sum_i ||p_i||^2`` over the given parameters."""
    if weight == 0.0:
        return Tensor(0.0)
    return l2_norm_squared(parameters) * weight


def social_regularization(
    user_embeddings: Tensor,
    social_matrix: sp.spmatrix,
    weight: float,
    user_indices: Optional[np.ndarray] = None,
) -> Tensor:
    """SocialMF-style regularizer pulling users towards their friends' mean.

    Parameters
    ----------
    user_embeddings:
        The full ``P x d`` user embedding tensor.
    social_matrix:
        Row-normalized ``P x P`` social adjacency (friend averaging matrix).
    weight:
        Regularization strength; 0 disables the term.
    user_indices:
        Optionally restrict the penalty to the users present in the current
        mini-batch (keeps the cost proportional to the batch).
    """
    if weight == 0.0:
        return Tensor(0.0)
    # Users with no friends have an all-zero friend mean; penalizing them
    # would just shrink their embeddings towards zero, so mask them out.
    has_friends = (social_matrix.getnnz(axis=1) > 0).astype(np.float64).reshape(-1, 1)
    if user_indices is not None:
        # Batch-restricted form: slice the averaging matrix down to the
        # batch rows *before* propagating, so the term costs O(batch) — the
        # full-table matmul, subtraction and masking below would each touch
        # every user per mini-batch.
        rows = np.asarray(user_indices, dtype=np.int64)
        friend_mean = sparse_matmul(social_matrix.tocsr()[rows], user_embeddings)
        difference = user_embeddings[rows] - friend_mean
        difference = difference * Tensor(has_friends[rows])
        return (difference ** 2).sum() * weight
    friend_mean = sparse_matmul(social_matrix, user_embeddings)
    difference = user_embeddings - friend_mean
    difference = difference * Tensor(has_friends)
    return (difference ** 2).sum() * weight
