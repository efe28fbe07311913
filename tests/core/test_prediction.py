"""The role-weighted prediction function (Eq. 9)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, sparse_matmul
from repro.autograd.sparse import row_normalize
from repro.core import GBGCNConfig, role_weighted_difference, role_weighted_factors


@pytest.fixture
def setup():
    # 3 users: 0-1 friends, 2 isolated; 2 items; 2-d embeddings.
    social = row_normalize(sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)))
    user_i = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    item_i = np.array([[2.0, 0.0], [0.0, 2.0]])
    user_p = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    item_p = np.array([[1.0, 1.0], [2.0, 2.0]])
    return social, user_i, item_i, user_p, item_p


def fold_scores(alpha, user, item_ids, user_i, item_i, friend_avg, item_p):
    """Scores of ``item_ids`` for ``user`` through the folded Eq. 9 factor pair."""
    user_factors, item_factors = role_weighted_factors(alpha, user_i, friend_avg, item_i, item_p)
    return (user_factors[[user]] @ item_factors[item_ids].T)[0]


class TestScoring:
    def test_alpha_zero_uses_only_initiator_view(self, setup):
        social, user_i, item_i, user_p, item_p = setup
        friend_avg = social @ user_p
        scores = fold_scores(0.0, 0, np.array([0, 1]), user_i, item_i, friend_avg, item_p)
        assert np.allclose(scores, item_i @ user_i[0])

    def test_alpha_one_uses_only_friends(self, setup):
        social, user_i, item_i, user_p, item_p = setup
        friend_avg = social @ user_p
        scores = fold_scores(1.0, 0, np.array([0, 1]), user_i, item_i, friend_avg, item_p)
        # User 0's only friend is user 1 whose participant embedding is [1, 0].
        assert np.allclose(scores, item_p @ user_p[1])

    def test_mixture_matches_manual_formula(self, setup):
        social, user_i, item_i, user_p, item_p = setup
        alpha = 0.6
        friend_avg = social @ user_p
        scores = fold_scores(alpha, 1, np.array([0, 1]), user_i, item_i, friend_avg, item_p)
        expected = (1 - alpha) * item_i @ user_i[1] + alpha * item_p @ friend_avg[1]
        assert np.allclose(scores, expected)

    def test_isolated_user_friend_term_is_zero(self, setup):
        social, user_i, item_i, user_p, item_p = setup
        friend_avg = social @ user_p
        scores = fold_scores(1.0, 2, np.array([0, 1]), user_i, item_i, friend_avg, item_p)
        assert np.allclose(scores, 0.0)

    def test_differentiable_scores_match_numpy_path(self, setup):
        social, user_i, item_i, user_p, item_p = setup
        alpha = 0.3
        friend_avg_tensor = sparse_matmul(social, Tensor(user_p))
        users = np.array([0, 1, 2])
        positive = np.array([1, 0, 1])
        negative = np.array([0, 1, 1])
        tensor_differences = role_weighted_difference(
            alpha, Tensor(user_i), friend_avg_tensor, Tensor(item_i), Tensor(item_p), users, positive, negative
        )
        numpy_differences = [
            fold_scores(alpha, u, np.array([p]), user_i, item_i, social @ user_p, item_p)[0]
            - fold_scores(alpha, u, np.array([n]), user_i, item_i, social @ user_p, item_p)[0]
            for u, p, n in zip(users, positive, negative)
        ]
        assert np.allclose(tensor_differences.data, numpy_differences)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            GBGCNConfig(alpha=1.5)
