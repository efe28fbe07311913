"""The fine-grained double-pairwise loss of GBGCN (Eq. 10-12).

Successful behaviors contribute a BPR term for the initiator *and* one BPR
term per participant (all of them preferred the target item over a sampled
negative).  Failed behaviors contribute the initiator's BPR term (they did
pay for the item) plus a reversed, ``beta``-weighted BPR term per friend of
the initiator — the friends implicitly preferred the negative item, which
is the strong-negative signal the paper distills from failed groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..autograd import Tensor, log_sigmoid
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.batches import GroupBuyingBatch

__all__ = ["DoublePairwiseLoss"]

DifferenceFunction = Callable[[np.ndarray, np.ndarray, np.ndarray], Tensor]


@dataclass
class DoublePairwiseLoss:
    """Configuration + implementation of the fine-grained loss.

    Parameters
    ----------
    beta:
        The loss coefficient controlling how strongly a failed group is
        interpreted as the friends disliking the item.  ``beta=0`` recovers
        the standard BPR loss over initiator-item pairs (the paper's
        comparison point in Section IV-E2).
    """

    beta: float = 0.05

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be non-negative")

    def __call__(self, batch: GroupBuyingBatch, score_pair_difference: DifferenceFunction) -> Tensor:
        """Mean fine-grained loss of ``batch`` given a differentiable scorer.

        ``score_pair_difference(users, pos, neg)`` must return the Eq. 9
        ``score(u, pos) - score(u, neg)`` per row of the aligned index
        arrays.  Every BPR term only ever consumes that difference, so the
        initiators, the participants of successful behaviors and the
        friends of initiators of failed behaviors are scored through one
        call on concatenated index arrays.
        """
        user_parts = [batch.initiators]
        positive_parts = [batch.items]
        negative_parts = [batch.negative_items]
        has_participants = bool(batch.participants.size)
        if has_participants:
            rows = batch.participant_segment
            user_parts.append(batch.participants)
            positive_parts.append(batch.items[rows])
            negative_parts.append(batch.negative_items[rows])
        has_failed = self.beta > 0 and bool(batch.failed_friends.size)
        if has_failed:
            rows = batch.failed_friend_segment
            user_parts.append(batch.failed_friends)
            positive_parts.append(batch.items[rows])
            negative_parts.append(batch.negative_items[rows])

        differences = score_pair_difference(
            np.concatenate(user_parts),
            np.concatenate(positive_parts),
            np.concatenate(negative_parts),
        )
        bounds = np.cumsum([0] + [part.shape[0] for part in user_parts])

        # Initiator term, shared by Eq. 10 and Eq. 11.
        loss = -log_sigmoid(differences[slice(bounds[0], bounds[1])]).sum()
        if has_participants:
            # Participant term of successful behaviors (Eq. 11).
            loss = loss + (-log_sigmoid(differences[slice(bounds[1], bounds[2])])).sum()
        if has_failed:
            start = 2 if has_participants else 1
            # Friend term of failed behaviors (Eq. 10): friends prefer the
            # negative item, so the BPR argument is -difference, weighted by beta.
            friend_differences = differences[slice(bounds[start], bounds[start + 1])]
            loss = loss + (-log_sigmoid(-friend_differences)).sum() * self.beta
        return loss * (1.0 / max(len(batch), 1))
