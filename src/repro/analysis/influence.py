"""Social-influence analysis of a group-buying log.

The paper's second challenge is that "the initiator's influence on the
social network is another significant factor determining whether the friend
joins".  This module quantifies that factor directly from the data (no
model involved):

* per-initiator clinch rates,
* the relationship between an initiator's social degree and their clinch
  rate (more friends means more potential participants),
* the conversion rate of invitations (participants per friend), which is
  the empirical footprint of "social influence" in the log.

The synthetic generator plants these effects; the analysis verifies they
exist with the same direction the paper's challenge statement assumes, and
it works unchanged on a real log loaded via :mod:`repro.data.io`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..data.dataset import GroupBuyingDataset
from ..utils.tables import format_table

__all__ = [
    "InitiatorInfluence",
    "InfluenceReport",
    "initiator_influence",
    "analyze_social_influence",
]


@dataclass(frozen=True)
class InitiatorInfluence:
    """Per-initiator aggregates of launching activity and clinch success."""

    user: int
    num_launched: int
    num_successful: int
    num_friends: int
    mean_participants: float

    @property
    def success_rate(self) -> float:
        if self.num_launched == 0:
            return 0.0
        return self.num_successful / self.num_launched


@dataclass(frozen=True)
class InfluenceReport:
    """Dataset-level summary of the social-influence footprint."""

    #: Spearman correlation between an initiator's friend count and clinch rate.
    degree_success_correlation: float
    degree_success_p_value: float
    #: Mean participants per launched group, split by success.
    mean_participants_successful: float
    mean_participants_failed: float
    #: Overall probability that an invited friend joins (participants / friends).
    invitation_conversion_rate: float
    num_initiators: int

    def format(self) -> str:
        rows = [
            ("degree vs. success-rate correlation (Spearman)", self.degree_success_correlation),
            ("correlation p-value", self.degree_success_p_value),
            ("mean participants in successful groups", self.mean_participants_successful),
            ("mean participants in failed groups", self.mean_participants_failed),
            ("invitation conversion rate", self.invitation_conversion_rate),
            ("initiators analyzed", self.num_initiators),
        ]
        return format_table(["Quantity", "Value"], rows)


def initiator_influence(dataset: GroupBuyingDataset) -> List[InitiatorInfluence]:
    """Per-initiator launching/clinching aggregates."""
    friends = dataset.friend_lists()
    grouped = dataset.behaviors_of_initiator()
    results: List[InitiatorInfluence] = []
    for user in sorted(grouped):
        behaviors = grouped[user]
        participant_counts = [len(b.participants) for b in behaviors]
        results.append(
            InitiatorInfluence(
                user=user,
                num_launched=len(behaviors),
                num_successful=sum(1 for b in behaviors if b.is_successful),
                num_friends=int(friends[user].size),
                mean_participants=float(np.mean(participant_counts)) if participant_counts else 0.0,
            )
        )
    return results


def analyze_social_influence(dataset: GroupBuyingDataset, min_launched: int = 1) -> InfluenceReport:
    """Compute the :class:`InfluenceReport` for one dataset.

    ``min_launched`` filters out one-shot initiators whose empirical clinch
    rate (0 or 1) would only add noise to the correlation.
    """
    per_initiator = [
        record for record in initiator_influence(dataset) if record.num_launched >= min_launched
    ]
    if not per_initiator:
        raise ValueError("no initiator launches at least min_launched groups")

    degrees = np.array([record.num_friends for record in per_initiator], dtype=np.float64)
    success_rates = np.array([record.success_rate for record in per_initiator], dtype=np.float64)
    if np.ptp(degrees) > 0 and np.ptp(success_rates) > 0:
        from scipy import stats  # on call only, as in repro.eval.significance

        correlation, p_value = stats.spearmanr(degrees, success_rates)
    else:
        correlation, p_value = 0.0, 1.0

    successful_sizes = [len(b.participants) for b in dataset.successful_behaviors]
    failed_sizes = [len(b.participants) for b in dataset.failed_behaviors]

    friends = dataset.friend_lists()
    invited = sum(min(friends[b.initiator].size, 10) for b in dataset.behaviors)
    joined = sum(len(b.participants) for b in dataset.behaviors)

    return InfluenceReport(
        degree_success_correlation=float(correlation),
        degree_success_p_value=float(p_value),
        mean_participants_successful=float(np.mean(successful_sizes)) if successful_sizes else 0.0,
        mean_participants_failed=float(np.mean(failed_sizes)) if failed_sizes else 0.0,
        invitation_conversion_rate=float(joined / invited) if invited else 0.0,
        num_initiators=len(per_initiator),
    )
