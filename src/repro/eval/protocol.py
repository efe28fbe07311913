"""The leave-one-out evaluation protocol (Section IV-A2 of the paper).

For every test (or validation) user, the held-out positive item is ranked
against 999 items the user never interacted with; Recall@K and NDCG@K of
the resulting ranking are averaged over users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..data.negative_sampling import EvaluationCandidateSampler
from ..data.splits import DatasetSplit
from ..models.base import RecommenderModel
from ..nn import eval_mode
from .metrics import MetricAccumulator, rank_of_positive

__all__ = ["EvaluationResult", "LeaveOneOutEvaluator"]


@dataclass
class EvaluationResult:
    """Averaged metrics plus the per-user rank list for significance testing."""

    metrics: Dict[str, float]
    ranks: np.ndarray
    num_users: int

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


class LeaveOneOutEvaluator:
    """Evaluates any :class:`RecommenderModel` on a :class:`DatasetSplit`."""

    def __init__(
        self,
        split: DatasetSplit,
        num_negatives: int = 999,
        cutoffs=(3, 5, 10, 20),
        seed: int = 0,
    ) -> None:
        self.split = split
        self.cutoffs = tuple(cutoffs)
        # Candidates are sampled against the *full* dataset interactions so
        # that no sampled "negative" is actually a known positive.
        self.candidate_sampler = EvaluationCandidateSampler(
            split.full, num_negatives=num_negatives, seed=seed
        )

    def _evaluate_holdout(self, model: RecommenderModel, holdout: Dict) -> EvaluationResult:
        accumulator = MetricAccumulator(cutoffs=self.cutoffs)
        with eval_mode(model):
            model.prepare_for_evaluation()
            for user in sorted(holdout):
                behavior = holdout[user]
                candidates = self.candidate_sampler.candidates_for(user, behavior.item)
                scores = model.rank_scores(user, candidates)
                accumulator.add(rank_of_positive(scores, positive_index=0))
        return EvaluationResult(
            metrics=accumulator.results(),
            ranks=np.asarray(accumulator.ranks),
            num_users=accumulator.num_users,
        )

    def evaluate_test(self, model: RecommenderModel) -> EvaluationResult:
        """Evaluate on the test holdout."""
        return self._evaluate_holdout(model, self.split.test)

    def evaluate_validation(self, model: RecommenderModel) -> EvaluationResult:
        """Evaluate on the validation holdout (used for model selection)."""
        return self._evaluate_holdout(model, self.split.validation)
