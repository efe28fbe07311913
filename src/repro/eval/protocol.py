"""The leave-one-out evaluation protocol (Section IV-A2 of the paper).

For every test (or validation) user, the held-out positive item is ranked
against items the user never interacted with; Recall@K and NDCG@K of the
resulting ranking are averaged over users.  One evaluator runs both
candidate rules:

* **sampled** (``num_negatives=999``, the paper's protocol) — the positive
  against that many sampled unobserved items, the same list for every
  model (:class:`~repro.data.negative_sampling.EvaluationCandidateSampler`);
* **full ranking** (``num_negatives=None``) — the positive against every
  unobserved item.  Sampled metrics are a biased estimate of this one, and
  can even flip model orderings (Krichene & Rendle, "On Sampled Metrics
  for Item Recommendation", KDD 2020), so one set of trained models can
  be scored both ways.

"Observed" means initiated or joined anywhere in the *full* dataset, so an
item held out for validation is never ranked as a negative of the test
item; both rules read it from
:meth:`~repro.data.dataset.GroupBuyingDataset.observed_matrix`, and both
rank with one formula (:func:`~repro.eval.metrics.ranks_of_positives`).

The protocol picks the scoring path.  Sampled candidates are scored per
user with ``rank_scores``: a few hundred candidates never pay for the
whole catalog.  Full ranking scores ``batch_size`` users at once with
``score_all_items`` and leaves each user's observed items out of the
ranking.  :meth:`LeaveOneOutEvaluator.evaluate_test_loop` scores either
rule's candidate lists per user; it is the block path's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..data.dataset import observed_positions
from ..data.negative_sampling import EvaluationCandidateSampler
from ..data.splits import DatasetSplit
from ..models.base import RecommenderModel
from ..nn import eval_mode
from .metrics import MetricAccumulator, rank_of_positive, ranks_of_positives

__all__ = ["EvaluationResult", "LeaveOneOutEvaluator", "FullRankingEvaluator"]


@dataclass
class EvaluationResult:
    """Averaged metrics plus the per-user rank list for significance testing.

    ``ranks[i]`` is the zero-based rank of the held-out item of user
    ``sorted(holdout)[i]``, for the holdout evaluated.
    """

    metrics: Dict[str, float]
    ranks: np.ndarray
    num_users: int

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


class LeaveOneOutEvaluator:
    """Evaluates any :class:`RecommenderModel` on a :class:`DatasetSplit`.

    ``num_negatives`` sampled unobserved items per user, or every
    unobserved item when it is ``None``.  ``batch_size`` bounds the users
    scored in one full-ranking block.
    """

    def __init__(
        self,
        split: DatasetSplit,
        num_negatives: Optional[int] = 999,
        cutoffs=(3, 5, 10, 20),
        seed: int = 0,
        batch_size: int = 256,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.split = split
        self.cutoffs = tuple(cutoffs)
        self.batch_size = batch_size
        # Taken here, so a first evaluation's time is its scoring alone.
        self._observed = split.full.observed_matrix()
        self.candidate_sampler: Optional[EvaluationCandidateSampler] = None
        if num_negatives is not None:
            self.candidate_sampler = EvaluationCandidateSampler(
                split.full, num_negatives=num_negatives, seed=seed
            )

    def _candidates(self, user: int, positive_item: int) -> np.ndarray:
        """``[positive_item, *negatives]`` for ``user`` under this protocol."""
        if self.candidate_sampler is not None:
            return self.candidate_sampler.candidates_for(user, positive_item)
        unobserved = np.ones(self.split.full.num_items, dtype=bool)
        unobserved[observed_positions(self._observed, np.asarray([user]))[1]] = False
        unobserved[positive_item] = False
        return np.concatenate([[positive_item], np.flatnonzero(unobserved)]).astype(np.int64)

    def _evaluate(self, model: RecommenderModel, holdout: Dict, rank: Callable) -> EvaluationResult:
        accumulator = MetricAccumulator(cutoffs=self.cutoffs)
        with eval_mode(model):
            model.prepare_for_evaluation()
            users = np.asarray(sorted(holdout), dtype=np.int64)
            positives = np.asarray([holdout[int(user)].item for user in users], dtype=np.int64)
            accumulator.extend(rank(model, users, positives))
        return EvaluationResult(
            metrics=accumulator.results(),
            ranks=np.asarray(accumulator.ranks),
            num_users=accumulator.num_users,
        )

    def _ranks_per_user(self, model: RecommenderModel, users, positives) -> list:
        return [
            rank_of_positive(model.rank_scores(int(user), self._candidates(int(user), int(item))))
            for user, item in zip(users, positives)
        ]

    def _ranks_in_blocks(self, model: RecommenderModel, users, positives) -> list:
        ranks = []
        for start in range(0, users.size, self.batch_size):
            block = slice(start, start + self.batch_size)
            scores = np.asarray(model.score_all_items(users[block]), dtype=np.float64)
            observed = observed_positions(self._observed, users[block])
            ranks.extend(ranks_of_positives(scores, positives[block], observed).tolist())
        return ranks

    def _evaluate_holdout(self, model: RecommenderModel, holdout: Dict) -> EvaluationResult:
        sampled = self.candidate_sampler is not None
        return self._evaluate(model, holdout, self._ranks_per_user if sampled else self._ranks_in_blocks)

    def evaluate_test(self, model: RecommenderModel) -> EvaluationResult:
        """Evaluate on the test holdout."""
        return self._evaluate_holdout(model, self.split.test)

    def evaluate_validation(self, model: RecommenderModel) -> EvaluationResult:
        """Evaluate on the validation holdout (used for model selection)."""
        return self._evaluate_holdout(model, self.split.validation)

    def evaluate_test_loop(self, model: RecommenderModel) -> EvaluationResult:
        """The test holdout scored per user over this protocol's candidate
        lists: the oracle of the full-ranking block path."""
        return self._evaluate(model, self.split.test, self._ranks_per_user)


class FullRankingEvaluator(LeaveOneOutEvaluator):
    """:class:`LeaveOneOutEvaluator` with ``num_negatives=None``."""

    def __init__(self, split: DatasetSplit, cutoffs=(3, 5, 10, 20), batch_size: int = 256) -> None:
        super().__init__(split, num_negatives=None, cutoffs=cutoffs, batch_size=batch_size)
