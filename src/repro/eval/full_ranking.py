"""Full-ranking (all-item) evaluation protocol.

The paper follows the common sampled protocol: the held-out positive is
ranked against 999 sampled negatives.  Sampled metrics are known to be a
biased estimate of the full ranking; this evaluator ranks the positive
against *every* item the user has not interacted with, which is feasible at
the synthetic-dataset scales used in this reproduction and lets the
benchmark harness report both numbers side by side.

Two scoring paths are provided:

* the **batched path** (default) scores users in configurable blocks with
  :meth:`~repro.models.base.RecommenderModel.score_all_items` — one
  matrix-matrix product per block over the model's cached propagated
  embeddings — and excludes each user's observed items with a mask set
  from the observed matrix's CSR rows
  (:func:`~repro.data.dataset.observed_positions`) instead of rebuilding a
  candidate array per user;
* the **per-user path** (``batch_size=None`` or
  :meth:`FullRankingEvaluator.evaluate_test_loop`) is the original
  reference implementation, kept as the oracle the batched path is
  regression-tested against.

Both paths produce identical ranks: scores are compared only *within* one
user's row, the observed-item exclusion sets are the same, and ties are
broken pessimistically in both.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np
import scipy.sparse as sp

from ..data.dataset import observed_item_matrix, observed_positions
from ..data.splits import DatasetSplit
from ..models.base import RecommenderModel
from ..nn import eval_mode
from .metrics import MetricAccumulator
from .protocol import EvaluationResult

__all__ = ["FullRankingEvaluator"]


class FullRankingEvaluator:
    """Ranks each held-out positive against the full unobserved item catalog."""

    def __init__(
        self,
        split: DatasetSplit,
        cutoffs=(3, 5, 10, 20),
        exclude_observed: bool = True,
        batch_size: Optional[int] = 256,
    ) -> None:
        """``batch_size`` controls the scoring block; ``None`` forces the
        legacy per-user reference path."""
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive (or None for the per-user path)")
        self.split = split
        self.cutoffs = tuple(cutoffs)
        self.exclude_observed = exclude_observed
        self.batch_size = batch_size
        # Observed sets come from the *full* dataset so items held out for
        # validation are not accidentally ranked as negatives of the test item.
        self._observed: Dict[int, Set[int]] = split.full.user_item_set(include_participants=True)
        self._observed_matrix: Optional[sp.csr_matrix] = None

    # ------------------------------------------------------------------
    # Shared structures
    # ------------------------------------------------------------------
    def _observed_csr(self) -> sp.csr_matrix:
        """Boolean ``users x items`` matrix of observed interactions (lazy)."""
        if self._observed_matrix is None:
            self._observed_matrix = observed_item_matrix(
                self._observed, self.split.full.num_users, self.split.full.num_items
            )
        return self._observed_matrix

    def _candidates(self, user: int, positive_item: int) -> np.ndarray:
        num_items = self.split.full.num_items
        if not self.exclude_observed:
            candidates = np.arange(num_items)
        else:
            observed = self._observed.get(user, set()) - {positive_item}
            if observed:
                mask = np.ones(num_items, dtype=bool)
                mask[list(observed)] = False
                candidates = np.flatnonzero(mask)
            else:
                candidates = np.arange(num_items)
        # The protocol expects the positive at index 0 and all other
        # candidates after it.
        others = candidates[candidates != positive_item]
        return np.concatenate([[positive_item], others]).astype(np.int64)

    # ------------------------------------------------------------------
    # Reference per-user path (the oracle)
    # ------------------------------------------------------------------
    def _evaluate_holdout_loop(self, model: RecommenderModel, holdout: Dict) -> EvaluationResult:
        accumulator = MetricAccumulator(cutoffs=self.cutoffs)
        with eval_mode(model):
            model.prepare_for_evaluation()
            for user in sorted(holdout):
                behavior = holdout[user]
                candidates = self._candidates(user, behavior.item)
                scores = np.asarray(model.rank_scores(user, candidates), dtype=np.float64)
                positive_score = scores[0]
                better = int(np.sum(scores > positive_score))
                ties = int(np.sum(scores == positive_score)) - 1
                accumulator.add(better + ties)
        return EvaluationResult(
            metrics=accumulator.results(),
            ranks=np.asarray(accumulator.ranks),
            num_users=accumulator.num_users,
        )

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def _evaluate_holdout_batched(self, model: RecommenderModel, holdout: Dict) -> EvaluationResult:
        accumulator = MetricAccumulator(cutoffs=self.cutoffs)
        with eval_mode(model):
            model.prepare_for_evaluation()
            users = np.asarray(sorted(holdout), dtype=np.int64)
            positives = np.asarray([holdout[int(user)].item for user in users], dtype=np.int64)
            observed_csr = self._observed_csr() if self.exclude_observed else None

            for start in range(0, users.size, self.batch_size):
                block_users = users[start : start + self.batch_size]
                block_positives = positives[start : start + self.batch_size]
                scores = np.asarray(model.score_all_items(block_users), dtype=np.float64)
                block_rows = np.arange(block_users.size)
                positive_scores = scores[block_rows, block_positives]

                if observed_csr is not None:
                    rows, items = observed_positions(observed_csr, block_users)
                    excluded = np.zeros(scores.shape, dtype=bool)
                    excluded[rows, items] = True
                    # The positive itself is always ranked, even when observed.
                    excluded[block_rows, block_positives] = False
                    valid = ~excluded
                    better = ((scores > positive_scores[:, None]) & valid).sum(axis=1)
                    # The positive compares equal to itself, hence the -1.
                    ties = ((scores == positive_scores[:, None]) & valid).sum(axis=1) - 1
                else:
                    better = (scores > positive_scores[:, None]).sum(axis=1)
                    ties = (scores == positive_scores[:, None]).sum(axis=1) - 1
                accumulator.extend((better + ties).tolist())

        return EvaluationResult(
            metrics=accumulator.results(),
            ranks=np.asarray(accumulator.ranks),
            num_users=accumulator.num_users,
        )

    def _evaluate_holdout(self, model: RecommenderModel, holdout: Dict) -> EvaluationResult:
        if self.batch_size is None:
            return self._evaluate_holdout_loop(model, holdout)
        return self._evaluate_holdout_batched(model, holdout)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def evaluate_test(self, model: RecommenderModel) -> EvaluationResult:
        """Evaluate on the test holdout against the full catalog."""
        return self._evaluate_holdout(model, self.split.test)

    def evaluate_validation(self, model: RecommenderModel) -> EvaluationResult:
        """Evaluate on the validation holdout against the full catalog."""
        return self._evaluate_holdout(model, self.split.validation)

    def evaluate_test_loop(self, model: RecommenderModel) -> EvaluationResult:
        """Reference per-user evaluation of the test holdout (the oracle)."""
        return self._evaluate_holdout_loop(model, self.split.test)

    def evaluate_validation_loop(self, model: RecommenderModel) -> EvaluationResult:
        """Reference per-user evaluation of the validation holdout."""
        return self._evaluate_holdout_loop(model, self.split.validation)
