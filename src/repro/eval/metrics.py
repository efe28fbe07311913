"""Ranking metrics: Recall@K and NDCG@K (plus hit-rate/MRR helpers).

The paper's protocol ranks one held-out positive item against 999 sampled
negatives per test user, so Recall@K degenerates to "is the positive in
the top K" (0/1) and NDCG@K to ``1 / log2(rank + 2)`` if it is, 0 otherwise
— exactly the definitions used here.  Values are averaged over test users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "rank_of_positive",
    "ranks_of_positives",
    "recall_at_k",
    "ndcg_at_k",
    "reciprocal_rank",
    "MetricAccumulator",
]


def rank_of_positive(scores: np.ndarray, positive_index: int = 0) -> int:
    """Zero-based rank of the positive item given candidate ``scores``.

    Ties are broken pessimistically (ties rank the positive lower), which
    avoids over-crediting degenerate constant scorers.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return int(ranks_of_positives(scores[None, :], np.asarray([positive_index]))[0])


def ranks_of_positives(
    scores: np.ndarray,
    positives: np.ndarray,
    excluded: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """:func:`rank_of_positive` of every row of a ``(users, candidates)`` block.

    ``positives[r]`` is row ``r``'s positive column.  ``excluded`` holds
    ``(rows, columns)`` of candidates left out of the ranking, as
    :func:`~repro.data.dataset.observed_positions` returns them; a pair
    naming its row's positive is ignored, so the positive always ranks.
    """
    rows = np.arange(scores.shape[0])
    # A candidate outranks the positive when it scores at least as high
    # (pessimistic ties); the positive ties with itself, hence the -1.
    outranks = scores >= scores[rows, positives][:, None]
    if excluded is not None:
        excluded_rows, excluded_columns = excluded
        others = excluded_columns != positives[excluded_rows]
        outranks[excluded_rows[others], excluded_columns[others]] = False
    return np.count_nonzero(outranks, axis=1) - 1


def recall_at_k(rank: int, k: int) -> float:
    """1.0 if the positive item's (0-based) rank is within the top ``k``."""
    if k <= 0:
        raise ValueError("k must be positive")
    return 1.0 if rank < k else 0.0


def ndcg_at_k(rank: int, k: int) -> float:
    """NDCG with a single relevant item: ``1/log2(rank+2)`` inside the top ``k``."""
    if k <= 0:
        raise ValueError("k must be positive")
    if rank >= k:
        return 0.0
    return float(1.0 / np.log2(rank + 2))


def reciprocal_rank(rank: int) -> float:
    """Reciprocal rank of the positive item (1-based)."""
    return float(1.0 / (rank + 1))


@dataclass
class MetricAccumulator:
    """Accumulates per-user ranks and reports the averaged metrics."""

    cutoffs: Sequence[int] = (3, 5, 10, 20)
    ranks: List[int] = field(default_factory=list)

    def add(self, rank: int) -> None:
        """Record the rank of one test user's positive item."""
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.ranks.append(int(rank))

    def extend(self, ranks: Iterable[int]) -> None:
        for rank in ranks:
            self.add(rank)

    @property
    def num_users(self) -> int:
        return len(self.ranks)

    def results(self) -> Dict[str, float]:
        """Averaged ``Recall@K`` / ``NDCG@K`` / ``MRR`` over recorded users."""
        names = [f"{family}@{k}" for family in ("Recall", "NDCG") for k in self.cutoffs] + ["MRR"]
        if not self.ranks:
            return dict.fromkeys(names, 0.0)
        return {name: float(np.mean(self.per_user_metric(name))) for name in names}

    def per_user_metric(self, metric: str) -> np.ndarray:
        """Per-user values of ``Recall@k``, ``NDCG@k`` or ``MRR``.

        The samples the paired significance tests compare, one per
        recorded rank, in recording order.
        """
        name, _, cutoff = metric.partition("@")
        at_k = {"recall": recall_at_k, "ndcg": ndcg_at_k}.get(name.lower())
        if name.lower() == "mrr":
            values = [reciprocal_rank(rank) for rank in self.ranks]
        elif at_k is not None and cutoff.isdigit():
            values = [at_k(rank, int(cutoff)) for rank in self.ranks]
        else:
            raise ValueError(f"unknown metric {metric!r}; expected Recall@k, NDCG@k or MRR")
        return np.asarray(values, dtype=np.float64)
