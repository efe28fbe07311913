"""Beyond-accuracy metrics: AUC, catalog coverage and popularity bias.

These complement the paper's Recall/NDCG numbers:

* :func:`auc_from_rank` — with one relevant item ranked against ``N``
  negatives, AUC reduces to the fraction of negatives scored below the
  positive; useful as a cutoff-free summary.
* :func:`catalog_coverage` — the share of the item catalog that ever
  appears in a top-``k`` list; group-buying recommenders that only push a
  handful of viral items score poorly here even when Recall looks fine.
* :func:`average_recommendation_popularity` — how popularity-biased the
  top-``k`` lists are, measured against training interaction counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

import numpy as np

from ..data.dataset import GroupBuyingDataset
from ..models.base import RecommenderModel
from ..nn import eval_mode

__all__ = [
    "auc_from_rank",
    "top_k_items",
    "catalog_coverage",
    "average_recommendation_popularity",
]


def auc_from_rank(rank: int, num_candidates: int) -> float:
    """AUC of one ranking task with a single positive.

    ``rank`` is the 0-based position of the positive among ``num_candidates``
    scored items; AUC is the fraction of the ``num_candidates - 1`` negatives
    ranked below it.
    """
    if num_candidates < 2:
        raise ValueError("need at least two candidates (one positive, one negative)")
    if not 0 <= rank < num_candidates:
        raise ValueError("rank must lie inside the candidate list")
    negatives = num_candidates - 1
    return float((negatives - rank) / negatives)


def top_k_items(
    model: RecommenderModel,
    user: int,
    k: int,
    num_items: int,
    exclude: Optional[Set[int]] = None,
) -> np.ndarray:
    """The model's top-``k`` item IDs for ``user`` over the full catalog."""
    if k < 1:
        raise ValueError("k must be positive")
    candidates = np.arange(num_items, dtype=np.int64)
    if exclude:
        mask = np.ones(num_items, dtype=bool)
        mask[list(exclude)] = False
        candidates = candidates[mask]
    scores = np.asarray(model.rank_scores(user, candidates), dtype=np.float64)
    k = min(k, candidates.size)
    order = np.argpartition(-scores, k - 1)[:k]
    order = order[np.argsort(-scores[order])]
    return candidates[order]


def catalog_coverage(
    model: RecommenderModel,
    users: Iterable[int],
    num_items: int,
    k: int = 10,
    exclude_per_user: Optional[Dict[int, Set[int]]] = None,
) -> float:
    """Fraction of the catalog recommended to at least one user in top-``k``."""
    recommended: Set[int] = set()
    with eval_mode(model):
        model.prepare_for_evaluation()
        for user in users:
            exclude = exclude_per_user.get(user) if exclude_per_user else None
            recommended.update(int(i) for i in top_k_items(model, int(user), k, num_items, exclude))
    if num_items == 0:
        return 0.0
    return len(recommended) / num_items


def average_recommendation_popularity(
    model: RecommenderModel,
    users: Iterable[int],
    train_dataset: GroupBuyingDataset,
    k: int = 10,
) -> float:
    """Mean training popularity of the items in the users' top-``k`` lists.

    High values relative to the catalog's mean popularity indicate the
    model mostly re-recommends already popular group-buying deals.
    """
    counts = np.zeros(train_dataset.num_items, dtype=np.float64)
    for behavior in train_dataset.behaviors:
        counts[behavior.item] += 1.0 + len(behavior.participants)

    popularity_values = []
    with eval_mode(model):
        model.prepare_for_evaluation()
        for user in users:
            items = top_k_items(model, int(user), k, train_dataset.num_items)
            popularity_values.append(counts[items].mean())
    if not popularity_values:
        return 0.0
    return float(np.mean(popularity_values))
