"""Embedding analyses behind Figures 5 and 6 of the paper.

Figure 5 plots, per entity, the probability density of the cosine
similarity between its initiator-view embedding and its participant-view
embedding — once for the in-view propagation outputs and once for the
cross-view propagation outputs.  Figure 6 projects the final embeddings of
sampled users and items from both views with t-SNE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..autograd import cosine_similarity, no_grad
from ..core.gbgcn import GBGCN
from ..utils.rng import make_rng
from .tsne import TSNEConfig, tsne_embed

__all__ = [
    "SimilarityDistribution",
    "cross_view_similarity",
    "gbgcn_view_similarities",
    "tsne_projection",
]


@dataclass
class SimilarityDistribution:
    """Cosine similarities between two embedding sets plus a density estimate."""

    similarities: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.similarities)) if self.similarities.size else 0.0

    @property
    def std(self) -> float:
        return float(np.std(self.similarities)) if self.similarities.size else 0.0

    def pdf(self, grid_points: int = 200) -> Dict[str, np.ndarray]:
        """Kernel-density estimate of the similarity distribution.

        Returns a dict with ``x`` (grid) and ``density`` arrays, the series
        plotted in Figure 5.  Falls back to a histogram density if the
        similarities are (numerically) constant.
        """
        values = self.similarities
        low, high = float(values.min()), float(values.max())
        if np.isclose(low, high):
            center = low
            x = np.linspace(center - 0.01, center + 0.01, grid_points)
            density = np.zeros_like(x)
            density[np.argmin(np.abs(x - center))] = 1.0
            return {"x": x, "density": density}
        from scipy import stats  # on call only, as in repro.eval.significance

        kde = stats.gaussian_kde(values)
        x = np.linspace(low, high, grid_points)
        return {"x": x, "density": kde(x)}


def cross_view_similarity(first: np.ndarray, second: np.ndarray) -> SimilarityDistribution:
    """Row-wise cosine similarity between two aligned embedding matrices."""
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if first.shape != second.shape:
        raise ValueError("embedding matrices must have the same shape")
    return SimilarityDistribution(similarities=cosine_similarity(first, second, axis=1))


def gbgcn_view_similarities(model: GBGCN) -> Dict[str, SimilarityDistribution]:
    """The four distributions of Figure 5 for a trained GBGCN.

    Keys: ``user_in_view``, ``item_in_view`` (in-view propagation outputs)
    and ``user_cross_view``, ``item_cross_view`` (cross-view outputs, i.e.
    the newly generated part of Eq. 8's concatenation).
    """
    with no_grad():
        in_view = model.in_view_embeddings()
        full = model.propagate()

    in_view_dim = (model.config.num_layers + 1) * model.config.embedding_dim

    # The cross-view output is the second half of the Eq. 8 concatenation.
    user_cross_i = full.user_initiator.data[:, in_view_dim:]
    user_cross_p = full.user_participant.data[:, in_view_dim:]
    item_cross_i = full.item_initiator.data[:, in_view_dim:]
    item_cross_p = full.item_participant.data[:, in_view_dim:]

    return {
        "user_in_view": cross_view_similarity(in_view.user_initiator.data, in_view.user_participant.data),
        "item_in_view": cross_view_similarity(in_view.item_initiator.data, in_view.item_participant.data),
        "user_cross_view": cross_view_similarity(user_cross_i, user_cross_p),
        "item_cross_view": cross_view_similarity(item_cross_i, item_cross_p),
    }


def tsne_projection(
    model: GBGCN,
    num_users: int = 1000,
    num_items: int = 1000,
    config: Optional[TSNEConfig] = None,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Figure 6: 2-D t-SNE of sampled users/items in both views.

    Returns four ``N x 2`` arrays keyed ``user_initiator``,
    ``user_participant``, ``item_initiator`` and ``item_participant``; all
    four embedding sets are projected jointly so the views share one space.
    """
    embeddings = model.final_embeddings()
    rng = make_rng(seed)
    user_count = min(num_users, model.num_users)
    item_count = min(num_items, model.num_items)
    user_sample = rng.choice(model.num_users, size=user_count, replace=False)
    item_sample = rng.choice(model.num_items, size=item_count, replace=False)

    stacked = np.vstack(
        [
            embeddings["user_initiator"][user_sample],
            embeddings["user_participant"][user_sample],
            embeddings["item_initiator"][item_sample],
            embeddings["item_participant"][item_sample],
        ]
    )
    projected = tsne_embed(stacked, config=config)

    boundaries = np.cumsum([user_count, user_count, item_count, item_count])
    return {
        "user_initiator": projected[: boundaries[0]],
        "user_participant": projected[boundaries[0] : boundaries[1]],
        "item_initiator": projected[boundaries[1] : boundaries[2]],
        "item_participant": projected[boundaries[2] : boundaries[3]],
        "user_sample": user_sample,
        "item_sample": item_sample,
    }
