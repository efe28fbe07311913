"""Non-personalized popularity baseline.

``ItemPop`` ranks every candidate by its training interaction count.  It is
the standard sanity-check baseline in implicit-feedback evaluation: any
personalized model worth reporting must beat it, and the gap quantifies how
much of a metric is explained by popularity bias in the sampled-negative
protocol.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

import numpy as np

from ..autograd import Tensor
from ..data.converters import InteractionConversion
from .base import DataMode, RecommenderModel

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch

__all__ = ["ItemPopularity"]


class ItemPopularity(RecommenderModel):
    """Rank items by their (optionally smoothed) training popularity."""

    data_mode = DataMode.INTERACTIONS_BOTH

    def __init__(
        self,
        num_users: int,
        num_items: int,
        interactions: InteractionConversion,
        smoothing: float = 1.0,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=0.0)
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        counts = np.zeros(num_items, dtype=np.float64)
        items = interactions.pairs[:, 1] if interactions.pairs.size else np.zeros(0, dtype=np.int64)
        np.add.at(counts, items, 1.0)
        #: Log-scaled popularity scores; the log keeps blockbuster items from
        #: dominating tie-breaking noise among the long tail.
        self.scores = np.log(counts + smoothing)

    def batch_loss(self, batch: "InteractionBatch") -> Tensor:
        # The model has no trainable parameters; training it is a no-op.
        return Tensor(0.0)

    def compute_scoring_factors(self):
        # Popularity is user-independent: a constant 1-dim user factor
        # against the popularity column reproduces every score.
        return np.ones((self.num_users, 1), dtype=np.float64), self.scores.reshape(-1, 1)

    # ------------------------------------------------------------------
    # Serialization: the popularity vector is the entire model.
    # ------------------------------------------------------------------
    def extra_state(self) -> Dict[str, np.ndarray]:
        return {"scores": self.scores}

    def load_extra_state(self, extra: Dict[str, np.ndarray]) -> None:
        scores = np.asarray(extra["scores"], dtype=np.float64)
        if scores.shape != (self.num_items,):
            raise ValueError(
                f"popularity scores shape {scores.shape} does not match ({self.num_items},)"
            )
        self.scores = scores

    @property
    def name(self) -> str:
        return "ItemPop"
