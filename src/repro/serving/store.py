"""The :class:`EmbeddingStore`: cached scoring state for online serving.

Graph recommenders amortize inference by propagating embeddings once and
then answering every request with cheap matrix products over the cached
result.  The cache is the model's own factor pair
(:meth:`~repro.models.base.RecommenderModel.scoring_factors`), and it is
the only freshness state: every :class:`~repro.training.trainer.Trainer`
epoch and every ``load_state_dict`` drop it, and the next request
recomputes it, so callers never observe pre-training embeddings and the
trainer needs no serving callback.  The store adds the serving lifecycle
around it:

* :meth:`EmbeddingStore.refresh` runs the model's propagation now, off
  the request path;
* :meth:`EmbeddingStore.from_artifact` cold-starts the whole lifecycle
  from a ``repro.persist`` model artifact on disk — train once, serve
  anywhere, no retraining in the serving process;
* every read runs the model in eval mode.
"""

from __future__ import annotations

import numpy as np

from ..models.base import RecommenderModel
from ..nn import eval_mode

__all__ = ["EmbeddingStore"]


class EmbeddingStore:
    """Owns the propagate-once / serve-many lifecycle of one model.

    Usage — refresh once, then answer any number of score requests from
    the cached propagated embeddings:

    >>> import numpy as np
    >>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
    >>> from repro.models import build_model
    >>> from repro.serving import EmbeddingStore
    >>> split = leave_one_out_split(generate_dataset(
    ...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
    >>> store = EmbeddingStore(build_model("GBGCN", split.train))
    >>> store.refresh()
    >>> store.score_all_items(np.asarray([0, 1])).shape
    (2, 20)
    """

    def __init__(self, model: RecommenderModel) -> None:
        self.model = model

    @classmethod
    def from_artifact(cls, path, train_dataset) -> "EmbeddingStore":
        """Cold-start a serving store from a model artifact on disk.

        Rebuilds the model with ``repro.persist.load_model`` (verifying the
        dataset-schema fingerprint), propagates its embeddings once, and
        returns the store — top-k serving without any in-process training.
        """
        from ..persist import load_model

        store = cls(load_model(path, train_dataset))
        store.refresh()
        return store

    def refresh(self) -> None:
        """Recompute the model's cached factor pair now (one propagation)."""
        with eval_mode(self.model):
            self.model.prepare_for_evaluation()

    def scores(self, users: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
        """``(len(users), len(item_ids))`` score block from cached state.

        A model may return a read-only view or a view of an array it keeps
        — copy before mutating in place.
        """
        with eval_mode(self.model):
            return np.asarray(self.model.score_batch(users, item_ids), dtype=np.float64)

    def score_all_items(self, users: np.ndarray) -> np.ndarray:
        """Full-catalog score block for a batch of users (may be a view, see
        :meth:`scores`)."""
        with eval_mode(self.model):
            return np.asarray(self.model.score_all_items(users), dtype=np.float64)

    def scoring_factors(self):
        """The model's ``(user_factors, item_factors)`` over its current parameters.

        ``None`` when the model's score is not an inner product (see
        :meth:`~repro.models.base.RecommenderModel.scoring_factors`).  A
        dropped cache is recomputed first.  The retrieval layer keys its
        cell-ordered table on the item array and on the model's
        :attr:`~repro.models.base.RecommenderModel.factor_version`
        (:meth:`~repro.serving.retrieval.RetrievalIndex.cell_table`): a
        model may hand out its live embedding table, which training updates
        in place, so only the recomputation tells the rows changed.
        """
        with eval_mode(self.model):
            return self.model.scoring_factors()
