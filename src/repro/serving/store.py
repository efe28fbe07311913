"""The :class:`EmbeddingStore`: cached scoring state for online serving.

Graph recommenders amortize inference by propagating embeddings once and
then answering every request with cheap matrix products over the cached
result (``model.prepare_for_evaluation`` / ``model.score_batch``).  The
store makes that lifecycle explicit and safe:

* :meth:`EmbeddingStore.refresh` runs the model's propagation once and
  bumps a monotonically increasing ``version``;
* :meth:`EmbeddingStore.invalidate` drops the cached state after the
  model's parameters change (a training step), so the next request
  re-propagates instead of serving stale scores;
* :meth:`EmbeddingStore.callback` returns a training callback that wires
  invalidation into the :class:`~repro.training.trainer.Trainer` loop and
  refreshes once when training ends;
* :meth:`EmbeddingStore.from_artifact` cold-starts the whole lifecycle
  from a ``repro.persist`` model artifact on disk — train once, serve
  anywhere, no retraining in the serving process.

Score requests (:meth:`scores` / :meth:`score_all_items`) transparently
refresh a stale store, so callers never observe pre-training embeddings.
"""

from __future__ import annotations

import numpy as np

from ..models.base import RecommenderModel
from ..nn import eval_mode
from ..training.callbacks import Callback

__all__ = ["EmbeddingStore", "EmbeddingStoreCallback"]


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
    1
    >>> store.score_all_items(np.asarray([0, 1])).shape
    (2, 20)
    >>> store.invalidate()          # after a parameter update
    >>> store.is_fresh              # next request re-propagates transparently
    False
    """

    def __init__(self, model: RecommenderModel, auto_refresh: bool = True) -> None:
        self.model = model
        self.auto_refresh = auto_refresh
        #: Number of completed refreshes; bumps on every :meth:`refresh`.
        self.version = 0
        self._fresh = False

    @classmethod
    def from_artifact(cls, path, train_dataset, auto_refresh: bool = True) -> "EmbeddingStore":
        """Cold-start a serving store from a model artifact on disk.

        Rebuilds the model with ``repro.persist.load_model`` (verifying the
        dataset-schema fingerprint), propagates its embeddings once, and
        returns a fresh store — top-k serving without any in-process
        training.
        """
        from ..persist import load_model

        store = cls(load_model(path, train_dataset), auto_refresh=auto_refresh)
        store.refresh()
        return store

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_fresh(self) -> bool:
        """Whether cached embeddings reflect the current parameters."""
        return self._fresh

    def refresh(self) -> int:
        """Re-propagate the model's embeddings; returns the new version."""
        with eval_mode(self.model):
            self.model.prepare_for_evaluation()
        self._fresh = True
        self.version += 1
        return self.version

    def invalidate(self) -> None:
        """Drop cached embeddings (call after every parameter update)."""
        self.model.invalidate_cache()
        self._fresh = False

    def _ensure_fresh(self) -> None:
        if self._fresh:
            return
        if not self.auto_refresh:
            raise RuntimeError(
                "EmbeddingStore is stale and auto_refresh is disabled; call refresh()"
            )
        self.refresh()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def scores(self, users: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
        """``(len(users), len(item_ids))`` score block from cached state.

        May be a read-only view for some models (e.g. ItemPop broadcasts one
        popularity row across users) — copy before mutating in place.
        """
        self._ensure_fresh()
        with eval_mode(self.model):
            return np.asarray(self.model.score_batch(users, item_ids), dtype=np.float64)

    def score_all_items(self, users: np.ndarray) -> np.ndarray:
        """Full-catalog score block for a batch of users (may be a read-only
        view, see :meth:`scores`)."""
        self._ensure_fresh()
        with eval_mode(self.model):
            return np.asarray(self.model.score_all_items(users), dtype=np.float64)

    def scoring_factors(self):
        """The model's ``(user_factors, item_factors)`` over *fresh* state.

        ``None`` when the model's score is not an inner product (see
        :meth:`~repro.models.base.RecommenderModel.scoring_factors`).
        Refreshes a stale store first, so the factors always reflect the
        current parameters.  The retrieval layer keys its cell-ordered
        table on the item array and :attr:`version`
        (:meth:`~repro.serving.retrieval.RetrievalIndex.cell_table`): a
        model may hand out its live embedding table, which training updates
        in place, so only the refresh tells the rows changed.
        """
        self._ensure_fresh()
        with eval_mode(self.model):
            return self.model.scoring_factors()

    # ------------------------------------------------------------------
    # Training integration
    # ------------------------------------------------------------------
    def callback(self, refresh_on_train_end: bool = True) -> "EmbeddingStoreCallback":
        """A trainer callback keeping this store consistent during training."""
        return EmbeddingStoreCallback(self, refresh_on_train_end=refresh_on_train_end)

    def __repr__(self) -> str:
        state = "fresh" if self._fresh else "stale"
        return f"EmbeddingStore(model={self.model.name}, version={self.version}, {state})"


class EmbeddingStoreCallback(Callback):
    """Invalidates a store after every epoch; refreshes when training ends."""

    def __init__(self, store: EmbeddingStore, refresh_on_train_end: bool = True) -> None:
        self.store = store
        self.refresh_on_train_end = refresh_on_train_end

    def on_epoch_end(self, trainer, record) -> None:
        self.store.invalidate()

    def on_train_end(self, trainer, history) -> None:
        # ``Trainer.restore_best`` may have swapped parameters after the last
        # epoch, so the cache must be rebuilt regardless of epoch hooks.
        self.store.invalidate()
        if self.refresh_on_train_end:
            self.store.refresh()
