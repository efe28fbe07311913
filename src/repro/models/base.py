"""Common interface for every recommender in the reproduction.

The trainer and the evaluator only rely on this interface:

* ``data_mode``     — which batch format the model consumes (pure user-item
  interactions, group-buying behaviors, or fixed groups);
* ``batch_loss``    — differentiable loss for one mini-batch;
* ``compute_scoring_factors`` — the one score definition of an
  inner-product model: a ``(user_factors, item_factors)`` pair whose inner
  products are the model's scores (GBGCN's Eq. 9 blend folds into one such
  pair, :func:`repro.core.prediction.role_weighted_factors`);
* ``rank_scores``   — gradient-free scores for one user over a candidate
  item array (used by the leave-one-out protocol);
* ``score_batch`` / ``score_all_items`` — gradient-free scores for a
  *block* of users at once (used by the batched full-ranking evaluator and
  the serving layer).  For a model with scoring factors the base class
  derives ``score_batch``, ``rank_scores`` and ``scoring_factors`` from the
  cached pair, so dense serving, retrieval rescoring and both evaluator
  paths share one formula; models without factors (NCF, ItemKNN, AGREE)
  implement ``rank_scores`` and, optionally, ``score_batch``.
  ``item_ids=None`` means the whole catalog: item tables are then read in
  place through :func:`item_rows` instead of being gathered row by row;
* ``prepare_for_evaluation`` / ``invalidate_cache`` — cache the factor pair
  (propagating graph models once per evaluation pass instead of once per
  scored user) and drop it after the parameters change.  That cache is the
  only freshness state serving reads: the trainer's epochs and
  ``load_state_dict`` drop it, and the next reader recomputes the pair;
* ``state_dict`` / ``load_state_dict`` — the full serialization contract
  used by the artifact layer (:mod:`repro.persist`): trainable parameters
  plus any non-parameter state a model scores with (``extra_state`` /
  ``load_extra_state`` overrides, e.g. ItemKNN's similarity matrix), keyed
  so one flat ``{name: array}`` dict round-trips the whole model.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from ..autograd import Tensor, no_grad
from ..nn import Module, l2_regularization

__all__ = ["DataMode", "RecommenderModel", "EXTRA_STATE_PREFIX", "item_rows"]

#: Key prefix separating non-parameter state (ItemKNN similarity matrices,
#: ItemPop counts, ...) from trainable parameters inside ``state_dict``.
EXTRA_STATE_PREFIX = "__extra__/"


def item_rows(table: np.ndarray, item_ids: Optional[np.ndarray]) -> np.ndarray:
    """The rows of an item-indexed ``table`` for ``item_ids``.

    ``None`` stands for every item in ID order and returns ``table`` itself:
    full-catalog scoring multiplies against the table in place instead of
    gathering a copy of it, with bitwise the same product.
    """
    if item_ids is None:
        return table
    return table[np.asarray(item_ids, dtype=np.int64)]


class DataMode(str, enum.Enum):
    """Which training-data format a model consumes."""

    #: Flattened user-item pairs, initiator interactions only (``MF(oi)``).
    INTERACTIONS_OI = "interactions_oi"
    #: Flattened user-item pairs, initiator + participant interactions.
    INTERACTIONS_BOTH = "interactions_both"
    #: Raw group-buying behaviors (GBMF, GBGCN).
    GROUP_BUYING = "group_buying"
    #: Fixed groups derived from behaviors (AGREE, SIGR).
    FIXED_GROUPS = "fixed_groups"


class RecommenderModel(Module):
    """Base class for all models in :mod:`repro.models` and :mod:`repro.core`."""

    #: Overridden by subclasses.
    data_mode: DataMode = DataMode.INTERACTIONS_BOTH

    def __init__(self, num_users: int, num_items: int, l2_weight: float = 0.0) -> None:
        super().__init__()
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = num_users
        self.num_items = num_items
        self.l2_weight = l2_weight

    # ------------------------------------------------------------------
    # Training interface
    # ------------------------------------------------------------------
    def batch_loss(self, batch) -> Tensor:
        """Differentiable loss of one mini-batch (format set by ``data_mode``)."""
        raise NotImplementedError

    def regularization(self, tensors: Optional[Iterable[Tensor]] = None) -> Tensor:
        """L2 penalty over ``tensors`` (default: all parameters)."""
        if self.l2_weight == 0.0:
            return Tensor(0.0)
        return l2_regularization(tensors if tensors is not None else self.parameters(), self.l2_weight)

    # ------------------------------------------------------------------
    # Evaluation interface
    # ------------------------------------------------------------------
    #: The cached :meth:`compute_scoring_factors` pair; ``None`` until
    #: prepared and after :meth:`invalidate_cache`.
    _eval_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
    #: How many pairs :meth:`scoring_factors` has computed.  A pair may hold
    #: the live embedding tables, which training updates in place, so the
    #: arrays alone cannot tell a trained pair from the old one; caches
    #: derived from the factors (the retrieval cell table) key on this too.
    factor_version: int = 0

    def compute_scoring_factors(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """This model's score as one inner product, from the current parameters.

        Inner-product models return a ``(user_factors, item_factors)`` pair
        of dense float64 arrays: the score of item ``i`` for user ``u`` is
        ``user_factors[u] @ item_factors[i]``.  This hook is the model's
        only score definition; the base class caches its result and derives
        :meth:`score_batch`, :meth:`rank_scores` and
        :meth:`scoring_factors` from it.  Models with a non-linear score
        (NCF's MLP, ItemKNN's sparse neighbourhood, attention models) keep
        the default ``None`` and implement :meth:`rank_scores` themselves.
        """
        return None

    def prepare_for_evaluation(self) -> None:
        """Recompute and cache the scoring factors."""
        self._eval_cache = None
        self.scoring_factors()

    def invalidate_cache(self) -> None:
        """Drop evaluation caches after parameters changed."""
        self._eval_cache = None

    def scoring_factors(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The cached ``(user_factors, item_factors)`` pair, or ``None``.

        ``score_batch(users, items)`` equals
        ``user_factors[users] @ item_factors[items].T`` by construction —
        it is that product.  The serving layer builds approximate-
        nearest-neighbour retrieval indexes (:mod:`repro.serving.retrieval`)
        over ``item_factors``, so top-k requests can shortlist a few
        percent of the catalog instead of scoring all of it, and rescores
        the shortlist with the same rows and product.  Models without
        factors return ``None`` without computing anything, and the serving
        layer falls back to exact brute-force scoring for them.
        """
        if self._eval_cache is None:
            # Bumped before the pair is published, so a reader that sees the
            # new pair never pairs it with the previous version.
            self.factor_version += 1
            with no_grad():
                self._eval_cache = self.compute_scoring_factors()
        return self._eval_cache

    def rank_scores(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        """Scores of ``item_ids`` for ``user`` as a plain NumPy array.

        For a model with scoring factors this is row 0 of a one-user
        :meth:`score_batch`; models without factors override it.
        """
        if self.scoring_factors() is None:
            raise NotImplementedError(f"{self.name} has no scoring factors and no rank_scores")
        return self.score_batch(np.asarray([user], dtype=np.int64), item_ids)[0]

    def score_batch(self, users: np.ndarray, item_ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Score a block of users against a block of items.

        Returns a ``(len(users), len(item_ids))`` float64 array where row
        ``i`` holds the scores of ``item_ids`` for ``users[i]``.
        ``item_ids=None`` means every item in ID order: the item factors
        are read in place through :func:`item_rows` rather than gathered,
        and the bytes equal those of
        ``score_batch(users, np.arange(num_items))``.  For a model with
        scoring factors the block is ``user_factors[users] @
        item_factors[item_ids].T``; otherwise the base implementation loops
        over ``rank_scores`` so any model is batchable.

        The factor product is a new array the caller may write.  An
        override may return a read-only view or a view of an array the
        model keeps; copy before mutating such a result in place.
        """
        users = np.asarray(users, dtype=np.int64)
        factors = self.scoring_factors()
        if factors is not None:
            user_factors, item_factors = factors
            return user_factors[users] @ item_rows(item_factors, item_ids).T
        if item_ids is None:
            item_ids = np.arange(self.num_items, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if users.size == 0:
            return np.zeros((0, item_ids.size), dtype=np.float64)
        return np.stack(
            [np.asarray(self.rank_scores(int(user), item_ids), dtype=np.float64) for user in users]
        )

    def score_all_items(self, users: np.ndarray) -> np.ndarray:
        """Scores of every item in the catalog for a block of users.

        The whole-catalog case of :meth:`score_batch` (``item_ids=None``):
        no item table is copied, and the bytes equal those of
        ``score_batch(users, np.arange(num_items))``.  Models never
        override this method.
        """
        return self.score_batch(users)

    # ------------------------------------------------------------------
    # Serialization contract (used by repro.persist)
    # ------------------------------------------------------------------
    #: Registry identity attached by ``build_model`` so ``save_model`` can
    #: write a self-describing artifact without extra arguments.  The dataset
    #: is kept by reference; its schema fingerprint is hashed lazily at save
    #: time (and cached on the dataset), so building models costs nothing.
    _registry_name: Optional[str] = None
    _registry_settings: Optional[Any] = None
    _artifact_dataset: Optional[Any] = None

    def bind_artifact_metadata(self, registry_name: str, settings: Any, dataset: Any) -> None:
        """Record how this model was built (registry name, settings, dataset)."""
        self._registry_name = registry_name
        self._registry_settings = settings
        self._artifact_dataset = dataset

    def extra_state(self) -> Dict[str, np.ndarray]:
        """Non-parameter arrays the model scores with (override per model).

        Models whose state lives outside :class:`~repro.nn.module.Parameter`
        (ItemKNN's similarity matrix, ItemPop's popularity counts) return it
        here as a flat ``{key: ndarray}`` dict; the base class merges it
        into ``state_dict`` under :data:`EXTRA_STATE_PREFIX` keys.
        """
        return {}

    def extra_state_keys(self):
        """The keys :meth:`extra_state` would return.

        Overridden alongside ``extra_state`` when computing the arrays is
        expensive (ItemKNN's lazy similarity fit), so strict key validation
        during ``load_state_dict`` stays cheap.
        """
        return set(self.extra_state())

    def load_extra_state(self, extra: Dict[str, np.ndarray]) -> None:
        """Restore arrays produced by :meth:`extra_state` (override per model).

        Overrides must validate every array into temporaries and assign only
        after everything checks out, so a failed load never leaves the model
        half-mutated.
        """
        if extra:
            raise KeyError(f"{self.name} has no extra state, got keys {sorted(extra)}")

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = super().state_dict()
        for key, value in self.extra_state().items():
            state[EXTRA_STATE_PREFIX + key] = np.array(value, copy=True, order="C")
        return state

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The full state without snapshot copies, keyed like :meth:`state_dict`.

        Used by the artifact writer, which normalizes layout itself and only
        reads the arrays for the duration of one ``np.savez`` call; anyone
        holding the result longer must treat it as read-only or snapshot
        with :meth:`state_dict`.
        """
        state = {name: parameter.data for name, parameter in self.named_parameters()}
        for key, value in self.extra_state().items():
            state[EXTRA_STATE_PREFIX + key] = value
        return state

    def load_state_dict(
        self, state: Dict[str, np.ndarray], strict: bool = True, copy: bool = True
    ) -> None:
        parameters = {k: v for k, v in state.items() if not k.startswith(EXTRA_STATE_PREFIX)}
        extra = {
            k[len(EXTRA_STATE_PREFIX):]: v for k, v in state.items() if k.startswith(EXTRA_STATE_PREFIX)
        }
        expected = self.extra_state_keys()
        if strict:
            missing = expected - set(extra)
            unexpected = set(extra) - expected
            if missing or unexpected:
                raise KeyError(
                    f"extra state mismatch for {self.name}: "
                    f"missing={sorted(missing)} unexpected={sorted(unexpected)}"
                )
        # Transactional ordering: validate parameters (no commit), apply the
        # extra state (which itself validates into temporaries before
        # assigning), then commit the parameters — a failure at any point
        # leaves the model exactly as it was.  Copies keep model state from
        # aliasing the caller's arrays (mirroring the parameter path); extra
        # state is always copied, even under copy=False, because models
        # mutate it (e.g. cached similarity rows) while mmap-bound
        # *parameters* are only ever read.  With strict=False a partial
        # extra set is skipped entirely — like missing parameters, the
        # current values are left in place.
        converted = self._validated_state(parameters, strict=strict, copy=copy)
        applicable = {k: np.array(v, copy=True) for k, v in extra.items() if k in expected}
        if expected and expected.issubset(applicable):
            self.load_extra_state(applicable)
        self._assign_state(converted)
        self.invalidate_cache()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.name}(users={self.num_users}, items={self.num_items}, params={self.num_parameters()})"
