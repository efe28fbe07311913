"""Top-K recommendation serving over an :class:`EmbeddingStore`.

The online scenario GBGCN feeds (PAPER.md, Eq. 9) is "which items should
this initiator launch a group for next?".  :class:`TopKRecommender` answers
it for whole batches of users at once, through one of two paths:

* **dense** (default) — one :meth:`EmbeddingStore.score_all_items` call
  produces the ``(users, items)`` score block from the model's cached
  factor pair without copying any item table, each user's observed items
  are set to ``-inf`` in place at the positions the observed matrix's
  ``indptr``/``indices`` list (:func:`~repro.data.dataset.observed_positions`),
  and ``np.argpartition`` selects the top ``k`` in O(items) per user;
* **retrieval** (``retriever=``) — a
  :class:`~repro.serving.retrieval.RetrievalIndex` probes a few cells per
  user (IVF over the model's item factors; ~5% of the catalog, ~4.8k
  candidates at 100k items), and only those cells are rescored: each is
  one contiguous slice of the index's cell-ordered copy of the item
  factors, multiplied by the user's factor row, so no item row is
  gathered.  Observed items are masked at their cell-order rows, and the
  winners map back to item IDs through ``cell_items``.  At 100k–1M items
  this replaces the O(items) wall with O(sqrt(items) · nprobe) work per
  user; models without scoring factors transparently fall back to the
  dense path.

Input is validated at this boundary: user IDs outside ``[0, num_users)``
raise :class:`~repro.serving.errors.ServingError` *before* any array is
indexed — a negative ID would otherwise wrap around (numpy semantics) and
silently serve another user's list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..data.dataset import GroupBuyingDataset, observed_positions
from .errors import ServingError, validate_user_ids
from .retrieval import RetrievalIndex
from .store import EmbeddingStore

__all__ = ["TopKResult", "TopKRecommender"]


def _truthy_entries(observed: sp.spmatrix) -> sp.csr_matrix:
    """``observed`` as a CSR whose stored entries are exactly its truthy cells.

    The exclusion mask reads only the CSR structure, so an explicit zero
    (a stored ``False``) or duplicates summing to zero would otherwise mask
    an item that ``observed.toarray()`` leaves unmasked.  A matrix that is
    already canonical with no stored zeros is returned as is (a dataset's
    :meth:`~repro.data.dataset.GroupBuyingDataset.observed_matrix` is
    shared by every recommender over it); anything else is fixed on a
    copy, never on the caller's matrix.
    """
    observed = observed.tocsr()
    if observed.has_canonical_format and np.all(observed.data):
        return observed
    observed = observed.copy()
    observed.sum_duplicates()
    observed.eliminate_zeros()
    return observed


@dataclass(frozen=True)
class TopKResult:
    """Aligned per-user recommendation lists.

    ``items[i, j]`` is the j-th best item for ``users[i]``; padded with -1
    (and ``-inf`` score) when fewer than ``k`` items are recommendable —
    including when the caller's ``k`` exceeds the catalog size, so
    ``items.shape[1]`` always equals the requested ``k``.
    """

    users: np.ndarray
    items: np.ndarray
    scores: np.ndarray

    def for_user(self, user: int) -> np.ndarray:
        """Recommended items of one user (padding stripped)."""
        row = np.flatnonzero(self.users == user)
        if row.size == 0:
            raise KeyError(f"user {user} is not part of this result")
        items = self.items[int(row[0])]
        return items[items >= 0]


class TopKRecommender:
    """Batched top-``k`` item recommendation with observed-item exclusion.

    Usage — wrap any model's :class:`EmbeddingStore` and ask for lists:

    >>> import numpy as np
    >>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
    >>> from repro.models import build_model
    >>> from repro.serving import EmbeddingStore, TopKRecommender
    >>> split = leave_one_out_split(generate_dataset(
    ...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
    >>> store = EmbeddingStore(build_model("MF", split.train))
    >>> recommender = TopKRecommender(store, k=5, dataset=split.full)
    >>> result = recommender.recommend(np.asarray([0, 1, 2]))
    >>> result.items.shape
    (3, 5)
    >>> len(recommender.recommend_user(0))  # single-user convenience wrapper
    5

    With a retrieval index, rankings are produced from a shortlist instead
    of the full catalog (identical here, because every cell is probed):

    >>> from repro.serving.retrieval import build_index_for_model
    >>> index = build_index_for_model(store.model, num_cells=4, nprobe=4)
    >>> fast = TopKRecommender(store, k=5, dataset=split.full, retriever=index)
    >>> bool(np.array_equal(fast.recommend(np.arange(3)).items, result.items))
    True

    Requests are validated: IDs outside ``[0, num_users)`` raise a typed
    :class:`~repro.serving.errors.ServingError` instead of wrapping around
    or crashing deep in the score path:

    >>> recommender.recommend(np.asarray([-1]))
    Traceback (most recent call last):
        ...
    repro.serving.errors.ServingError: invalid user IDs in request: negative user IDs [-1] (numpy indexing would wrap around and serve another user's rows); valid range is [0, 40)
    """

    def __init__(
        self,
        store: EmbeddingStore,
        k: int = 10,
        exclude_observed: bool = True,
        dataset: Optional[GroupBuyingDataset] = None,
        batch_size: int = 256,
        observed_matrix: Optional[sp.csr_matrix] = None,
        retriever: Optional[RetrievalIndex] = None,
    ) -> None:
        """``dataset`` supplies the observed interactions to exclude (its
        cached :meth:`~repro.data.dataset.GroupBuyingDataset.observed_matrix`,
        shared by every recommender over that dataset); it is required when
        ``exclude_observed`` is set.  ``batch_size`` bounds the dense
        ``(users, items)`` score block held in memory at once.  An
        ``observed_matrix`` given instead names the observed items by its
        truthy entries; explicit zeros (stored ``False``) mask nothing.
        ``retriever`` switches the recommender to shortlist-then-rescore
        mode (see the module docstring); it must index exactly the store's
        item catalog."""
        if k < 1:
            raise ValueError("k must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if exclude_observed and dataset is None and observed_matrix is None:
            raise ValueError("exclude_observed=True requires a dataset (or an observed_matrix)")
        if retriever is not None and retriever.num_items != store.model.num_items:
            raise ValueError(
                f"retriever indexes {retriever.num_items} items but the model serves "
                f"{store.model.num_items}; rebuild the index from this model's factors"
            )
        self.store = store
        self.k = k
        self.batch_size = batch_size
        self.exclude_observed = exclude_observed
        self.retriever = retriever
        self._observed_matrix: Optional[sp.csr_matrix] = None
        if exclude_observed:
            if observed_matrix is None:
                observed_matrix = dataset.observed_matrix()
            self._observed_matrix = _truthy_entries(observed_matrix)

    def recommend(self, users: np.ndarray, k: Optional[int] = None) -> TopKResult:
        """Top-``k`` items for every user in ``users``.

        Users are scored in ``batch_size`` blocks so only one dense
        ``(batch_size, items)`` score matrix is alive at a time; each block
        keeps just its ``k`` winners.  The result always has exactly ``k``
        columns: when fewer than ``k`` items are recommendable (small
        catalog, or the user observed most of it) the tail is padded with
        ``-1`` items and ``-inf`` scores, per the :class:`TopKResult`
        contract — the requested shape is never silently shrunk.

        User IDs outside ``[0, num_users)`` raise
        :class:`~repro.serving.errors.ServingError` before anything is
        scored.
        """
        users = validate_user_ids(users, self.store.model.num_users)
        k = self.k if k is None else k
        if k < 1:
            raise ServingError(f"k must be positive, got {k}")
        select_k = min(k, self.store.model.num_items)
        # The model's cached factor pair (None without factors: dense path).
        factors = None if self.retriever is None else self.store.scoring_factors()
        item_blocks = []
        score_blocks = []
        for start in range(0, users.size, self.batch_size):
            block = users[start : start + self.batch_size]
            if factors is not None:
                top_items, top_scores = self._top_k_block_retrieval(block, select_k, factors)
            else:
                top_items, top_scores = self._top_k_block(block, select_k)
            item_blocks.append(top_items)
            score_blocks.append(top_scores)
        if not item_blocks:
            items = np.zeros((0, k), dtype=np.int64)
            return TopKResult(users=users, items=items, scores=items.astype(np.float64))
        items = np.vstack(item_blocks)
        scores = np.vstack(score_blocks)
        if select_k < k:
            # Pad to the requested width: the caller asked for k columns and
            # gets k columns, with the documented -1 / -inf filler.
            pad = ((0, 0), (0, k - select_k))
            items = np.pad(items, pad, constant_values=-1)
            scores = np.pad(scores, pad, constant_values=-np.inf)
        return TopKResult(users=users, items=items, scores=scores)

    # ------------------------------------------------------------------
    # Dense path: one (batch, num_items) block
    # ------------------------------------------------------------------
    def _top_k_block(self, users: np.ndarray, k: int) -> tuple:
        scores = self.store.score_all_items(users)
        if self._observed_matrix is not None:
            rows, items = observed_positions(self._observed_matrix, users)
            if rows.size:
                if not (scores.flags.writeable and scores.flags.owndata):
                    # A read-only view or a view of an array the model
                    # keeps: mask a private copy.
                    scores = scores.copy()
                scores[rows, items] = -np.inf

        # Partial selection of the k best columns per row, then an exact
        # sort of just those k.
        top_unordered = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        row_index = np.arange(users.size)[:, None]
        order = np.argsort(-scores[row_index, top_unordered], axis=1, kind="stable")
        top_items = top_unordered[row_index, order]
        top_scores = scores[row_index, top_items]

        # Mask out -inf slots (users whose unobserved catalog is < k).
        invalid = ~np.isfinite(top_scores)
        top_items = np.where(invalid, -1, top_items)
        return top_items, top_scores

    # ------------------------------------------------------------------
    # Retrieval path: IVF probe + exact rescore of the probed cells
    # ------------------------------------------------------------------
    def _top_k_block_retrieval(self, users: np.ndarray, k: int, factors: tuple) -> tuple:
        user_factors, item_factors = factors
        index = self.retriever
        table = index.cell_table(item_factors, self.store.model.factor_version)
        queries = user_factors[users]
        probed = index.probe(queries)
        top_items = np.full((users.size, k), -1, dtype=np.int64)
        top_scores = np.full((users.size, k), -np.inf, dtype=np.float64)
        if self._observed_matrix is not None:
            rows, observed = observed_positions(self._observed_matrix, users)
            bounds = np.searchsorted(rows, np.arange(users.size + 1))
        for row, (query, cells) in enumerate(zip(queries, probed)):
            # The probed cells' table slices, scored back to back in probe
            # order: the j-th cell fills the buffer up to stops[j], and its
            # position p holds table row p + shift[j].
            starts, ends = index.cell_offsets[cells], index.cell_offsets[cells + 1]
            stops = np.cumsum(ends - starts)
            shift = ends - stops
            scores = np.empty(int(stops[-1]), dtype=np.float64)
            for start, end, offset in zip(starts.tolist(), ends.tolist(), shift.tolist()):
                np.dot(table[start:end], query, out=scores[start - offset : end - offset])
            if self._observed_matrix is not None and bounds[row] < bounds[row + 1]:
                # Observed items' table rows; only those in a probed cell
                # have a buffer position to mask.
                seen = index.cell_rows[observed[bounds[row] : bounds[row + 1]]]
                hit, cell = np.nonzero((seen[:, None] >= starts) & (seen[:, None] < ends))
                scores[seen[hit] - shift[cell]] = -np.inf
            take = min(k, scores.size)
            if take < scores.size:
                best = np.argpartition(-scores, take - 1)[:take]
            else:
                best = np.arange(scores.size)
            chosen = best[np.argsort(-scores[best], kind="stable")]
            chosen_scores = scores[chosen]
            chosen_rows = chosen + shift[np.searchsorted(stops, chosen, side="right")]
            # -inf slots (observed items) pad like the dense path's.
            top_items[row, :take] = np.where(
                np.isfinite(chosen_scores), index.cell_items[chosen_rows], -1
            )
            top_scores[row, :take] = chosen_scores
        return top_items, top_scores

    def recommend_user(self, user: int, k: Optional[int] = None) -> np.ndarray:
        """Convenience wrapper: recommended item IDs for a single user."""
        result = self.recommend(np.asarray([user], dtype=np.int64), k=k)
        return result.for_user(user)
