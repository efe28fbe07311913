"""Candidate-generation retrieval: IVF shortlist + exact rescoring.

Brute-force top-k scores a dense ``(batch, num_items)`` block per request;
at the paper's long-tail catalog scale (100k–1M items) that wall is the
first thing to fall over.  :class:`RetrievalIndex` replaces it with the
classic two-stage shape:

1. **probe** — items are partitioned into ``num_cells`` k-means clusters
   over their factor vectors (an IVF — inverted-file — layout, in pure
   numpy).  A query scores only the ``num_cells`` centroids and probes the
   ``nprobe`` best cells (:meth:`RetrievalIndex.probe`); their members are
   the candidates (:meth:`RetrievalIndex.shortlist` lists their IDs):
   ``O(num_cells · dim + shortlist)`` work instead of ``O(num_items · dim)``;
2. **exact rescore** — the index keeps the item factors a second time in
   cell order (:meth:`RetrievalIndex.cell_table`), so each probed cell is
   one contiguous slice of that table, scanned in place as IVF indexes
   scan their inverted lists (Jégou, Douze & Schmid, TPAMI 2011).  The
   slices hold the same rows the model's factor product reads, so the
   final ranking over the shortlisted candidates is what brute force
   would produce for them.  Approximation lives only in which items make
   the shortlist; recall@k vs exact search is tunable via ``nprobe``
   (``tests/serving/test_retrieval.py`` gates recall@10 ≥ 0.95 per model
   on a 40-item catalog probed at 7 of 8 cells).

The index clusters the item half of the model's cached factor pair
(:meth:`~repro.models.base.RecommenderModel.scoring_factors`), and the
rescore multiplies the user half against the same item rows: for an
inner-product model (MF, SocialMF, LightGCN, NGCF, DiffNet, GBMF, SIGR,
GBGCN, GBGCN-pretrain, ItemPop) that pair *is* the score definition, so
the shortlist and the rescore cannot drift apart.  Models without factors
(NCF, ItemKNN, AGREE) transparently fall back to exact brute force.

Index lifecycle: :meth:`RetrievalIndex.build` is deterministic for a given
``(item_factors, seed)``, and the index is derived from the served factors,
never stored: the :class:`~repro.serving.catalog.ModelCatalog` builds it,
and its cell table, during cold start — off the request path when driven
by a :class:`~repro.serving.warmer.CatalogWarmer` — so a hot-swapped
artifact automatically gets a fresh index, and drops the table when the
resident retires.

Usage — exact parity when every cell is probed, approximate below:

>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> items = rng.normal(size=(500, 8))
>>> index = RetrievalIndex.build(items, num_cells=16, nprobe=16, seed=0)
>>> query = rng.normal(size=(1, 8))
>>> shortlist = index.shortlist(query)[0]
>>> sorted(shortlist) == list(range(500))   # nprobe == num_cells: all items
True
>>> narrow = index.shortlist(query, nprobe=2)[0]
>>> bool(0 < narrow.size < 500)
True
>>> exact_best = int(np.argmax(items @ query[0]))
>>> bool(exact_best in narrow)              # the best cell is probed first
True
"""

from __future__ import annotations

import weakref
from typing import List, Optional

import numpy as np

from ..autograd.sparse_grad import coalesce_rows

__all__ = ["RetrievalIndexError", "RetrievalIndex", "build_index_for_model"]

#: Largest k-means training sample — clustering cost stays bounded while
#: the assignment pass still covers every item exactly once.
_TRAIN_SAMPLE = 65536

#: Rows per k-means assignment block.  At 100 cells the float64 affinity
#: block is 1.6 MiB, so it stays in a 2 MiB per-core L2 between the GEMM
#: that writes it and the argmax that reads it; 16384-row blocks stream
#: 12.5 MiB each.  On a 2-core Xeon VM they assigned 100k items 1.3x
#: slower at 100 cells and 300k items 1.9x slower at 1000 cells; blocks of
#: 1024 to 4096 rows ran within a few percent of each other.
_ASSIGN_BLOCK = 2048


class RetrievalIndexError(ValueError):
    """The index cannot be built (bad shapes, out-of-range parameters)."""


def _inverse_permutation(cell_items: np.ndarray) -> np.ndarray:
    """Each item ID's position in ``cell_items``; raises unless it is a permutation.

    ``cell_items`` must hold each ID in ``range(size)`` exactly once.  A
    negative ID would pass through numpy's wrap-around indexing and be
    served as an item ID; an out-of-range or repeated one loses an item.
    """
    num_items = cell_items.size
    if cell_items.ndim != 1:
        raise RetrievalIndexError(f"cell_items must be 1-D, got shape {cell_items.shape}")
    if num_items == 0:
        return np.zeros(0, dtype=np.int64)
    low, high = int(cell_items.min()), int(cell_items.max())
    if low < 0 or high >= num_items:
        raise RetrievalIndexError(
            f"cell_items holds item ID {low if low < 0 else high} outside range({num_items})"
        )
    counts = np.bincount(cell_items, minlength=num_items)
    if counts.max() > 1:
        raise RetrievalIndexError(f"cell_items repeats item ID {int(np.argmax(counts))}")
    rows = np.empty(num_items, dtype=np.int64)
    rows[cell_items] = np.arange(num_items, dtype=np.int64)
    return rows


class RetrievalIndex:
    """IVF-flat index over item factor vectors (pure numpy, exact in-cell).

    ``centroids`` is ``(num_cells, dim)``; ``cell_items`` holds every item
    ID grouped by cell, with ``cell_offsets`` (CSR-style, ``num_cells + 1``
    entries) delimiting each cell's slice; ``cell_rows`` inverts it, so
    ``cell_rows[item]`` is the item's row in cell order.  ``nprobe`` is
    the default number of cells a query probes — the recall/latency dial.
    """

    def __init__(
        self,
        centroids: np.ndarray,
        cell_offsets: np.ndarray,
        cell_items: np.ndarray,
        nprobe: int,
    ) -> None:
        centroids = np.ascontiguousarray(centroids, dtype=np.float64)
        cell_offsets = np.ascontiguousarray(cell_offsets, dtype=np.int64)
        cell_items = np.ascontiguousarray(cell_items, dtype=np.int64)
        if centroids.ndim != 2:
            raise RetrievalIndexError(f"centroids must be 2-D, got shape {centroids.shape}")
        if cell_offsets.ndim != 1 or cell_offsets.size != centroids.shape[0] + 1:
            raise RetrievalIndexError(
                f"cell_offsets must have num_cells + 1 = {centroids.shape[0] + 1} entries, "
                f"got shape {cell_offsets.shape}"
            )
        if cell_offsets[0] != 0 or cell_offsets[-1] != cell_items.size:
            raise RetrievalIndexError("cell_offsets do not tile cell_items")
        if np.any(np.diff(cell_offsets) < 0):
            raise RetrievalIndexError("cell_offsets must be non-decreasing")
        cell_rows = _inverse_permutation(cell_items)
        if nprobe < 1:
            raise RetrievalIndexError(f"nprobe must be positive, got {nprobe}")
        self.centroids = centroids
        self.cell_offsets = cell_offsets
        self.cell_items = cell_items
        self.cell_rows = cell_rows
        self.nprobe = min(int(nprobe), centroids.shape[0])
        # (weak reference to the item-factor array, factor version, its rows
        # in cell order), swapped as one tuple so a reader never pairs one
        # key with another array's table.
        self._cell_table: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        item_factors: np.ndarray,
        num_cells: Optional[int] = None,
        nprobe: Optional[int] = None,
        seed: int = 0,
        iterations: int = 8,
    ) -> "RetrievalIndex":
        """Cluster ``item_factors`` into an IVF index (seeded, deterministic).

        ``num_cells`` defaults to ``~sqrt(num_items)`` (the usual IVF
        balance point: probing ``nprobe`` cells then scans
        ``O(nprobe * sqrt(n))`` candidates).  ``nprobe`` defaults to enough
        cells for a ~5% catalog shortlist, at least 4.  k-means runs Lloyd
        iterations on a bounded seeded sample, then assigns every item once.
        Each update sums a cell's points with
        :func:`~repro.autograd.sparse_grad.coalesce_rows`, the CSR fold that
        adds in occurrence order, so the centroids equal those of an
        ``np.add.at`` scatter bit for bit, at a fraction of its cost.
        """
        items = np.ascontiguousarray(item_factors, dtype=np.float64)
        if items.ndim != 2 or items.shape[0] == 0:
            raise RetrievalIndexError(
                f"item_factors must be a non-empty 2-D array, got shape {items.shape}"
            )
        num_items = items.shape[0]
        if num_cells is None:
            num_cells = max(1, min(num_items, int(round(num_items ** 0.5))))
        num_cells = int(num_cells)
        if not 1 <= num_cells <= num_items:
            raise RetrievalIndexError(
                f"num_cells must be in [1, num_items={num_items}], got {num_cells}"
            )
        if nprobe is None:
            nprobe = max(4, int(round(0.05 * num_cells)))
        rng = np.random.default_rng(seed)
        train = items
        if num_items > _TRAIN_SAMPLE:
            train = items[rng.choice(num_items, size=_TRAIN_SAMPLE, replace=False)]
        centroids = train[rng.choice(train.shape[0], size=num_cells, replace=False)].copy()
        for _ in range(max(1, iterations)):
            assignment = cls._nearest_cell(train, centroids)
            counts = np.bincount(assignment, minlength=num_cells).astype(np.float64)
            occupied, sums = coalesce_rows(assignment, train)
            centroids[occupied] = sums / counts[occupied, None]
            empty = np.flatnonzero(counts == 0)
            if empty.size:
                # Reseed empty cells from random training points so the
                # index never carries dead centroids.
                centroids[empty] = train[rng.integers(0, train.shape[0], size=empty.size)]
        assignment = cls._nearest_cell(items, centroids)
        order = np.argsort(assignment, kind="stable")
        cell_items = order.astype(np.int64)
        counts = np.bincount(assignment, minlength=num_cells)
        cell_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return cls(centroids, cell_offsets, cell_items, nprobe=int(nprobe))

    @staticmethod
    def _nearest_cell(
        points: np.ndarray, centroids: np.ndarray, block: int = _ASSIGN_BLOCK
    ) -> np.ndarray:
        # Euclidean assignment via the expanded form: ||x - c||^2 =
        # ||x||^2 - 2 x·c + ||c||^2; the ||x||^2 term is constant per row.
        # Blocked so the (points, cells) affinity never materializes whole —
        # at 1M items x 1000 cells that full matrix would be 8 GB — and in
        # cache-sized blocks (see _ASSIGN_BLOCK): each row's assignment is
        # independent of the block it falls in, so the size moves only speed.
        half_norms = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
        out = np.empty(points.shape[0], dtype=np.int64)
        for start in range(0, points.shape[0], block):
            affinity = points[start : start + block] @ centroids.T
            affinity -= half_norms[None, :]
            out[start : start + block] = np.argmax(affinity, axis=1)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.centroids.shape[0]

    @property
    def num_items(self) -> int:
        return self.cell_items.size

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def probe(self, queries: np.ndarray, nprobe: Optional[int] = None) -> np.ndarray:
        """The ``(queries, nprobe)`` cell IDs each query row probes.

        The ``nprobe`` cells whose centroids score highest under the query
        (inner product), in no particular order; every cell, in ID order,
        when ``nprobe`` covers them all.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise RetrievalIndexError(
                f"query dim {queries.shape[1]} does not match index dim {self.dim}"
            )
        probe = self.nprobe if nprobe is None else min(int(nprobe), self.num_cells)
        if probe < 1:
            raise RetrievalIndexError(f"nprobe must be positive, got {probe}")
        if probe == self.num_cells:
            return np.broadcast_to(np.arange(self.num_cells), (queries.shape[0], self.num_cells))
        affinity = queries @ self.centroids.T
        return np.argpartition(-affinity, probe - 1, axis=1)[:, :probe]

    def shortlist(self, queries: np.ndarray, nprobe: Optional[int] = None) -> List[np.ndarray]:
        """Candidate item IDs per query row (ragged; unordered within a cell).

        The members of each query's :meth:`probe` cells, in probe order.
        Serving rescores the same candidates without listing them — see
        :meth:`TopKRecommender <repro.serving.topk.TopKRecommender>`.
        """
        out: List[np.ndarray] = []
        for row_cells in self.probe(queries, nprobe):
            members = [
                self.cell_items[self.cell_offsets[cell] : self.cell_offsets[cell + 1]]
                for cell in row_cells
            ]
            out.append(np.concatenate(members) if members else np.zeros(0, dtype=np.int64))
        return out

    def cell_table(self, item_factors: np.ndarray, version: int) -> np.ndarray:
        """``item_factors[cell_items]``: the item rows in cell order.

        Cell ``c``'s members are rows ``cell_offsets[c]:cell_offsets[c + 1]``
        of the table, so a probed cell is rescored as one contiguous slice
        instead of a gather.  Built once and cached on the index, keyed on
        the identity of ``item_factors`` and on ``version``, the model's
        :attr:`~repro.models.base.RecommenderModel.factor_version` the
        factors were read at.  The array alone is no key: MF-style models
        and SIGR hand out their live embedding tables, which a sparse
        optimizer step updates in place, and only the recomputation of the
        pair after training tells.  So every recommender over one resident
        shares one copy, and a model whose factors change (training,
        ``load_state_dict``) gets a fresh table on the next read of its
        pair, never stale rows.  The array is held by weak reference, so
        the cache never pins a retired factor pair.
        Two first calls at once may both build; either table is correct
        and one wins.
        """
        cached = self._cell_table
        if cached is not None and cached[0]() is item_factors and cached[1] == version:
            return cached[2]
        if item_factors.shape[0] != self.num_items:
            raise RetrievalIndexError(
                f"item_factors hold {item_factors.shape[0]} items but the index covers "
                f"{self.num_items}"
            )
        table = item_factors[self.cell_items]
        self._cell_table = (weakref.ref(item_factors), version, table)
        return table

    def release_table(self) -> None:
        """Drop the cached :meth:`cell_table`; the next use rebuilds it."""
        self._cell_table = None

    def __repr__(self) -> str:
        return (
            f"RetrievalIndex(items={self.num_items}, cells={self.num_cells}, "
            f"dim={self.dim}, nprobe={self.nprobe})"
        )


def build_index_for_model(
    model,
    num_cells: Optional[int] = None,
    nprobe: Optional[int] = None,
    seed: int = 0,
) -> Optional[RetrievalIndex]:
    """An IVF index over ``model``'s item factors, or ``None`` without factors.

    The single entry point the catalog and tests share: models that expose
    :meth:`~repro.models.base.RecommenderModel.scoring_factors` get an
    index; everything else returns ``None`` (brute-force fallback).
    """
    factors = model.scoring_factors()
    if factors is None:
        return None
    _, item_factors = factors
    return RetrievalIndex.build(item_factors, num_cells=num_cells, nprobe=nprobe, seed=seed)
