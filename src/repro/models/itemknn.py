"""Item-based k-nearest-neighbour collaborative filtering.

``ItemKNN`` scores a candidate item for a user by summing the cosine
similarities between the candidate and the items the user interacted with
during training.  The similarity matrix is computed once from the binary
interaction matrix and truncated to each item's top-``k`` neighbours so the
model stays sparse even at the paper's 30k-item scale.

Like :class:`~repro.models.popularity.ItemPopularity`, it is not a Table III
row but a memory-based reference point that needs no gradient training.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor
from ..data.converters import InteractionConversion
from .base import DataMode, RecommenderModel

if TYPE_CHECKING:
    from ..training.batches import InteractionBatch

__all__ = ["ItemKNN", "cosine_item_similarity"]


def cosine_item_similarity(
    interaction_matrix: sp.spmatrix,
    top_k: Optional[int] = 50,
    shrinkage: float = 0.0,
) -> sp.csr_matrix:
    """Item-item cosine similarity of a binary ``users x items`` matrix.

    Parameters
    ----------
    interaction_matrix:
        Sparse ``(num_users, num_items)`` implicit-feedback matrix.
    top_k:
        Keep only each item's ``top_k`` most similar neighbours
        (``None`` keeps everything; memory grows as ``Q^2``).
    shrinkage:
        Additive shrinkage on the denominator, damping similarities that
        are supported by very few co-occurrences.
    """
    matrix = sp.csr_matrix(interaction_matrix, dtype=np.float64)
    matrix.data[:] = 1.0
    co_occurrence = (matrix.T @ matrix).tocsr()
    norms = np.sqrt(co_occurrence.diagonal())
    co_occurrence.setdiag(0.0)
    co_occurrence.eliminate_zeros()

    coo = co_occurrence.tocoo()
    denominator = norms[coo.row] * norms[coo.col] + shrinkage
    values = np.divide(coo.data, denominator, out=np.zeros_like(coo.data), where=denominator > 0)
    similarity = sp.csr_matrix((values, (coo.row, coo.col)), shape=co_occurrence.shape)

    if top_k is None:
        return similarity

    # Truncate each row to its top_k strongest neighbours.
    rows, cols, data = [], [], []
    for row in range(similarity.shape[0]):
        start, end = similarity.indptr[row], similarity.indptr[row + 1]
        row_cols = similarity.indices[start:end]
        row_vals = similarity.data[start:end]
        if row_vals.size > top_k:
            keep = np.argpartition(row_vals, -top_k)[-top_k:]
            row_cols, row_vals = row_cols[keep], row_vals[keep]
        rows.extend([row] * row_cols.size)
        cols.extend(row_cols.tolist())
        data.extend(row_vals.tolist())
    return sp.csr_matrix((data, (rows, cols)), shape=similarity.shape)


class ItemKNN(RecommenderModel):
    """Memory-based item-item collaborative filtering."""

    data_mode = DataMode.INTERACTIONS_BOTH

    def __init__(
        self,
        num_users: int,
        num_items: int,
        interactions: InteractionConversion,
        top_k: int = 50,
        shrinkage: float = 10.0,
    ) -> None:
        super().__init__(num_users, num_items, l2_weight=0.0)
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self.top_k = top_k
        self.shrinkage = shrinkage
        self._interaction_matrix = interactions.matrix()
        # Fitted lazily on first use: an artifact load supplies the saved
        # similarity matrix directly and must not pay for a full refit.
        self._similarity: Optional[sp.csr_matrix] = None

    @property
    def similarity(self) -> sp.csr_matrix:
        """The (lazily fitted) truncated item-item cosine similarity."""
        if self._similarity is None:
            self._similarity = cosine_item_similarity(
                self._interaction_matrix, top_k=self.top_k, shrinkage=self.shrinkage
            )
        return self._similarity

    def batch_loss(self, batch: "InteractionBatch") -> Tensor:
        # Memory-based model: nothing to optimize.
        return Tensor(0.0)

    def rank_scores(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        item_ids = np.asarray(item_ids, dtype=np.int64)
        profile = self._interaction_matrix.getrow(user)
        if profile.nnz == 0:
            return np.zeros(item_ids.shape[0])
        # score(candidate) = sum_{j in profile} sim(j, candidate)
        scores = profile @ self.similarity
        return np.asarray(scores.todense()).ravel()[item_ids]

    def score_batch(self, users: np.ndarray, item_ids: Optional[np.ndarray] = None) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        profiles = self._interaction_matrix[users]
        if item_ids is None:
            return (profiles @ self.similarity).toarray()
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if item_ids.size >= self.num_items:
            return (profiles @ self.similarity).toarray()[:, item_ids]
        # Candidate subset: restrict the similarity columns before the
        # product instead of densifying the whole catalog.
        return (profiles @ self.similarity[:, item_ids]).toarray()

    # ------------------------------------------------------------------
    # Serialization: the model's knowledge is its sparse matrices, not
    # trainable parameters, so they travel in the artifact's extra state.
    # ------------------------------------------------------------------
    def extra_state_keys(self):
        # Static, so checking which keys an artifact must carry never forces
        # the lazy similarity fit on a model about to be overwritten.
        return {
            "interaction_matrix.data",
            "interaction_matrix.indices",
            "interaction_matrix.indptr",
            "similarity.data",
            "similarity.indices",
            "similarity.indptr",
        }

    def extra_state(self) -> Dict[str, np.ndarray]:
        similarity = self.similarity
        return {
            "interaction_matrix.data": self._interaction_matrix.data,
            "interaction_matrix.indices": self._interaction_matrix.indices,
            "interaction_matrix.indptr": self._interaction_matrix.indptr,
            "similarity.data": similarity.data,
            "similarity.indices": similarity.indices,
            "similarity.indptr": similarity.indptr,
        }

    def load_extra_state(self, extra: Dict[str, np.ndarray]) -> None:
        def rebuild(prefix: str, shape) -> sp.csr_matrix:
            for suffix in ("indices", "indptr"):
                dtype = np.asarray(extra[f"{prefix}.{suffix}"]).dtype
                if not np.issubdtype(dtype, np.integer):
                    # scipy would silently truncate float indices to ints.
                    raise ValueError(f"{prefix}.{suffix} must be integer-typed, got {dtype}")
            try:
                matrix = sp.csr_matrix(
                    (extra[f"{prefix}.data"], extra[f"{prefix}.indices"], extra[f"{prefix}.indptr"]),
                    shape=shape,
                )
                # The constructor does not bounds-check index arrays; a
                # corrupted artifact must fail here, not score garbage.
                matrix.check_format(full_check=True)
                return matrix
            except (ValueError, IndexError) as error:
                raise ValueError(f"invalid {prefix} CSR components for shape {shape}: {error}") from error

        # Rebuild (and bounds-check) both matrices before assigning either,
        # so a corrupted artifact cannot leave the model in a mixed state.
        interaction_matrix = rebuild("interaction_matrix", (self.num_users, self.num_items))
        similarity = rebuild("similarity", (self.num_items, self.num_items))
        self._interaction_matrix = interaction_matrix
        self._similarity = similarity

    @property
    def name(self) -> str:
        return "ItemKNN"
