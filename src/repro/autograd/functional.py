"""Differentiable functional operations built on :class:`~repro.autograd.Tensor`.

These are the building blocks that the neural-network layers in
:mod:`repro.nn` and the models in :mod:`repro.models` / :mod:`repro.core`
compose: activations, numerically stable log-sigmoid (the backbone of the
BPR and double-pairwise losses), concatenation, stacking, segment
aggregations for ragged neighborhoods, and dropout.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .sparse_grad import RowSparseGrad, sparse_grads_enabled
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "sigmoid",
    "log_sigmoid",
    "softplus",
    "relu",
    "leaky_relu",
    "tanh",
    "identity",
    "softmax",
    "concat",
    "stack",
    "dropout",
    "embedding_lookup",
    "gathered_dot_difference",
    "segment_sum",
    "segment_mean",
    "l2_norm_squared",
    "cosine_similarity",
    "ACTIVATIONS",
]


def _stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """Overflow-safe sigmoid evaluated with a single ``exp`` pass.

    For ``c = clip(x, -60, 60)``: the positive branch ``1 / (1 + exp(-c))``
    and the negative branch ``exp(c) / (1 + exp(c))`` both only evaluate
    ``exp`` at ``-|c| = -min(|x|, 60)``, so one ``exp`` feeds both branches
    with bit-for-bit the same results as computing them separately.  The
    chain reuses two scratch arrays: each branch is divided in place and
    the positive one is copied over the negative one where ``x >= 0`` (NaN
    takes the negative branch) — this is the hottest elementwise kernel in
    cross-view propagation, called on full embedding tables every batch.
    """
    magnitude = np.abs(values)
    np.minimum(magnitude, 60.0, out=magnitude)
    np.negative(magnitude, out=magnitude)
    decay = np.exp(magnitude, out=magnitude)
    denominator = decay + 1.0
    np.divide(decay, denominator, out=decay)
    np.divide(1.0, denominator, out=denominator)
    np.copyto(decay, denominator, where=values >= 0)
    return decay


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    x = as_tensor(x)
    out_data = _stable_sigmoid(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def log_sigmoid(x: Tensor) -> Tensor:
    """``log(sigmoid(x))`` computed without overflow for large ``|x|``."""
    x = as_tensor(x)
    # log sigmoid(x) = -softplus(-x) = min(x, 0) - log(1 + exp(-|x|))
    out_data = np.minimum(x.data, 0.0) - np.log1p(np.exp(-np.abs(x.data)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            sig = _stable_sigmoid(x.data)
            x._accumulate(grad * (1.0 - sig))

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` with the usual overflow-safe formulation."""
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60, 60)))
            x._accumulate(grad * sig)

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky rectified linear unit (default slope matches NGCF/GBGCN usage)."""
    x = as_tensor(x)
    out_data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.where(x.data > 0, 1.0, negative_slope))

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data ** 2))

    return Tensor._make(out_data, (x,), backward)


def identity(x: Tensor) -> Tensor:
    """Identity activation (useful as a configurable default)."""
    return as_tensor(x)


ACTIVATIONS = {
    "sigmoid": sigmoid,
    "relu": relu,
    "leaky_relu": leaky_relu,
    "tanh": tanh,
    "identity": identity,
}


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (used by the attention baselines)."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (the ``·||·`` operator in the paper)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator] = None, training: bool = True) -> Tensor:
    """Inverted dropout; a no-op when ``training`` is False or ``rate`` is 0."""
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows ``indices`` from ``table`` with scatter-add gradients.

    With the row-sparse engine enabled (the default) the backward emits a
    :class:`~repro.autograd.sparse_grad.RowSparseGrad` — unique touched rows
    plus per-row value blocks, reduced with a sorted segment sum — instead
    of allocating a dense ``zeros_like(table)`` and ``np.add.at``-scattering
    into it.  Both paths produce bitwise-identical dense gradients.
    """
    table = as_tensor(table)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = table.data[indices]

    def backward(grad: np.ndarray) -> None:
        if not table.requires_grad:
            return
        if sparse_grads_enabled():
            table._accumulate(RowSparseGrad.from_scatter(table.data.shape, indices, grad))
        else:
            full = np.zeros_like(table.data)
            np.add.at(full, indices, grad)
            table._accumulate(full)

    return Tensor._make(out_data, (table,), backward)


def gathered_dot_difference(
    a: Tensor,
    b: Tensor,
    shared_rows: np.ndarray,
    positive_rows: np.ndarray,
    negative_rows: np.ndarray,
) -> Tensor:
    """``<a[shared], b[positive]> - <a[shared], b[negative]>`` per row, fused.

    This is the pairwise-ranking primitive: ``a`` rows are gathered *once*
    and shared by the positive and the negative dot, the per-row products
    are reduced with ``einsum`` without materializing them in the graph,
    and the backward emits exactly one scatter into ``a`` (with the
    ``b[positive] - b[negative]`` difference as values) and one combined
    ``±`` scatter into ``b``.  Compared with composing gather / multiply /
    sum / subtract tensors, each table sees one coalesce per batch instead
    of one per term, and none of the ``(rows, dim)`` intermediates enter
    the autograd graph.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    shared_rows = np.asarray(shared_rows, dtype=np.int64)
    positive_rows = np.asarray(positive_rows, dtype=np.int64)
    negative_rows = np.asarray(negative_rows, dtype=np.int64)
    gathered_a = a.data[shared_rows]
    gathered_pos = b.data[positive_rows]
    gathered_neg = b.data[negative_rows]
    out_data = np.einsum("ij,ij->i", gathered_a, gathered_pos) - np.einsum(
        "ij,ij->i", gathered_a, gathered_neg
    )

    def _scatter(tensor: Tensor, rows: np.ndarray, contributions: np.ndarray) -> None:
        if sparse_grads_enabled():
            tensor._accumulate(RowSparseGrad.from_scatter(tensor.data.shape, rows, contributions))
        else:
            full = np.zeros_like(tensor.data)
            np.add.at(full, rows, contributions)
            tensor._accumulate(full)

    def backward(grad: np.ndarray) -> None:
        column_grad = grad[:, None]
        if a.requires_grad:
            _scatter(a, shared_rows, column_grad * (gathered_pos - gathered_neg))
        if b.requires_grad:
            positive_contribution = column_grad * gathered_a
            _scatter(
                b,
                np.concatenate((positive_rows, negative_rows)),
                np.concatenate((positive_contribution, -positive_contribution)),
            )

    return Tensor._make(out_data, (a, b), backward)


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets given by ``segment_ids``.

    This is the ragged-aggregation primitive used to average a variable
    number of friends / participants per behavior without padding.
    """
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape[0] != values.shape[0]:
        raise ValueError("segment_ids must have one entry per row of values")
    out_shape = (num_segments,) + values.shape[1:]
    out_data = np.zeros(out_shape, dtype=np.float64)
    np.add.at(out_data, segment_ids, values.data)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[segment_ids])

    return Tensor._make(out_data, (values,), backward)


def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregate rows per segment; empty segments yield zero vectors."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    sums = segment_sum(values, segment_ids, num_segments)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (sums.ndim - 1))
    return sums * (1.0 / counts)


def l2_norm_squared(tensors: Iterable[Tensor]) -> Tensor:
    """Sum of squared entries over a collection of tensors (L2 regularizer)."""
    total: Optional[Tensor] = None
    for tensor in tensors:
        term = (as_tensor(tensor) ** 2).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total


def cosine_similarity(a: np.ndarray, b: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Plain NumPy cosine similarity (used by the embedding analysis)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    num = (a * b).sum(axis=axis)
    den = np.linalg.norm(a, axis=axis) * np.linalg.norm(b, axis=axis)
    return num / np.maximum(den, eps)
