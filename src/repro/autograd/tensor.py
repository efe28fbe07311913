"""Reverse-mode automatic differentiation over NumPy arrays.

The :class:`Tensor` class is the foundation of the whole reproduction: the
paper's models were written in PyTorch, which is unavailable offline, so this
module provides the minimal-but-complete differentiation substrate required
to train embedding / MLP / graph-convolution recommenders.

Design notes
------------
* A ``Tensor`` wraps a ``numpy.ndarray`` and, when ``requires_grad`` is set,
  records the operation that produced it (a closure stored in
  ``_backward``) together with its parent tensors.
* ``Tensor.backward()`` performs a topological sort of the recorded graph and
  accumulates gradients into ``Tensor.grad``.  A gradient is usually a plain
  ``numpy.ndarray``; integer-array row gathers (``Tensor.__getitem__`` and
  :func:`~repro.autograd.functional.embedding_lookup`) emit a
  :class:`~repro.autograd.sparse_grad.RowSparseGrad` instead when the
  row-sparse engine is enabled, so a mini-batch never pays a full-table
  scatter.  Interior nodes densify their gradient right before their own
  backward runs; only *leaves* (parameters, inputs) can end up holding the
  sparse representation, which the optimizers consume directly.
* Broadcasting is supported for elementwise arithmetic; gradients are
  "unbroadcast" (summed over broadcast axes) before accumulation.
* Gradient tracking can be suspended with the :func:`no_grad` context
  manager, which the evaluation code uses to keep scoring cheap.  Grad
  mode is per thread, as in PyTorch: a serving thread refreshing factors
  under ``no_grad`` never switches recording off for a thread that trains.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .sparse_grad import RowSparseGrad, sparse_grads_enabled

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]


class _GradMode(threading.local):
    """The calling thread's grad mode; every thread starts with it on."""

    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording inside its block,
    on the calling thread only."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations on the calling thread record the autograd graph."""
    return _GRAD_MODE.enabled


ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    NumPy broadcasting may have expanded a parent of shape ``shape`` up to
    the shape of ``grad``; summing over the broadcast axes recovers the
    gradient with respect to the original parent.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_grad_owned")

    #: Leaves that outlive the backward pass (parameters) copy their first
    #: dense gradient so later in-place updates (clipping, accumulation)
    #: can never write through an aliased interior buffer.  Interior nodes
    #: skip that copy — their gradients are only read, once, by their own
    #: backward closure.
    _copy_first_grad = False

    #: Parameters keep accumulating sparse gradients in the sparse
    #: representation (the optimizers consume it row-sliced).  Interior
    #: nodes are densified by their own backward anyway, so on a second
    #: sparse contribution they densify immediately — in-place row adds
    #: into an owned dense buffer are much cheaper than repeated
    #: sparse-sparse coalescing.
    _keep_sparse_grad = False

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: Optional[Union[np.ndarray, RowSparseGrad]] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name
        self._grad_owned = False

    # ------------------------------------------------------------------
    # Basic introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached copy of the tensor's data."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, wiring it into the graph if needed."""
        parents = tuple(parents)
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: Union[np.ndarray, RowSparseGrad]) -> None:
        # Sparse incoming gradient (row gathers).  Freshly coalesced by the
        # emitting op, so it is always safe to own.
        if isinstance(grad, RowSparseGrad):
            if self.grad is None:
                self.grad = grad
            elif isinstance(self.grad, RowSparseGrad):
                if self._keep_sparse_grad:
                    self.grad = self.grad.add_(grad)
                else:
                    dense = self.grad.to_dense()
                    grad.add_to_dense_(dense)
                    self.grad = dense
            else:
                if not self._grad_owned:
                    self.grad = self.grad.copy()
                grad.add_to_dense_(self.grad)
            self._grad_owned = True
            return

        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            # Interior nodes store the incoming buffer by reference (it is
            # only ever read); long-lived leaves copy, see _copy_first_grad.
            if self._copy_first_grad:
                self.grad = grad.copy()
                self._grad_owned = True
            else:
                self.grad = grad
                self._grad_owned = False
        elif isinstance(self.grad, RowSparseGrad):
            dense = self.grad.to_dense()
            dense += grad
            self.grad = dense
            self._grad_owned = True
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        ordering: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    ordering.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)
        self._accumulate(grad)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node_grad = node.grad
                if isinstance(node_grad, RowSparseGrad):
                    # Interior consumers (matmul, concat, ...) need a dense
                    # array; a single densify here replaces one full-table
                    # zeros + add.at per contributing gather.
                    node_grad = node_grad.to_dense()
                    node.grad = node_grad
                    node._grad_owned = True
                node._backward(node_grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                mask = (self.data >= low) & (self.data <= high)
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    expanded = np.expand_dims(expanded, a)
            # The broadcast view is read-only and _accumulate never mutates
            # an unowned buffer, so no defensive copy is needed.
            self._accumulate(np.broadcast_to(expanded, self.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            reference = out_data
            if axis is not None and not keepdims:
                expanded = np.expand_dims(expanded, axis)
                reference = np.expand_dims(reference, axis)
            mask = (self.data == reference).astype(np.float64)
            # Split gradient across ties to keep the sum of gradients correct.
            normalizer = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(expanded * mask / normalizer)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes is None:
                self._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes)
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        original_shape = self.shape
        # Row gathers (integer-array / scalar indices along axis 0) can emit
        # a row-sparse gradient; any other indexing falls back to the dense
        # scatter, which stays the oracle path.
        row_gather = self.data.ndim >= 1 and (
            isinstance(index, (int, np.integer))
            or (isinstance(index, np.ndarray) and index.dtype.kind in "iu")
        )

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if row_gather and sparse_grads_enabled():
                self._accumulate(RowSparseGrad.from_scatter(original_shape, index, grad))
            else:
                full = np.zeros(original_shape, dtype=np.float64)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data).reshape(self.shape))
                else:
                    self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad).reshape(other.shape))
                else:
                    other._accumulate(self.data.T @ grad)

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def dot(self, other: ArrayLike) -> "Tensor":
        """Row-wise dot product of two matrices of identical shape."""
        other = as_tensor(other)
        return (self * other).sum(axis=-1)

    # Comparison helpers (no gradients, plain arrays).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` without copying when possible."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
