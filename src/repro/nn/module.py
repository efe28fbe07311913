"""Minimal module / parameter system layered on the autograd engine.

Mirrors the part of ``torch.nn`` that the paper's models require: named
parameters, nested submodules, train/eval mode, and state serialization so
that the pre-training stage can hand its embeddings to the fine-tuning
stage (Section III-C3 of the paper).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor

__all__ = ["Parameter", "Module", "eval_mode"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by :class:`Module`.

    A parameter's ``grad`` holds either a dense ``numpy.ndarray`` or a
    :class:`~repro.autograd.RowSparseGrad` (when every contribution came
    from row gathers such as embedding lookups); ``zero_grad`` resets both.
    The optimizers in :mod:`repro.optim` consume either representation —
    sparse gradients take the row-sliced fast path.  Unlike interior graph
    nodes, a parameter always *owns* its gradient buffer (the first dense
    contribution is copied), so in-place gradient clipping and accumulation
    across batches can never write through an aliased activation buffer.
    """

    _copy_first_grad = True
    _keep_sparse_grad = True

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically by :meth:`parameters`,
    :meth:`named_parameters`, :meth:`state_dict` and friends.
    """

    def __init__(self) -> None:
        self._training = True

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for attr_name, attr_value in vars(self).items():
            if attr_name.startswith("_") and not isinstance(attr_value, (Parameter, Module, list, dict)):
                continue
            qualified = f"{prefix}{attr_name}"
            if isinstance(attr_value, Parameter):
                yield qualified, attr_value
            elif isinstance(attr_value, Module):
                yield from attr_value.named_parameters(prefix=f"{qualified}.")
            elif isinstance(attr_value, (list, tuple)):
                for index, element in enumerate(attr_value):
                    if isinstance(element, Parameter):
                        yield f"{qualified}.{index}", element
                    elif isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{qualified}.{index}.")
            elif isinstance(attr_value, dict):
                for key, element in attr_value.items():
                    if isinstance(element, Parameter):
                        yield f"{qualified}.{key}", element
                    elif isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{qualified}.{key}.")

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs including ``self``."""
        yield prefix.rstrip("."), self
        for attr_name, attr_value in vars(self).items():
            qualified = f"{prefix}{attr_name}"
            if isinstance(attr_value, Module):
                yield from attr_value.named_modules(prefix=f"{qualified}.")
            elif isinstance(attr_value, (list, tuple)):
                for index, element in enumerate(attr_value):
                    if isinstance(element, Module):
                        yield from element.named_modules(prefix=f"{qualified}.{index}.")
            elif isinstance(attr_value, dict):
                for key, element in attr_value.items():
                    if isinstance(element, Module):
                        yield from element.named_modules(prefix=f"{qualified}.{key}.")

    # ------------------------------------------------------------------
    # Training / evaluation state
    # ------------------------------------------------------------------
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        """Put this module and all children in training mode."""
        for _, module in self.named_modules():
            module._training = True
        return self

    def eval(self) -> "Module":
        """Put this module and all children in evaluation mode."""
        for _, module in self.named_modules():
            module._training = False
        return self

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by its qualified name."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(
        self, state: Dict[str, np.ndarray], strict: bool = True, copy: bool = True
    ) -> None:
        """Load parameter values from :meth:`state_dict` output.

        With ``strict=False`` unknown keys are ignored and missing keys are
        left at their current values, which is how the pre-trained raw
        embeddings are transferred into the full GBGCN model.

        ``copy=False`` binds parameters directly to the caller's arrays
        instead of private copies — the zero-copy path used by mmap-backed
        artifact loads, where the arrays are read-only memory maps shared
        across processes.  A module bound to read-only arrays can score but
        not train; callers passing ``copy=False`` own that trade-off.
        """
        converted = self._validated_state(state, strict=strict, copy=copy)
        self._assign_state(converted)

    def _validated_state(
        self, state: Dict[str, np.ndarray], strict: bool = True, copy: bool = True
    ) -> Dict[str, np.ndarray]:
        """Check keys and shapes, returning converted arrays without assigning.

        Splitting validation from assignment keeps :meth:`load_state_dict`
        all-or-nothing: a bad entry can never leave the module with half of
        its parameters loaded.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        converted = {}
        for name, value in state.items():
            if name not in own:
                continue
            value = np.asarray(value, dtype=np.float64)
            if own[name].data.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for parameter '{name}': "
                    f"{own[name].data.shape} vs {value.shape}"
                )
            converted[name] = value.copy() if copy else value
        return converted

    def _assign_state(self, converted: Dict[str, np.ndarray]) -> None:
        """Commit arrays produced by :meth:`_validated_state` (cannot fail)."""
        own = dict(self.named_parameters())
        for name, value in converted.items():
            own[name].data = value

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(parameter.data.size for parameter in self.parameters()))

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


@contextlib.contextmanager
def eval_mode(module: Module) -> Iterator[Module]:
    """Run a block with ``module`` in eval mode, then restore the caller's mode.

    The caller's mode comes back on every exit, an exception included.  A
    module already in eval mode (every model ``load_model`` returns) is
    left alone: ``eval()`` and ``train()`` walk the whole module tree in
    Python.
    """
    if not module.training:
        yield module
        return
    module.eval()
    try:
        yield module
    finally:
        module.train()
