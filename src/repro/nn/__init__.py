"""Neural-network building blocks (modules, layers, initializers, losses)."""

from .module import Module, Parameter, eval_mode
from .layers import (
    AttentionPooling,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    resolve_activation,
)
from .losses import (
    bpr_difference_loss,
    bpr_loss,
    l2_regularization,
    log_loss,
    regression_pairwise_loss,
    social_regularization,
)
from . import init

__all__ = [
    "Module",
    "Parameter",
    "eval_mode",
    "MLP",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "AttentionPooling",
    "Linear",
    "resolve_activation",
    "bpr_loss",
    "bpr_difference_loss",
    "l2_regularization",
    "log_loss",
    "regression_pairwise_loss",
    "social_regularization",
    "init",
]
