"""The paper's primary contribution: GBGCN and its components."""

from .propagation import CrossViewPropagation, InViewPropagation, ViewEmbeddings
from .prediction import role_weighted_difference, role_weighted_factors
from .loss import DoublePairwiseLoss
from .gbgcn import GBGCN, GBGCNConfig
from .pretrain import GBGCNPretrainModel, transfer_pretrained_embeddings
from .ablation import ABLATION_VARIANTS, build_ablation_model

__all__ = [
    "CrossViewPropagation",
    "InViewPropagation",
    "ViewEmbeddings",
    "role_weighted_difference",
    "role_weighted_factors",
    "DoublePairwiseLoss",
    "GBGCN",
    "GBGCNConfig",
    "GBGCNPretrainModel",
    "transfer_pretrained_embeddings",
    "ABLATION_VARIANTS",
    "build_ablation_model",
]
