"""Desk-scale speech emotion recognition training and evaluation stack."""

from .autodiff import Tensor, group_norm
from .labels import EMOTIONS, EmotionLabel
from .losses import DimTargets, LossConfig, ccc, ccc_loss_multi, smooth_labels, total_loss, weighted_cross_entropy
from .model import ModelConfig, ModelOutput, SERModel

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "group_norm",
    "EMOTIONS",
    "EmotionLabel",
    "DimTargets",
    "LossConfig",
    "ccc",
    "ccc_loss_multi",
    "smooth_labels",
    "total_loss",
    "weighted_cross_entropy",
    "ModelConfig",
    "ModelOutput",
    "SERModel",
    "__version__",
]
