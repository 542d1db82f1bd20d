"""Hybrid categorical + dimensional training objective.

Weighted label-smoothed cross-entropy for the 7-class branch, concordance
correlation coefficient (CCC) loss for the arousal/valence/dominance
branch, combined as lambda_cat * CE + lambda_dim * CCC_loss.

Predictions enter as autodiff Tensors so gradients flow; targets and class
weights are plain numpy (no gradient path).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericError
from .labels import NUM_CLASSES

log = logging.getLogger("serkit.losses")

LOG_CLAMP = 1e-12


@dataclass
class LossConfig:
    lambda_cat: float = 1.0
    lambda_dim: float = 0.5
    epsilon_smooth: float = 0.1
    class_weights: np.ndarray = field(default_factory=lambda: np.ones(NUM_CLASSES))
    eps_ccc: float = 1e-8

    def __post_init__(self):
        if not (self.lambda_cat >= 0 and self.lambda_dim >= 0):
            raise ConfigError("loss lambdas must be >= 0")
        if not 0.0 <= self.epsilon_smooth < 1.0:
            raise ConfigError(f"label smoothing epsilon must be in [0, 1), got {self.epsilon_smooth}")
        if not self.eps_ccc >= 0:
            raise ConfigError(f"CCC eps must be >= 0, got {self.eps_ccc}")
        self.class_weights = np.asarray(self.class_weights, dtype=np.float64)
        if self.class_weights.shape != (NUM_CLASSES,) or not np.all(self.class_weights > 0):
            raise ConfigError("class_weights must be 7 strictly positive values")


@dataclass
class DimTargets:
    """Batch of dimensional targets with a per-sample presence mask."""

    values: np.ndarray            # [batch, 3] in [0, 1]
    present_mask: np.ndarray      # [batch] bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.present_mask = np.asarray(self.present_mask, dtype=bool)
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise ConfigError(f"dim targets must be [batch, 3], got {self.values.shape}")
        if self.present_mask.shape != (self.values.shape[0],):
            raise ConfigError("present_mask must have one entry per sample")


def smooth_labels(onehot: np.ndarray, epsilon: float) -> np.ndarray:
    """y' = (1 - eps) * y + eps / C; rows keep summing to 1."""
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"label smoothing epsilon must be in [0, 1), got {epsilon}")
    onehot = np.asarray(onehot, dtype=np.float64)
    return (1.0 - epsilon) * onehot + epsilon / onehot.shape[-1]


def weighted_cross_entropy(probs: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Per-sample -sum_i w_i * y_i * log(p_i), averaged over the batch.

    Probabilities are clamped at 1e-12 before the log so saturated
    softmax outputs stay finite.
    """
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ConfigError("class weights must be non-negative")
    if probs.data.shape != targets.shape:
        raise ConfigError(f"probs {probs.data.shape} vs targets {targets.shape} shape mismatch")
    logp = probs.maximum(LOG_CLAMP).log()
    weighted = logp * Tensor(weights * targets)
    return -(weighted.sum(axis=1).mean())


def class_weights_from_counts(counts: np.ndarray) -> np.ndarray:
    """Inverse-frequency weights w_i = N / (C * max(n_i, 1)), rescaled to mean 1."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (NUM_CLASSES,) or np.any(counts < 0):
        raise ConfigError("counts must be 7 non-negative values")
    total = counts.sum()
    if total <= 0:
        raise ConfigError("cannot derive class weights from all-zero counts")
    weights = total / (NUM_CLASSES * np.maximum(counts, 1.0))
    return weights / weights.mean()


def ccc(y, yhat, eps: float = 1e-8) -> Tensor:
    """Concordance correlation over axis 0: 2 cov / (var_y + var_yhat + dmu^2 + eps).

    A [n] input gives one value and an [n, k] input one value per column.
    Population (divide-by-n) moments. n=1 collapses to 0 by construction;
    the eps keeps the both-constant-equal-means case at ~0 instead of 0/0.
    """
    y = y if isinstance(y, Tensor) else Tensor(np.asarray(y, dtype=np.float64))
    yhat = yhat if isinstance(yhat, Tensor) else Tensor(np.asarray(yhat, dtype=np.float64))
    if y.data.size == 0 or yhat.data.size == 0:
        raise DataError("ccc on empty input")
    if y.data.shape != yhat.data.shape:
        raise ConfigError(f"ccc shape mismatch {y.data.shape} vs {yhat.data.shape}")
    mu_y = y.mean(axis=0)
    mu_p = yhat.mean(axis=0)
    dy = y - mu_y
    dp = yhat - mu_p
    cov = (dy * dp).mean(axis=0)
    denom = (dy * dy).mean(axis=0) + (dp * dp).mean(axis=0) + (mu_y - mu_p) ** 2.0 + eps
    return (2.0 * cov) / denom


def ccc_loss_multi(targets: DimTargets, preds: Tensor, eps: float = 1e-8) -> Tensor:
    """Mean over {arousal, valence, dominance} of (1 - CCC_dim) across the batch.

    With fewer than two unmasked samples the loss is 0 (warned).
    """
    if preds.data.ndim != 2 or preds.data.shape[1] != 3:
        raise ConfigError(f"dim predictions must be [batch, 3], got {preds.data.shape}")
    if preds.data.shape[0] != targets.values.shape[0]:
        raise ConfigError("dim predictions and targets disagree on batch size")
    idx = np.nonzero(targets.present_mask)[0]
    if idx.size < 2:
        log.warning("ccc loss skipped: %d unmasked samples (< 2)", idx.size)
        return Tensor(0.0)
    return (1.0 - ccc(targets.values[idx], preds[idx], eps=eps)).mean()


def total_loss(ce: Tensor, cccl: Tensor, cfg: LossConfig) -> Tensor:
    """L = lambda_cat * L_CE + lambda_dim * L_CCC."""
    if not np.isfinite(ce.data).all():
        raise NumericError("non-finite categorical loss component")
    if not np.isfinite(cccl.data).all():
        raise NumericError("non-finite dimensional (CCC) loss component")
    return cfg.lambda_cat * ce + cfg.lambda_dim * cccl
