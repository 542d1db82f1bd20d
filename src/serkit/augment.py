"""Training-time augmentations on raw feature matrices.

All augmentation happens in numpy space before tensors enter the graph:
speed perturbation (time-axis linear resampling), additive noise at a
target SNR from a pluggable source, and MixUp over a stacked batch.

A module-level counter records every applied augmentation so evaluation
paths can assert they ran augmentation-free.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .losses import DimTargets

log = logging.getLogger("serkit.augment")

# Incremented only when an augmentation actually modifies data.
AUGMENT_COUNTS = {"mixup": 0, "noise": 0, "speed": 0}


def reset_augment_counters() -> None:
    for key in AUGMENT_COUNTS:
        AUGMENT_COUNTS[key] = 0


def total_augment_count() -> int:
    return sum(AUGMENT_COUNTS.values())


@dataclass
class AugmentConfig:
    mixup_prob: float = 0.5
    mixup_alpha: float = 0.3
    noise_snr_db: tuple = (5.0, 20.0)
    speed_factors: tuple = (0.9, 1.1)
    enable_mixup: bool = True
    enable_noise: bool = True
    enable_speed: bool = True
    noise_dir: str = ""

    def __post_init__(self):
        if not 0.0 <= self.mixup_prob <= 1.0:
            raise ConfigError(f"mixup_prob must be in [0, 1], got {self.mixup_prob}")
        if not 0 < self.mixup_alpha < math.inf:
            raise ConfigError(f"mixup_alpha must be finite and > 0, got {self.mixup_alpha}")
        if len(self.noise_snr_db) != 2:
            raise ConfigError(f"SNR range must be two values (min, max), got {self.noise_snr_db}")
        lo, hi = self.noise_snr_db
        if not -math.inf < lo <= hi < math.inf:
            raise ConfigError(f"SNR range [{lo}, {hi}] must be finite and non-empty")
        if not self.speed_factors or not all(0 < f < math.inf for f in self.speed_factors):
            raise ConfigError(f"speed factors must be one or more finite values > 0, "
                              f"got {self.speed_factors}")


# -- noise sources -----------------------------------------------------------


def white_noise_source(shape, rng) -> np.ndarray:
    return rng.standard_normal(shape)


class DirectoryNoiseSource:
    """Draws noise from user-supplied feature files (tiled/cropped to shape)."""

    def __init__(self, directory: str):
        import os

        from .datapipe import read_features

        try:
            names = os.listdir(directory)
        except OSError as exc:
            raise ConfigError(f"cannot read noise_dir {directory}: {exc.strerror}") from None
        paths = sorted(os.path.join(directory, name) for name in names if name.endswith(".serf"))
        if not paths:
            raise ConfigError(f"noise_dir {directory} holds no .serf noise file")
        self._banks = [read_features(path) for path in paths]

    def __call__(self, shape, rng) -> np.ndarray:
        t, d = shape
        bank = self._banks[int(rng.integers(0, len(self._banks)))]
        reps = (math.ceil(t / bank.shape[0]), math.ceil(d / bank.shape[1]))
        tiled = np.tile(bank, reps)[:t, :d]
        return tiled.copy()


def make_noise_source(cfg: AugmentConfig):
    if cfg.noise_dir:
        return DirectoryNoiseSource(cfg.noise_dir)
    return white_noise_source


# -- individual augmentations ---------------------------------------------------


def add_noise_snr(features: np.ndarray, snr_db: float, noise_source, rng) -> np.ndarray:
    """Add noise scaled so 10*log10(P_signal/P_noise) equals snr_db.

    snr_db = +inf is the disabled sentinel (identity); zero-power signals
    pass through unchanged with a warning.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.size == 0:
        raise DataError("cannot add noise to empty features")
    if math.isinf(snr_db) and snr_db > 0:
        return features
    signal_power = float(np.mean(features * features))
    if signal_power <= 0.0:
        log.warning("zero-power signal: noise injection skipped")
        return features
    noise = np.asarray(noise_source(features.shape, rng), dtype=np.float64)
    raw_power = float(np.mean(noise * noise))
    if raw_power <= 0.0:
        log.warning("noise source produced zero power: skipped")
        return features
    target_power = signal_power / (10.0 ** (snr_db / 10.0))
    AUGMENT_COUNTS["noise"] += 1
    return features + noise * math.sqrt(target_power / raw_power)


def speed_perturb(features: np.ndarray, factor: float) -> np.ndarray:
    """Resample the time axis by linear interpolation; T' = round(T / factor)."""
    if factor <= 0:
        raise ConfigError(f"speed factor must be > 0, got {factor}")
    features = np.asarray(features, dtype=np.float64)
    t = features.shape[0]
    if factor == 1.0:
        return features
    t_new = int(round(t / factor))
    if t_new < 1:
        raise DataError(f"speed factor {factor} collapses {t} frames to zero length")
    if t_new == 1:
        positions = np.zeros(1)
    else:
        positions = np.arange(t_new) * ((t - 1) / (t_new - 1))
    lo = np.floor(positions).astype(int)
    hi = np.minimum(lo + 1, t - 1)
    frac = (positions - lo)[:, None]
    # Delta form is exact for time-constant inputs.
    out = features[lo] + frac * (features[hi] - features[lo])
    AUGMENT_COUNTS["speed"] += 1
    return out


def mixup_apply(features: np.ndarray, cat_targets: np.ndarray, dim_targets: DimTargets,
                lam: float, perm: np.ndarray) -> tuple:
    """Deterministic MixUp core: lam * batch + (1 - lam) * batch[perm]."""
    mixed_features = lam * features + (1.0 - lam) * features[perm]
    mixed_cats = lam * cat_targets + (1.0 - lam) * cat_targets[perm]
    mixed_values = lam * dim_targets.values + (1.0 - lam) * dim_targets.values[perm]
    mixed_mask = dim_targets.present_mask & dim_targets.present_mask[perm]
    return mixed_features, mixed_cats, DimTargets(values=mixed_values, present_mask=mixed_mask)


def mixup_batch(features: np.ndarray, lengths: np.ndarray, cat_targets: np.ndarray,
                dim_targets: DimTargets, cfg: AugmentConfig, rng) -> tuple:
    """With probability mixup_prob, mix the batch with a Beta(alpha, alpha) coefficient.

    Returns (features, lengths, cat_targets, dim_targets); a mixed row is
    valid up to the longer of its two source rows.
    """
    features = np.asarray(features, dtype=np.float64)
    lengths = np.asarray(lengths)
    if features.ndim != 3 or lengths.shape != features.shape[:1]:
        raise ConfigError(f"mixup expects stacked [B, T, D] features and [B] lengths, "
                          f"got {features.shape} and {lengths.shape}")
    if rng.random() >= cfg.mixup_prob:
        return features, lengths, cat_targets, dim_targets
    if features.shape[0] < 2:
        log.warning("mixup triggered on a batch of 1: skipped")
        return features, lengths, cat_targets, dim_targets
    lam = float(rng.beta(cfg.mixup_alpha, cfg.mixup_alpha))
    perm = rng.permutation(features.shape[0])
    AUGMENT_COUNTS["mixup"] += 1
    mixed, cats, dims = mixup_apply(features, cat_targets, dim_targets, lam, perm)
    return mixed, np.maximum(lengths, lengths[perm]), cats, dims
