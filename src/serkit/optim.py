"""Two-group decoupled-weight-decay optimizer and cosine warmup schedule.

Backbone group carries the LoRA adapter parameters (lr 5e-5, decay 4e-5);
downstream group carries everything else trainable (lr 6e-4, decay 8e-5).
Schedule: linear warmup over 8% of total steps, cosine anneal to zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

log = logging.getLogger("serkit.optim")


@dataclass
class OptimizerConfig:
    backbone_lr: float = 5e-5
    backbone_weight_decay: float = 4e-5
    downstream_lr: float = 6e-4
    downstream_weight_decay: float = 8e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (self.backbone_lr > 0 and self.downstream_lr > 0):
            raise ConfigError("learning rates must be > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if not (self.backbone_weight_decay >= 0 and self.downstream_weight_decay >= 0):
            raise ConfigError("weight decays must be >= 0")
        if not self.eps > 0:
            raise ConfigError(f"AdamW eps must be > 0, got {self.eps}")


@dataclass
class ScheduleConfig:
    total_steps: int
    warmup_ratio: float = 0.08
    min_lr_factor: float = 0.0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError("schedule needs at least one step")
        if not 0.0 < self.warmup_ratio < 1.0:
            raise ConfigError(f"warmup ratio must be in (0, 1), got {self.warmup_ratio}")
        if not 0.0 <= self.min_lr_factor <= 1.0:
            raise ConfigError("min_lr_factor must be in [0, 1]")

    @property
    def warmup_steps(self) -> int:
        return max(1, round(self.warmup_ratio * self.total_steps))


def cosine_warmup_lr(step: int, peak_lr: float, cfg: ScheduleConfig) -> float:
    """Linear 0 -> peak over warmup, then cosine anneal to min_lr_factor * peak.

    Steps past total_steps clamp to the final value (logged once per call).
    """
    if step < 0:
        raise ConfigError(f"negative schedule step {step}")
    if step > cfg.total_steps:
        log.warning("schedule step %d beyond total %d; clamping", step, cfg.total_steps)
        step = cfg.total_steps
    warmup = cfg.warmup_steps
    if step <= warmup:
        return peak_lr * (step / warmup)
    progress = (step - warmup) / (cfg.total_steps - warmup)
    cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
    return peak_lr * (cfg.min_lr_factor + (1.0 - cfg.min_lr_factor) * cosine)


class AdamWGroups:
    """Adaptive-moment optimizer with decoupled weight decay, two groups.

    The parameter partition must be disjoint; frozen tensors are never
    registered so they can never be touched.
    """

    def __init__(self, backbone: dict, downstream: dict, cfg: OptimizerConfig):
        overlap = set(backbone) & set(downstream)
        if overlap:
            raise ConfigError(f"parameter groups overlap: {sorted(overlap)[:4]}")
        self.cfg = cfg
        self.groups = (
            {"params": dict(backbone), "lr": cfg.backbone_lr, "wd": cfg.backbone_weight_decay},
            {"params": dict(downstream), "lr": cfg.downstream_lr, "wd": cfg.downstream_weight_decay},
        )
        self.t = 0
        self._m = {}
        self._v = {}
        for group in self.groups:
            for name, tensor in group["params"].items():
                if not tensor.requires_grad:
                    raise ConfigError(f"frozen tensor '{name}' registered with the optimizer")
                self._m[name] = np.zeros_like(tensor.data)
                self._v[name] = np.zeros_like(tensor.data)

    def step(self, lr_scale: float = 1.0):
        """One update with every group's rate times `lr_scale`; missing gradients count as zeros."""
        self.t += 1
        bc1 = 1.0 - self.cfg.beta1 ** self.t
        bc2 = 1.0 - self.cfg.beta2 ** self.t
        for group in self.groups:
            lr = group["lr"] * lr_scale
            wd = group["wd"]
            for name, tensor in group["params"].items():
                grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
                if not np.isfinite(grad).all():
                    raise NumericError(f"non-finite gradient for parameter '{name}'")
                m = self._m[name]
                v = self._v[name]
                m *= self.cfg.beta1
                m += (1.0 - self.cfg.beta1) * grad
                v *= self.cfg.beta2
                v += (1.0 - self.cfg.beta2) * grad * grad
                if wd != 0.0:
                    tensor.data *= 1.0 - lr * wd
                tensor.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.cfg.eps)

    def learning_rates(self, lr_scale: float = 1.0):
        return tuple(group["lr"] * lr_scale for group in self.groups)
