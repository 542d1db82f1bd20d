"""Training recipe: epoch loop, augmentation, dev-loss early stopping, checkpoints.

Each epoch shuffles the train manifest, assembles batches (speed/noise
augmentation per sample from seeded substreams, then MixUp on the stacked
batch), takes one optimizer step per batch under the warmup+cosine
schedule, evaluates the development categorical loss augmentation-free,
and writes a checkpoint. Early stopping fires after `patience` epochs
without dev improvement; the epoch cap (default 15) always holds.

Run artifacts carry no timestamps, so identically seeded runs are
byte-identical.
"""

from __future__ import annotations

import logging
import math
import os
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor
from .augment import AugmentConfig, add_noise_snr, make_noise_source, mixup_batch, speed_perturb
from .checkpoint import CheckpointMeta, save_checkpoint
from .datapipe import FeatureStore, stack_padded
from .errors import ConfigError, DataError
from .evaluation import predict
from .labels import NUM_CLASSES
from .losses import (
    DimTargets,
    LossConfig,
    ccc_loss_multi,
    class_weights_from_counts,
    smooth_labels,
    total_loss,
    weighted_cross_entropy,
)
from .optim import AdamWGroups, OptimizerConfig, ScheduleConfig, cosine_warmup_lr

log = logging.getLogger("serkit.training")


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 32
    patience: int = 3
    seed: int = 0
    max_frames: int = 0          # >0 crops features to this many frames
    warmup_ratio: float = ScheduleConfig.warmup_ratio
    min_lr_factor: float = ScheduleConfig.min_lr_factor

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ConfigError("epochs, batch_size and patience must all be >= 1")
        if self.max_frames < 0:
            raise ConfigError(f"max_frames must be >= 0 (0 keeps every frame), got {self.max_frames}")


@dataclass
class TrainState:
    epoch: int = 0
    global_step: int = 0
    best_dev_cat_loss: float = math.inf
    epochs_since_improvement: int = 0
    seed: int = 0
    history: list = field(default_factory=list)   # (path, epoch, dev_cat_loss)

    def record_epoch(self, checkpoint_path: str, epoch: int, dev_cat_loss: float,
                     patience: int) -> bool:
        """Record one finished epoch; returns True when training should stop."""
        self.epoch = epoch
        self.history.append((checkpoint_path, epoch, dev_cat_loss))
        if dev_cat_loss < self.best_dev_cat_loss:
            self.best_dev_cat_loss = dev_cat_loss
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
        return self.epochs_since_improvement >= patience

    def summary(self, relative_to: str) -> dict:
        return {
            "epoch": self.epoch,
            "global_step": self.global_step,
            "best_dev_cat_loss": self.best_dev_cat_loss,
            "epochs_since_improvement": self.epochs_since_improvement,
            "seed": self.seed,
            "history": [
                {"checkpoint": os.path.relpath(path, relative_to), "epoch": epoch,
                 "dev_cat_loss": loss}
                for path, epoch, loss in self.history
            ],
        }


def check_disjoint_splits(train_records: list, dev_records: list) -> None:
    shared = {r.id for r in train_records} & {r.id for r in dev_records}
    if shared:
        raise DataError(f"train/dev overlap on ids: {sorted(shared)[:5]}")


def _sample_rng(seed: int, epoch: int, utterance_id: str) -> np.random.Generator:
    """Per-sample substream: parallel batch assembly cannot change results."""
    return np.random.default_rng((seed, epoch, zlib.crc32(utterance_id.encode())))


def _prepare_features(record, store: FeatureStore, cfg: TrainConfig,
                      augment: AugmentConfig, noise_source, epoch: int) -> np.ndarray:
    features = store.get(record)
    if cfg.max_frames > 0:
        features = features[: cfg.max_frames]
    rng = _sample_rng(cfg.seed, epoch, record.id)
    if augment.enable_speed:
        factor = float(rng.choice(list(augment.speed_factors) + [1.0]))
        features = speed_perturb(features, factor)
    if augment.enable_noise:
        snr_db = float(rng.uniform(*augment.noise_snr_db))
        features = add_noise_snr(features, snr_db, noise_source, rng)
    return features


def compute_batch_loss(model, features_batch, lengths, cat_targets, dim_targets,
                       loss_cfg: LossConfig):
    """Forward a padded [B, T, D] batch with valid lengths [B]; returns (total, ce, cccl)."""
    smoothed = smooth_labels(cat_targets, loss_cfg.epsilon_smooth)
    out = model.forward(features_batch, lengths)
    ce = weighted_cross_entropy(out.cat_probs, smoothed, loss_cfg.class_weights)
    cccl = ccc_loss_multi(dim_targets, out.dim_tensor, eps=loss_cfg.eps_ccc)
    return total_loss(ce, cccl, loss_cfg), ce, cccl


def dev_categorical_loss(model, records: list, loss_cfg: LossConfig,
                         store: FeatureStore, max_frames: int = 0) -> float:
    """Weighted smoothed CE over the dev set, augmentation-free."""
    targets = np.zeros((len(records), NUM_CLASSES))
    targets[np.arange(len(records)), [r.label_index for r in records]] = 1.0
    smoothed = smooth_labels(targets, loss_cfg.epsilon_smooth)
    features = [store.get(r)[:max_frames] if max_frames > 0 else store.get(r) for r in records]
    probs, _ = predict([model], features)
    return float(weighted_cross_entropy(Tensor(probs), smoothed, loss_cfg.class_weights).item())


def _batch_targets(records: list) -> tuple:
    cats = np.zeros((len(records), NUM_CLASSES))
    values = np.zeros((len(records), 3))
    mask = np.zeros(len(records), dtype=bool)
    for i, record in enumerate(records):
        cats[i, record.label_index] = 1.0
        if record.has_dims:
            values[i] = record.dim_array()
            mask[i] = True
    return cats, DimTargets(values=values, present_mask=mask)


def train_loop(model, train_records: list, dev_records: list, out_dir: str,
               loss_cfg: LossConfig, opt_cfg: OptimizerConfig, train_cfg: TrainConfig,
               augment_cfg: AugmentConfig,
               config_hash: bytes = b"\x00" * 32) -> TrainState:
    """Full training run; returns the final TrainState (checkpoints on disk)."""
    if not train_records or not dev_records:
        raise DataError("train and dev manifests must be non-empty")
    check_disjoint_splits(train_records, dev_records)

    counts = np.zeros(NUM_CLASSES)
    for record in train_records:
        counts[record.label_index] += 1
    loss_cfg = replace(loss_cfg, class_weights=class_weights_from_counts(counts))

    steps_per_epoch = math.ceil(len(train_records) / train_cfg.batch_size)
    schedule = ScheduleConfig(total_steps=train_cfg.epochs * steps_per_epoch,
                              warmup_ratio=train_cfg.warmup_ratio,
                              min_lr_factor=train_cfg.min_lr_factor)
    optimizer = AdamWGroups(model.backbone_parameters(), model.downstream_parameters(), opt_cfg)
    noise_source = make_noise_source(augment_cfg) if augment_cfg.enable_noise else None
    store = FeatureStore()
    state = TrainState(seed=train_cfg.seed)

    os.makedirs(out_dir, exist_ok=True)
    checkpoint_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(checkpoint_dir, exist_ok=True)
    train_log = open(os.path.join(out_dir, "train_log.csv"), "w", encoding="utf-8")
    train_log.write("step,epoch,lr_backbone,lr_downstream,train_loss,ce,ccc_loss\n")
    epoch_log = open(os.path.join(out_dir, "epoch_log.csv"), "w", encoding="utf-8")
    epoch_log.write("epoch,dev_cat_loss,best_dev_cat_loss,checkpoint\n")

    try:
        for epoch in range(1, train_cfg.epochs + 1):
            order = np.random.default_rng((train_cfg.seed, epoch)).permutation(len(train_records))
            for batch_index in range(steps_per_epoch):
                rows = order[batch_index * train_cfg.batch_size:
                             (batch_index + 1) * train_cfg.batch_size]
                batch_records = [train_records[i] for i in rows]
                feature_list = [
                    _prepare_features(r, store, train_cfg, augment_cfg, noise_source, epoch)
                    for r in batch_records
                ]
                features, lengths = stack_padded(feature_list)
                cats, dim_targets = _batch_targets(batch_records)
                if augment_cfg.enable_mixup:
                    mix_rng = np.random.default_rng((train_cfg.seed, epoch, batch_index, 7))
                    features, lengths, cats, dim_targets = mixup_batch(
                        features, lengths, cats, dim_targets, augment_cfg, mix_rng)

                loss, ce, cccl = compute_batch_loss(model, features, lengths, cats, dim_targets,
                                                    loss_cfg)
                model.zero_grad()
                loss.backward()
                state.global_step += 1
                scale = cosine_warmup_lr(state.global_step, 1.0, schedule)
                optimizer.step(scale)
                lr_b, lr_d = optimizer.learning_rates(scale)
                train_log.write(
                    f"{state.global_step},{epoch},{lr_b:.17g},{lr_d:.17g},"
                    f"{loss.item():.17g},{ce.item():.17g},{cccl.item():.17g}\n"
                )

            dev_loss = dev_categorical_loss(model, dev_records, loss_cfg, store,
                                            max_frames=train_cfg.max_frames)
            path = os.path.join(checkpoint_dir, f"epoch_{epoch:03d}.serc")
            save_checkpoint(path, model.state_arrays(),
                            CheckpointMeta(epoch=epoch, global_step=state.global_step,
                                           dev_cat_loss=dev_loss, config_hash=config_hash))
            stop = state.record_epoch(path, epoch, dev_loss, train_cfg.patience)
            epoch_log.write(f"{epoch},{dev_loss:.17g},{state.best_dev_cat_loss:.17g},"
                            f"{os.path.relpath(path, out_dir)}\n")
            log.info("epoch %d: dev_cat_loss=%.6f (best %.6f)", epoch, dev_loss,
                     state.best_dev_cat_loss)
            if stop:
                log.info("early stop after %d epochs without improvement",
                         state.epochs_since_improvement)
                break
    finally:
        train_log.close()
        epoch_log.close()
    return state

