"""Seeded input generator for the benchmark workloads.

Everything the program under test reads comes from here: SERF feature
files and JSONL manifests written with serkit's own writers, plus the
checkpoints for the evaluation ensemble. The same seed always yields
byte-identical files.
"""

from __future__ import annotations

import math
import os

import numpy as np

from serkit.checkpoint import CheckpointMeta, save_checkpoint
from serkit.config import RunConfig
from serkit.datapipe import DIM_PROTOTYPES, ManifestRecord, write_features, write_manifest
from serkit.labels import EMOTIONS, NUM_CLASSES
from serkit.model import SERModel

FRAME_RATE_HZ = 50.0
FEATURE_NOISE = 0.3
DIM_NOISE = 0.08
# Class centroids and the evaluated checkpoints stay fixed across seeds, like
# one speaker population from which each seed draws other utterances; per-seed
# ones would make the losses swing with the seed far more than with the code
# under test.
GEOMETRY_SEED = 0
# A training step pads every row to the batch's longest utterance after speed
# perturbation. With a third of the train set at the top of the band, nearly
# every batch holds one stretched by 1/0.9, so a step's cost does not swing
# with which utterance drew which speed factor.
TOP_SHARE = 1 / 3


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, *stream.encode()])


def _utterance(rng, centroid: np.ndarray, label: int, frames: int) -> np.ndarray:
    """Class centroid under a class-specific slow modulation, plus noise."""
    times = np.arange(frames) / FRAME_RATE_HZ
    modulation = 1.0 + 0.4 * np.sin(2.0 * math.pi * (0.5 * (label + 1) * times + label / 7.0))
    return centroid[None, :] * modulation[:, None] + FEATURE_NOISE * rng.normal(
        size=(frames, centroid.size))


def _write_split(out_dir: str, split: str, labels, lengths, centroids, rng) -> str:
    records = []
    for i, (label, frames) in enumerate(zip(labels, lengths)):
        utt_id = f"{split}-{i:05d}"
        rel_path = os.path.join("features", f"{utt_id}.serf")
        write_features(os.path.join(out_dir, rel_path),
                       _utterance(rng, centroids[label], int(label), int(frames)))
        arousal, valence, dominance = (
            float(np.clip(p + DIM_NOISE * rng.normal(), 0.0, 1.0))
            for p in DIM_PROTOTYPES[EMOTIONS[label]]
        )
        records.append(ManifestRecord(
            id=utt_id, features_path=rel_path, frames=int(frames),
            frame_rate_hz=FRAME_RATE_HZ, label=EMOTIONS[label].canonical_name,
            arousal=arousal, valence=valence, dominance=dominance, split=split,
        ))
    path = os.path.join(out_dir, f"{split}.jsonl")
    write_manifest(path, records)
    return path


def _centroids(dim: int) -> np.ndarray:
    return 2.5 * _rng(GEOMETRY_SEED, "geometry").normal(size=(NUM_CLASSES, dim))


def spread_lengths(n: int, frames: tuple, top_share: float = 0.0) -> np.ndarray:
    """n lengths over [lo, hi] frames: top_share of them at hi, the rest evenly spaced.

    Every seed gets the same multiset of lengths (only their order
    changes), so the work per run does not drift with the seed.
    """
    n_top = round(top_share * n)
    rest = np.linspace(frames[0], frames[1], n - n_top, endpoint=n_top == 0)
    return np.concatenate([np.round(rest), np.full(n_top, frames[1])]).astype(int)


def write_train_inputs(out_dir: str, seed: int, n_train: int, n_dev: int,
                       frames: tuple) -> tuple:
    """Train and dev splits sharing one class geometry; returns both manifest paths."""
    centroids = _centroids(RunConfig()["model.feature_dim"])
    paths = []
    for split, n in (("train", n_train), ("dev", n_dev)):
        rng = _rng(seed, split)
        labels = rng.permutation(np.arange(n) % NUM_CLASSES)
        lengths = rng.permutation(spread_lengths(n, frames, TOP_SHARE))
        paths.append(_write_split(out_dir, split, labels, lengths, centroids, rng))
    return tuple(paths)


def label_runs(rng, n_per_class: int, max_run: int = 3) -> np.ndarray:
    """Every class n_per_class times, cut into runs of 1..max_run equal labels.

    The runs come in seeded order; two runs of one label that land side by
    side simply form a longer run.
    """
    runs = []
    for label in range(NUM_CLASSES):
        left = n_per_class
        while left:
            size = int(rng.integers(1, min(max_run, left) + 1))
            runs.append([label] * size)
            left -= size
    return np.concatenate([runs[i] for i in rng.permutation(len(runs))])


def merged_segment_count(labels, lengths, cap_frames: int) -> int:
    """Segments that merging equal-label neighbours under a cap should give.

    Integer frame arithmetic, independent of serkit's float timeline: each
    run of equal labels splits into ceil(run_frames / cap_frames) pieces.
    """
    count = 0
    run_frames = 0
    for i, (label, frames) in enumerate(zip(labels, lengths)):
        run_frames += int(frames)
        if i + 1 == len(labels) or labels[i + 1] != label:
            count += -(-run_frames // cap_frames)
            run_frames = 0
    return count


def write_eval_inputs(out_dir: str, seed: int, n_per_class: int, frames: tuple,
                      n_checkpoints: int, merge_cap_s: float) -> tuple:
    """Eval manifest with label runs plus seeded checkpoints.

    Returns (manifest path, checkpoint paths, expected merged segment count).
    Record ids sort in timeline order, because merged scoring reads the
    manifest order as one contiguous timeline.
    """
    run_cfg = RunConfig()
    centroids = _centroids(run_cfg["model.feature_dim"])
    rng = _rng(seed, "eval")
    labels = label_runs(rng, n_per_class)
    lengths = rng.permutation(spread_lengths(len(labels), frames))
    manifest = _write_split(out_dir, "eval", labels, lengths, centroids, rng)
    cap_frames = round(merge_cap_s * FRAME_RATE_HZ)
    expected = merged_segment_count(labels, lengths, cap_frames)

    checkpoints = []
    ckpt_rng = _rng(GEOMETRY_SEED, "checkpoints")  # one ensemble, scored on per-seed data
    for i in range(n_checkpoints):
        model = SERModel(run_cfg.model_config(int(ckpt_rng.integers(0, 2**31))))
        state = model.state_arrays()
        for name in state:
            if name.endswith(".lora.B"):  # non-zero adapters, as after fine-tuning
                state[name] = ckpt_rng.normal(0.0, 0.02, size=state[name].shape)
        path = os.path.join(out_dir, "checkpoints", f"member_{i}.serc")
        save_checkpoint(path, state, CheckpointMeta(epoch=i + 1, global_step=i + 1,
                                                    dev_cat_loss=1.9 + 0.01 * i))
        checkpoints.append(path)
    return manifest, checkpoints, expected
