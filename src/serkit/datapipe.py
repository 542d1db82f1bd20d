"""Data machinery: manifests, feature files, pseudo-label consensus, synthetic sets.

Manifests are newline-delimited JSON, one utterance per line. Feature files
are a small binary format: magic "SERF", u32 version=1, u32 frames, u32 dim,
then float32 little-endian row-major frames. Relative feature paths resolve
against the manifest's directory so generated datasets stay relocatable.

The pseudo-labeling pipeline follows the two-predictor consensus scheme:
labels are estimated on 4 s windows hopped every 2 s; a window becomes
emotional only when both predictors agree on the same one of the six
non-neutral emotions, otherwise it falls back to neutral; an utterance takes
its modal emotional label when that label covers enough windows.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError
from .labels import EMOTIONAL_SET, EMOTIONS, EmotionLabel, parse_predictor_label

log = logging.getLogger("serkit.datapipe")

FEATURE_MAGIC = b"SERF"
FEATURE_VERSION = 1

VALID_SPLITS = ("train", "dev", "eval")

# Longest merged evaluation segment, in seconds.
MERGE_CAP_S = 15.0


# -- manifest records --------------------------------------------------------


@dataclass
class ManifestRecord:
    id: str
    features_path: str
    frames: int
    frame_rate_hz: float
    label: str
    arousal: Optional[float] = None
    valence: Optional[float] = None
    dominance: Optional[float] = None
    split: str = "train"
    language: Optional[str] = None
    prev_label: Optional[str] = None
    base_dir: Optional[str] = None  # resolution root, never serialized

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise DataError(f"record id must be a non-empty string, got {self.id!r}")
        if not (math.isfinite(self.frame_rate_hz) and self.frame_rate_hz > 0):
            raise DataError(f"record {self.id}: frame_rate_hz={self.frame_rate_hz} is not a "
                            f"finite positive rate")
        EmotionLabel.from_name(self.label)  # validates
        if self.split not in VALID_SPLITS:
            raise DataError(f"record {self.id}: bad split {self.split!r}")
        for dim_name in ("arousal", "valence", "dominance"):
            value = getattr(self, dim_name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise DataError(f"record {self.id}: {dim_name}={value} outside [0, 1]")

    @property
    def label_index(self) -> int:
        return int(EmotionLabel.from_name(self.label))

    @property
    def duration_s(self) -> float:
        return self.frames / self.frame_rate_hz

    @property
    def has_dims(self) -> bool:
        return None not in (self.arousal, self.valence, self.dominance)

    def dim_array(self) -> np.ndarray:
        if not self.has_dims:
            return np.zeros(3)
        return np.array([self.arousal, self.valence, self.dominance])

    def resolved_features_path(self) -> str:
        if os.path.isabs(self.features_path) or self.base_dir is None:
            return self.features_path
        return os.path.join(self.base_dir, self.features_path)

    def to_json(self) -> str:
        payload = {
            "id": self.id,
            "features_path": self.features_path,
            "frames": self.frames,
            "frame_rate_hz": self.frame_rate_hz,
            "label": self.label,
            "split": self.split,
        }
        for key in ("arousal", "valence", "dominance", "language", "prev_label"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(line: str, base_dir: Optional[str] = None) -> "ManifestRecord":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed manifest line: {exc}") from None
        if not isinstance(payload, dict):
            raise DataError(f"manifest line is not a JSON object: {line[:40]!r}")
        try:
            return ManifestRecord(
                id=payload["id"],
                features_path=payload.get("features_path", ""),
                frames=int(payload["frames"]),
                frame_rate_hz=float(payload["frame_rate_hz"]),
                label=payload["label"],
                arousal=payload.get("arousal"),
                valence=payload.get("valence"),
                dominance=payload.get("dominance"),
                split=payload.get("split", "train"),
                language=payload.get("language"),
                prev_label=payload.get("prev_label"),
                base_dir=base_dir,
            )
        except KeyError as exc:
            raise DataError(f"manifest line missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"bad value in manifest line ({exc})") from None


def read_manifest(path: str) -> list:
    if not os.path.exists(path):
        raise DataError(f"manifest not found: {path}")
    base_dir = os.path.dirname(os.path.abspath(path))
    records = []
    seen = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = ManifestRecord.from_json(line, base_dir=base_dir)
            except DataError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from None
            if record.id in seen:
                raise DataError(f"duplicate utterance id {record.id!r} in {path}")
            seen.add(record.id)
            records.append(record)
    if not records:
        raise DataError(f"manifest is empty: {path}")
    return records


def write_manifest(path: str, records) -> None:
    """Write records in deterministic id-sorted order."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in sorted(records, key=lambda r: r.id):
            handle.write(record.to_json() + "\n")


# -- feature files -----------------------------------------------------------


def write_features(path: str, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise DataError(f"feature matrix must be [T, D], got shape {features.shape}")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(FEATURE_MAGIC)
        handle.write(struct.pack("<III", FEATURE_VERSION, features.shape[0], features.shape[1]))
        handle.write(features.astype("<f4").tobytes(order="C"))


def read_features(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise DataError(f"feature file not found: {path}")
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != FEATURE_MAGIC:
            raise DataError(f"bad feature file magic in {path}: {magic!r}")
        header = handle.read(12)
        if len(header) != 12:
            raise DataError(f"truncated feature file header in {path}")
        version, frames, dim = struct.unpack("<III", header)
        if version != FEATURE_VERSION:
            raise DataError(f"unsupported feature file version {version} in {path}")
        payload = handle.read(frames * dim * 4)
        if len(payload) != frames * dim * 4:
            raise DataError(f"truncated feature file {path}")
    return np.frombuffer(payload, dtype="<f4").reshape(frames, dim).astype(np.float64)


def load_record_features(record: ManifestRecord) -> np.ndarray:
    features = read_features(record.resolved_features_path())
    if features.shape[0] != record.frames:
        raise DataError(
            f"record {record.id}: manifest says {record.frames} frames, "
            f"feature file has {features.shape[0]}"
        )
    return features


class FeatureStore:
    """Tiny read-through cache for repeated epoch passes over one manifest."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, record: ManifestRecord) -> np.ndarray:
        cached = self._cache.get(record.id)
        if cached is None:
            cached = load_record_features(record)
            self._cache[record.id] = cached
        return cached


# -- windowed consensus pseudo-labeling ---------------------------------------


@dataclass
class ConsensusConfig:
    window_s: float = 4.0
    hop_s: float = 2.0
    min_emotional_fraction: float = 0.25
    emotional_set: frozenset = field(
        default_factory=lambda: frozenset(label.name.lower() for label in EMOTIONAL_SET)
    )

    def __post_init__(self):
        if self.hop_s <= 0 or self.window_s <= 0 or self.hop_s > self.window_s:
            raise ConfigError(
                f"need 0 < hop <= window, got hop={self.hop_s}, window={self.window_s}"
            )
        if not 0.0 < self.min_emotional_fraction <= 1.0:
            raise ConfigError(
                f"min_emotional_fraction must be in (0, 1], got {self.min_emotional_fraction}"
            )


@dataclass
class WindowPrediction:
    """One 4 s window with both predictors' 9-class outputs."""

    utterance_id: str
    window_start_s: float
    window_end_s: float
    label_a: str
    label_b: str

    def __post_init__(self):
        self.label_a = parse_predictor_label(self.label_a)
        self.label_b = parse_predictor_label(self.label_b)


def window_split(duration_s: float, cfg: ConsensusConfig) -> list:
    """Windows [0,4], [2,6], ... with 2 s hop; final window truncated at duration.

    At least one window is always emitted; the last full window is not
    followed by a redundant truncated one when it already reaches the end.
    """
    if duration_s <= 0:
        raise DataError(f"window split needs positive duration, got {duration_s}")
    windows = []
    start = 0.0
    while start + cfg.window_s <= duration_s + 1e-9:
        windows.append((start, start + cfg.window_s))
        start += cfg.hop_s
    if not windows:
        return [(0.0, duration_s)]
    if windows[-1][1] < duration_s - 1e-9:
        windows.append((start, duration_s))
    return windows


def consensus_label(a: str, b: str, cfg: ConsensusConfig | None = None) -> EmotionLabel:
    """Identical predictions inside the six-emotion set win; everything else is Neutral."""
    cfg = cfg or ConsensusConfig()
    a = parse_predictor_label(a)
    b = parse_predictor_label(b)
    if a == b and a in cfg.emotional_set:
        return EmotionLabel.from_name(a)
    return EmotionLabel.NEUTRAL


@dataclass
class PseudoLabel:
    label: EmotionLabel
    keep: bool
    emotional_fraction: float


def utterance_pseudo_label(window_labels: list, cfg: ConsensusConfig) -> PseudoLabel:
    """Modal non-neutral label if it covers >= min_emotional_fraction of windows.

    Modal ties break deterministically by canonical label order.
    """
    if not window_labels:
        raise DataError("utterance has no windows")
    counts = {label: 0 for label in EMOTIONS}
    for label in window_labels:
        counts[label] += 1
    emotional = [(label, counts[label]) for label in EMOTIONS
                 if label != EmotionLabel.NEUTRAL and counts[label] > 0]
    if not emotional:
        return PseudoLabel(EmotionLabel.NEUTRAL, True, 0.0)
    modal_label, modal_count = max(emotional, key=lambda item: (item[1], -int(item[0])))
    fraction = modal_count / len(window_labels)
    if fraction >= cfg.min_emotional_fraction:
        return PseudoLabel(modal_label, True, fraction)
    return PseudoLabel(EmotionLabel.NEUTRAL, True, fraction)


def _read_window_predictions(path: str) -> dict:
    """Per-predictor JSONL: utterance_id, window_start_s, window_end_s, label."""
    if not os.path.exists(path):
        raise DataError(f"prediction file not found: {path}")
    by_utterance: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                utt = payload["utterance_id"]
                window = (float(payload["window_start_s"]), float(payload["window_end_s"]))
                label = payload["label"]
                by_utterance.setdefault(utt, {})[window] = label
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: bad window prediction ({exc})") from None
    if not by_utterance:
        raise DataError(f"prediction file is empty: {path}")
    return by_utterance


def _read_durations(path: str) -> list:
    """JSONL of id + duration_s (or frames + frame_rate_hz), with passthrough fields."""
    if not os.path.exists(path):
        raise DataError(f"durations file not found: {path}")
    rows = []
    seen = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                utt = payload["id"]
                if "duration_s" in payload:
                    duration = float(payload["duration_s"])
                    frame_rate = float(payload.get("frame_rate_hz", 100.0))
                    frames = int(payload.get("frames", round(duration * frame_rate)))
                elif "frames" in payload and "frame_rate_hz" in payload:
                    frames = int(payload["frames"])
                    frame_rate = float(payload["frame_rate_hz"])
                    duration = frames / frame_rate
                else:
                    raise DataError(f"{path}:{line_no}: need duration_s or frames+frame_rate_hz")
                if utt in seen:
                    raise DataError(f"{path}:{line_no}: duplicate id {utt!r}")
            except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
                raise DataError(f"{path}:{line_no}: bad durations line ({exc})") from None
            seen.add(utt)
            rows.append({
                "id": utt, "duration_s": duration, "frames": frames,
                "frame_rate_hz": frame_rate,
                "features_path": payload.get("features_path", ""),
                "split": payload.get("split", "train"),
                "language": payload.get("language"),
            })
    if not rows:
        raise DataError(f"durations file is empty: {path}")
    return rows


def pseudo_label_files(pred_a_path: str, pred_b_path: str, durations_path: str,
                       cfg: ConsensusConfig) -> tuple:
    """Consensus-label every utterance of a durations file from two predictors' windows.

    Returns (manifest records, stats): the stats give the utterance and
    window counts, the fraction of windows that fell back to neutral, and
    the per-class utterance counts.
    """
    preds_a = _read_window_predictions(pred_a_path)
    preds_b = _read_window_predictions(pred_b_path)
    durations = _read_durations(durations_path)
    wanted = {row["id"] for row in durations}
    missing = sorted((wanted - set(preds_a)) | (wanted - set(preds_b))
                     | (set(preds_a) ^ set(preds_b)))
    if missing:
        raise DataError(f"prediction files do not cover the same ids; missing: {missing[:10]}")

    records = []
    class_counts = {label.canonical_name: 0 for label in EmotionLabel}
    n_windows = 0
    n_neutral_windows = 0
    for row in durations:
        utt = row["id"]
        labels = []
        for start, end in window_split(row["duration_s"], cfg):
            key = (start, end)
            if key not in preds_a[utt] or key not in preds_b[utt]:
                raise DataError(
                    f"utterance {utt}: window ({start}, {end}) missing from predictions"
                )
            label = consensus_label(preds_a[utt][key], preds_b[utt][key], cfg)
            labels.append(label)
            n_windows += 1
            if label == EmotionLabel.NEUTRAL:
                n_neutral_windows += 1
        pseudo = utterance_pseudo_label(labels, cfg)
        class_counts[pseudo.label.canonical_name] += 1
        records.append(ManifestRecord(
            id=utt,
            features_path=row["features_path"],
            frames=row["frames"],
            frame_rate_hz=row["frame_rate_hz"],
            label=pseudo.label.canonical_name,
            split=row["split"],
            language=row["language"],
        ))
    stats = {
        "n_utterances": len(records),
        "n_windows": n_windows,
        "neutral_fallback_fraction": n_neutral_windows / n_windows if n_windows else 0.0,
        "per_class_counts": class_counts,
    }
    return records, stats


# -- segment merging -----------------------------------------------------------


def merge_segments(segments: list, cap_s: float = MERGE_CAP_S) -> list:
    """Merge consecutive equal-label (start, end, label) segments, capped at cap_s.

    Runs longer than the cap split exactly at cap boundaries, so total
    covered duration is conserved and no output segment exceeds cap_s.
    """
    if cap_s <= 0:
        raise ConfigError(f"merge cap must be > 0, got {cap_s}")
    if not segments:
        return []
    for (s0, e0, _), (s1, _e1, _l) in zip(segments, segments[1:]):
        if s1 < e0 - 1e-9:
            raise DataError(f"overlapping segments: ({s0}, {e0}) then start {s1}")
    for start, end, _ in segments:
        if end <= start:
            raise DataError(f"empty or inverted segment ({start}, {end})")

    runs = []
    run_start, run_end, run_label = segments[0]
    for start, end, label in segments[1:]:
        contiguous = abs(start - run_end) <= 1e-9
        if label == run_label and contiguous:
            run_end = end
        else:
            runs.append((run_start, run_end, run_label))
            run_start, run_end, run_label = start, end, label
    runs.append((run_start, run_end, run_label))

    merged = []
    for start, end, label in runs:
        t = start
        while end - t > cap_s + 1e-9:
            merged.append((t, t + cap_s, label))
            t += cap_s
        merged.append((t, end, label))
    return merged


def majority_vote(annotations: list) -> tuple:
    """Three-annotator vote: >= 2 agreeing wins; three-way split -> (Neutral, False)."""
    if len(annotations) != 3:
        raise DataError(f"majority vote needs exactly 3 annotations, got {len(annotations)}")
    for label in annotations:
        if annotations.count(label) >= 2:
            return label, True
    return EmotionLabel.NEUTRAL, False


# -- two-pass relabeling ---------------------------------------------------------


def two_pass_relabel(records: list, predict: Callable) -> tuple:
    """Relabel every record with `predict(features) -> (EmotionLabel, (a, v, d))`.

    The pass-1 label is preserved in the provenance field. Records whose
    feature file cannot be read are skipped and logged.
    """
    relabeled = []
    n_changed = 0
    n_skipped = 0
    for record in records:
        try:
            features = load_record_features(record)
        except DataError as exc:
            log.warning("skipping %s: %s", record.id, exc)
            n_skipped += 1
            continue
        label, (arousal, valence, dominance) = predict(features)
        new_name = label.canonical_name
        if new_name != record.label:
            n_changed += 1
        relabeled.append(ManifestRecord(
            id=record.id,
            features_path=record.features_path,
            frames=record.frames,
            frame_rate_hz=record.frame_rate_hz,
            label=new_name,
            arousal=float(arousal),
            valence=float(valence),
            dominance=float(dominance),
            split=record.split,
            language=record.language,
            prev_label=record.label,
            base_dir=record.base_dir,
        ))
    stats = {"n_total": len(records), "n_relabeled": len(relabeled),
             "n_changed": n_changed, "n_skipped": n_skipped}
    return relabeled, stats


# -- synthetic dataset ------------------------------------------------------------

# Class -> (arousal, valence, dominance) prototypes for generated targets;
# spreads kept wide so the targets carry clear per-dimension variance.
DIM_PROTOTYPES = {
    EmotionLabel.NEUTRAL: (0.50, 0.50, 0.50),
    EmotionLabel.HAPPY: (0.78, 0.90, 0.65),
    EmotionLabel.SAD: (0.18, 0.15, 0.25),
    EmotionLabel.ANGRY: (0.95, 0.10, 0.92),
    EmotionLabel.SURPRISED: (0.85, 0.70, 0.40),
    EmotionLabel.FEARFUL: (0.80, 0.20, 0.08),
    EmotionLabel.DISGUSTED: (0.62, 0.12, 0.72),
}

DIM_NOISE_SIGMA = 0.05


def synth_dataset(out_dir: str, n_per_class: int, frames: int = 16, dim: int = 16,
                  seed: int = 0, split: str = "train", frame_rate_hz: float = 8.0,
                  geometry_seed: int | None = None, feature_noise: float = 0.1) -> str:
    """Generate a separable 7-class dataset; returns the manifest path.

    Each class is a Gaussian cluster around a seeded centroid with a
    class-dependent sinusoidal modulation over time; dimensional targets
    come from the prototype table plus clipped noise. `geometry_seed`
    controls the class centroids separately from the sample noise so a
    dev/eval split can share the train split's class structure.
    """
    if n_per_class < 1:
        raise ConfigError("synth_dataset needs n_per_class >= 1")
    if geometry_seed is None:
        geometry_seed = seed
    geometry_rng = np.random.default_rng((geometry_seed, 71))
    centroids = 2.5 * geometry_rng.normal(size=(len(EMOTIONS), dim))
    rng = np.random.default_rng((seed, 72))
    records = []
    feature_dir = os.path.join(out_dir, "features")
    times = np.arange(frames) / frames
    for label in EMOTIONS:
        c = int(label)
        modulation = 1.0 + 0.4 * np.sin(2.0 * math.pi * ((c + 1) * times + c / 7.0))
        for i in range(n_per_class):
            features = centroids[c][None, :] * modulation[:, None]
            features = features + feature_noise * rng.normal(size=(frames, dim))
            arousal, valence, dominance = (
                float(np.clip(p + DIM_NOISE_SIGMA * rng.normal(), 0.0, 1.0))
                for p in DIM_PROTOTYPES[label]
            )
            utt_id = f"{split}-{label.name.lower()}-{i:04d}"
            rel_path = os.path.join("features", f"{utt_id}.serf")
            write_features(os.path.join(feature_dir, f"{utt_id}.serf"), features)
            records.append(ManifestRecord(
                id=utt_id,
                features_path=rel_path,
                frames=frames,
                frame_rate_hz=frame_rate_hz,
                label=label.canonical_name,
                arousal=arousal,
                valence=valence,
                dominance=dominance,
                split=split,
            ))
    manifest_path = os.path.join(out_dir, f"{split}.jsonl")
    write_manifest(manifest_path, records)
    return manifest_path
