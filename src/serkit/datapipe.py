"""Data machinery: manifests, feature files, pseudo-label consensus, synthetic sets.

Manifests are newline-delimited JSON, one utterance per line. Feature files
are a small binary format: magic "SERF", u32 version=1, u32 frames, u32 dim,
then finite float32 little-endian row-major frames. Relative feature paths
resolve against the manifest's directory so generated datasets stay
relocatable.

The pseudo-labeling pipeline follows the two-predictor consensus scheme:
labels are estimated on 4 s windows hopped every 2 s; a window becomes
emotional only when both predictors agree on the same one of the six
non-neutral emotions, otherwise it falls back to neutral; an utterance takes
its modal emotional label when that label covers enough windows.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError
from .labels import EMOTIONAL_SET, EMOTIONS, EmotionLabel, parse_predictor_label

FEATURE_MAGIC = b"SERF"
FEATURE_VERSION = 1

VALID_SPLITS = ("train", "dev", "eval")

# Longest merged evaluation segment, in seconds.
MERGE_CAP_S = 15.0


# -- manifest records --------------------------------------------------------


# Manifest line fields beyond the required id, frames, frame_rate_hz and label.
_OPTIONAL_FIELDS = ("features_path", "split", "arousal", "valence", "dominance", "language",
                    "prev_label")


def _frame_count(value) -> int:
    """A JSON `frames` value: 5 and 5.0 read as 5, a bool or a fractional number is an error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise DataError(f"frames must be a whole number, got {value!r}")
    return int(value)


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
        if not isinstance(self.features_path, str):
            raise DataError(f"record {self.id}: features_path must be a string")
        if not self.frames >= 1:
            raise DataError(f"record {self.id}: frames={self.frames} must be >= 1")
        if not (math.isfinite(self.frame_rate_hz) and self.frame_rate_hz > 0):
            raise DataError(f"record {self.id}: frame_rate_hz={self.frame_rate_hz} is not a "
                            f"finite positive rate")
        EmotionLabel.from_name(self.label)  # validates
        if self.prev_label is not None:
            EmotionLabel.from_name(self.prev_label)
        if self.language is not None and not isinstance(self.language, str):
            raise DataError(f"record {self.id}: language must be a string, got {self.language!r}")
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
        keys = ("id", "frames", "frame_rate_hz", "label") + _OPTIONAL_FIELDS
        payload = {key: getattr(self, key) for key in keys if getattr(self, key) is not None}
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_dict(obj: dict, base_dir: Optional[str] = None) -> "ManifestRecord":
        optional = {key: obj[key] for key in _OPTIONAL_FIELDS if key in obj}
        return ManifestRecord(id=obj["id"], frames=_frame_count(obj["frames"]),
                              frame_rate_hz=float(obj["frame_rate_hz"]), label=obj["label"],
                              base_dir=base_dir, **{"features_path": "", **optional})


def open_binary(path: str, error=DataError):
    """`open(path, "rb")`; a path that cannot be opened raises `error` naming it."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


def text_lines(path: str, error=DataError):
    """(line number, text) for each line of a UTF-8 file.

    A path that cannot be opened, and a line that does not decode, raise
    `error` naming the path (and `path:line`).
    """
    with open_binary(path, error) as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                message = f"{path}:{line_no}: not UTF-8 ({exc.reason} at byte {exc.start})"
                raise error(message) from None
            yield line_no, line


def _read_jsonl(path: str, what: str, parse: Callable, key: Optional[Callable] = None) -> list:
    """`parse(obj)` for every line of a JSONL file, each line one JSON object.

    Blank lines are skipped. With `key`, two rows with the same `key(row)`
    are an error. An unreadable or empty file, bytes that are not UTF-8, bad
    JSON, a line that is not an object, a duplicate and any KeyError,
    TypeError, ValueError, ArithmeticError or DataError from `parse` all
    raise one DataError naming `path:line`.
    """
    rows = []
    seen = set()
    for line_no, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise DataError(f"line is not a JSON object: {line[:40]!r}")
            row = parse(obj)
            if key is not None:
                if key(row) in seen:
                    raise DataError(f"duplicate id {key(row)!r}")
                seen.add(key(row))
            rows.append(row)
        except KeyError as exc:
            raise DataError(f"{path}:{line_no}: missing field {exc}") from None
        except DataError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        except (TypeError, ValueError, ArithmeticError, RecursionError) as exc:
            raise DataError(f"{path}:{line_no}: bad {what} line ({exc})") from None
    if not rows:
        raise DataError(f"{what} is empty: {path}")
    return rows


def read_manifest(path: str) -> list:
    base_dir = os.path.dirname(os.path.abspath(path))
    return _read_jsonl(path, "manifest", lambda obj: ManifestRecord.from_dict(obj, base_dir),
                       key=lambda record: record.id)


def write_manifest(path: str, records) -> None:
    """Write records in deterministic id-sorted order.

    A record read from a manifest (one with a `base_dir`) has its relative
    `features_path` rewritten relative to `path`'s directory, so the new
    manifest names the same feature files wherever it is written.
    """
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in sorted(records, key=lambda r: r.id):
            if record.base_dir is not None and not os.path.isabs(record.features_path):
                record = replace(record, features_path=os.path.relpath(
                    record.resolved_features_path(), out_dir))
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
    with open_binary(path) as handle:
        magic = handle.read(4)
        if magic != FEATURE_MAGIC:
            raise DataError(f"bad feature file magic in {path}: {magic!r}")
        header = handle.read(12)
        if len(header) != 12:
            raise DataError(f"truncated feature file header in {path}")
        version, frames, dim = struct.unpack("<III", header)
        if version != FEATURE_VERSION:
            raise DataError(f"unsupported feature file version {version} in {path}")
        if frames == 0 or dim == 0:
            raise DataError(f"empty feature file {path}: {frames} x {dim} values")
        size = frames * dim * 4
        stored = os.fstat(handle.fileno()).st_size - 16
        if stored != size:
            kind = "truncated" if stored < size else "overlong"
            raise DataError(f"{kind} feature file {path}: header claims {frames} x {dim} "
                            f"float32 values, payload is {stored} bytes")
        payload = handle.read(size)
    features = np.frombuffer(payload, dtype="<f4").reshape(frames, dim)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite feature value in {path} at frame {int(np.argmin(finite))}")
    return features.astype(np.float64)


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


def stack_padded(feature_list: list) -> tuple:
    """Zero-pad each [T, D] matrix at the end to the batch max length.

    Returns (features [B, T_max, D], lengths [B]).
    """
    lengths = np.array([f.shape[0] for f in feature_list])
    out = np.zeros((len(feature_list), lengths.max(), feature_list[0].shape[1]))
    for i, features in enumerate(feature_list):
        out[i, : features.shape[0]] = features
    return out, lengths


# -- windowed consensus pseudo-labeling ---------------------------------------


# Lowercase predictor names of the six non-neutral emotions.
EMOTIONAL_NAMES = frozenset(label.name.lower() for label in EMOTIONAL_SET)


@dataclass
class ConsensusConfig:
    window_s: float = 4.0
    hop_s: float = 2.0
    min_emotional_fraction: float = 0.25

    def __post_init__(self):
        if self.hop_s <= 0 or self.window_s <= 0 or self.hop_s > self.window_s:
            raise ConfigError(
                f"need 0 < hop <= window, got hop={self.hop_s}, window={self.window_s}"
            )
        if not 0.0 < self.min_emotional_fraction <= 1.0:
            raise ConfigError(
                f"min_emotional_fraction must be in (0, 1], got {self.min_emotional_fraction}"
            )


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


def consensus_label(a: str, b: str) -> EmotionLabel:
    """Identical predictions inside the six-emotion set win; everything else is Neutral."""
    a = parse_predictor_label(a)
    b = parse_predictor_label(b)
    if a == b and a in EMOTIONAL_NAMES:
        return EmotionLabel.from_name(a)
    return EmotionLabel.NEUTRAL


def utterance_pseudo_label(window_labels: list, cfg: ConsensusConfig) -> EmotionLabel:
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
        return EmotionLabel.NEUTRAL
    modal_label, modal_count = max(emotional, key=lambda item: (item[1], -int(item[0])))
    if modal_count / len(window_labels) >= cfg.min_emotional_fraction:
        return modal_label
    return EmotionLabel.NEUTRAL


def _window_prediction(obj: dict) -> tuple:
    """One line of a per-predictor JSONL: utterance_id, window_start_s, window_end_s, label."""
    if not isinstance(obj["utterance_id"], str):
        raise DataError(f"utterance_id must be a string, got {obj['utterance_id']!r}")
    window = (float(obj["window_start_s"]), float(obj["window_end_s"]))
    return obj["utterance_id"], window, parse_predictor_label(obj["label"])


def _read_window_predictions(path: str) -> dict:
    by_utterance: dict = {}
    for utt, window, label in _read_jsonl(path, "prediction file", _window_prediction):
        by_utterance.setdefault(utt, {})[window] = label
    return by_utterance


def _duration_row(obj: dict) -> tuple:
    """One line of a durations JSONL: id + duration_s (or frames + frame_rate_hz).

    Returns (record, duration_s); the record's label is a placeholder until
    the consensus labels it.
    """
    if "duration_s" in obj:
        duration = float(obj["duration_s"])
        frame_rate = float(obj.get("frame_rate_hz", 100.0))
        frames = _frame_count(obj.get("frames", round(duration * frame_rate)))
    elif "frames" in obj and "frame_rate_hz" in obj:
        frames = _frame_count(obj["frames"])
        frame_rate = float(obj["frame_rate_hz"])
        duration = frames / frame_rate
    else:
        raise DataError("need duration_s or frames+frame_rate_hz")
    record = ManifestRecord(id=obj["id"], features_path=obj.get("features_path", ""),
                            frames=frames, frame_rate_hz=frame_rate, label="Neutral",
                            split=obj.get("split", "train"), language=obj.get("language"))
    return record, duration


def pseudo_label_files(pred_a_path: str, pred_b_path: str, durations_path: str,
                       cfg: ConsensusConfig) -> tuple:
    """Consensus-label every utterance of a durations file from two predictors' windows.

    Returns (manifest records, stats): the stats give the utterance and
    window counts, the fraction of windows that fell back to neutral, and
    the per-class utterance counts.
    """
    preds_a = _read_window_predictions(pred_a_path)
    preds_b = _read_window_predictions(pred_b_path)
    durations = _read_jsonl(durations_path, "durations file", _duration_row,
                            key=lambda row: row[0].id)
    wanted = {record.id for record, _ in durations}
    missing = sorted((wanted - set(preds_a)) | (wanted - set(preds_b))
                     | (set(preds_a) ^ set(preds_b)))
    if missing:
        raise DataError(f"prediction files do not cover the same ids; missing: {missing[:10]}")

    records = []
    class_counts = {label.canonical_name: 0 for label in EmotionLabel}
    n_windows = 0
    n_neutral_windows = 0
    for record, duration in durations:
        utt = record.id
        if duration > cfg.hop_s * (len(preds_a[utt]) + 1) + cfg.window_s:
            # more windows than the predictions hold; fail before enumerating them
            raise DataError(f"utterance {utt}: {duration} s is longer than its "
                            f"{len(preds_a[utt])} predicted windows cover")
        labels = []
        for start, end in window_split(duration, cfg):
            key = (start, end)
            if key not in preds_a[utt] or key not in preds_b[utt]:
                raise DataError(
                    f"utterance {utt}: window ({start}, {end}) missing from predictions"
                )
            label = consensus_label(preds_a[utt][key], preds_b[utt][key])
            labels.append(label)
            n_windows += 1
            if label == EmotionLabel.NEUTRAL:
                n_neutral_windows += 1
        name = utterance_pseudo_label(labels, cfg).canonical_name
        class_counts[name] += 1
        records.append(replace(record, label=name))
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
    if not cap_s > 0:
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
