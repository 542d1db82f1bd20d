"""Evaluation: confusion counts, UAR, dimensional CCC, checkpoint ensembling,
and relabeling a manifest with an ensemble.

Confusion counts are a 7x7 int64 array: rows are reference labels, columns
predictions. UAR (balanced accuracy) is the principal metric: the
unweighted mean of per-class recalls over classes with support, optionally
restricted to the primary four classes (Neutral, Angry, Sad, Happy).
Ensembling averages the post-softmax probability vectors and post-sigmoid
dimension vectors of the models it is given; `predict` runs it over a list
of utterances for the dev pass, `evaluate_manifest` and `two_pass_relabel`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .autodiff import Tensor, no_grad
from .datapipe import MERGE_CAP_S, load_record_features, merge_segments, stack_padded
from .errors import DataError
from .labels import NUM_CLASSES, EmotionLabel
from .losses import ccc
from .model import ModelOutput

log = logging.getLogger("serkit.evaluation")

# Padded frames per `predict` group: 800-1600 beat B=1 and whole-set batches on dev and eval sets.
PREDICT_FRAMES = 1024

PRIMARY_FOUR = frozenset({EmotionLabel.NEUTRAL, EmotionLabel.ANGRY,
                          EmotionLabel.SAD, EmotionLabel.HAPPY})


def per_class_recall(cm: np.ndarray) -> np.ndarray:
    """Recall per class; NaN where the class has no support."""
    support = cm.sum(axis=1)
    with np.errstate(invalid="ignore"):
        recall = np.where(support > 0, np.diag(cm) / np.maximum(support, 1), np.nan)
    return recall


def uar(cm: np.ndarray, class_subset=None) -> float:
    """Mean recall over supported classes (optionally within a subset).

    Zero-support classes are excluded from the mean and reported in the log;
    predictions land in the full 7-way column space, so out-of-subset
    predictions count against their reference class.
    """
    classes = list(range(NUM_CLASSES)) if class_subset is None else sorted(
        int(c) for c in class_subset)
    recall = per_class_recall(cm)[classes]
    supported = ~np.isnan(recall)
    if not supported.any():
        raise DataError("UAR undefined: no class in the subset has support")
    excluded = [EmotionLabel(c).canonical_name for c, ok in zip(classes, supported) if not ok]
    if excluded:
        log.info("UAR excludes zero-support classes: %s", ", ".join(excluded))
    return float(np.mean(recall[supported]))


def weighted_accuracy(cm: np.ndarray) -> float:
    total = cm.sum()
    if total == 0:
        raise DataError("weighted accuracy undefined on an empty confusion matrix")
    return float(np.trace(cm) / total)


def ccc_metric(refs: np.ndarray, preds: np.ndarray) -> tuple:
    """Per-dimension CCC over the full eval set: the loss's `ccc` with eps 0.

    A constant reference dimension yields 0.0 with a warning instead of 0/0.
    """
    refs = np.asarray(refs, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if refs.shape != preds.shape or refs.ndim != 2 or refs.shape[1] != 3:
        raise DataError(f"ccc_metric expects matching [n, 3] arrays, got {refs.shape}, {preds.shape}")
    if refs.shape[0] < 2:
        raise DataError(f"ccc_metric needs n >= 2, got {refs.shape[0]}")
    out = []
    for dim in range(3):    # one column at a time: an [n, 3] `ccc` call rounds differently
        y = refs[:, dim]
        if np.all(y == y[0]):   # tested on the values: a float mean of equal values can miss them
            log.warning("constant reference in CCC dimension %d: reporting 0", dim)
            out.append(0.0)
        else:
            out.append(ccc(y, preds[:, dim], eps=0.0).item())
    return tuple(out)


def select_top_checkpoints(history: list, k: int = 4) -> list:
    """k paths of `TrainState.history` entries (path, epoch, dev_cat_loss) with the lowest
    dev categorical loss; ties keep the earlier entry."""
    if not history:
        raise DataError("checkpoint history is empty")
    ranked = sorted(range(len(history)), key=lambda i: (history[i][2], i))
    return [history[i][0] for i in ranked[:k]]


def ensemble_predict(models: list, features, lengths=None) -> ModelOutput:
    """Arithmetic mean of post-softmax probabilities and post-sigmoid dims.

    Takes what `SERModel.forward` takes. The member forwards link no graph.
    """
    if not models:
        raise DataError("ensemble needs at least one model")
    with no_grad():
        outs = [model.forward(features, lengths) for model in models]
    probs = sum(out.cat_probs.data for out in outs) / len(models)
    dims = sum(out.dim_tensor.data for out in outs) / len(models)
    return ModelOutput(cat_probs=Tensor(probs), dim_tensor=Tensor(dims))


def predict(models: list, feature_list: list) -> tuple:
    """Ensemble (probs [N, 7], dims [N, 3]) of [T, D] utterances, rows in input order.

    Utterances run shortest first, in padded groups of at most PREDICT_FRAMES
    frames (rows x longest) or of one longer utterance. A row depends neither
    on its batch-mates nor on padding, so grouping sets only speed and memory.
    """
    if not models:
        raise DataError("ensemble needs at least one model")
    groups = []
    for i in sorted(range(len(feature_list)), key=lambda j: len(feature_list[j])):
        if groups and (len(groups[-1]) + 1) * len(feature_list[i]) <= PREDICT_FRAMES:
            groups[-1].append(i)    # sorted, so utterance i is the group's longest
        else:
            groups.append([i])
    probs, dims = np.zeros((len(feature_list), NUM_CLASSES)), np.zeros((len(feature_list), 3))
    for rows in groups:
        out = ensemble_predict(models, *stack_padded([feature_list[i] for i in rows]))
        probs[rows], dims[rows] = out.cat_probs.data, out.dim_tensor.data
    return probs, dims


def two_pass_relabel(models: list, records: list) -> tuple:
    """Relabel every record with the ensemble's class and dimensions.

    The pass-1 label is kept in `prev_label`. Records whose feature file
    cannot be read are skipped and logged. Returns (records, stats).
    """
    readable, features = [], []
    for record in records:
        try:
            features.append(load_record_features(record))
        except DataError as exc:
            log.warning("skipping %s: %s", record.id, exc)
        else:
            readable.append(record)
    probs, dims = predict(models, features)
    relabeled = [replace(record, label=EmotionLabel(int(k)).canonical_name, arousal=a,
                         valence=v, dominance=d, prev_label=record.label)
                 for record, k, (a, v, d) in zip(readable, np.argmax(probs, axis=1), dims.tolist())]
    n_changed = sum(r.label != r.prev_label for r in relabeled)
    stats = {"n_total": len(records), "n_relabeled": len(relabeled),
             "n_changed": n_changed, "n_skipped": len(records) - len(relabeled)}
    return relabeled, stats


# -- manifest-level evaluation ---------------------------------------------------


@dataclass
class EvalReport:
    uar_7: float
    uar_4: float
    weighted_accuracy: float
    per_class_recall: tuple
    ccc_arousal: Optional[float]
    ccc_valence: Optional[float]
    ccc_dominance: Optional[float]
    n_scored: int

    def rows(self) -> list:
        """Stable (metric, value) ordering for CSV emission."""
        rows = [
            ("n_scored", self.n_scored),
            ("uar_7", self.uar_7),
            ("uar_4", self.uar_4),
            ("weighted_accuracy", self.weighted_accuracy),
        ]
        for label, value in zip(EmotionLabel, self.per_class_recall):
            rows.append((f"recall_{label.name.lower()}", value))
        for name, value in (("ccc_arousal", self.ccc_arousal),
                            ("ccc_valence", self.ccc_valence),
                            ("ccc_dominance", self.ccc_dominance)):
            if value is not None:
                rows.append((name, value))
        return rows


def _subset_uar_or_nan(cm: np.ndarray, subset) -> float:
    try:
        return uar(cm, class_subset=subset)
    except DataError:
        log.warning("4-class UAR undefined on this set")
        return float("nan")


def evaluate_manifest(models: list, records: list, granularity: str = "fine",
                      merge_cap_s: float = MERGE_CAP_S) -> EvalReport:
    """Score a manifest with an ensemble at fine or merged granularity.

    The manifest order is a contiguous timeline of records. Each scored
    segment's prediction (and dimensional reference) is the overlap-weighted
    mean over the records it covers. Fine granularity scores one segment per
    record; merged granularity merges consecutive equal-label records up to
    merge_cap_s seconds. A segment enters the CCC only when every record it
    covers has dimensional labels.
    """
    if granularity not in ("fine", "merged"):
        raise DataError(f"unknown granularity {granularity!r}")
    probs, dims = predict(models, [load_record_features(record) for record in records])
    refs = np.array([record.dim_array() for record in records])
    has_dims = np.array([record.has_dims for record in records])
    edges = np.concatenate(([0.0], np.cumsum([record.duration_s for record in records])))
    bounds = edges.tolist()
    segments = [(start, end, record.label_index)
                for start, end, record in zip(bounds, bounds[1:], records)]
    if granularity == "merged":
        segments = merge_segments(segments, cap_s=merge_cap_s)

    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    dim_refs = []
    dim_preds = []
    for start, end, label in segments:
        rows = np.arange(np.searchsorted(edges, start, side="right") - 1,
                         np.searchsorted(edges, end, side="left"))
        overlap = np.minimum(end, edges[rows + 1]) - np.maximum(start, edges[rows])
        keep = overlap > 1e-12
        if not keep.any():
            raise DataError(f"segment ({start}, {end}) s overlaps no record by more than "
                            f"1e-12 s: is a record's frames / frame_rate_hz that short?")
        rows, w = rows[keep], overlap[keep] / overlap[keep].sum()
        cm[label, np.argmax(w @ probs[rows])] += 1
        if has_dims[rows].all():
            dim_refs.append(w @ refs[rows])
            dim_preds.append(w @ dims[rows])

    ccc_vals = (None, None, None)
    if len(dim_refs) >= 2:
        ccc_vals = ccc_metric(np.stack(dim_refs), np.stack(dim_preds))
    return EvalReport(
        uar_7=uar(cm),
        uar_4=_subset_uar_or_nan(cm, PRIMARY_FOUR),
        weighted_accuracy=weighted_accuracy(cm),
        per_class_recall=tuple(per_class_recall(cm)),
        ccc_arousal=ccc_vals[0],
        ccc_valence=ccc_vals[1],
        ccc_dominance=ccc_vals[2],
        n_scored=int(cm.sum()),
    )
