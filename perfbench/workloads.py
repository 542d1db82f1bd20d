"""Benchmark workloads: set-up, timed trials, output checks and per-layer metrics.

Each workload drives serkit only through its public entry points
(`train_loop`, `evaluate_manifest`, `read_manifest`, `load_into_model`) on
inputs from `inputs.py`. The benchmark's own calls go through the module
attribute (`training.train_loop`, ...) so a traced trial can wrap them.

Why these workloads:
- train-short: 12-24 frame utterances. About 570 autodiff nodes per
  utterance make Python per-node overhead most of a step, so graph and
  batching work shows here and kernel work barely does.
- train-long: the same recipe on 100-200 frames. The node count is the
  same, but O(T^2) attention and the convolutions carry the step, so
  kernel work shows here. The band stops at 200 frames to bound memory.
- eval-ensemble: forward only (no retained graph, backward, optimizer or
  augmentation) through a 4-checkpoint ensemble at merged granularity, so a
  training speed-up that costs inference shows here.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict

import numpy as np

from serkit import autodiff, checkpoint, datapipe, evaluation, model, optim, training
from serkit.config import RunConfig
from serkit.datapipe import FeatureStore, read_features

import inputs
from spans import has_ancestor, self_times
from summary import ratio

MODEL_SEED = 0          # recipe constant; inputs and training streams follow --seed
EVAL_CHECK_SAMPLE = 3   # records whose ensemble output is recomputed per model
ENSEMBLE_TOLERANCE = 1e-12


class TrainWorkload:
    """`train_loop` with the default recipe: B=32, speed, noise and MixUp on,
    two-group AdamW, a dev pass and a checkpoint every epoch."""

    def __init__(self, n_train: int, n_dev: int, frames: tuple, epochs: int):
        self.n_train, self.n_dev, self.frames, self.epochs = n_train, n_dev, frames, epochs
        self.run_cfg = RunConfig({"train.epochs": epochs})
        self.reference = None

    def generate(self, work_dir: str, seed: int) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.run_dir = os.path.join(work_dir, "run")
        self.train_manifest, self.dev_manifest = inputs.write_train_inputs(
            os.path.join(work_dir, "data"), seed, self.n_train, self.n_dev, self.frames)

    def setup(self) -> None:
        """What a user pays before training starts: manifests and the model."""
        self.train_records = datapipe.read_manifest(self.train_manifest)
        self.dev_records = datapipe.read_manifest(self.dev_manifest)
        self.model = model.SERModel(self.run_cfg.model_config(MODEL_SEED))
        self.initial = self.model.state_arrays()

    def prepare(self) -> None:
        """Untimed: every trial starts from the same initial weights."""
        self.model.load_state(self.initial)
        cfg = self.run_cfg
        self.args = (cfg.loss_config(), cfg.optimizer_config(), cfg.train_config(self.seed),
                     cfg.augment_config())

    def trial(self) -> int:
        """One closed-loop training run; returns the utterances it trained on."""
        self.state = training.train_loop(self.model, self.train_records, self.dev_records,
                                         self.run_dir, *self.args)
        return self.epochs * len(self.train_records)

    def check(self) -> list:
        failures = []
        steps = self.epochs * math.ceil(self.n_train / self.run_cfg["train.batch_size"])
        with open(os.path.join(self.run_dir, "train_log.csv"), encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != steps:
            failures.append(f"train_log.csv has {len(rows)} steps, expected {steps}")
        for row in rows:
            for key in ("train_loss", "ce", "ccc_loss"):
                if not math.isfinite(float(row[key])):
                    failures.append(f"non-finite {key} at step {row['step']}")
        if len(self.state.history) != self.epochs:
            failures.append(f"{len(self.state.history)} epoch checkpoints, expected {self.epochs}")
        final = self.model.state_arrays()
        for path, epoch, dev_loss in self.state.history:
            tensors, meta = checkpoint.load_checkpoint(path)
            resaved = os.path.join(self.work_dir, "roundtrip.serc")
            checkpoint.save_checkpoint(resaved, tensors, meta)
            if not same_file_bytes(path, resaved):
                failures.append(f"epoch {epoch} checkpoint does not round-trip bit-exactly")
            if meta.dev_cat_loss != dev_loss:
                failures.append(f"epoch {epoch} checkpoint dev loss differs from the run's")
            if epoch == self.epochs and not same_arrays(tensors, final):
                failures.append("last checkpoint differs from model.state_arrays()")
        dev_loss = self.state.history[-1][2] if self.state.history else None
        if self.reference is None:
            self.reference = (dev_loss, final)
        elif dev_loss != self.reference[0] or not same_arrays(final, self.reference[1]):
            failures.append("seeded rerun is not bit-identical to the first trial")
        return failures

    def final_check(self) -> tuple:
        """Returns (failures, cat_loss): the last dev categorical loss."""
        return [], self.state.history[-1][2]


class EvalWorkload:
    """`evaluate_manifest` at merged granularity over a checkpoint ensemble."""

    def __init__(self, n_per_class: int, frames: tuple, n_checkpoints: int):
        self.n_per_class, self.frames, self.n_checkpoints = n_per_class, frames, n_checkpoints
        self.run_cfg = RunConfig()
        self.reference = None

    def generate(self, work_dir: str, seed: int) -> None:
        self.seed = seed
        self.manifest, self.checkpoints, self.expected_segments = inputs.write_eval_inputs(
            os.path.join(work_dir, "data"), seed, self.n_per_class, self.frames,
            self.n_checkpoints, self.run_cfg["eval.merge_cap_s"])

    def setup(self) -> None:
        """What a user pays before scoring: the manifest, models and checkpoints."""
        self.records = datapipe.read_manifest(self.manifest)
        self.models = []
        for path in self.checkpoints:
            member = model.SERModel(self.run_cfg.model_config(MODEL_SEED))
            checkpoint.load_into_model(path, member)
            self.models.append(member)

    def prepare(self) -> None:
        pass

    def trial(self) -> int:
        self.report = evaluation.evaluate_manifest(
            self.models, self.records, granularity="merged",
            merge_cap_s=self.run_cfg["eval.merge_cap_s"])
        return len(self.records)

    def check(self) -> list:
        failures = []
        if self.report.n_scored != self.expected_segments:
            failures.append(f"n_scored {self.report.n_scored}, generator predicts "
                            f"{self.expected_segments} merged segments")
        rows = repr(self.report.rows())
        if self.reference is None:
            self.reference = rows
        elif rows != self.reference:
            failures.append("repeated evaluation gave a different report")
        return failures

    def final_check(self) -> tuple:
        """Ensemble outputs against per-model forwards; returns (failures, cat_loss).

        cat_loss is the ensemble's mean cross-entropy on the eval labels.
        """
        failures = []
        sample = set(np.random.default_rng((self.seed, 17)).choice(
            len(self.records), size=min(EVAL_CHECK_SAMPLE, len(self.records)), replace=False))
        losses = []
        for i, record in enumerate(self.records):
            features = read_features(record.resolved_features_path())
            out = evaluation.ensemble_predict(self.models, features)
            losses.append(-math.log(max(out.cat_probs.data[record.label_index], 1e-12)))
            if i not in sample:
                continue
            outs = [(o.cat_probs.data, o.dim_tensor.data)
                    for o in (member.forward(features) for member in self.models)]
            probs = np.mean([p for p, _ in outs], axis=0)
            dims = np.mean([d for _, d in outs], axis=0)
            error = max(np.max(np.abs(probs - out.cat_probs.data)),
                        np.max(np.abs(dims - out.dim_tensor.data)))
            if not error <= ENSEMBLE_TOLERANCE:
                failures.append(f"{record.id}: ensemble differs from the per-model mean by {error:.3g}")
        return failures, float(np.mean(losses))


WORKLOADS = {
    "train-short": lambda: TrainWorkload(n_train=64, n_dev=32, frames=(12, 24), epochs=2),
    "train-long": lambda: TrainWorkload(n_train=32, n_dev=16, frames=(100, 200), epochs=1),
    "eval-ensemble": lambda: EvalWorkload(n_per_class=3, frames=(50, 400), n_checkpoints=4),
}


def same_file_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes()
        for k in a)


# -- tracing -----------------------------------------------------------------


def install_tracing(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""

    def nodes_before(span, args, kwargs):
        span.data["n0"] = tracer.counts["autodiff.nodes"]

    def nodes_after(span, args, kwargs, result):
        span.data["nodes"] = tracer.counts["autodiff.nodes"] - span.data.pop("n0")

    def next_unit(span, args, kwargs, result):
        tracer.unit += 1

    def padding(span, args, kwargs, result):
        features = np.asarray(args[1])
        span.data["pad_rows"] = int(np.count_nonzero(~features.any(axis=2)))
        span.data["rows"] = features.shape[0] * features.shape[1]
        nodes_after(span, args, kwargs, result)

    def file_size(span, args, kwargs, result):
        span.data["bytes"] = os.path.getsize(args[0])

    def segments(span, args, kwargs, result):
        span.data["segments"] = len(result)

    wrap = tracer.wrap
    tracer.count(autodiff.Tensor, "__init__", "autodiff.nodes")
    # benchmark -> serkit entry points
    wrap(training, "train_loop", "training.train_loop")
    wrap(evaluation, "evaluate_manifest", "evaluation.evaluate_manifest")
    wrap(datapipe, "read_manifest", "datapipe.manifest")
    wrap(checkpoint, "load_into_model", "checkpoint.load")
    # training -> its layers
    wrap(training, "compute_batch_loss", "training.forward", nodes_before, padding)
    wrap(training, "dev_categorical_loss", "training.dev_pass")
    wrap(training, "save_checkpoint", "checkpoint.save", after=file_size)
    wrap(training, "speed_perturb", "augment.speed")
    wrap(training, "add_noise_snr", "augment.noise")
    wrap(training, "mixup_batch", "augment.mixup")
    wrap(training, "weighted_cross_entropy", "losses.ce")
    wrap(training, "ccc_loss_multi", "losses.ccc")
    wrap(optim.AdamWGroups, "step", "optim.step", after=next_unit)
    wrap(autodiff.Tensor, "backward", "autodiff.backward")
    # data reads, shared by training and evaluation
    wrap(FeatureStore, "get", "datapipe.get")
    wrap(datapipe, "read_features", "datapipe.read", after=file_size)
    # model stages
    wrap(model.SERModel, "forward", "model.forward", nodes_before, nodes_after)
    wrap(model.SERModel, "pooled_representation", "model.pooled")
    wrap(model.SERModel, "encoder_forward", "model.encoder")
    wrap(model.SERModel, "ecapa_forward", "model.ecapa")
    wrap(model, "attentive_stats_pool", "model.stats_pool")
    wrap(model, "multiscale_hierarchical_pool", "model.ms_pool")
    # evaluation -> its layers
    wrap(evaluation, "ensemble_predict", "evaluation.ensemble", after=next_unit)
    wrap(evaluation, "merge_segments", "evaluation.merge", after=segments)


def layer_metrics(tracer, traced_trials: int, augment_applied: int,
                  overhead_share: float) -> dict:
    """Per-layer numbers from the spans of the traced trials and set-up."""
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def count(name):
        return len(by_name[name])

    def total(name, field=None, under=None):
        return sum((spans[i].data.get(field, 0) if field else spans[i].duration)
                   for i in by_name[name] if under is None or has_ancestor(spans, i, under))

    def total_self(name):
        return sum(own[i] for i in by_name[name])

    steps = count("optim.step")
    forwards = count("model.forward")
    gets = count("datapipe.get")
    misses = sum(1 for i in by_name["datapipe.read"] if has_ancestor(spans, i, "datapipe.get"))
    evals = count("evaluation.evaluate_manifest")
    return {
        "autodiff.nodes_per_step": ratio(total("training.forward", "nodes"), steps),
        "autodiff.nodes_per_utt": ratio(total("model.forward", "nodes"), forwards),
        "autodiff.backward_s": ratio(total("autodiff.backward"), steps),
        "model.encoder_s": ratio(total_self("model.encoder"), forwards),
        "model.ecapa_s": ratio(total_self("model.ecapa"), forwards),
        "model.stats_pool_s": ratio(total_self("model.stats_pool"), forwards),
        "model.ms_pool_s": ratio(total_self("model.ms_pool"), forwards),
        "model.heads_s": ratio(total_self("model.forward"), forwards),
        "model.forward_calls_per_step": ratio(
            sum(1 for i in by_name["model.forward"]
                if has_ancestor(spans, i, "training.forward")), steps),
        "losses.s": ratio(total("losses.ce", under="training.forward")
                          + total("losses.ccc", under="training.forward"), steps),
        "optim.step_s": ratio(total("optim.step"), steps),
        "training.forward_s": ratio(total("training.forward"), steps),
        "training.data_wait_s": ratio(data_wait(spans), steps),
        "training.dev_pass_s": ratio(total("training.dev_pass"), count("training.dev_pass")),
        "training.pad_share": ratio(total("training.forward", "pad_rows"),
                                    total("training.forward", "rows")),
        "augment.s": ratio(total("augment.speed") + total("augment.noise")
                           + total("augment.mixup"), steps),
        "augment.applied": ratio(augment_applied, steps),
        "datapipe.read_s": ratio(total("datapipe.read"), count("datapipe.read")),
        "datapipe.bytes_read": ratio(total("datapipe.read", "bytes", under="training.train_loop")
                                     + total("datapipe.read", "bytes",
                                             under="evaluation.evaluate_manifest"),
                                     traced_trials),
        "datapipe.cache_hit_ratio": 1.0 - ratio(misses, gets) if gets else 0.0,
        "datapipe.manifest_s": ratio(total("datapipe.manifest"), count("datapipe.manifest")),
        "checkpoint.save_s": ratio(total("checkpoint.save"), count("checkpoint.save")),
        "checkpoint.bytes_written": ratio(total("checkpoint.save", "bytes"),
                                          count("checkpoint.save")),
        "checkpoint.load_s": ratio(total("checkpoint.load"), count("checkpoint.load")),
        "evaluation.ensemble_s": ratio(total("evaluation.ensemble"), count("evaluation.ensemble")),
        "evaluation.aggregate_s": ratio(total_self("evaluation.evaluate_manifest")
                                        + total("evaluation.merge"), evals),
        "evaluation.segments": ratio(total("evaluation.merge", "segments"), evals),
        "trace.overhead_share": overhead_share,
    }


def data_wait(spans: list) -> float:
    """Summed gaps between the end of a step (or dev pass, or checkpoint) and the
    next batch's forward, i.e. time the step loop waited for its batch."""
    waits = 0.0
    last_end = None
    for span in spans:
        if span.name == "training.train_loop":
            last_end = span.start
        elif span.name == "training.forward" and last_end is not None:
            waits += span.start - last_end
        if span.name in ("optim.step", "training.dev_pass", "checkpoint.save"):
            last_end = span.end
    return waits
