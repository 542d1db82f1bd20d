"""Training loop tests: early stopping, determinism, checkpoint metadata, hygiene."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from serkit import datapipe
from serkit.augment import AugmentConfig, reset_augment_counters, total_augment_count
from serkit.autodiff import Tensor
from serkit.checkpoint import load_into_model
from serkit.config import RunConfig
from serkit.datapipe import FeatureStore, read_manifest, stack_padded, synth_dataset
from serkit.errors import DataError, SerkitError
from serkit.evaluation import predict
from serkit.losses import DimTargets, LossConfig
from serkit.model import SERModel
from serkit.optim import OptimizerConfig
from serkit.training import (
    TrainConfig,
    TrainState,
    check_disjoint_splits,
    compute_batch_loss,
    dev_categorical_loss,
    train_loop,
)


NO_AUGMENT = AugmentConfig(enable_mixup=False, enable_noise=False, enable_speed=False)


def make_data(tmp_path, n_train=2, n_dev=1, frames=8, dim=8):
    train_m = synth_dataset(str(tmp_path / "train"), n_per_class=n_train, frames=frames,
                            dim=dim, seed=1, split="train")
    # dev shares the train class geometry so dev loss is a meaningful signal
    dev_m = synth_dataset(str(tmp_path / "dev"), n_per_class=n_dev, frames=frames,
                          dim=dim, seed=2, split="dev", geometry_seed=1)
    return read_manifest(train_m), read_manifest(dev_m)


def tiny_model(seed=0):
    from tests.test_model import small_config

    return SERModel(small_config(seed=seed, feature_dim=8))


def run_tiny(tmp_path, out_name, seed=0, epochs=2, augment=True):
    train, dev = make_data(tmp_path)
    model = tiny_model(seed=seed)
    cfg = AugmentConfig(mixup_prob=0.5) if augment else NO_AUGMENT
    state = train_loop(
        model, train, dev, str(tmp_path / out_name),
        loss_cfg=LossConfig(),
        opt_cfg=OptimizerConfig(),
        train_cfg=TrainConfig(epochs=epochs, batch_size=8, patience=3, seed=seed),
        augment_cfg=cfg,
    )
    return model, state


class TestEarlyStopping:
    def test_worsening_from_epoch_two_halts_at_epoch_five(self):
        """Improvement at epoch 1, strictly worse after: patience 3 stops before epoch 5."""
        state = TrainState()
        dev_losses = {1: 1.0, 2: 1.1, 3: 1.2, 4: 1.3, 5: 1.4, 6: 1.5}
        completed = []
        for epoch in range(1, 16):
            completed.append(epoch)
            if state.record_epoch(f"ck{epoch}", epoch, dev_losses[epoch], patience=3):
                break
        assert completed == [1, 2, 3, 4]  # epoch 5 never runs
        assert state.epochs_since_improvement == 3
        assert state.best_dev_cat_loss == 1.0

    def test_improvement_resets_patience(self):
        state = TrainState()
        stops = [state.record_epoch(f"c{i}", i, loss, patience=2)
                 for i, loss in enumerate([1.0, 1.2, 0.9, 1.5, 1.4, 1.3], start=1)]
        assert stops == [False, False, False, False, True, True]

    def test_best_loss_non_increasing(self):
        rng = np.random.default_rng(0)
        state = TrainState()
        best_seen = math.inf
        for epoch in range(1, 30):
            state.record_epoch(f"c{epoch}", epoch, float(rng.uniform(0.1, 2.0)), patience=99)
            assert state.best_dev_cat_loss <= best_seen + 1e-15
            best_seen = state.best_dev_cat_loss

    def test_history_sorted_by_epoch(self):
        state = TrainState()
        for epoch in range(1, 6):
            state.record_epoch(f"c{epoch}", epoch, 1.0 / epoch, patience=99)
        epochs = [e for _, e, _ in state.history]
        assert epochs == sorted(epochs)


class TestTrainLoop:
    def test_determinism_identical_runs(self, tmp_path):
        _, state_a = run_tiny(tmp_path, "run_a", seed=7)
        _, state_b = run_tiny(tmp_path, "run_b", seed=7)
        assert state_a.best_dev_cat_loss == state_b.best_dev_cat_loss
        for (pa, _, la), (pb, _, lb) in zip(state_a.history, state_b.history):
            assert la == lb
            assert open(pa, "rb").read() == open(pb, "rb").read()
        log_a = open(tmp_path / "run_a" / "train_log.csv").read()
        log_b = open(tmp_path / "run_b" / "train_log.csv").read()
        assert log_a == log_b

    def test_callers_loss_config_unchanged(self, tmp_path):
        train, dev = make_data(tmp_path)
        loss_cfg = LossConfig()
        weights = loss_cfg.class_weights
        train_loop(tiny_model(), train[3:], dev, str(tmp_path / "run"), loss_cfg=loss_cfg,
                   opt_cfg=OptimizerConfig(), train_cfg=TrainConfig(epochs=1, batch_size=8),
                   augment_cfg=NO_AUGMENT)
        # the run fits its own (unequal) class weights to the unbalanced train split
        assert loss_cfg.class_weights is weights
        np.testing.assert_array_equal(weights, np.ones(7))

    def test_checkpoint_metadata_matches_recomputed_dev_loss(self, tmp_path):
        model, state = run_tiny(tmp_path, "run_meta", seed=3)
        train, dev = make_data(tmp_path)
        loss_cfg = LossConfig()
        # class weights were fitted from the train manifest inside train_loop
        counts = np.zeros(7)
        for r in train:
            counts[r.label_index] += 1
        from serkit.losses import class_weights_from_counts

        loss_cfg.class_weights = class_weights_from_counts(counts)
        for path, _epoch, recorded in state.history:
            clone = tiny_model(seed=99)
            meta = load_into_model(path, clone)
            store = FeatureStore(clone.cfg.feature_dim)
            recomputed = dev_categorical_loss(clone, dev, loss_cfg, store)
            assert abs(recomputed - recorded) < 1e-9
            assert abs(meta.dev_cat_loss - recorded) < 1e-15

    def test_evaluation_is_augmentation_free(self, tmp_path):
        train, dev = make_data(tmp_path)
        model = tiny_model()
        reset_augment_counters()
        dev_categorical_loss(model, dev, LossConfig(), FeatureStore(model.cfg.feature_dim))
        from serkit.evaluation import evaluate_manifest

        evaluate_manifest([model], dev)
        assert total_augment_count() == 0

    def test_augmentations_fire_during_training(self, tmp_path):
        reset_augment_counters()
        run_tiny(tmp_path, "run_aug", seed=1, epochs=1, augment=True)
        assert total_augment_count() > 0

    def test_train_dev_overlap_rejected(self, tmp_path):
        train, _ = make_data(tmp_path)
        with pytest.raises(DataError, match="overlap"):
            check_disjoint_splits(train, train[:2])

    def test_empty_manifests_rejected(self, tmp_path):
        train, dev = make_data(tmp_path)
        with pytest.raises(DataError):
            train_loop(tiny_model(), [], dev, str(tmp_path / "x"), LossConfig(),
                       OptimizerConfig(), TrainConfig(), NO_AUGMENT)

    def test_noise_dir_unread_with_noise_off(self, tmp_path):
        train, dev = make_data(tmp_path)
        augment = dataclasses.replace(NO_AUGMENT, noise_dir=str(tmp_path / "absent"))
        train_loop(tiny_model(), train, dev, str(tmp_path / "run"), LossConfig(),
                   OptimizerConfig(), TrainConfig(epochs=1, batch_size=8), augment)

    def test_loss_decreases_on_separable_data(self, tmp_path):
        train, dev = make_data(tmp_path, n_train=3)
        model = tiny_model(seed=5)
        state = train_loop(
            model, train, dev, str(tmp_path / "run_learn"),
            loss_cfg=LossConfig(),
            opt_cfg=OptimizerConfig(backbone_lr=1e-3, downstream_lr=1e-2),
            train_cfg=TrainConfig(epochs=6, batch_size=7, patience=99, seed=0),
            augment_cfg=NO_AUGMENT,
        )
        losses = [loss for _, _, loss in state.history]
        assert losses[-1] < losses[0]

    def test_log_files_have_expected_columns(self, tmp_path):
        run_tiny(tmp_path, "run_log", seed=2, epochs=1)
        train_log = open(tmp_path / "run_log" / "train_log.csv").read().splitlines()
        assert train_log[0] == "step,epoch,lr_backbone,lr_downstream,train_loss,ce,ccc_loss"
        assert len(train_log) >= 2
        epoch_log = open(tmp_path / "run_log" / "epoch_log.csv").read().splitlines()
        assert epoch_log[0] == "epoch,dev_cat_loss,best_dev_cat_loss,checkpoint"

    def test_max_frames_bounds_every_forward(self, tmp_path, monkeypatch):
        """`train.max_frames` crops each utterance as it is read, for the train steps and the
        dev pass alike (speed perturbation, off here, may lengthen a cropped utterance)."""
        train, dev = make_data(tmp_path)
        assert {len(datapipe.load_record_features(r)) for r in train + dev} == {8}
        frames = []
        forward = SERModel.forward
        monkeypatch.setattr(SERModel, "forward",
                            lambda self, x, n: frames.append(np.shape(x)[1]) or forward(self, x, n))
        train_cfg = RunConfig.load(None, overrides=["train.max_frames=5", "train.epochs=1",
                                                    "train.batch_size=8"]).train_config(seed=0)
        train_loop(tiny_model(), train, dev, str(tmp_path / "run"), LossConfig(),
                   OptimizerConfig(), train_cfg, NO_AUGMENT)
        assert frames == [5, 5, 5]          # two train steps, then the dev pass

    def test_frozen_params_bitwise_after_training(self, tmp_path):
        train, dev = make_data(tmp_path)
        model = tiny_model(seed=11)
        frozen = {n: t.data.copy() for n, t in model.params.items() if not t.requires_grad}
        train_loop(model, train, dev, str(tmp_path / "run_frozen"), LossConfig(),
                   OptimizerConfig(), TrainConfig(epochs=1, batch_size=8, seed=0),
                   augment_cfg=AugmentConfig())
        for name, before in frozen.items():
            assert np.array_equal(model.params[name].data, before), name


def default_batch(rng, batch=32, frames=18):
    """A padded batch for the default model: features, lengths and both targets."""
    lengths = rng.integers(frames // 2, frames + 1, size=batch)
    lengths[0] = frames
    valid = np.arange(frames) < lengths[:, None]
    features = rng.normal(size=(batch, frames, 16)) * valid[..., None]
    dims = DimTargets(values=rng.uniform(0, 1, size=(batch, 3)), present_mask=np.ones(batch, bool))
    return features, lengths, np.eye(7)[rng.integers(0, 7, size=batch)], dims


def linked_nodes(*roots):
    """Ops of the nodes reachable from `roots` that still link parents or a backward closure
    (a released node's `_backward` is a module-level function, which closes over nothing)."""
    seen, stack, linked = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._parents or getattr(node._backward, "__closure__", None):
                linked.append(node._op)
            stack.extend(node._parents)
    return linked


class TestBatchLoss:
    def test_a_step_links_at_most_180_nodes(self, monkeypatch):
        """Every linked node keeps what its backward reads until backward() walks past it, so
        the count bounds what a train step holds at its peak: 174 with the fused linear,
        attention-weights and GroupNorm+ReLU nodes, 275 when each was a chain of elementary
        ops. backward() releases them all (see the tests below)."""
        model = SERModel(RunConfig().model_config(0))
        batch = default_batch(np.random.default_rng(0))
        linked = []
        make = Tensor._make

        def counting_make(data, parents, op, backward=None):
            out = make(data, parents, op, backward)
            if out._backward is not None:
                linked.append(op)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))
        compute_batch_loss(model, *batch, LossConfig())
        assert len(linked) <= 180, sorted(linked)

    def test_backward_releases_the_graph(self):
        """After backward() nothing reachable from the losses links a node, and a second
        backward() through them raises instead of adding to the gradients again."""
        model = SERModel(RunConfig().model_config(0))
        loss, ce, cccl = compute_batch_loss(model, *default_batch(np.random.default_rng(0),
                                                                  batch=8), LossConfig())
        assert len(linked_nodes(loss)) > 100
        loss.backward()
        assert linked_nodes(loss, ce, cccl) == []
        grads = {name: t.grad.copy() for name, t in model.trainable_parameters().items()}
        with pytest.raises(SerkitError, match="op 'add' whose graph an earlier backward"):
            loss.backward()
        with pytest.raises(SerkitError, match="whose graph an earlier backward"):
            ce.backward()
        for name, t in model.trainable_parameters().items():
            np.testing.assert_array_equal(t.grad, grads[name], err_msg=name)

    def test_consecutive_steps_hold_one_graph(self):
        """train_loop rebinds `loss` only when the next forward returns, so that forward runs
        beside whatever the last step left: two steps must peak like one."""
        model = SERModel(RunConfig().model_config(0))
        batch = default_batch(np.random.default_rng(0), batch=8)
        peaks = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                loss, ce, cccl = compute_batch_loss(model, *batch, LossConfig())
                model.zero_grad()
                loss.backward()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0], peaks

    def test_a_step_writes_into_no_input(self):
        """Slices and transposes are views, so no forward or backward may write in place
        into what it reads: parameters and features keep their bytes."""
        model = SERModel(RunConfig().model_config(0))
        for name, b in model.params.items():
            if name.endswith(".lora.B"):
                b.data = np.random.default_rng(1).normal(0.0, 0.1, size=b.data.shape)
        features, lengths, cats, dims = default_batch(np.random.default_rng(2), batch=6)
        before = {name: t.data.tobytes() for name, t in model.params.items()}
        features_before = features.tobytes()
        loss, _, _ = compute_batch_loss(model, features, lengths, cats, dims, LossConfig())
        loss.backward()
        assert features.tobytes() == features_before
        assert {name: t.data.tobytes() for name, t in model.params.items()} == before

    def test_extra_padding_changes_neither_loss_nor_gradients(self):
        model = tiny_model(seed=4)
        for name, b in model.params.items():
            if name.endswith(".lora.B"):
                b.data = np.random.default_rng(5).normal(0.0, 0.1, size=b.data.shape)
        rng = np.random.default_rng(6)
        features, lengths = stack_padded([rng.normal(size=(n, 8)) for n in (3, 9, 6, 1)])
        np.testing.assert_array_equal(lengths, [3, 9, 6, 1])
        cats = np.eye(7)[[0, 3, 5, 1]]
        dims = DimTargets(values=rng.uniform(0, 1, size=(4, 3)), present_mask=np.ones(4, bool))

        def loss_and_grads(batch):
            model.zero_grad()
            loss, _, _ = compute_batch_loss(model, batch, lengths, cats, dims, LossConfig())
            loss.backward()
            return loss.item(), {name: t.grad.copy()
                                 for name, t in model.trainable_parameters().items()}

        loss, grads = loss_and_grads(features)
        padded_loss, padded_grads = loss_and_grads(
            np.concatenate([features, np.zeros((4, 5, 8))], axis=1))
        assert abs(loss - padded_loss) < 1e-12
        for name, grad in grads.items():
            np.testing.assert_allclose(padded_grads[name], grad, rtol=0, atol=1e-12,
                                       err_msg=name)


def adapted_default_model():
    """The default model with random LoRA B, so every trainable parameter gets a gradient."""
    model = SERModel(RunConfig().model_config(0))
    for name, b in model.params.items():
        if name.endswith(".lora.B"):
            b.data = np.random.default_rng(1).normal(0.0, 0.1, size=b.data.shape)
    return model


def loss_and_grads(model, *batch):
    model.zero_grad()
    loss, _, _ = compute_batch_loss(model, *batch, LossConfig())
    loss.backward()
    return loss.item(), {name: t.grad.copy() for name, t in model.trainable_parameters().items()}


class TestGroupedStep:
    """A batch whose rows x longest passes GROUP_FRAMES runs in several length groups."""

    LENGTHS = (40, 400, 120, 77, 250, 300, 55, 180)

    def batch(self, extra_frames=0):
        rng = np.random.default_rng(3)
        features, lengths = stack_padded([rng.normal(size=(n, 16)) for n in self.LENGTHS])
        features = np.concatenate([features, np.zeros((len(lengths), extra_frames, 16))], axis=1)
        dims = DimTargets(values=rng.uniform(0, 1, size=(len(lengths), 3)),
                          present_mask=np.arange(len(lengths)) % 4 != 1)
        return features, lengths, np.eye(7)[rng.integers(0, 7, size=len(lengths))], dims

    def test_loss_and_gradients_match_one_group(self, monkeypatch):
        """Rows do not depend on batch-mates, so the loss is the one-group loss (bit for bit on
        this batch; in general a padded length can move a row's frame sums by an ulp), and
        only the order in which parameter gradients sum changes."""
        model = adapted_default_model()
        calls = []
        forward = SERModel.forward
        monkeypatch.setattr(SERModel, "forward",
                            lambda self, x, n: calls.append(x.shape[:2]) or forward(self, x, n))
        loss, grads = loss_and_grads(model, *self.batch())
        assert calls == [(5, 180), (2, 300), (1, 400)]
        monkeypatch.setattr(datapipe, "GROUP_FRAMES", 10 ** 6)
        one_loss, one_grads = loss_and_grads(model, *self.batch())
        assert calls[3:] == [(8, 400)]
        assert abs(loss - one_loss) <= 1e-15 * one_loss
        for name, grad in one_grads.items():
            assert np.max(np.abs(grads[name] - grad)) <= 1e-12 * np.max(np.abs(grad)), name

    def test_extra_padding_changes_neither_loss_nor_gradients(self):
        """Each group is cropped to its longest row, so trailing padding never reaches one."""
        model = adapted_default_model()
        loss, grads = loss_and_grads(model, *self.batch())
        padded_loss, padded_grads = loss_and_grads(model, *self.batch(extra_frames=30))
        assert loss == padded_loss
        for name, grad in grads.items():
            np.testing.assert_array_equal(padded_grads[name], grad, err_msg=name)

    def test_at_most_180_linked_nodes_per_group(self):
        loss, _, _ = compute_batch_loss(SERModel(RunConfig().model_config(0)), *self.batch(),
                                        LossConfig())
        assert len(linked_nodes(loss)) <= 180 * 3


def test_predict_and_the_train_step_share_one_grouping_rule(monkeypatch):
    """Both split at datapipe.GROUP_FRAMES: with it at 64, lengths 10-40 form three groups."""
    monkeypatch.setattr(datapipe, "GROUP_FRAMES", 64)
    model = tiny_model(seed=2)
    rng = np.random.default_rng(4)
    features = [rng.normal(size=(n, 8)) for n in (10, 30, 20, 40, 15)]
    calls = []
    forward = SERModel.forward
    monkeypatch.setattr(SERModel, "forward",
                        lambda self, x, n: calls.append(np.shape(x)[:2]) or forward(self, x, n))
    predict([model], features)
    predict_calls, calls[:] = list(calls), []
    dims = DimTargets(values=rng.uniform(0, 1, size=(5, 3)), present_mask=np.ones(5, bool))
    compute_batch_loss(model, *stack_padded(features), np.eye(7)[:5], dims, LossConfig())
    assert predict_calls == calls == [(3, 20), (1, 30), (1, 40)]


def test_every_forward_gets_its_rows_sorted_by_length(monkeypatch):
    """Attention tiles runs of equal length, so `length_groups` hands each forward of a train
    step or of predict its rows shortest first; the loss does not depend on the rows' order."""
    model = SERModel(RunConfig().model_config(0))
    features, lengths, cats, dims = default_batch(np.random.default_rng(0))
    assert np.any(np.diff(lengths) < 0)
    seen = []
    forward = SERModel.forward
    monkeypatch.setattr(SERModel, "forward",
                        lambda self, x, n: seen.append(np.asarray(n)) or forward(self, x, n))
    loss, _, _ = compute_batch_loss(model, features, lengths, cats, dims, LossConfig())
    predict([model], [f[:n] for f, n in zip(features, lengths)])
    assert len(seen) == 2
    for n in seen:
        assert np.all(np.diff(n) >= 0), n.tolist()
    perm = np.random.default_rng(1).permutation(len(lengths))
    shuffled, _, _ = compute_batch_loss(
        model, features[perm], lengths[perm], cats[perm],
        DimTargets(values=dims.values[perm], present_mask=dims.present_mask[perm]), LossConfig())
    assert abs(shuffled.item() - loss.item()) <= 1e-15 * abs(loss.item())
