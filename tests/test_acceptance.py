"""Acceptance suite: one test per acceptance criterion, at its stated tolerance.

Each test prints a single `ACCEPTANCE <criterion>: PASS/FAIL` line (visible
with `pytest -s` or in captured output). Tolerances are pinned here and
nowhere else.
"""

import itertools
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from serkit.augment import (
    AugmentConfig,
    add_noise_snr,
    mixup_apply,
    speed_perturb,
    white_noise_source,
)
from serkit.checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from serkit.cli import main
from serkit.datapipe import (
    ConsensusConfig,
    FeatureStore,
    consensus_label,
    merge_segments,
    read_manifest,
    synth_dataset,
    window_split,
)
from serkit.evaluation import (
    ccc_metric,
    ensemble_predict,
    predict,
    select_top_checkpoints,
    uar,
    weighted_accuracy,
)
from serkit.labels import EMOTIONS, EmotionLabel
from serkit.losses import DimTargets, LossConfig, ccc, smooth_labels, weighted_cross_entropy
from serkit.model import LoraConfig, ModelConfig, SERModel
from serkit.optim import AdamWGroups, OptimizerConfig, ScheduleConfig, cosine_warmup_lr
from serkit.training import TrainConfig, train_loop
from serkit.autodiff import Tensor


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def batch_predictions(model, records: list) -> tuple:
    """Per-record (predicted class, dim scores) without augmentation."""
    store = FeatureStore(model.cfg.feature_dim)
    probs, dims = predict([model], [store.get(record) for record in records])
    return np.argmax(probs, axis=1), dims


def test_gradient_correctness():
    """Analytic vs central FD on the total loss, 10 seeds, rel err < 1e-4, < 60 s."""
    with criterion("gradient-correctness"):
        start = time.time()
        for seed in range(10):
            assert main(["gradcheck", "--seed", str(seed), "--samples", "2",
                         "--frames", "12", "--batch", "2", "--tolerance", "1e-4"]) == 0
        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s (budget 60s)"


def test_loss_oracles():
    with criterion("loss-oracles"):
        # Uniform probabilities, hard targets -> ln 7
        probs = Tensor(np.full((5, 7), 1.0 / 7))
        targets = np.eye(7)[[0, 1, 2, 3, 4]]
        value = weighted_cross_entropy(probs, targets, np.ones(7)).item()
        assert abs(value - math.log(7.0)) < 1e-9

        # CCC fixtures (variance large enough that the 1e-8 guard eps is < 1e-9)
        y = np.array([0.0, 10.0, 5.0, 8.0])
        assert abs(ccc(y, y.copy()).item() - 1.0) < 1e-9
        assert abs(ccc(np.array([0.0, 5.0]), np.array([5.0, 0.0])).item() + 1.0) < 1e-9
        assert abs(ccc(np.array([0.0, 1.0]), np.array([0.5, 0.5])).item()) < 1e-9

        # Smoothed labels stay on the simplex, 1000 random rows
        rng = np.random.default_rng(0)
        rows = rng.dirichlet(np.ones(7), size=1000)
        smoothed = smooth_labels(rows, 0.1)
        assert np.all(np.abs(smoothed.sum(axis=1) - 1.0) < 1e-12)


def test_lora_contract():
    with criterion("lora-contract"):
        rng = np.random.default_rng(1)
        cfg = ModelConfig(feature_dim=16, seed=11)
        adapted = SERModel(cfg)
        plain = SERModel(ModelConfig(feature_dim=16, seed=11, lora=LoraConfig(rank=0)))

        # Zero-init B reproduces the adapter-free forward within 1e-12
        for _ in range(5):
            x = rng.normal(size=(10, 16))
            out_a = adapted.forward(x)
            out_p = plain.forward(x)
            assert np.max(np.abs(out_a.cat_probs.data - out_p.cat_probs.data)) < 1e-12
            assert np.max(np.abs(out_a.dim_tensor.data - out_p.dim_tensor.data)) < 1e-12

        # Merged forward matches adapted forward within 1e-10 on 100 inputs
        for name, b in adapted.params.items():
            if name.endswith(".lora.B"):
                b.data = rng.normal(0.0, 0.05, size=b.data.shape)
        merged = adapted.merge_adapters()
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=(8, 16))
            pa = adapted.forward(x)
            pm = merged.forward(x)
            worst = max(worst, np.max(np.abs(pa.cat_probs.data - pm.cat_probs.data)),
                        np.max(np.abs(pa.dim_tensor.data - pm.dim_tensor.data)))
        assert worst < 1e-10

        # Frozen base weights bitwise unchanged after 100 optimizer steps
        frozen = {n: t.data.copy() for n, t in adapted.params.items() if not t.requires_grad}
        opt = AdamWGroups(adapted.backbone_parameters(), adapted.downstream_parameters(),
                          OptimizerConfig(backbone_lr=1e-3, downstream_lr=1e-2))
        batch = rng.normal(size=(2, 6, 16))
        for _ in range(100):
            adapted.zero_grad()
            out = adapted.forward(batch, [6, 6])
            probs, dims = out.cat_probs, out.dim_tensor
            ((probs * probs).sum() + (dims * dims).sum()).backward()
            opt.step()
        for name, before in frozen.items():
            assert np.array_equal(adapted.params[name].data, before), name


def test_overfit_capability(tmp_path):
    """32 samples, <= 200 steps: 100% train accuracy and per-dim CCC > 0.99, < 5 min."""
    with criterion("overfit-capability"):
        start = time.time()
        train_m = synth_dataset(str(tmp_path / "train"), n_per_class=5, frames=12,
                                dim=16, seed=1, split="train", feature_noise=0.25)
        dev_m = synth_dataset(str(tmp_path / "dev"), n_per_class=1, frames=12,
                              dim=16, seed=2, split="dev", geometry_seed=1,
                              feature_noise=0.25)
        train = read_manifest(train_m)[:32]  # id-sorted prefix keeps all 7 classes
        assert len({r.label for r in train}) == 7
        dev = read_manifest(dev_m)

        model = SERModel(ModelConfig(feature_dim=16, seed=0))
        state = train_loop(
            model, train, dev, str(tmp_path / "run"),
            loss_cfg=LossConfig(lambda_dim=2.0),
            opt_cfg=OptimizerConfig(backbone_lr=2e-3, downstream_lr=2e-2),
            train_cfg=TrainConfig(epochs=200, batch_size=32, patience=999, seed=0,
                                  min_lr_factor=0.1),
            augment_cfg=AugmentConfig(enable_mixup=False, enable_noise=False, enable_speed=False),
        )
        assert state.global_step <= 200

        classes, dims = batch_predictions(model, train)
        truth = np.array([r.label_index for r in train])
        accuracy = float((classes == truth).mean())
        refs = np.stack([r.dim_array() for r in train])
        ccc_values = ccc_metric(refs, dims)
        elapsed = time.time() - start
        print(f"  overfit: steps={state.global_step} accuracy={accuracy:.3f} "
              f"ccc={tuple(round(c, 4) for c in ccc_values)} elapsed={elapsed:.0f}s")
        assert accuracy == 1.0
        assert all(c > 0.99 for c in ccc_values)
        assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s (budget 300s)"

        # After overfitting, two-pass relabeling reproduces the ground truth.
        from serkit.evaluation import two_pass_relabel

        relabeled, stats = two_pass_relabel([model], train)
        assert stats["n_changed"] == 0
        assert [r.label for r in relabeled] == [r.label for r in train]
        assert all(r.prev_label == orig.label for r, orig in zip(relabeled, train))


def test_schedule():
    with criterion("schedule"):
        for total in (100, 250, 1000):
            cfg = ScheduleConfig(total_steps=total, warmup_ratio=0.08, min_lr_factor=0.0)
            assert cfg.warmup_steps == round(0.08 * total)
            peak = 6e-4
            assert cosine_warmup_lr(cfg.warmup_steps, peak, cfg) == peak  # exact
            assert cosine_warmup_lr(total, peak, cfg) == pytest.approx(0.0, abs=1e-19)
            remaining = total - cfg.warmup_steps
            if remaining % 2 == 0:
                midpoint = cfg.warmup_steps + remaining // 2
                lr = cosine_warmup_lr(midpoint, peak, cfg)
                assert abs(lr - 0.5 * peak) < 1e-12


def test_metrics():
    with criterion("metrics"):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            counts = rng.integers(0, 25, size=(7, 7))
            if counts.sum(axis=1).max() == 0:
                continue
            cm = counts
            recalls = [counts[c, c] / counts[c].sum() for c in range(7)
                       if counts[c].sum() > 0]
            assert abs(uar(cm) - float(np.mean(recalls))) < 1e-12

        # Class duplication: UAR invariant, weighted accuracy not
        wa_changed = 0
        for _ in range(200):
            counts = rng.integers(1, 12, size=(7, 7))
            boosted = counts.copy()
            boosted[2] *= 7
            assert abs(uar(counts) - uar(boosted)) < 1e-12
            if abs(weighted_accuracy(counts) - weighted_accuracy(boosted)) > 1e-12:
                wa_changed += 1
        assert wa_changed > 180


def test_ensemble():
    with criterion("ensemble"):
        # Top-4 selection against a hand-sorted fixture
        history = [(f"e{i}", i + 1, loss) for i, loss in enumerate([0.9, 0.5, 0.7, 0.4, 0.6])]
        assert select_top_checkpoints(history, k=4) == ["e3", "e1", "e4", "e2"]
        tie = [("first", 1, 0.5), ("mid", 2, 0.6), ("later", 3, 0.5)]
        assert select_top_checkpoints(tie, k=1) == ["first"]

        cfg = ModelConfig(feature_dim=16, seed=5)
        model = SERModel(cfg)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 16))
        single = model.forward(x)
        ens = ensemble_predict([model] * 4, x)
        assert np.max(np.abs(ens.cat_probs.data - single.cat_probs.data)) < 1e-12
        assert np.max(np.abs(ens.dim_tensor.data - single.dim_tensor.data)) < 1e-12

        models = [SERModel(ModelConfig(feature_dim=16, seed=s)) for s in range(3)]
        for _ in range(25):
            out = ensemble_predict(models, rng.normal(size=(6, 16)))
            assert abs(out.cat_probs.data.sum() - 1.0) < 1e-12


def test_pseudo_label_pipeline():
    with criterion("pseudo-label-pipeline"):
        cfg = ConsensusConfig()
        nine = ["neutral", "happy", "sad", "angry", "surprised", "fearful",
                "disgusted", "other", "unknown"]
        six = {"angry", "disgusted", "fearful", "happy", "sad", "surprised"}
        for a, b in itertools.product(nine, nine):
            expected = (EmotionLabel.from_name(a) if (a == b and a in six)
                        else EmotionLabel.NEUTRAL)
            assert consensus_label(a, b) == expected

        assert window_split(10.0, cfg) == [(0.0, 4.0), (2.0, 6.0), (4.0, 8.0), (6.0, 10.0)]

        rng = np.random.default_rng(4)
        for _ in range(500):
            cursor = 0.0
            segments = []
            for _ in range(int(rng.integers(1, 30))):
                length = float(rng.uniform(0.25, 8.0))
                segments.append((cursor, cursor + length, EMOTIONS[int(rng.integers(0, 7))]))
                cursor += length
            merged = merge_segments(segments, cap_s=15.0)
            assert all(e - s <= 15.0 + 1e-9 for s, e, _ in merged)
            total_in = sum(e - s for s, e, _ in segments)
            total_out = sum(e - s for s, e, _ in merged)
            assert abs(total_in - total_out) < 1e-9


def test_augmentations():
    with criterion("augmentations"):
        rng = np.random.default_rng(5)
        # Measured SNR within 0.01 dB of requested
        for requested in (0.0, 5.0, 12.0, 20.0):
            x = rng.normal(size=(40, 8)) * rng.uniform(0.3, 2.0)
            noisy = add_noise_snr(x, requested, white_noise_source, rng)
            measured = 10.0 * math.log10(np.mean(x**2) / np.mean((noisy - x) ** 2))
            assert abs(measured - requested) < 0.01

        # Speed factor length rule, exact
        for t in (50, 100, 173):
            x = rng.normal(size=(t, 4))
            for factor in (0.9, 1.1):
                assert speed_perturb(x, factor).shape[0] == round(t / factor)

        # MixUp keeps categorical targets on the simplex
        for _ in range(300):
            b = int(rng.integers(2, 9))
            cats = np.eye(7)[rng.integers(0, 7, size=b)]
            dims = DimTargets(values=rng.uniform(0, 1, size=(b, 3)),
                              present_mask=np.ones(b, bool))
            lam = float(rng.beta(0.3, 0.3))
            _, cx, dx = mixup_apply(rng.normal(size=(b, 5, 3)), cats, dims,
                                    lam=lam, perm=rng.permutation(b))
            assert np.all(np.abs(cx.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(cx >= -1e-15)
            assert np.all(dx.values >= -1e-15) and np.all(dx.values <= 1 + 1e-15)

        # Beta(0.3, 0.3) sample mean
        draws = np.random.default_rng(6).beta(0.3, 0.3, size=100_000)
        assert abs(draws.mean() - 0.5) < 0.02


def test_determinism(tmp_path):
    """Identically seeded cmd_train runs are byte-identical; checkpoints round-trip."""
    with criterion("determinism"):
        assert main(["synth", "--out", str(tmp_path / "train"), "--n-per-class", "2",
                     "--frames", "8", "--dim", "8", "--seed", "1"]) == 0
        assert main(["synth", "--out", str(tmp_path / "dev"), "--n-per-class", "1",
                     "--frames", "8", "--dim", "8", "--seed", "2", "--split", "dev"]) == 0
        config = tmp_path / "tiny.cfg"
        config.write_text(
            "model.feature_dim = 8\nmodel.encoder_dim = 16\nmodel.encoder_ff = 24\n"
            "model.lora_rank = 2\nmodel.pool_scales = 1,4\n"
            "model.pool_attention_hidden = 8\nmodel.ecapa_channels = 16\n"
            "model.ecapa_gn_groups = 4\nmodel.ecapa_se_bottleneck = 4\n"
            "model.ecapa_stats_attention_hidden = 8\n"
            "train.epochs = 2\ntrain.batch_size = 8\n"
        )
        outputs = []
        for name in ("run_a", "run_b"):
            rc = main(["train", "--config", str(config),
                       "--train", str(tmp_path / "train" / "train.jsonl"),
                       "--dev", str(tmp_path / "dev" / "dev.jsonl"),
                       "--out", str(tmp_path / name), "--seed", "13"])
            assert rc == 0
            blobs = {}
            for dirpath, _dirs, files in os.walk(tmp_path / name):
                for fname in files:
                    full = os.path.join(dirpath, fname)
                    rel = os.path.relpath(full, tmp_path / name)
                    blobs[rel] = open(full, "rb").read()
            outputs.append(blobs)
        assert set(outputs[0]) == set(outputs[1])
        for rel in outputs[0]:
            assert outputs[0][rel] == outputs[1][rel], rel

        # Checkpoint round-trip is bitwise exact
        rng = np.random.default_rng(7)
        tensors = {f"t{i}": rng.normal(size=(3, 4)) for i in range(5)}
        path = str(tmp_path / "rt.serc")
        save_checkpoint(path, tensors,
                        CheckpointMeta(epoch=1, global_step=2, dev_cat_loss=0.5))
        loaded, _ = load_checkpoint(path)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])
        save_checkpoint(str(tmp_path / "rt2.serc"), loaded,
                        CheckpointMeta(epoch=1, global_step=2, dev_cat_loss=0.5))
        assert open(path, "rb").read() == open(str(tmp_path / "rt2.serc"), "rb").read()
