"""Model tests: LoRA contracts, pooling oracles, ECAPA behavior, forward contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serkit.autodiff import Tensor, finite_difference_gradient, relative_error
from serkit.errors import ConfigError, ShapeError
from serkit.model import (
    EcapaConfig,
    EncoderStubConfig,
    LoraConfig,
    ModelConfig,
    PoolingConfig,
    SERModel,
    _window_matrix,
    attention_weights,
    attentive_stats_pool,
    multiscale_hierarchical_pool,
)


def small_config(seed=0, **kwargs) -> ModelConfig:
    """Compact config keeping tests fast; structure identical to defaults."""
    base = dict(
        feature_dim=8,
        seed=seed,
        encoder=EncoderStubConfig(num_layers=2, model_dim=16, num_heads=4, ff_dim=24),
        lora=LoraConfig(rank=2, alpha=4.0),
        pooling=PoolingConfig(scales=(1, 4), attention_hidden=8),
        ecapa=EcapaConfig(channels=16, dilations=(2, 3), res2_scale=4, gn_groups=4,
                          se_bottleneck=4, stats_attention_hidden=8),
    )
    base.update(kwargs)
    return ModelConfig(**base)


@pytest.fixture
def model():
    return SERModel(small_config())


@pytest.fixture
def features():
    return np.random.default_rng(5).normal(size=(10, 8))


class TestLora:
    def test_zero_init_b_is_identity(self, features):
        adapted = SERModel(small_config(seed=1))
        plain = SERModel(small_config(seed=1, lora=LoraConfig(rank=0)))
        out_a = adapted.forward(features)
        out_p = plain.forward(features)
        np.testing.assert_allclose(out_a.cat_probs.data, out_p.cat_probs.data, atol=1e-12)
        np.testing.assert_allclose(out_a.dim_tensor.data, out_p.dim_tensor.data, atol=1e-12)

    def test_zero_init_b_is_exact_identity_on_encoder(self, features):
        adapted = SERModel(small_config(seed=1))
        plain = SERModel(small_config(seed=1, lora=LoraConfig(rank=0)))
        ha = adapted.encoder_forward(Tensor(features)).data
        hp = plain.encoder_forward(Tensor(features)).data
        np.testing.assert_array_equal(ha, hp)

    def test_random_adapters_match_dense_merge(self, features):
        rng = np.random.default_rng(2)
        model = SERModel(small_config(seed=3))
        for name, b in model.params.items():
            if name.endswith(".lora.B"):
                a = model.params[name[:-1] + "A"]
                b.data = rng.normal(0.0, 0.1, size=b.data.shape)
                a.data = rng.normal(0.0, 0.1, size=a.data.shape)
        merged = model.merge_adapters()
        baseline = SERModel(small_config(seed=3, lora=LoraConfig(rank=0)))

        out_adapted = model.encoder_forward(Tensor(features)).data
        out_merged = merged.encoder_forward(Tensor(features)).data
        out_base = baseline.encoder_forward(Tensor(features)).data
        assert np.max(np.abs(out_adapted - out_merged)) < 1e-10
        assert np.max(np.abs(out_adapted - out_base)) > 1e-6  # adapters actually act

    def test_merge_equivalence_full_forward_100_inputs(self):
        rng = np.random.default_rng(7)
        model = SERModel(small_config(seed=4))
        for name, b in model.params.items():
            if name.endswith(".lora.B"):
                b.data = rng.normal(0.0, 0.05, size=b.data.shape)
        merged = model.merge_adapters()
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=(6, 8))
            pa = model.forward(x)
            pm = merged.forward(x)
            worst = max(worst, np.max(np.abs(pa.cat_probs.data - pm.cat_probs.data)))
            worst = max(worst, np.max(np.abs(pa.dim_tensor.data - pm.dim_tensor.data)))
        assert worst < 1e-10

    def test_merge_with_zero_b_gives_base_weights(self):
        model = SERModel(small_config(seed=8))
        merged = model.merge_adapters()
        assert merged.params.keys() == {n for n in model.params if ".lora." not in n}
        for name, tensor in merged.params.items():
            np.testing.assert_array_equal(tensor.data, model.params[name].data, err_msg=name)

    def test_merged_weight_is_w_plus_scaled_ba(self):
        rng = np.random.default_rng(9)
        model = SERModel(small_config(seed=9, lora=LoraConfig(rank=2, alpha=3.0)))
        for name, b in model.params.items():
            if name.endswith(".lora.B"):
                b.data = rng.normal(size=b.data.shape)
        merged = model.merge_adapters()
        p = model.params
        adapted = [n[:-len(".lora.B")] for n in p if n.endswith(".lora.B")]
        assert len(adapted) == 6
        for name, tensor in merged.params.items():
            prefix = name.removesuffix(".weight")
            expected = p[name].data
            if prefix in adapted:
                b, a = p[f"{prefix}.lora.B"].data, p[f"{prefix}.lora.A"].data
                expected = expected + (3.0 / 2) * (b @ a)  # alpha / rank
            np.testing.assert_array_equal(tensor.data, expected, err_msg=name)

    def test_frozen_base_bitwise_after_updates(self, features):
        from serkit.optim import AdamWGroups, OptimizerConfig

        model = SERModel(small_config(seed=5))
        frozen_before = {n: t.data.copy() for n, t in model.params.items() if not t.requires_grad}
        opt = AdamWGroups(model.backbone_parameters(), model.downstream_parameters(),
                          OptimizerConfig())
        for step in range(5):
            model.zero_grad()
            out = model.forward(features)
            (out.cat_probs * out.cat_probs).sum().backward()
            opt.step(lr_scale=1.0)
        for name, original in frozen_before.items():
            assert np.array_equal(model.params[name].data, original), name


class TestMultiscalePooling:
    def _params(self, d, hidden, seed=0):
        rng = np.random.default_rng(seed)
        make = lambda: (Tensor(rng.normal(size=(hidden, d)), requires_grad=True),
                        Tensor(np.zeros(hidden), requires_grad=True),
                        Tensor(rng.normal(size=hidden), requires_grad=True))
        return make(), make()

    def test_single_frame_degenerate(self):
        scale_p, hier_p = self._params(3, 4)
        frame = np.array([[0.3, -1.2, 0.8]])
        cfg = PoolingConfig(scales=(1, 4, 16))
        out = multiscale_hierarchical_pool(Tensor(frame), cfg, scale_p, hier_p)
        np.testing.assert_allclose(out.data, frame[0], atol=1e-12)

    def test_constant_input_uniform_weights(self):
        scale_p, hier_p = self._params(3, 4)
        hidden = Tensor(np.tile([[0.5, -0.25, 1.0]], (8, 1)))
        for scale in (1, 4):
            windowed = Tensor(_window_matrix(8, scale)[0]) @ hidden
            weights = attention_weights(windowed, *scale_p)
            n = weights.data.size
            np.testing.assert_allclose(weights.data, np.full(n, 1.0 / n), atol=1e-12)

    def test_hand_traced_two_scales(self):
        """scales [1,4], T=8, 2-dim input vs an independent numpy re-computation."""
        scale_p, hier_p = self._params(2, 3, seed=11)
        rng = np.random.default_rng(12)
        hidden = rng.normal(size=(8, 2))
        cfg = PoolingConfig(scales=(1, 4))
        out = multiscale_hierarchical_pool(Tensor(hidden), cfg, scale_p, hier_p).data

        def np_attention(seq, params):
            w, b, v = (p.data for p in params)
            scores = np.tanh(seq @ w.T + b) @ v
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            return alpha @ seq

        s1 = np_attention(hidden, scale_p)                       # scale 1: raw frames
        windows = np.stack([hidden[0:4].mean(axis=0), hidden[4:8].mean(axis=0)])
        s4 = np_attention(windows, scale_p)                      # scale 4: two windows
        expected = np_attention(np.stack([s1, s4]), hier_p)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_remainder_window_kept(self):
        scale_p, hier_p = self._params(2, 3)
        hidden = Tensor(np.arange(10).reshape(5, 2).astype(float))
        cfg = PoolingConfig(scales=(1, 4))
        windowed = Tensor(_window_matrix(5, 4)[0]) @ hidden
        assert attention_weights(windowed, *scale_p).data.size == 2  # [0:4] + remainder [4:5]
        out = multiscale_hierarchical_pool(hidden, cfg, scale_p, hier_p)
        assert out.data.shape == (2,)

    def test_empty_input_rejected(self):
        scale_p, hier_p = self._params(2, 3)
        with pytest.raises(ShapeError):
            multiscale_hierarchical_pool(Tensor(np.zeros((0, 2))), PoolingConfig(scales=(1,)),
                                         scale_p, hier_p)

    def test_scale_validation(self):
        with pytest.raises(ConfigError):
            PoolingConfig(scales=(2, 4))
        with pytest.raises(ConfigError):
            PoolingConfig(scales=(1, 4, 4))


class TestAttentiveStatsPool:
    def _params(self, c, hidden=6, seed=21):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(hidden, c))), Tensor(np.zeros(hidden)),
                Tensor(rng.normal(size=hidden)))

    def test_constant_over_time(self):
        w, b, v = self._params(3)
        x = Tensor(np.tile([[2.0], [0.5], [-1.0]], (1, 7)))
        out = attentive_stats_pool(x, w, b, v).data
        np.testing.assert_allclose(out[:3], [2.0, 0.5, -1.0], atol=1e-12)
        np.testing.assert_allclose(out[3:], 1e-6, atol=1e-9)  # floored std

    def test_uniform_attention_equals_plain_stats(self):
        w, b, _ = self._params(4)
        v = Tensor(np.zeros(6))  # zero scorer -> uniform softmax
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 9))
        out = attentive_stats_pool(Tensor(x), w, b, v).data
        np.testing.assert_allclose(out[:4], x.mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(out[4:], x.std(axis=1), atol=1e-10)

    def test_hand_set_attention_oracle(self):
        """Random 2x3 input with hand-chosen attention params vs direct computation."""
        w = Tensor(np.array([[1.0, -0.5], [0.25, 0.75]]))
        b = Tensor(np.array([0.1, -0.2]))
        v = Tensor(np.array([0.8, -0.3]))
        x = np.array([[0.2, -0.4, 1.1], [0.9, 0.3, -0.6]])
        out = attentive_stats_pool(Tensor(x), w, b, v).data

        scores = np.tanh(x.T @ w.data.T + b.data) @ v.data
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        mean = x @ alpha
        std = np.sqrt(np.maximum((x * x) @ alpha - mean**2, 1e-12))
        np.testing.assert_allclose(out, np.concatenate([mean, std]), atol=1e-12)


class TestEcapaBlock:
    def test_shape_preserved_over_grid(self):
        for channels, t, dilations in [(8, 5, (2,)), (16, 12, (2, 3)), (16, 3, (3, 4))]:
            cfg = small_config(ecapa=EcapaConfig(channels=channels, dilations=dilations,
                                                 res2_scale=4, gn_groups=4, se_bottleneck=4,
                                                 stats_attention_hidden=8))
            model = SERModel(cfg)
            x = Tensor(np.random.default_rng(1).normal(size=(channels, t)))
            for i in range(len(dilations)):
                out = model.ecapa_block_forward(x, i)
                assert out.data.shape == (channels, t)

    def test_identity_construction_doubles_input(self):
        """Identity convs + SE gate forced to ~1 + normalized input => output 2x."""
        cfg = small_config(ecapa=EcapaConfig(channels=8, dilations=(2,), res2_scale=4,
                                             gn_groups=2, se_bottleneck=4, gn_eps=1e-30,
                                             stats_attention_hidden=8))
        model = SERModel(cfg)
        width = 2
        p = "ecapa.block0"
        eye_1x1 = np.eye(8)[:, :, None]
        model.params[f"{p}.conv1.weight"].data = eye_1x1.copy()
        model.params[f"{p}.conv3.weight"].data = eye_1x1.copy()
        for j in range(1, 4):
            kernel = np.zeros((width, width, 3))
            kernel[:, :, 1] = np.eye(width)  # center tap only
            model.params[f"{p}.res2.conv{j}.weight"].data = kernel
        model.params[f"{p}.se.fc2.weight"].data = np.zeros((8, 4))
        model.params[f"{p}.se.fc2.bias"].data = np.full(8, 40.0)  # sigmoid(40) == 1.0 in float64

        # Input with exactly zero mean and unit variance per GroupNorm group
        # (2 groups of 4 channels x 6 frames): +/-1 pattern.
        x = np.ones((8, 6))
        x[:, ::2] = -1.0
        out = model.ecapa_block_forward(Tensor(x), 0)
        np.testing.assert_allclose(out.data, 2.0 * x, atol=1e-12)

    def test_dilated_receptive_field_probe(self):
        """Perturbing frame t only moves outputs within kernel*dilation frames."""
        cfg = small_config(ecapa=EcapaConfig(channels=8, dilations=(3,), res2_scale=4,
                                             gn_groups=2, se_bottleneck=4,
                                             stats_attention_hidden=8))
        model = SERModel(cfg)
        p = "ecapa.block0"
        # Neutralize the global paths: SE gate pinned to 1;
        # GroupNorm is global over time, so pin gamma to 0 influence? No --
        # instead compare against a reference where only the conv path differs:
        model.params[f"{p}.se.fc2.weight"].data = np.zeros((8, 4))
        model.params[f"{p}.se.fc2.bias"].data = np.full(8, 40.0)
        # GroupNorm statistics are global; freeze them out by setting gamma=1,
        # beta=0 and feeding a perturbation that keeps group stats unchanged
        # is brittle -- instead probe the raw Res2 convolution path directly.
        from serkit.autodiff import conv1d_dilated

        rng = np.random.default_rng(3)
        t, width, dilation, kernel = 30, 2, 3, 3
        x = rng.normal(size=(width, t))
        w = Tensor(rng.normal(size=(width, width, kernel)))
        b = Tensor(np.zeros(width))
        base = conv1d_dilated(Tensor(x), w, b, dilation=dilation).data
        for t_hit in (0, 13, 29):
            bumped = x.copy()
            bumped[:, t_hit] += 1.0
            moved = np.nonzero(np.any(
                conv1d_dilated(Tensor(bumped), w, b, dilation=dilation).data != base, axis=0))[0]
            span = kernel * dilation
            assert np.all(np.abs(moved - t_hit) <= span)
            assert t_hit in moved  # the frame itself is always affected

    def test_block_gradients_match_finite_differences(self):
        """Cross-check between the two gradient paths on a random ECAPA block."""
        cfg = small_config(ecapa=EcapaConfig(channels=8, dilations=(2,), res2_scale=2,
                                             gn_groups=2, se_bottleneck=4,
                                             stats_attention_hidden=8))
        model = SERModel(cfg)
        rng = np.random.default_rng(33)
        x0 = rng.normal(size=(8, 6))
        mix = rng.normal(size=(8, 6))

        x = Tensor(x0, requires_grad=True)
        (model.ecapa_block_forward(x, 0) * Tensor(mix)).sum().backward()
        analytic = x.grad.copy()

        def f(arr):
            out = model.ecapa_block_forward(Tensor(arr), 0)
            return float((out.data * mix).sum())

        oracle = finite_difference_gradient(f, x0, h=1e-5)
        assert relative_error(analytic, oracle) < 1e-5


class TestModelForward:
    def test_probs_sum_to_one(self, model):
        rng = np.random.default_rng(40)
        for _ in range(10):
            out = model.forward(rng.normal(size=(rng.integers(1, 20), 8)))
            assert abs(out.cat_probs.data.sum() - 1.0) < 1e-12

    def test_dims_strictly_in_unit_interval(self, model):
        rng = np.random.default_rng(41)
        for _ in range(10):
            out = model.forward(rng.normal(size=(6, 8)) * 5.0)
            assert np.all((0.0 < out.dim_tensor.data) & (out.dim_tensor.data < 1.0))

    def test_deterministic_given_seed_and_input(self, features):
        out1 = SERModel(small_config(seed=9)).forward(features)
        out2 = SERModel(small_config(seed=9)).forward(features)
        assert np.array_equal(out1.cat_probs.data, out2.cat_probs.data)
        assert np.array_equal(out1.dim_tensor.data, out2.dim_tensor.data)

    def test_feature_dim_mismatch_rejected(self, model):
        with pytest.raises(ConfigError):
            model.forward(np.zeros((4, 5)))

    def test_empty_input_rejected(self, model):
        with pytest.raises(ShapeError):
            model.forward(np.zeros((0, 8)))

    def test_gradient_completeness_dead_path_detector(self):
        """Every trainable parameter gets a nonzero gradient in >= 1 of 20 batches."""
        model = SERModel(small_config(seed=13))
        rng = np.random.default_rng(14)
        for tensor in model.trainable_parameters().values():
            tensor.data = tensor.data + rng.normal(0.0, 0.05, size=tensor.data.shape)
        touched = {name: False for name in model.trainable_parameters()}
        for trial in range(20):
            trial_rng = np.random.default_rng(100 + trial)
            model.zero_grad()
            out = model.forward(trial_rng.normal(size=(2, 7, 8)), [7, 7])
            probs, dims = out.cat_probs, out.dim_tensor
            ((probs * probs).sum() + (dims * dims).sum()).backward()
            for name, tensor in model.trainable_parameters().items():
                if tensor.grad is not None and np.any(tensor.grad != 0.0):
                    touched[name] = True
        dead = [name for name, seen in touched.items() if not seen]
        assert not dead, f"dead parameters: {dead}"

    def test_permutation_invariance_only_with_width_one_kernels(self):
        """Both directions of the time-shift sensitivity bound."""
        rng = np.random.default_rng(15)
        x = rng.normal(size=(9, 8))
        perm = rng.permutation(9)

        width1 = small_config(
            seed=16,
            pooling=PoolingConfig(scales=(1,), attention_hidden=8),
            ecapa=EcapaConfig(channels=16, dilations=(2, 3), res2_scale=4, gn_groups=4,
                              se_bottleneck=4, kernel_size=1, stats_attention_hidden=8),
        )
        m1 = SERModel(width1)
        out_a = m1.forward(x)
        out_b = m1.forward(x[perm])
        np.testing.assert_allclose(out_a.cat_probs.data, out_b.cat_probs.data, atol=1e-10)
        np.testing.assert_allclose(out_a.dim_tensor.data, out_b.dim_tensor.data, atol=1e-10)

        wide = SERModel(small_config(seed=16))  # kernel 3 + scale-4 pooling windows
        out_c = wide.forward(x)
        out_d = wide.forward(x[perm])
        assert np.max(np.abs(out_c.cat_probs.data - out_d.cat_probs.data)) > 1e-8

    def test_checkpoint_naming_convention(self, model):
        names = set(model.params)
        assert "encoder.layer0.attn.q.lora.A" in names
        assert "encoder.layer1.attn.v.lora.B" in names
        assert "head.cat.weight" in names
        assert "ecapa.block0.res2.conv1.weight" in names

    def test_load_state_shape_mismatch_names_tensor(self, model):
        state = model.state_arrays()
        state["head.cat.weight"] = np.zeros((2, 2))
        with pytest.raises(ShapeError, match="head.cat.weight"):
            model.load_state(state)


PADDING_MODEL = SERModel(small_config(seed=21))
for _name, _b in PADDING_MODEL.params.items():   # let the adapters act on the encoder
    if _name.endswith(".lora.B"):
        _b.data = np.random.default_rng(22).normal(0.0, 0.1, size=_b.data.shape)


class TestPaddingInvariance:
    @settings(max_examples=30, deadline=None)
    @given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=5),
           extra=st.integers(0, 4), seed=st.integers(0, 2**16))
    def test_batched_forward_equals_per_utterance(self, lengths, extra, seed):
        """A padded batch row equals the unpadded utterance's forward, whatever the padding."""
        rng = np.random.default_rng(seed)
        utterances = [rng.normal(size=(n, 8)) for n in lengths]
        batch = np.zeros((len(lengths), max(lengths) + extra, 8))
        for i, x in enumerate(utterances):
            batch[i, :len(x)] = x
        out = PADDING_MODEL.forward(batch, lengths)
        probs, dims = out.cat_probs.data, out.dim_tensor.data
        for i, x in enumerate(utterances):
            single = PADDING_MODEL.forward(x)
            np.testing.assert_allclose(probs[i], single.cat_probs.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dims[i], single.dim_tensor.data, rtol=0, atol=1e-12)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ShapeError):
            PADDING_MODEL.forward(np.zeros((2, 5, 8)), [5, 6])
        with pytest.raises(ShapeError):
            PADDING_MODEL.forward(np.zeros((2, 5, 8)), [0, 5])
        with pytest.raises(ShapeError):
            PADDING_MODEL.forward(np.zeros((2, 5, 8)), [5])
        with pytest.raises(ShapeError, match="integers"):     # frame counts, not fractions
            PADDING_MODEL.forward(np.zeros((2, 5, 8)), [5.0, 4.5])
        with pytest.raises(ShapeError, match="lengths"):      # one utterance has no lengths
            PADDING_MODEL.forward(np.zeros((5, 8)), [5])
