"""Augmentation tests: MixUp, SNR noise, speed perturbation."""

import math

import numpy as np
import pytest

from serkit.augment import (
    AUGMENT_COUNTS,
    AugmentConfig,
    DirectoryNoiseSource,
    add_noise_snr,
    mixup_apply,
    mixup_batch,
    reset_augment_counters,
    speed_perturb,
    total_augment_count,
    white_noise_source,
)
from serkit.errors import ConfigError, DataError
from serkit.losses import DimTargets


@pytest.fixture(autouse=True)
def clean_counters():
    reset_augment_counters()
    yield
    reset_augment_counters()


def measured_snr_db(clean: np.ndarray, noisy: np.ndarray) -> float:
    noise = noisy - clean
    return 10.0 * math.log10(np.mean(clean**2) / np.mean(noise**2))


class TestNoise:
    def test_infinite_snr_sentinel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        out = add_noise_snr(x, math.inf, white_noise_source, rng)
        np.testing.assert_array_equal(out, x)
        assert AUGMENT_COUNTS["noise"] == 0

    def test_zero_db_noise_power_equals_signal_power(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 8))
        x = x / np.sqrt(np.mean(x**2))  # unit power
        out = add_noise_snr(x, 0.0, white_noise_source, np.random.default_rng(2))
        noise_power = np.mean((out - x) ** 2)
        assert noise_power == pytest.approx(1.0, abs=1e-6)

    def test_measured_snr_matches_requested(self):
        rng = np.random.default_rng(3)
        for requested in (-3.0, 0.0, 5.0, 12.5, 20.0):
            x = rng.normal(size=(30, 6)) * rng.uniform(0.2, 3.0)
            out = add_noise_snr(x, requested, white_noise_source, rng)
            assert measured_snr_db(x, out) == pytest.approx(requested, abs=0.01)

    def test_zero_power_signal_passthrough(self, caplog):
        x = np.zeros((4, 3))
        with caplog.at_level("WARNING", logger="serkit.augment"):
            out = add_noise_snr(x, 10.0, white_noise_source, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)
        assert any("zero-power" in r.message for r in caplog.records)

    def test_empty_features_rejected(self):
        with pytest.raises(DataError):
            add_noise_snr(np.zeros((0, 3)), 10.0, white_noise_source, np.random.default_rng(0))

    def test_directory_noise_source(self, tmp_path):
        from serkit.datapipe import write_features

        rng = np.random.default_rng(4)
        write_features(str(tmp_path / "hum.serf"), rng.normal(size=(5, 3)))
        source = DirectoryNoiseSource(str(tmp_path))
        noise = source((12, 7), np.random.default_rng(5))
        assert noise.shape == (12, 7)
        x = rng.normal(size=(12, 7))
        out = add_noise_snr(x, 8.0, source, np.random.default_rng(6))
        assert measured_snr_db(x, out) == pytest.approx(8.0, abs=0.01)

    def test_empty_noise_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no .serf noise file"):
            DirectoryNoiseSource(str(tmp_path))


class TestSpeedPerturb:
    def test_factor_one_is_exact_identity(self):
        x = np.random.default_rng(7).normal(size=(20, 5))
        np.testing.assert_array_equal(speed_perturb(x, 1.0), x)
        assert AUGMENT_COUNTS["speed"] == 0

    def test_length_rule(self):
        x = np.random.default_rng(8).normal(size=(100, 3))
        assert speed_perturb(x, 0.9).shape == (111, 3)  # round(100/0.9)
        assert speed_perturb(x, 1.1).shape == (91, 3)   # round(100/1.1)

    def test_constant_input_exact(self):
        x = np.full((40, 4), 2.75)
        out = speed_perturb(x, 0.9)
        np.testing.assert_array_equal(out, np.full((44, 4), 2.75))

    def test_endpoints_preserved(self):
        x = np.linspace(0, 1, 10)[:, None]
        out = speed_perturb(x, 1.1)
        assert out[0, 0] == x[0, 0]
        assert out[-1, 0] == x[-1, 0]

    def test_degenerate_length_rejected(self):
        with pytest.raises(DataError):
            speed_perturb(np.ones((1, 2)), 3.0)

    def test_bad_factor_rejected(self):
        with pytest.raises(ConfigError):
            speed_perturb(np.ones((4, 2)), 0.0)


class TestMixup:
    def _batch(self, rng, b=4):
        features = rng.normal(size=(b, 6, 3))
        cats = np.eye(7)[rng.integers(0, 7, size=b)]
        dims = DimTargets(values=rng.uniform(0, 1, size=(b, 3)),
                          present_mask=np.ones(b, dtype=bool))
        return features, cats, dims

    def test_lambda_one_is_exact_identity(self):
        rng = np.random.default_rng(9)
        features, cats, dims = self._batch(rng)
        perm = np.array([1, 0, 3, 2])
        fx, cx, dx = mixup_apply(features, cats, dims, lam=1.0, perm=perm)
        np.testing.assert_array_equal(fx, features)
        np.testing.assert_array_equal(cx, cats)
        np.testing.assert_array_equal(dx.values, dims.values)

    def test_half_mix_of_onehot_rows(self):
        features = np.zeros((2, 3, 2))
        cats = np.eye(7)[[0, 1]]
        dims = DimTargets(values=np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]),
                          present_mask=np.ones(2, bool))
        _, cx, dx = mixup_apply(features, cats, dims, lam=0.5, perm=np.array([1, 0]))
        np.testing.assert_allclose(cx[0], [0.5, 0.5, 0, 0, 0, 0, 0], atol=1e-15)
        assert cx[0].sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(dx.values, 0.5, atol=1e-15)

    def test_beta_sample_mean(self):
        rng = np.random.default_rng(10)
        draws = rng.beta(0.3, 0.3, size=100_000)
        assert draws.mean() == pytest.approx(0.5, abs=0.02)

    def test_simplex_preserved_under_fuzz(self):
        rng = np.random.default_rng(11)
        cfg = AugmentConfig(mixup_prob=1.0)
        for _ in range(200):
            features, cats, dims = self._batch(rng, b=5)
            _, _, cx, dx = mixup_batch(features, np.full(5, 6), cats, dims, cfg, rng)
            assert np.all(cx >= -1e-15)
            np.testing.assert_allclose(cx.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(dx.values >= -1e-15) and np.all(dx.values <= 1 + 1e-15)

    def test_probability_zero_never_mixes(self):
        rng = np.random.default_rng(12)
        features, cats, dims = self._batch(rng)
        cfg = AugmentConfig(mixup_prob=0.0)
        fx, _, cx, _ = mixup_batch(features, np.full(4, 6), cats, dims, cfg, rng)
        np.testing.assert_array_equal(fx, features)
        assert AUGMENT_COUNTS["mixup"] == 0

    def test_batch_of_one_skips_with_warning(self, caplog):
        rng = np.random.default_rng(13)
        features, cats, dims = self._batch(rng, b=1)
        cfg = AugmentConfig(mixup_prob=1.0)
        with caplog.at_level("WARNING", logger="serkit.augment"):
            fx, _, _, _ = mixup_batch(features, np.full(1, 6), cats, dims, cfg, rng)
        np.testing.assert_array_equal(fx, features)
        assert any("batch of 1" in r.message for r in caplog.records)

    def test_mixed_lengths_are_the_union(self):
        rng = np.random.default_rng(15)
        lengths = np.array([2, 6, 4, 5, 1])
        features, cats, dims = self._batch(rng, b=5)
        features *= (np.arange(6) < lengths[:, None])[:, :, None]
        cfg = AugmentConfig(mixup_prob=1.0)
        fx, lx, _, _ = mixup_batch(features, lengths, cats, dims, cfg, np.random.default_rng(3))
        replay = np.random.default_rng(3)
        replay.random()
        replay.beta(cfg.mixup_alpha, cfg.mixup_alpha)
        perm = replay.permutation(5)
        np.testing.assert_array_equal(lx, np.maximum(lengths, lengths[perm]))
        extents = [int(np.flatnonzero(row.any(axis=1)).max()) + 1 for row in fx]
        assert extents == lx.tolist()

    def test_mask_intersection(self):
        features = np.zeros((2, 2, 2))
        cats = np.eye(7)[[0, 1]]
        dims = DimTargets(values=np.full((2, 3), 0.5),
                          present_mask=np.array([True, False]))
        _, _, dx = mixup_apply(features, cats, dims, lam=0.7, perm=np.array([1, 0]))
        assert not dx.present_mask.any()

    def test_counters_track_applications(self):
        rng = np.random.default_rng(14)
        features, cats, dims = self._batch(rng)
        cfg = AugmentConfig(mixup_prob=1.0)
        mixup_batch(features, np.full(4, 6), cats, dims, cfg, rng)
        speed_perturb(features[0], 0.9)
        add_noise_snr(features[0], 10.0, white_noise_source, rng)
        assert AUGMENT_COUNTS == {"mixup": 1, "noise": 1, "speed": 1}
        assert total_augment_count() == 3

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AugmentConfig(mixup_prob=1.5)
        with pytest.raises(ConfigError):
            AugmentConfig(mixup_alpha=0.0)
        with pytest.raises(ConfigError):
            AugmentConfig(noise_snr_db=(10.0, 5.0))
        with pytest.raises(ConfigError):
            AugmentConfig(noise_snr_db=(1.0, 4.0, 4.0))
        with pytest.raises(ConfigError):
            AugmentConfig(speed_factors=(0.9, -1.0))
