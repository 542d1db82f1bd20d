"""Schedule and optimizer tests."""

import numpy as np
import pytest

from serkit.autodiff import Tensor
from serkit.errors import ConfigError, NumericError
from serkit.optim import AdamWGroups, OptimizerConfig, ScheduleConfig, cosine_warmup_lr


class TestSchedule:
    def test_warmup_joint_is_exact_peak(self):
        cfg = ScheduleConfig(total_steps=1000)
        assert cosine_warmup_lr(cfg.warmup_steps, 3e-4, cfg) == 3e-4

    def test_terminal_step_is_zero(self):
        cfg = ScheduleConfig(total_steps=500, min_lr_factor=0.0)
        assert cosine_warmup_lr(500, 1e-3, cfg) == pytest.approx(0.0, abs=1e-20)

    def test_cosine_midpoint_is_half_peak(self):
        cfg = ScheduleConfig(total_steps=1000)
        warmup = cfg.warmup_steps
        midpoint = warmup + (1000 - warmup) // 2
        assert (1000 - warmup) % 2 == 0, "test fixture needs an integer midpoint"
        lr = cosine_warmup_lr(midpoint, 1.0, cfg)
        assert abs(lr - 0.5) < 1e-12

    def test_warmup_steps_rounding(self):
        assert ScheduleConfig(total_steps=1000).warmup_steps == 80
        assert ScheduleConfig(total_steps=100).warmup_steps == 8
        assert ScheduleConfig(total_steps=7).warmup_steps == 1  # round(0.56) then floor at 1

    def test_step_zero_and_first_step(self):
        cfg = ScheduleConfig(total_steps=100)
        assert cosine_warmup_lr(0, 1.0, cfg) == 0.0
        assert cosine_warmup_lr(1, 1.0, cfg) > 0.0

    def test_continuous_at_warmup_joint(self):
        cfg = ScheduleConfig(total_steps=200)
        w = cfg.warmup_steps
        before = cosine_warmup_lr(w - 1, 1.0, cfg)
        at = cosine_warmup_lr(w, 1.0, cfg)
        after = cosine_warmup_lr(w + 1, 1.0, cfg)
        assert before < at
        assert abs(after - at) < 2.0 / (200 - w)  # no jump: one cosine step's slope

    def test_non_increasing_after_warmup(self):
        cfg = ScheduleConfig(total_steps=300)
        values = [cosine_warmup_lr(s, 1.0, cfg) for s in range(cfg.warmup_steps, 301)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_beyond_total_clamps_and_logs(self, caplog):
        cfg = ScheduleConfig(total_steps=100, min_lr_factor=0.1)
        with caplog.at_level("WARNING", logger="serkit.optim"):
            lr = cosine_warmup_lr(150, 1.0, cfg)
        assert lr == pytest.approx(0.1)
        assert any("clamping" in r.message for r in caplog.records)

    def test_min_lr_factor_floor(self):
        cfg = ScheduleConfig(total_steps=100, min_lr_factor=0.25)
        assert cosine_warmup_lr(100, 1.0, cfg) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(total_steps=0)
        with pytest.raises(ConfigError):
            ScheduleConfig(total_steps=10, warmup_ratio=1.5)


def make_params(values, requires_grad=True):
    return {f"p{i}": Tensor(np.array(v, dtype=float), requires_grad=requires_grad)
            for i, v in enumerate(values)}


class TestAdamWGroups:
    def test_zero_grad_zero_decay_leaves_params(self):
        params = make_params([[1.0, -2.0]])
        for t in params.values():
            t.grad = np.zeros_like(t.data)
        cfg = OptimizerConfig(backbone_lr=1e-3, backbone_weight_decay=0.0,
                              downstream_lr=1e-3, downstream_weight_decay=0.0)
        opt = AdamWGroups(params, {}, cfg)
        before = {n: t.data.copy() for n, t in params.items()}
        for _ in range(3):
            opt.step()
        for name, t in params.items():
            np.testing.assert_array_equal(t.data, before[name])

    def test_first_step_magnitude_is_lr(self):
        params = make_params([[1.0]])
        params["p0"].grad = np.array([0.5])
        cfg = OptimizerConfig(downstream_lr=1e-2, downstream_weight_decay=0.0)
        opt = AdamWGroups({}, params, cfg)
        opt.step()
        # bias-corrected m/sqrt(v) = g/|g| = 1 on the first step
        assert params["p0"].data[0] == pytest.approx(1.0 - 1e-2, rel=1e-6)

    def test_decoupled_decay_closed_form(self):
        params = make_params([[2.0]])
        lr, wd, steps = 1e-2, 0.1, 25
        cfg = OptimizerConfig(downstream_lr=lr, downstream_weight_decay=wd)
        opt = AdamWGroups({}, params, cfg)
        for _ in range(steps):
            params["p0"].grad = np.zeros(1)
            opt.step()
        assert params["p0"].data[0] == pytest.approx(2.0 * (1.0 - lr * wd) ** steps, rel=1e-12)

    def test_two_groups_use_their_own_lrs(self):
        backbone = make_params([[1.0]])
        downstream = {"q0": Tensor(np.array([1.0]), requires_grad=True)}
        cfg = OptimizerConfig(backbone_lr=1e-4, backbone_weight_decay=0.0,
                              downstream_lr=1e-1, downstream_weight_decay=0.0)
        opt = AdamWGroups(backbone, downstream, cfg)
        backbone["p0"].grad = np.array([1.0])
        downstream["q0"].grad = np.array([1.0])
        opt.step()
        assert abs(1.0 - backbone["p0"].data[0]) == pytest.approx(1e-4, rel=1e-5)
        assert abs(1.0 - downstream["q0"].data[0]) == pytest.approx(1e-1, rel=1e-5)

    def test_lr_scale_applies(self):
        params = make_params([[1.0]])
        cfg = OptimizerConfig(downstream_lr=1e-2, downstream_weight_decay=0.0)
        opt = AdamWGroups({}, params, cfg)
        params["p0"].grad = np.array([1.0])
        opt.step(lr_scale=0.5)
        assert abs(1.0 - params["p0"].data[0]) == pytest.approx(5e-3, rel=1e-5)

    def test_nan_gradient_aborts_naming_param(self):
        params = make_params([[1.0]])
        opt = AdamWGroups({}, params, OptimizerConfig())
        params["p0"].grad = np.array([np.nan])
        with pytest.raises(NumericError, match="p0"):
            opt.step()

    def test_overlapping_groups_rejected(self):
        params = make_params([[1.0]])
        with pytest.raises(ConfigError):
            AdamWGroups(params, params, OptimizerConfig())

    def test_frozen_param_rejected(self):
        frozen = make_params([[1.0]], requires_grad=False)
        with pytest.raises(ConfigError):
            AdamWGroups({}, frozen, OptimizerConfig())

    def test_converges_on_quadratic(self):
        params = make_params([[5.0]])
        cfg = OptimizerConfig(downstream_lr=0.2, downstream_weight_decay=0.0)
        opt = AdamWGroups({}, params, cfg)
        for _ in range(200):
            params["p0"].grad = 2.0 * params["p0"].data  # d/dx x^2
            opt.step()
        assert abs(params["p0"].data[0]) < 1e-2
