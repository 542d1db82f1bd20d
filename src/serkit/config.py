"""Flat dotted-key run configuration.

Every training-recipe constant (loss coefficients, label smoothing, warmup
ratio, MixUp settings, speed factors, batch size, epoch cap, per-group
learning rates and decays) is the default of the dataclass field it sets.
`KEYS` maps every config key but `eval.merge_cap_s` (the datapipe's
`MERGE_CAP_S`) to that field, and `DEFAULTS` is read from the fields.
Config files are `key = value` lines with `#` comments; CLI --set
overrides win over the file. Unknown keys are rejected, and the effective
config echoes into the run directory so a run can be reproduced from its
own artifacts.
"""

from __future__ import annotations

import hashlib

from .augment import AugmentConfig
from .datapipe import MERGE_CAP_S, text_lines
from .errors import ConfigError
from .losses import LossConfig
from .model import EcapaConfig, EncoderStubConfig, LoraConfig, ModelConfig, PoolingConfig
from .optim import OptimizerConfig
from .training import TrainConfig

# Config key -> (dataclass, field name); the key's default is the field's.
KEYS = {
    "model.feature_dim": (ModelConfig, "feature_dim"),
    "model.encoder_layers": (EncoderStubConfig, "num_layers"),
    "model.encoder_dim": (EncoderStubConfig, "model_dim"),
    "model.encoder_heads": (EncoderStubConfig, "num_heads"),
    "model.encoder_ff": (EncoderStubConfig, "ff_dim"),
    "model.lora_rank": (LoraConfig, "rank"),
    "model.lora_alpha": (LoraConfig, "alpha"),
    "model.pool_scales": (PoolingConfig, "scales"),
    "model.pool_attention_hidden": (PoolingConfig, "attention_hidden"),
    "model.ecapa_channels": (EcapaConfig, "channels"),
    "model.ecapa_dilations": (EcapaConfig, "dilations"),
    "model.ecapa_res2_scale": (EcapaConfig, "res2_scale"),
    "model.ecapa_gn_groups": (EcapaConfig, "gn_groups"),
    "model.ecapa_se_bottleneck": (EcapaConfig, "se_bottleneck"),
    "model.ecapa_kernel": (EcapaConfig, "kernel_size"),
    "model.ecapa_stats_attention_hidden": (EcapaConfig, "stats_attention_hidden"),
    "loss.lambda_cat": (LossConfig, "lambda_cat"),
    "loss.lambda_dim": (LossConfig, "lambda_dim"),
    "loss.epsilon_smooth": (LossConfig, "epsilon_smooth"),
    "loss.eps_ccc": (LossConfig, "eps_ccc"),
    "optim.backbone_lr": (OptimizerConfig, "backbone_lr"),
    "optim.backbone_weight_decay": (OptimizerConfig, "backbone_weight_decay"),
    "optim.downstream_lr": (OptimizerConfig, "downstream_lr"),
    "optim.downstream_weight_decay": (OptimizerConfig, "downstream_weight_decay"),
    "optim.beta1": (OptimizerConfig, "beta1"),
    "optim.beta2": (OptimizerConfig, "beta2"),
    "optim.eps": (OptimizerConfig, "eps"),
    "schedule.warmup_ratio": (TrainConfig, "warmup_ratio"),
    "schedule.min_lr_factor": (TrainConfig, "min_lr_factor"),
    "train.epochs": (TrainConfig, "epochs"),
    "train.batch_size": (TrainConfig, "batch_size"),
    "train.patience": (TrainConfig, "patience"),
    "train.max_frames": (TrainConfig, "max_frames"),
    "augment.mixup_prob": (AugmentConfig, "mixup_prob"),
    "augment.mixup_alpha": (AugmentConfig, "mixup_alpha"),
    "augment.speed_factors": (AugmentConfig, "speed_factors"),
    "augment.noise_snr_db": (AugmentConfig, "noise_snr_db"),
    "augment.enable_mixup": (AugmentConfig, "enable_mixup"),
    "augment.enable_noise": (AugmentConfig, "enable_noise"),
    "augment.enable_speed": (AugmentConfig, "enable_speed"),
    "augment.noise_dir": (AugmentConfig, "noise_dir"),
}


def _default_text(value):
    """Tuple defaults are config text: comma-separated elements."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


# A dataclass field with a plain default keeps that default as a class attribute.
DEFAULTS = {key: _default_text(getattr(cls, name)) for key, (cls, name) in KEYS.items()}
DEFAULTS["eval.merge_cap_s"] = MERGE_CAP_S


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key}: expected boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key}: expected integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key}: expected float, got {raw!r}") from None
    return raw


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class RunConfig:
    """Defaults + file + overrides, validated against the known key set."""

    def __init__(self, values: dict | None = None):
        self.values = dict(DEFAULTS)
        for key, value in (values or {}).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            self.values[key] = value

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    @staticmethod
    def load(config_path: str | None = None, overrides: list | None = None) -> "RunConfig":
        cfg = RunConfig()
        if config_path:
            for line_no, line in text_lines(config_path, ConfigError):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{config_path}:{line_no}: expected key = value")
                key, raw = (part.strip() for part in stripped.split("=", 1))
                if key not in DEFAULTS:
                    raise ConfigError(f"{config_path}:{line_no}: unknown config key {key!r}")
                cfg.values[key] = _coerce(key, raw)
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"override {item!r} must be key=value")
            key, raw = (part.strip() for part in item.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg.values[key] = _coerce(key, raw)
        return cfg

    def echo(self) -> str:
        lines = [f"{key} = {_format(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> bytes:
        return hashlib.sha256(self.echo().encode("utf-8")).digest()

    def write_echo(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.echo())

    # -- dataclass builders --

    def _build(self, cls, **extra):
        """`cls` with every field that KEYS maps a key onto taken from this config.

        A tuple field's text is split on commas and each part parsed with the
        type of the default's elements.
        """
        for key, (owner, name) in KEYS.items():
            if owner is not cls:
                continue
            value = self.values[key]
            default = getattr(cls, name)
            if isinstance(default, tuple):
                kind = type(default[0])
                try:
                    value = tuple(kind(part) for part in str(value).split(",") if part.strip())
                except ValueError:
                    raise ConfigError(f"key {key}: expected comma-separated "
                                      f"{kind.__name__} values, got {value!r}") from None
            extra[name] = value
        return cls(**extra)

    def model_config(self, seed: int) -> ModelConfig:
        return self._build(ModelConfig, seed=seed, encoder=self._build(EncoderStubConfig),
                           lora=self._build(LoraConfig), pooling=self._build(PoolingConfig),
                           ecapa=self._build(EcapaConfig))

    def loss_config(self) -> LossConfig:
        return self._build(LossConfig)

    def optimizer_config(self) -> OptimizerConfig:
        return self._build(OptimizerConfig)

    def train_config(self, seed: int) -> TrainConfig:
        return self._build(TrainConfig, seed=seed)

    def augment_config(self) -> AugmentConfig:
        return self._build(AugmentConfig)
