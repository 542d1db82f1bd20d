"""Flat dotted-key run configuration.

Every training-recipe constant (loss coefficients, label smoothing, warmup
ratio, MixUp settings, speed factors, batch size, epoch cap, per-group
learning rates and decays) is the default of the dataclass field it sets.
The fields are the schema: field `name` of a section's dataclass is the key
`section.name`, with the exceptions in `EXCEPTIONS`, and `DEFAULTS` is read
from the fields. `eval.merge_cap_s` (the datapipe's `MERGE_CAP_S`) is the one
key without a field. Config files are `key = value` lines with `#` comments;
CLI --set overrides win over the file. Unknown keys are rejected, and the
effective config echoes into the run directory so a run can be reproduced
from its own artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib

from .augment import AugmentConfig
from .datapipe import MERGE_CAP_S, text_lines
from .errors import ConfigError
from .losses import LossConfig
from .model import ModelConfig
from .optim import OptimizerConfig
from .training import TrainConfig

# Config section -> the dataclass whose fields are its keys.
SECTIONS = {"model": ModelConfig, "loss": LossConfig, "optim": OptimizerConfig,
            "train": TrainConfig, "augment": AugmentConfig}
# Fields whose key is not `section.field`; None marks a field that no key sets
# (the seeds come from --seed, the class weights from the training manifest).
EXCEPTIONS = {"model.seed": None, "train.seed": None, "loss.class_weights": None,
              "train.warmup_ratio": "schedule.warmup_ratio",
              "train.min_lr_factor": "schedule.min_lr_factor"}


def _keys() -> dict:
    """Config key -> (dataclass, field name); the key's default is the field's."""
    keys = {}
    for section, cls in SECTIONS.items():
        for field in dataclasses.fields(cls):
            name = f"{section}.{field.name}"
            key = EXCEPTIONS.get(name, name)
            if key is not None:
                keys[key] = (cls, field.name)
    return keys


KEYS = _keys()


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
    if isinstance(getattr(*KEYS[key]), tuple):
        _items(key, raw)    # the config keeps the text; this checks it where it is read
    return raw


def _items(key: str, text: str) -> tuple:
    """A comma-list key's text as a tuple of its field default's element type."""
    kind = type(getattr(*KEYS[key])[0])
    try:
        return tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"key {key}: expected comma-separated "
                          f"{kind.__name__} values, got {text!r}") from None


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
        """Defaults, then the file's `key = value` lines, then the --set `key=value` pairs."""
        pairs = []  # (key=value text, where it came from: "path:line: ", or "" for --set)
        if config_path:
            for line_no, line in text_lines(config_path, ConfigError):
                text = line.split("#", 1)[0].strip()
                if text:
                    pairs.append((text, f"{config_path}:{line_no}: "))
        pairs += [(item, "") for item in overrides or []]
        cfg = RunConfig()
        for text, where in pairs:
            if "=" not in text:
                raise ConfigError(f"{where}expected key = value" if where
                                  else f"override {text!r} must be key=value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{where}unknown config key {key!r}")
            try:
                cfg.values[key] = _coerce(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{where}{exc}") from None
        return cfg

    def echo(self) -> str:
        lines = [f"{key} = {_format(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> bytes:
        return hashlib.sha256(self.echo().encode("utf-8")).digest()

    # -- dataclass builders --

    def _build(self, cls, **extra):
        """`cls` with every field that KEYS maps a key onto taken from this config; a tuple
        field's text is split on commas into its default's element type."""
        for key, (owner, name) in KEYS.items():
            if owner is cls:
                value = self.values[key]
                extra[name] = _items(key, value) if isinstance(getattr(cls, name), tuple) else value
        return cls(**extra)

    def model_config(self, seed: int) -> ModelConfig:
        return self._build(ModelConfig, seed=seed)

    def loss_config(self) -> LossConfig:
        return self._build(LossConfig)

    def optimizer_config(self) -> OptimizerConfig:
        return self._build(OptimizerConfig)

    def train_config(self, seed: int) -> TrainConfig:
        return self._build(TrainConfig, seed=seed)

    def augment_config(self) -> AugmentConfig:
        return self._build(AugmentConfig)
