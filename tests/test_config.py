"""RunConfig tests: defaults carry the recipe constants, parsing, echo, hash."""

import dataclasses
import pathlib

import pytest

from serkit.augment import AugmentConfig
from serkit.config import DEFAULTS, KEYS, RunConfig
from serkit.datapipe import MERGE_CAP_S
from serkit.errors import ConfigError
from serkit.losses import LossConfig
from serkit.model import EcapaConfig, EncoderStubConfig, LoraConfig, ModelConfig, PoolingConfig
from serkit.optim import OptimizerConfig
from serkit.training import TrainConfig


def as_config_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


def field_default(cls, name):
    return {f.name: f.default for f in dataclasses.fields(cls)}[name]


# Doubling or halving these defaults would be rejected or leave them unchanged.
NON_DEFAULT_SPECIAL = {"model.ecapa_kernel": "5", "train.max_frames": "8",
                       "schedule.min_lr_factor": "0.1", "augment.noise_snr_db": "5.0,10.0"}


def non_default_text(key):
    """A valid config value for `key` that differs from its default."""
    if key in NON_DEFAULT_SPECIAL:
        return NON_DEFAULT_SPECIAL[key]
    default = DEFAULTS[key]
    if isinstance(default, bool):
        return "false" if default else "true"
    if isinstance(default, int):
        return str(2 * default)
    if isinstance(default, float):
        return repr(default / 2)
    if isinstance(field_default(*KEYS[key]), tuple):
        return default.rsplit(",", 1)[0]  # drop the last element
    return default + "x"


def built_instances(cfg):
    """Every dataclass instance the public builders produce, by class."""
    model = cfg.model_config(seed=0)
    return {ModelConfig: model, EncoderStubConfig: model.encoder, LoraConfig: model.lora,
            PoolingConfig: model.pooling, EcapaConfig: model.ecapa,
            LossConfig: cfg.loss_config(), OptimizerConfig: cfg.optimizer_config(),
            TrainConfig: cfg.train_config(seed=0), AugmentConfig: cfg.augment_config()}


class TestDefaults:
    def test_recipe_constants_present(self):
        assert DEFAULTS["loss.lambda_cat"] == 1.0
        assert DEFAULTS["loss.lambda_dim"] == 0.5
        assert DEFAULTS["loss.epsilon_smooth"] == 0.1
        assert DEFAULTS["schedule.warmup_ratio"] == 0.08
        assert DEFAULTS["augment.mixup_prob"] == 0.5
        assert DEFAULTS["augment.mixup_alpha"] == 0.3
        assert DEFAULTS["augment.speed_factors"] == "0.9,1.1"
        assert DEFAULTS["train.batch_size"] == 32
        assert DEFAULTS["train.epochs"] == 15
        assert DEFAULTS["optim.backbone_lr"] == 5e-5
        assert DEFAULTS["optim.backbone_weight_decay"] == 4e-5
        assert DEFAULTS["optim.downstream_lr"] == 6e-4
        assert DEFAULTS["optim.downstream_weight_decay"] == 8e-5

    def test_builders_produce_valid_dataclasses(self):
        cfg = RunConfig()
        model_cfg = cfg.model_config(seed=3)
        assert model_cfg.encoder.model_dim == 32
        assert model_cfg.lora.rank == 4 and model_cfg.lora.alpha == 8.0
        assert model_cfg.pooling.scales == (1, 4, 16)
        assert model_cfg.ecapa.dilations == (2, 3, 4)
        assert cfg.loss_config().lambda_dim == 0.5
        assert cfg.optimizer_config().downstream_lr == 6e-4
        assert cfg.train_config(seed=1).epochs == 15
        assert cfg.augment_config().mixup_prob == 0.5


class TestKeyTable:
    def test_defaults_come_from_fields(self):
        assert len(set(KEYS.values())) == len(KEYS)  # no two keys share a field
        for key, (cls, name) in KEYS.items():
            assert DEFAULTS[key] == as_config_text(field_default(cls, name)), key
        assert DEFAULTS["eval.merge_cap_s"] == MERGE_CAP_S
        assert set(DEFAULTS) - set(KEYS) == {"eval.merge_cap_s"}

    def test_keys_outside_the_table_are_read(self):
        """A key that maps onto no field must be read by name outside config.py."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "serkit"
        text = "".join(path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))
                       if path.name != "config.py")
        unread = sorted(key for key in set(DEFAULTS) - set(KEYS) if f'"{key}"' not in text)
        assert not unread, f"config keys nothing reads: {unread}"

    def test_every_key_reaches_its_field(self):
        for key, (cls, name) in KEYS.items():
            cfg = RunConfig.load(None, overrides=[f"{key}={non_default_text(key)}"])
            value = getattr(built_instances(cfg)[cls], name)
            assert as_config_text(value) == cfg[key] != DEFAULTS[key], key


class TestParsing:
    def test_file_plus_overrides_flags_win(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train.epochs = 5  # short run\ntrain.batch_size = 4\n")
        cfg = RunConfig.load(str(path), overrides=["train.epochs=9"])
        assert cfg["train.epochs"] == 9
        assert cfg["train.batch_size"] == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train.turbo = 1\n")
        with pytest.raises(ConfigError, match="turbo"):
            RunConfig.load(str(path))
        with pytest.raises(ConfigError):
            RunConfig.load(None, overrides=["no.such.key=1"])

    def test_type_coercion(self):
        cfg = RunConfig.load(None, overrides=[
            "augment.enable_noise=false", "train.epochs=3", "loss.lambda_dim=0.25",
            "augment.noise_snr_db=1,2.5"])
        assert cfg["augment.enable_noise"] is False
        assert cfg["train.epochs"] == 3
        assert cfg["loss.lambda_dim"] == 0.25
        assert cfg.augment_config().enable_noise is False
        assert cfg.augment_config().noise_snr_db == (1.0, 2.5)

    def test_bad_value_types_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, overrides=["train.epochs=three"])
        with pytest.raises(ConfigError):
            RunConfig.load(None, overrides=["augment.enable_mixup=perhaps"])

    def test_empty_speed_factors_rejected(self):
        """An empty list would leave speed perturbation enabled yet never applied."""
        with pytest.raises(ConfigError, match="speed factors"):
            RunConfig.load(None, overrides=["augment.speed_factors="]).augment_config()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(str(tmp_path / "absent.cfg"))


class TestEchoAndHash:
    def test_echo_round_trips(self, tmp_path):
        cfg = RunConfig.load(None, overrides=["train.epochs=7", "loss.lambda_dim=0.75"])
        path = tmp_path / "echo.cfg"
        cfg.write_echo(str(path))
        reloaded = RunConfig.load(str(path))
        assert reloaded.values == cfg.values

    def test_hash_stable_and_sensitive(self):
        a = RunConfig.load(None, overrides=["train.epochs=7"])
        b = RunConfig.load(None, overrides=["train.epochs=7"])
        c = RunConfig.load(None, overrides=["train.epochs=8"])
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 32
