"""RunConfig tests: defaults carry the recipe constants, parsing, echo, hash."""

import dataclasses
import pathlib
import re

import pytest

from serkit.augment import AugmentConfig
from serkit.config import DEFAULTS, KEYS, RunConfig
from serkit.datapipe import MERGE_CAP_S, write_file
from serkit.errors import ConfigError
from serkit.losses import LossConfig
from serkit.model import ModelConfig
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
    return {ModelConfig: cfg.model_config(seed=0), LossConfig: cfg.loss_config(),
            OptimizerConfig: cfg.optimizer_config(), TrainConfig: cfg.train_config(seed=0),
            AugmentConfig: cfg.augment_config()}


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
        assert model_cfg.encoder_dim == 32 and model_cfg.seed == 3
        assert model_cfg.lora_rank == 4 and model_cfg.lora_alpha == 8.0
        assert model_cfg.pool_scales == (1, 4, 16)
        assert model_cfg.ecapa_dilations == (2, 3, 4)
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


class TestSchemaPinned:
    """Renaming a key or changing a default changes every checkpoint's config hash."""

    ECHO = (
        "augment.enable_mixup = true", "augment.enable_noise = true",
        "augment.enable_speed = true", "augment.mixup_alpha = 0.3", "augment.mixup_prob = 0.5",
        "augment.noise_dir = ", "augment.noise_snr_db = 5.0,20.0",
        "augment.speed_factors = 0.9,1.1", "eval.merge_cap_s = 15.0", "loss.eps_ccc = 1e-08",
        "loss.epsilon_smooth = 0.1", "loss.lambda_cat = 1.0", "loss.lambda_dim = 0.5",
        "model.ecapa_channels = 64", "model.ecapa_dilations = 2,3,4",
        "model.ecapa_gn_groups = 8", "model.ecapa_kernel = 3", "model.ecapa_res2_scale = 4",
        "model.ecapa_se_bottleneck = 16", "model.ecapa_stats_attention_hidden = 32",
        "model.encoder_dim = 32", "model.encoder_ff = 64", "model.encoder_heads = 4",
        "model.encoder_layers = 2", "model.feature_dim = 16", "model.lora_alpha = 8.0",
        "model.lora_rank = 4", "model.pool_attention_hidden = 32", "model.pool_scales = 1,4,16",
        "optim.backbone_lr = 5e-05", "optim.backbone_weight_decay = 4e-05",
        "optim.beta1 = 0.9", "optim.beta2 = 0.999", "optim.downstream_lr = 0.0006",
        "optim.downstream_weight_decay = 8e-05", "optim.eps = 1e-08",
        "schedule.min_lr_factor = 0.0", "schedule.warmup_ratio = 0.08",
        "train.batch_size = 32", "train.epochs = 15", "train.max_frames = 0",
        "train.patience = 3",
    )
    HASH = "30fd26dab3b23a235d11198c151ba59181609c08cc4a3ad84f40b38be0c26f4a"

    def test_default_echo_and_hash(self):
        assert RunConfig().echo() == "".join(line + "\n" for line in self.ECHO)
        assert RunConfig().config_hash().hex() == self.HASH


SIZE_KEYS = ["model.feature_dim", "model.encoder_layers", "model.encoder_dim",
             "model.encoder_heads", "model.encoder_ff", "model.pool_attention_hidden",
             "model.ecapa_channels", "model.ecapa_res2_scale", "model.ecapa_gn_groups",
             "model.ecapa_se_bottleneck", "model.ecapa_kernel",
             "model.ecapa_stats_attention_hidden"]


class TestModelKeyErrors:
    """A bad model value is reported under the key the user typed."""

    @pytest.mark.parametrize("key", SIZE_KEYS)
    def test_zero_size_names_its_key(self, key):
        cfg = RunConfig.load(None, overrides=[f"{key}=0"])
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be >= 1, got 0$"):
            cfg.model_config(seed=0)

    def test_size_keys_are_the_integer_model_keys(self):
        ints = {key for key, value in DEFAULTS.items() if key.startswith("model.")
                and isinstance(value, int) and key != "model.lora_rank"}
        assert ints == set(SIZE_KEYS)

    @pytest.mark.parametrize("override, message", [
        ("model.encoder_heads=3", "model.encoder_dim 32 not divisible by model.encoder_heads 3"),
        ("model.ecapa_gn_groups=5",
         "model.ecapa_channels 64 not divisible by model.ecapa_gn_groups 5"),
        ("model.ecapa_res2_scale=3",
         "model.ecapa_channels 64 not divisible by model.ecapa_res2_scale 3"),
        ("model.ecapa_kernel=4", "model.ecapa_kernel must be odd, got 4"),
        ("model.pool_scales=2,4", "model.pool_scales must start with 1"),
        ("model.pool_scales=1,4,4", "model.pool_scales must be strictly increasing"),
        ("model.ecapa_dilations=2,0", "model.ecapa_dilations must be values >= 1"),
        ("model.lora_rank=-1", "model.lora_rank must be >= 0, got -1"),
        ("model.lora_alpha=inf", "model.lora_alpha must be finite"),
    ])
    def test_other_checks_name_their_keys(self, override, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig.load(None, overrides=[override]).model_config(seed=0)


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

    def test_file_errors_name_the_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\ntrain.epochs = 2\ntrain.turbo = 1\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: unknown config key")):
            RunConfig.load(str(path))
        path.write_text("train.epochs = 2\n\ntrain.batch_size 4\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: expected key = value")):
            RunConfig.load(str(path))
        path.write_text("train.epochs = 2\ntrain.batch_size = four\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:2: key train.batch_size: expected integer, got 'four'")):
            RunConfig.load(str(path))
        path.write_text("model.pool_scales = 1,x\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:1: key model.pool_scales: expected comma-separated int values")):
            RunConfig.load(str(path))
        with pytest.raises(ConfigError, match=r"^key train.epochs: expected integer"):
            RunConfig.load(None, overrides=["train.epochs=three"])
        with pytest.raises(ConfigError, match=r"^override 'train.epochs' must be key=value$"):
            RunConfig.load(None, overrides=["train.epochs"])
        with pytest.raises(ConfigError, match=r"^unknown config key 'train.turbo'$"):
            RunConfig.load(None, overrides=["train.turbo=1"])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(str(tmp_path / "absent.cfg"))


class TestEchoAndHash:
    def test_echo_round_trips(self, tmp_path):
        cfg = RunConfig.load(None, overrides=["train.epochs=7", "loss.lambda_dim=0.75"])
        path = tmp_path / "echo.cfg"
        write_file(str(path), cfg.echo())
        reloaded = RunConfig.load(str(path))
        assert reloaded.values == cfg.values

    def test_hash_stable_and_sensitive(self):
        a = RunConfig.load(None, overrides=["train.epochs=7"])
        b = RunConfig.load(None, overrides=["train.epochs=7"])
        c = RunConfig.load(None, overrides=["train.epochs=8"])
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 32
