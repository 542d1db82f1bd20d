"""Decoder fuzzing: every input file either decodes or raises its documented error.

Each decoder gets small random and mutated files (bytes that are not
UTF-8, `Infinity`/`NaN` numbers, non-object lines, missing fields, wrong
types, cut or overwritten binary headers). Data files may raise only
DataError (exit 2) and config files and overrides only ConfigError
(exit 1); any other exception would reach the CLI as a traceback.
"""

import contextlib
import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from serkit.checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from serkit.config import DEFAULTS, RunConfig
from serkit.datapipe import (
    ConsensusConfig,
    pseudo_label_files,
    read_features,
    read_manifest,
    write_features,
)
from serkit.errors import ConfigError, DataError
from serkit.model import SERModel
from serkit.reporting import read_report_csv

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.text(max_size=6), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)

MANIFEST_LINE = {"id": "u1", "features_path": "u1.serf", "frames": 8,
                 "frame_rate_hz": 8.0, "label": "Happy", "arousal": 0.5,
                 "valence": 0.5, "dominance": 0.5, "split": "dev"}
PREDICTION_LINE = {"utterance_id": "u1", "window_start_s": 0.0, "window_end_s": 4.0,
                   "label": "angry"}
DURATION_LINE = {"id": "u1", "duration_s": 4.0}

_names = itertools.count()


def mutated_lines(base: dict):
    """JSONL text: lines of `base` with fields dropped, retyped or replaced, or raw bytes."""
    edit = st.tuples(st.sampled_from(sorted(base)), st.one_of(st.just(None), json_values))

    def render(edits):
        line = dict(base)
        for key, value in edits:
            if value is None:
                line.pop(key, None)
            else:
                line[key] = value
        return json.dumps(line).encode()

    line = st.one_of(
        st.lists(edit, max_size=3).map(render),
        st.just(json.dumps(base).encode()),
        st.binary(max_size=12),
        st.sampled_from([b"", b"[1, 2]", b"3", b'"x"', b"{", b"\xff\xfe", b"null"]),
    )
    return st.lists(line, max_size=4).map(b"\n".join)


def byte_mutations(blob: bytes):
    """`blob` cut short, with bytes overwritten, or with a u32/u64 set to an extreme."""
    extremes = ([struct.pack("<I", v) for v in (0, 70, 2**32 - 1)]
                + [struct.pack("<Q", v) for v in (2**63, 2**64 - 1)])

    def splice(pair):
        at, patch = pair
        return blob[:at] + patch + blob[at + len(patch):]

    patch = st.binary(min_size=1, max_size=4) | st.sampled_from(extremes)
    return st.one_of(st.integers(0, len(blob)).map(lambda n: blob[:n]),
                     st.tuples(st.integers(0, len(blob) - 1), patch).map(splice),
                     st.binary(max_size=40))


def fresh(directory, suffix: str, blob: bytes) -> str:
    """Write `blob` to a new file: rewriting one path can stall on the filesystem's flush."""
    path = directory / f"{next(_names)}{suffix}"
    path.write_bytes(blob)
    return str(path)


def decodes_or_data_error(read, *args):
    with contextlib.suppress(DataError):
        read(*args)


@FUZZ
@given(text=mutated_lines(MANIFEST_LINE))
@example(text=json.dumps(MANIFEST_LINE).encode()[:-1] + b"\xff}")
@example(text=json.dumps(dict(MANIFEST_LINE, frames=float("inf"))).encode())
def test_manifest(tmp_path, text):
    decodes_or_data_error(read_manifest, fresh(tmp_path, ".jsonl", text))


@FUZZ
@given(pred_a=mutated_lines(PREDICTION_LINE), pred_b=mutated_lines(PREDICTION_LINE),
       durations=mutated_lines(DURATION_LINE))
@example(pred_a=b"\xff", pred_b=b"", durations=b"")
@example(pred_a=json.dumps(PREDICTION_LINE).encode(),
         pred_b=json.dumps(PREDICTION_LINE).encode(),
         durations=json.dumps(dict(DURATION_LINE, duration_s=1e12)).encode())
def test_pseudo_label_files(tmp_path, pred_a, pred_b, durations):
    paths = [fresh(tmp_path, ".jsonl", text) for text in (pred_a, pred_b, durations)]
    decodes_or_data_error(pseudo_label_files, *paths, ConsensusConfig())


@pytest.fixture(scope="module")
def feature_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("serf") / "x.serf"
    write_features(str(path), np.arange(6.0).reshape(3, 2))
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_features(tmp_path, feature_blob, data):
    blob = data.draw(byte_mutations(feature_blob))
    decodes_or_data_error(read_features, fresh(tmp_path, ".serf", blob))


def test_feature_header_claiming_2_32_frames(tmp_path, feature_blob):
    blob = feature_blob[:8] + struct.pack("<II", 2**32 - 1, 2**32 - 1) + feature_blob[16:]
    with pytest.raises(DataError, match="truncated"):
        read_features(fresh(tmp_path, ".serf", blob))


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("serc") / "c.serc"
    save_checkpoint(str(path), {"a": np.ones((2, 3)), "b": np.zeros(1)},
                    CheckpointMeta(epoch=1, global_step=2, dev_cat_loss=0.5))
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_checkpoint(tmp_path, checkpoint_blob, data):
    blob = data.draw(byte_mutations(checkpoint_blob))
    decodes_or_data_error(load_checkpoint, fresh(tmp_path, ".serc", blob))


@pytest.mark.parametrize("entry", [
    struct.pack("<I", 1) + b"a" + struct.pack("<I2Q", 2, 0, 2**63),  # zero-size, huge dim
    struct.pack("<I", 1) + b"a" + struct.pack("<I70Q", 70, *[1] * 70) + bytes(8),  # rank 70
], ids=["zero-size-huge-dim", "rank-70"])
def test_checkpoint_dims_numpy_cannot_shape(tmp_path, entry):
    header = b"SERC" + struct.pack("<IIQd", 1, 1, 2, 0.5) + bytes(32)
    with pytest.raises(DataError, match="bad dims"):
        load_checkpoint(fresh(tmp_path, ".serc", header + entry))


# Config values: sizes stay in -2..8 so that no model allocates much; text
# without decimal digits cannot spell a larger one.
config_values = st.one_of(
    st.integers(-2, 8).map(str),
    st.lists(st.integers(-2, 8), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["nan", "-inf", "inf", "0.5", "-0.5", "1e-300", "1e308", "true", "no",
                     ",", "0.9,nan", "1,4,4"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
)
config_keys = st.one_of(st.sampled_from(sorted(DEFAULTS)), st.text(max_size=4))
config_pairs = st.tuples(config_keys, config_values).map(lambda kv: f"{kv[0]} = {kv[1]}")


def builds_or_config_error(cfg: RunConfig) -> None:
    """Every dataclass builder, and the model, return or raise ConfigError."""
    builders = (cfg.loss_config, cfg.optimizer_config, lambda: cfg.train_config(0),
                cfg.augment_config, lambda: SERModel(cfg.model_config(0)))
    for build in builders:
        with contextlib.suppress(ConfigError):
            build()


@FUZZ
@given(lines=st.lists(st.one_of(config_pairs.map(str.encode), st.binary(max_size=12),
                                st.just(b"# comment")), max_size=5),
       overrides=st.lists(st.one_of(config_pairs.map(lambda p: p.replace(" = ", "=")),
                                    config_values), max_size=3))
@example(lines=[b"model.encoder_heads = 0"], overrides=["augment.speed_factors=nan"])
@example(lines=[], overrides=["model.ecapa_dilations="])
def test_config(tmp_path, lines, overrides):
    with contextlib.suppress(ConfigError):
        cfg = RunConfig.load(fresh(tmp_path, ".cfg", b"\n".join(lines)), overrides)
        builds_or_config_error(cfg)


report_lines = st.one_of(
    st.just(b"metric,value"),
    st.tuples(st.text(max_size=6), st.one_of(st.floats().map(repr), st.text(max_size=6)))
    .map(lambda pair: f"{pair[0]},{pair[1]}".encode()),
    st.binary(max_size=12),
)


@FUZZ
@given(lines=st.lists(report_lines, max_size=5))
@example(lines=[b"metric,value", b"uar_7,nan", b"uar_4,1e999"])
def test_report_csv(tmp_path, lines):
    decodes_or_data_error(read_report_csv, fresh(tmp_path, ".csv", b"\n".join(lines)))
