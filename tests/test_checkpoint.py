"""Checkpoint format tests: bitwise round-trip, metadata, mismatch handling."""

import numpy as np
import pytest

from serkit.checkpoint import CheckpointMeta, load_checkpoint, load_into_model, save_checkpoint
from serkit.errors import DataError, ShapeError
from serkit.model import ModelConfig, SERModel


@pytest.fixture
def tensors():
    rng = np.random.default_rng(17)
    return {
        "a.weight": rng.normal(size=(4, 3)),
        "a.bias": rng.normal(size=4),
        "b.scalar": rng.normal(size=1),
        "c.kernel": rng.normal(size=(2, 3, 5)),
    }


@pytest.fixture
def meta():
    return CheckpointMeta(epoch=7, global_step=1234, dev_cat_loss=0.4321,
                          config_hash=bytes(range(32)))


class TestRoundTrip:
    def test_bitwise_exact(self, tmp_path, tensors, meta):
        path = str(tmp_path / "m.serc")
        save_checkpoint(path, tensors, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].dtype == np.float64
        assert loaded_meta == meta

    def test_deterministic_bytes(self, tmp_path, tensors, meta):
        p1, p2 = str(tmp_path / "1.serc"), str(tmp_path / "2.serc")
        save_checkpoint(p1, tensors, meta)
        save_checkpoint(p2, dict(reversed(list(tensors.items()))), meta)
        assert open(p1, "rb").read() == open(p2, "rb").read()  # name-sorted on write

    def test_model_state_round_trip(self, tmp_path, meta):
        model = SERModel(ModelConfig(feature_dim=8, seed=1))
        path = str(tmp_path / "model.serc")
        save_checkpoint(path, model.state_arrays(), meta)
        clone = SERModel(ModelConfig(feature_dim=8, seed=2))  # different init
        returned = load_into_model(path, clone)
        assert returned.epoch == 7
        for name, tensor in model.params.items():
            assert np.array_equal(clone.params[name].data, tensor.data)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.serc"
        path.write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_tensor(self, tmp_path, tensors, meta):
        path = str(tmp_path / "t.serc")
        save_checkpoint(path, tensors, meta)
        blob = open(path, "rb").read()
        for truncated in (blob[:-4], blob[:6]):  # last tensor cut short; header cut short
            open(path, "wb").write(truncated)
            with pytest.raises(DataError, match="truncated"):
                load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(str(tmp_path / "absent.serc"))

    def test_shape_mismatch_names_tensor(self, tmp_path, meta):
        model = SERModel(ModelConfig(feature_dim=8, seed=1))
        state = model.state_arrays()
        state["head.dim.bias"] = np.zeros(5)
        path = str(tmp_path / "bad.serc")
        save_checkpoint(path, state, meta)
        with pytest.raises(ShapeError, match="head.dim.bias"):
            load_into_model(path, SERModel(ModelConfig(feature_dim=8, seed=1)))

    def test_hash_mismatch_warns_but_loads(self, tmp_path, meta, caplog):
        model = SERModel(ModelConfig(feature_dim=8, seed=1))
        path = str(tmp_path / "h.serc")
        save_checkpoint(path, model.state_arrays(), meta)
        with caplog.at_level("WARNING", logger="serkit.checkpoint"):
            load_into_model(path, model, expected_hash=b"\xff" * 32)
        assert any("hash mismatch" in r.message for r in caplog.records)

    def test_bad_hash_length_rejected(self):
        with pytest.raises(DataError):
            CheckpointMeta(epoch=1, global_step=1, dev_cat_loss=0.0, config_hash=b"short")
