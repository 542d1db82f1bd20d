"""Datapipe tests: windows, consensus, merging, synth data, manifests, relabeling."""

import itertools
import json
import os

import numpy as np
import pytest

from serkit.datapipe import (
    _read_window_predictions,
    ConsensusConfig,
    ManifestRecord,
    consensus_label,
    load_record_features,
    merge_segments,
    pseudo_label_files,
    read_features,
    read_manifest,
    synth_dataset,
    utterance_pseudo_label,
    window_split,
    write_features,
    write_manifest,
)
from serkit.errors import ConfigError, DataError
from serkit.evaluation import two_pass_relabel
from serkit.labels import EMOTIONS, EmotionLabel, parse_predictor_label
from serkit.model import SERModel
from tests.test_model import small_config

NINE_CLASS = ["neutral", "happy", "sad", "angry", "surprised", "fearful",
              "disgusted", "other", "unknown"]
SIX_EMOTIONAL = {"angry", "disgusted", "fearful", "happy", "sad", "surprised"}


@pytest.fixture
def cfg():
    return ConsensusConfig()


class TestWindowSplit:
    def test_ten_seconds(self, cfg):
        assert window_split(10.0, cfg) == [(0.0, 4.0), (2.0, 6.0), (4.0, 8.0), (6.0, 10.0)]

    def test_exactly_one_window(self, cfg):
        assert window_split(4.0, cfg) == [(0.0, 4.0)]

    def test_short_input_single_truncated(self, cfg):
        assert window_split(3.0, cfg) == [(0.0, 3.0)]

    def test_trailing_remainder(self, cfg):
        windows = window_split(11.0, cfg)
        assert windows[-1] == (8.0, 11.0)
        assert windows[:-1] == [(0.0, 4.0), (2.0, 6.0), (4.0, 8.0), (6.0, 10.0)]

    def test_coverage_and_overlap_fuzz(self, cfg):
        rng = np.random.default_rng(1)
        for _ in range(300):
            duration = float(rng.uniform(0.5, 60.0))
            windows = window_split(duration, cfg)
            assert windows[0][0] == 0.0
            assert windows[-1][1] == pytest.approx(duration)
            for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
                assert s1 < e0  # overlap, no gaps
                assert s1 - s0 == pytest.approx(cfg.hop_s)
            for s, e in windows[:-1]:
                assert e - s == pytest.approx(cfg.window_s)

    def test_non_positive_duration_rejected(self, cfg):
        with pytest.raises(DataError):
            window_split(0.0, cfg)


class TestConsensus:
    def test_agreement_on_emotion(self):
        assert consensus_label("angry", "angry") == EmotionLabel.ANGRY

    def test_disagreement_falls_back_to_neutral(self):
        assert consensus_label("happy", "sad") == EmotionLabel.NEUTRAL

    def test_agreement_outside_six_set_is_neutral(self):
        assert consensus_label("other", "other") == EmotionLabel.NEUTRAL
        assert consensus_label("unknown", "unknown") == EmotionLabel.NEUTRAL
        assert consensus_label("neutral", "neutral") == EmotionLabel.NEUTRAL

    def test_exhaustive_81_pairs(self):
        """The rule over the full 9x9 input domain."""
        for a, b in itertools.product(NINE_CLASS, NINE_CLASS):
            result = consensus_label(a, b)
            if a == b and a in SIX_EMOTIONAL:
                assert result == EmotionLabel.from_name(a)
            else:
                assert result == EmotionLabel.NEUTRAL

    def test_unknown_label_string_rejected(self):
        with pytest.raises(DataError):
            consensus_label("angry", "furious")
        with pytest.raises(DataError):
            parse_predictor_label("meh")

    def test_window_prediction_normalizes_and_validates(self, tmp_path):
        path = tmp_path / "a.jsonl"
        line = {"utterance_id": "u1", "window_start_s": 0, "window_end_s": 4}
        path.write_text(json.dumps(dict(line, label="Angry ")) + "\n"
                        + json.dumps(dict(line, window_start_s=2, label="OTHER")) + "\n")
        assert _read_window_predictions(str(path)) == {
            "u1": {(0.0, 4.0): "angry", (2.0, 4.0): "other"}}
        for label in ("rage", 3):
            path.write_text(json.dumps(dict(line, label=label)) + "\n")
            with pytest.raises(DataError, match="a.jsonl:1"):
                _read_window_predictions(str(path))


class TestUtterancePseudoLabel:
    def test_modal_emotion_above_threshold(self, cfg):
        labels = [EmotionLabel.ANGRY, EmotionLabel.ANGRY, EmotionLabel.NEUTRAL,
                  EmotionLabel.ANGRY]
        assert utterance_pseudo_label(labels, cfg) == EmotionLabel.ANGRY

    def test_all_neutral(self, cfg):
        assert utterance_pseudo_label([EmotionLabel.NEUTRAL] * 5, cfg) == EmotionLabel.NEUTRAL

    def test_below_threshold_falls_back(self, cfg):
        labels = ([EmotionLabel.HAPPY] + [EmotionLabel.SAD]
                  + [EmotionLabel.NEUTRAL] * 6)
        assert utterance_pseudo_label(labels, cfg) == EmotionLabel.NEUTRAL

    def test_tie_breaks_by_canonical_order(self, cfg):
        labels = [EmotionLabel.SAD, EmotionLabel.HAPPY, EmotionLabel.HAPPY,
                  EmotionLabel.SAD]
        assert utterance_pseudo_label(labels, cfg) == EmotionLabel.HAPPY  # Happy=1 precedes Sad=2

    def test_empty_rejected(self, cfg):
        with pytest.raises(DataError):
            utterance_pseudo_label([], cfg)


class TestMergeSegments:
    def test_adjacent_equal_labels_merge(self):
        segments = [(0, 2, EmotionLabel.SAD), (2, 4, EmotionLabel.SAD),
                    (4, 6, EmotionLabel.HAPPY)]
        assert merge_segments(segments) == [(0, 4, EmotionLabel.SAD),
                                            (4, 6, EmotionLabel.HAPPY)]

    def test_cap_splits_long_runs(self):
        segments = [(2.0 * i, 2.0 * (i + 1), EmotionLabel.ANGRY) for i in range(10)]
        assert merge_segments(segments, cap_s=15.0) == [
            (0.0, 15.0, EmotionLabel.ANGRY), (15.0, 20.0, EmotionLabel.ANGRY)]

    def test_alternating_labels_untouched(self):
        segments = [(0, 2, EmotionLabel.SAD), (2, 4, EmotionLabel.HAPPY),
                    (4, 6, EmotionLabel.SAD)]
        assert merge_segments(segments) == segments

    def test_gap_breaks_a_run(self):
        segments = [(0, 2, EmotionLabel.SAD), (5, 7, EmotionLabel.SAD)]
        assert merge_segments(segments) == segments

    def test_overlap_rejected(self):
        with pytest.raises(DataError):
            merge_segments([(0, 3, EmotionLabel.SAD), (2, 5, EmotionLabel.SAD)])

    @pytest.mark.parametrize("cap_s", [0.0, -1.0, float("nan")])
    def test_cap_must_be_positive(self, cap_s):
        with pytest.raises(ConfigError):
            merge_segments([(0, 2, EmotionLabel.SAD)], cap_s=cap_s)

    def test_duration_conserved_and_cap_respected_fuzz(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            cursor = 0.0
            segments = []
            for _ in range(int(rng.integers(1, 25))):
                length = float(rng.uniform(0.5, 6.0))
                label = EMOTIONS[int(rng.integers(0, 7))]
                segments.append((cursor, cursor + length, label))
                cursor += length
            merged = merge_segments(segments, cap_s=15.0)
            total_in = sum(e - s for s, e, _ in segments)
            total_out = sum(e - s for s, e, _ in merged)
            assert total_out == pytest.approx(total_in, abs=1e-9)
            assert all(e - s <= 15.0 + 1e-9 for s, e, _ in merged)
            assert {l for _, _, l in merged} == {l for _, _, l in segments}


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        original = rng.normal(size=(9, 5)).astype(np.float32).astype(np.float64)
        path = str(tmp_path / "x.serf")
        write_features(path, original)
        np.testing.assert_array_equal(read_features(path), original)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.serf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            read_features(str(path))

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        path = str(tmp_path / "t.serf")
        write_features(path, rng.normal(size=(4, 4)))
        blob = open(path, "rb").read()
        for truncated in (blob[:-8], blob[:6]):  # payload cut short; header cut short
            open(path, "wb").write(truncated)
            with pytest.raises(DataError, match="truncated"):
                read_features(path)

    def test_empty_rejected(self, tmp_path):
        for shape in ((0, 4), (3, 0)):  # no frames; no values per frame
            path = str(tmp_path / f"empty{shape[0]}.serf")
            write_features(path, np.zeros(shape))
            with pytest.raises(DataError, match=f"empty feature file {path}"):
                read_features(path)

    def test_frame_count_cross_checked(self, tmp_path):
        write_features(str(tmp_path / "y.serf"), np.zeros((6, 2)))
        record = ManifestRecord(id="u1", features_path="y.serf", frames=7,
                                frame_rate_hz=8.0, label="Happy",
                                base_dir=str(tmp_path))
        with pytest.raises(DataError, match="frames"):
            load_record_features(record)


class TestManifests:
    def test_round_trip_and_sorted_order(self, tmp_path):
        records = [
            ManifestRecord(id="b", features_path="b.serf", frames=4, frame_rate_hz=8.0,
                           label="Sad", split="dev"),
            ManifestRecord(id="a", features_path="a.serf", frames=4, frame_rate_hz=8.0,
                           label="Happy", arousal=0.5, valence=0.7, dominance=0.2),
        ]
        path = str(tmp_path / "m.jsonl")
        write_manifest(path, records)
        loaded = read_manifest(path)
        assert [r.id for r in loaded] == ["a", "b"]
        assert loaded[0].has_dims and not loaded[1].has_dims
        assert loaded[0].base_dir == str(tmp_path)

    def test_duplicate_ids_rejected(self, tmp_path):
        record = ManifestRecord(id="x", features_path="x.serf", frames=4,
                                frame_rate_hz=8.0, label="Happy")
        path = tmp_path / "dup.jsonl"
        path.write_text(record.to_json() + "\n" + record.to_json() + "\n")
        with pytest.raises(DataError, match="duplicate"):
            read_manifest(str(path))

    def test_bad_label_rejected(self):
        with pytest.raises(DataError):
            ManifestRecord(id="x", features_path="x.serf", frames=4,
                           frame_rate_hz=8.0, label="Ecstatic")

    def test_out_of_range_dims_rejected(self):
        with pytest.raises(DataError):
            ManifestRecord(id="x", features_path="x.serf", frames=4,
                           frame_rate_hz=8.0, label="Happy", arousal=1.2)

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        bad_frames = {"id": "x", "features_path": "x.serf", "frames": "x",
                      "frame_rate_hz": 8.0, "label": "Happy"}
        zero_rate = dict(bad_frames, frames=4, frame_rate_hz=0)
        numeric_id = dict(bad_frames, frames=4, id=5)
        for line in (json.dumps(bad_frames), "[1, 2]", json.dumps(zero_rate),
                     json.dumps(numeric_id), json.dumps(dict(bad_frames, frames=4.7)),
                     json.dumps(dict(bad_frames, frames=True))):
            path.write_text(line + "\n")
            with pytest.raises(DataError, match="bad.jsonl:1"):
                read_manifest(str(path))

    def test_whole_frame_counts_only(self, tmp_path):
        path = tmp_path / "m.jsonl"
        line = {"id": "x", "features_path": "x.serf", "frame_rate_hz": 8.0, "label": "Happy"}
        for frames in (5, 5.0):
            path.write_text(json.dumps(dict(line, frames=frames)) + "\n")
            assert read_manifest(str(path))[0].frames == 5
        # a durations file's frames go through the same check
        predictions, durations = tmp_path / "p.jsonl", tmp_path / "d.jsonl"
        predictions.write_text(json.dumps({"utterance_id": "u1", "window_start_s": 0,
                                           "window_end_s": 4, "label": "angry"}) + "\n")
        for frames in (4.7, True):
            durations.write_text(json.dumps({"id": "u1", "frames": frames,
                                             "frame_rate_hz": 8.0}) + "\n")
            with pytest.raises(DataError, match="d.jsonl:1: frames must be a whole number"):
                pseudo_label_files(str(predictions), str(predictions), str(durations),
                                   ConsensusConfig())

    def test_relative_feature_paths_rebased_onto_output_directory(self, tmp_path):
        manifest = synth_dataset(str(tmp_path / "src"), n_per_class=1, frames=4, dim=3)
        records = read_manifest(manifest)
        write_manifest(str(tmp_path / "same.jsonl"), [
            ManifestRecord(id="u", features_path="u.serf", frames=4, frame_rate_hz=8.0,
                           label="Sad")])  # no base_dir: written as given
        for out in (manifest, str(tmp_path / "elsewhere" / "deep" / "copy.jsonl")):
            write_manifest(out, records)
            for old, new in zip(records, read_manifest(out)):
                assert os.path.samefile(new.resolved_features_path(),
                                        old.resolved_features_path())
        assert open(manifest).read().count('"features_path": "features/') == len(records)
        assert '"features_path": "u.serf"' in open(tmp_path / "same.jsonl").read()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_manifest(str(tmp_path / "absent.jsonl"))


class TestSynthDataset:
    def test_deterministic_bytes(self, tmp_path):
        path_a = synth_dataset(str(tmp_path / "a"), n_per_class=2, frames=8, dim=6, seed=11)
        path_b = synth_dataset(str(tmp_path / "b"), n_per_class=2, frames=8, dim=6, seed=11)
        assert open(path_a, "rb").read() == open(path_b, "rb").read()
        for record in read_manifest(path_a):
            other = open(str(tmp_path / "b" / record.features_path), "rb").read()
            assert open(record.resolved_features_path(), "rb").read() == other

    def test_nearest_centroid_fully_separable(self, tmp_path):
        manifest = synth_dataset(str(tmp_path / "d"), n_per_class=6, frames=10, dim=12, seed=5)
        records = read_manifest(manifest)
        pooled = np.stack([load_record_features(r).mean(axis=0) for r in records])
        labels = np.array([r.label_index for r in records])
        centroids = np.stack([pooled[labels == c].mean(axis=0) for c in range(7)])
        predicted = np.argmin(
            ((pooled[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)
        assert (predicted == labels).all()

    def test_dim_targets_in_unit_interval(self, tmp_path):
        manifest = synth_dataset(str(tmp_path / "e"), n_per_class=3, frames=6, dim=4, seed=9)
        for record in read_manifest(manifest):
            assert record.has_dims
            assert np.all(record.dim_array() >= 0.0) and np.all(record.dim_array() <= 1.0)

    def test_bad_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            synth_dataset(str(tmp_path / "f"), n_per_class=0)


class TestTwoPassRelabel:
    """`two_pass_relabel` (in serkit.evaluation) labels through a checkpoint ensemble."""

    MODELS = [SERModel(small_config(seed=1)), SERModel(small_config(seed=2))]

    def _records(self, tmp_path, n=6):
        manifest = synth_dataset(str(tmp_path / "r"), n_per_class=1, frames=6, dim=8,
                                 seed=3)
        return read_manifest(manifest)[:n]

    def test_second_pass_is_fixed_point(self, tmp_path):
        records = self._records(tmp_path)
        first, _ = two_pass_relabel(self.MODELS, records)
        second, stats = two_pass_relabel(self.MODELS, first)
        assert [r.label for r in first] == [r.label for r in second]
        assert stats["n_changed"] == 0

    def test_provenance_carries_pass1_label(self, tmp_path):
        records = self._records(tmp_path)
        relabeled, _ = two_pass_relabel(self.MODELS, records)
        for old, new in zip(records, relabeled):
            assert new.prev_label == old.label

    def test_missing_feature_file_skipped_and_logged(self, tmp_path, caplog):
        records = self._records(tmp_path)
        records[0].features_path = "does-not-exist.serf"
        with caplog.at_level("WARNING", logger="serkit.evaluation"):
            relabeled, stats = two_pass_relabel(self.MODELS, records)
        assert stats["n_skipped"] == 1
        assert len(relabeled) == len(records) - 1
        assert any("skipping" in r.message for r in caplog.records)
