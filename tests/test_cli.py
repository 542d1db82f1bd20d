"""CLI tests: subcommands, exit codes, determinism, file formats."""

import json
import os
import re

import numpy as np
import pytest

from serkit.checkpoint import load_into_model
from serkit.cli import _load_ensemble, build_parser, main
from serkit.datapipe import (ConsensusConfig, load_record_features, read_manifest, window_split,
                             write_features)
from serkit.evaluation import predict
from serkit.model import SERModel

TINY_CONFIG = """\
# compact geometry for fast CLI tests
model.feature_dim = 8
model.encoder_dim = 16
model.encoder_ff = 24
model.lora_rank = 2
model.pool_scales = 1,4
model.pool_attention_hidden = 8
model.ecapa_channels = 16
model.ecapa_gn_groups = 4
model.ecapa_se_bottleneck = 4
model.ecapa_stats_attention_hidden = 8
train.epochs = 2
train.batch_size = 8
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


@pytest.fixture
def datasets(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "train"), "--n-per-class", "2",
                 "--frames", "8", "--dim", "8", "--seed", "1", "--split", "train"]) == 0
    assert main(["synth", "--out", str(tmp_path / "dev"), "--n-per-class", "1",
                 "--frames", "8", "--dim", "8", "--seed", "2", "--split", "dev"]) == 0
    assert main(["synth", "--out", str(tmp_path / "eval"), "--n-per-class", "1",
                 "--frames", "8", "--dim", "8", "--seed", "3", "--split", "eval"]) == 0
    return {
        "train": str(tmp_path / "train" / "train.jsonl"),
        "dev": str(tmp_path / "dev" / "dev.jsonl"),
        "eval": str(tmp_path / "eval" / "eval.jsonl"),
    }


def run_train(tmp_path, datasets, tiny_config, out_name, seed=7):
    out = str(tmp_path / out_name)
    rc = main(["train", "--config", tiny_config, "--train", datasets["train"],
               "--dev", datasets["dev"], "--out", out, "--seed", str(seed)])
    assert rc == 0
    return out


def dir_contents(root):
    blobs = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            blobs[os.path.relpath(path, root)] = open(path, "rb").read()
    return blobs


class TestTrainCommand:
    def test_smoke_run_writes_artifacts(self, tmp_path, datasets, tiny_config):
        out = run_train(tmp_path, datasets, tiny_config, "run")
        assert os.path.exists(os.path.join(out, "effective_config.cfg"))
        assert os.path.exists(os.path.join(out, "train_state.json"))
        checkpoints = os.listdir(os.path.join(out, "checkpoints"))
        assert len(checkpoints) >= 1
        epoch_log = open(os.path.join(out, "epoch_log.csv")).read().splitlines()
        best = [float(line.split(",")[2]) for line in epoch_log[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))  # non-increasing
        assert not os.path.exists(os.path.join(out, ".lock"))

    def test_repeat_seed_identical_directory(self, tmp_path, datasets, tiny_config):
        out_a = run_train(tmp_path, datasets, tiny_config, "run_a", seed=9)
        out_b = run_train(tmp_path, datasets, tiny_config, "run_b", seed=9)
        blobs_a = dir_contents(out_a)
        blobs_b = dir_contents(out_b)
        assert set(blobs_a) == set(blobs_b)
        for name in blobs_a:
            assert blobs_a[name] == blobs_b[name], name

    def test_missing_dev_manifest_exit_2(self, tmp_path, datasets, tiny_config, capsys):
        rc = main(["train", "--config", tiny_config, "--train", datasets["train"],
                   "--dev", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x"),
                   "--seed", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nope.jsonl" in err and err.startswith("error: data:")

    def test_unknown_config_key_exit_1(self, tmp_path, datasets, capsys):
        rc = main(["train", "--train", datasets["train"], "--dev", datasets["dev"],
                   "--out", str(tmp_path / "y"), "--set", "train.bogus=1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config:")

    def test_locked_run_directory_exit_1(self, tmp_path, datasets, tiny_config, capsys):
        out = str(tmp_path / "locked")
        os.makedirs(out)
        open(os.path.join(out, ".lock"), "w").close()
        rc = main(["train", "--config", tiny_config, "--train", datasets["train"],
                   "--dev", datasets["dev"], "--out", out, "--seed", "0"])
        assert rc == 1
        assert "locked" in capsys.readouterr().err

    def test_rerun_from_echoed_config_reproduces(self, tmp_path, datasets, tiny_config):
        out_a = run_train(tmp_path, datasets, tiny_config, "echo_a", seed=4)
        echoed = os.path.join(out_a, "effective_config.cfg")
        out_b = str(tmp_path / "echo_b")
        rc = main(["train", "--config", echoed, "--train", datasets["train"],
                   "--dev", datasets["dev"], "--out", out_b, "--seed", "4"])
        assert rc == 0
        blobs_a = dir_contents(out_a)
        blobs_b = dir_contents(out_b)
        for name in blobs_a:
            assert blobs_a[name] == blobs_b[name], name


class TestEvalCommand:
    def test_single_vs_four_copies_identical_report(self, tmp_path, datasets, tiny_config):
        out = run_train(tmp_path, datasets, tiny_config, "run_eval")
        checkpoint = sorted(os.listdir(os.path.join(out, "checkpoints")))[0]
        ck = os.path.join(out, "checkpoints", checkpoint)
        r1, r4 = str(tmp_path / "r1.csv"), str(tmp_path / "r4.csv")
        assert main(["eval", "--config", tiny_config, "--checkpoint", ck,
                     "--manifest", datasets["eval"], "--report", r1]) == 0
        assert main(["eval", "--config", tiny_config, "--checkpoint", ck,
                     "--checkpoint", ck, "--checkpoint", ck, "--checkpoint", ck,
                     "--manifest", datasets["eval"], "--report", r4]) == 0
        assert open(r1).read() == open(r4).read()

    def test_report_format_and_classes_flag(self, tmp_path, datasets, tiny_config, capsys):
        out = run_train(tmp_path, datasets, tiny_config, "run_eval4")
        ck = os.path.join(out, "checkpoints",
                          sorted(os.listdir(os.path.join(out, "checkpoints")))[0])
        report = str(tmp_path / "r.csv")
        rc = main(["eval", "--config", tiny_config, "--checkpoint", ck,
                   "--manifest", datasets["eval"], "--report", report, "--classes", "4"])
        assert rc == 0
        assert "uar_4=" in capsys.readouterr().out
        lines = open(report).read().splitlines()
        assert lines[0] == "metric,value"
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert "uar_4" in metrics and "uar_7" in metrics
        assert len(lines) - 1 == len(metrics)  # one row per metric, no extras

    def test_merged_granularity_runs(self, tmp_path, datasets, tiny_config):
        out = run_train(tmp_path, datasets, tiny_config, "run_merged")
        ck = os.path.join(out, "checkpoints",
                          sorted(os.listdir(os.path.join(out, "checkpoints")))[0])
        report = str(tmp_path / "merged.csv")
        assert main(["eval", "--config", tiny_config, "--checkpoint", ck,
                     "--manifest", datasets["eval"], "--report", report,
                     "--granularity", "merged"]) == 0
        assert os.path.exists(report)

    def test_members_scored_with_merged_adapters(self, tmp_path, datasets, tiny_config):
        out = run_train(tmp_path, datasets, tiny_config, "run_lora")
        ck = os.path.join(out, "checkpoints", "epoch_002.serc")
        args = build_parser().parse_args(["eval", "--config", tiny_config, "--checkpoint", ck,
                                          "--manifest", datasets["eval"], "--report", "r.csv"])
        cfg, records, (member,) = _load_ensemble(args)
        assert not [name for name in member.params if ".lora." in name]
        adapted = SERModel(cfg.model_config(0))
        load_into_model(ck, adapted)
        assert any(t.data.any() for n, t in adapted.params.items() if n.endswith(".lora.B"))
        features = [load_record_features(record) for record in records]
        for merged, unmerged in zip(predict([member], features), predict([adapted], features)):
            np.testing.assert_allclose(merged, unmerged, rtol=0, atol=1e-12)

    def test_incompatible_checkpoint_exit_1(self, tmp_path, datasets, tiny_config, capsys):
        out = run_train(tmp_path, datasets, tiny_config, "run_bad")
        ck = os.path.join(out, "checkpoints",
                          sorted(os.listdir(os.path.join(out, "checkpoints")))[0])
        rc = main(["eval", "--checkpoint", ck, "--manifest", datasets["eval"],
                   "--report", str(tmp_path / "r.csv")])  # default (bigger) model config
        assert rc == 1
        assert "error: config:" in capsys.readouterr().err

    def test_no_checkpoints_exit_1(self, tmp_path, datasets):
        rc = main(["eval", "--manifest", datasets["eval"],
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 1


class TestRelabelCommand:
    def test_relabel_into_other_directory_then_retrain(self, tmp_path, datasets, tiny_config):
        run = run_train(tmp_path, datasets, tiny_config, "pass1")
        ck = os.path.join(run, "checkpoints",
                          sorted(os.listdir(os.path.join(run, "checkpoints")))[-1])
        outs = [str(tmp_path / "relabeled" / name / "train.jsonl") for name in ("a", "b")]
        for out in outs:
            assert main(["relabel", "--config", tiny_config, "--checkpoint", ck,
                         "--checkpoint", ck, "--manifest", datasets["train"],
                         "--out", out]) == 0
        for suffix in ("", ".stats.json"):
            assert open(outs[0] + suffix, "rb").read() == open(outs[1] + suffix, "rb").read()

        original = {r.id: r for r in read_manifest(datasets["train"])}
        relabeled = read_manifest(outs[0])
        assert sorted(r.id for r in relabeled) == sorted(original)
        for record in relabeled:
            source = original[record.id]
            assert os.path.samefile(record.resolved_features_path(),
                                    source.resolved_features_path())
            assert record.prev_label == source.label
            assert record.has_dims
        stats = json.load(open(outs[0] + ".stats.json"))
        assert stats["n_total"] == stats["n_relabeled"] == len(original)
        assert stats["n_skipped"] == 0

        pass2 = [run_train(tmp_path, dict(datasets, train=outs[0]), tiny_config, name)
                 for name in ("pass2_a", "pass2_b")]
        assert dir_contents(pass2[0]) == dir_contents(pass2[1])

    def test_no_checkpoints_exit_1(self, tmp_path, datasets, capsys):
        rc = main(["relabel", "--manifest", datasets["train"], "--out", str(tmp_path / "r.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: at least one --checkpoint")


def write_predictions(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for utt, start, end, label in rows:
            handle.write(json.dumps({
                "utterance_id": utt, "window_start_s": start,
                "window_end_s": end, "label": label,
            }) + "\n")


def write_durations(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for utt, duration in rows:
            handle.write(json.dumps({"id": utt, "duration_s": duration}) + "\n")


class TestPseudolabelCommand:
    def _windows(self, duration):
        return window_split(duration, ConsensusConfig())

    def test_always_agree_angry(self, tmp_path):
        durations = [("u1", 10.0), ("u2", 6.0)]
        rows = [(utt, s, e, "angry") for utt, d in durations for s, e in self._windows(d)]
        write_predictions(tmp_path / "a.jsonl", rows)
        write_predictions(tmp_path / "b.jsonl", rows)
        write_durations(tmp_path / "d.jsonl", durations)
        out = str(tmp_path / "pseudo.jsonl")
        assert main(["pseudolabel", "--pred-a", str(tmp_path / "a.jsonl"),
                     "--pred-b", str(tmp_path / "b.jsonl"),
                     "--durations", str(tmp_path / "d.jsonl"), "--out", out]) == 0
        records = read_manifest(out)
        assert all(r.label == "Angry" for r in records)
        stats = json.load(open(out + ".stats.json"))
        assert stats["neutral_fallback_fraction"] == 0.0
        assert stats["per_class_counts"]["Angry"] == 2

    def test_never_agree_all_neutral(self, tmp_path):
        durations = [("u1", 8.0)]
        windows = self._windows(8.0)
        write_predictions(tmp_path / "a.jsonl", [("u1", s, e, "happy") for s, e in windows])
        write_predictions(tmp_path / "b.jsonl", [("u1", s, e, "sad") for s, e in windows])
        write_durations(tmp_path / "d.jsonl", durations)
        out = str(tmp_path / "pseudo.jsonl")
        assert main(["pseudolabel", "--pred-a", str(tmp_path / "a.jsonl"),
                     "--pred-b", str(tmp_path / "b.jsonl"),
                     "--durations", str(tmp_path / "d.jsonl"), "--out", out]) == 0
        records = read_manifest(out)
        assert all(r.label == "Neutral" for r in records)
        stats = json.load(open(out + ".stats.json"))
        assert stats["neutral_fallback_fraction"] == 1.0

    def test_mixed_fixture_matches_hand_enumeration(self, tmp_path):
        # u1 (10s, 4 windows): angry/angry on 3 windows, disagree on 1 -> Angry (0.75)
        # u2 (10s): agree sad on 1 of 4 -> fraction 0.25 >= 0.25 -> Sad
        # u3 (6s, 2 windows): agreement only on 'other' -> Neutral
        wins10 = self._windows(10.0)
        wins6 = self._windows(6.0)
        rows_a = ([("u1", s, e, "angry") for s, e in wins10[:3]]
                  + [("u1", wins10[3][0], wins10[3][1], "happy")]
                  + [("u2", wins10[0][0], wins10[0][1], "sad")]
                  + [("u2", s, e, "fearful") for s, e in wins10[1:]]
                  + [("u3", s, e, "other") for s, e in wins6])
        rows_b = ([("u1", s, e, "angry") for s, e in wins10[:3]]
                  + [("u1", wins10[3][0], wins10[3][1], "sad")]
                  + [("u2", wins10[0][0], wins10[0][1], "sad")]
                  + [("u2", s, e, "unknown") for s, e in wins10[1:]]
                  + [("u3", s, e, "other") for s, e in wins6])
        write_predictions(tmp_path / "a.jsonl", rows_a)
        write_predictions(tmp_path / "b.jsonl", rows_b)
        write_durations(tmp_path / "d.jsonl", [("u1", 10.0), ("u2", 10.0), ("u3", 6.0)])
        out = str(tmp_path / "pseudo.jsonl")
        assert main(["pseudolabel", "--pred-a", str(tmp_path / "a.jsonl"),
                     "--pred-b", str(tmp_path / "b.jsonl"),
                     "--durations", str(tmp_path / "d.jsonl"), "--out", out]) == 0
        labels = {r.id: r.label for r in read_manifest(out)}
        assert labels == {"u1": "Angry", "u2": "Sad", "u3": "Neutral"}
        stats = json.load(open(out + ".stats.json"))
        assert stats["per_class_counts"] == {
            "Neutral": 1, "Happy": 0, "Sad": 1, "Angry": 1,
            "Surprised": 0, "Fearful": 0, "Disgusted": 0,
        }
        # neutral windows: 1 (u1 disagree) + 3 (u2) + 2 (u3) of 10 total
        assert stats["neutral_fallback_fraction"] == pytest.approx(0.6)

    def test_id_mismatch_exit_2_lists_missing(self, tmp_path, capsys):
        windows = self._windows(4.0)
        write_predictions(tmp_path / "a.jsonl", [("u1", s, e, "angry") for s, e in windows])
        write_predictions(tmp_path / "b.jsonl", [("u2", s, e, "angry") for s, e in windows])
        write_durations(tmp_path / "d.jsonl", [("u1", 4.0), ("u2", 4.0)])
        rc = main(["pseudolabel", "--pred-a", str(tmp_path / "a.jsonl"),
                   "--pred-b", str(tmp_path / "b.jsonl"),
                   "--durations", str(tmp_path / "d.jsonl"),
                   "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "u1" in err or "u2" in err
        # a duration that is not a number
        (tmp_path / "d.jsonl").write_text('{"id": "u", "duration_s": "abc"}\n')
        rc = main(["pseudolabel", "--pred-a", str(tmp_path / "a.jsonl"),
                   "--pred-b", str(tmp_path / "b.jsonl"),
                   "--durations", str(tmp_path / "d.jsonl"),
                   "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: data: ")


class TestGradcheckCommand:
    def test_default_tolerance_passes_seed_zero(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--samples", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        groups = re.findall(r"group (\S+):", out)
        assert sorted(groups) == ["ecapa", "encoder.lora", "head", "pool"]
        assert len(groups) == len(set(groups))  # each group exactly once
        assert "[FAIL]" not in out

    def test_zero_tolerance_guaranteed_fail_exit_3(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--samples", "1", "--tolerance", "0"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "error: numeric:" in captured.err
        assert "worst parameter" in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "-1"), ("--samples", "0"), ("--frames", "0"), ("--batch", "0"),
        ("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "-1e-4"),
    ])
    def test_bad_argument_exit_1(self, capsys, flag, value):
        assert main(["gradcheck", f"{flag}={value}"]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith(f"error: config: {flag} "), err_lines


class TestReportCommand:
    def _make_report(self, tmp_path, name, uar7, uar4):
        path = str(tmp_path / name)
        with open(path, "w") as handle:
            handle.write("metric,value\n")
            handle.write(f"uar_7,{uar7}\nuar_4,{uar4}\n")
        return path

    def test_single_group_chart(self, tmp_path):
        report = self._make_report(tmp_path, "a.csv", 0.5, 0.75)
        svg = str(tmp_path / "chart.svg")
        assert main(["report", "--in", report, "--svg", svg]) == 0
        content = open(svg).read()
        assert content.count("<rect") >= 2
        assert content.startswith("<svg")

    def test_byte_identical_for_same_inputs(self, tmp_path):
        report = self._make_report(tmp_path, "a.csv", 0.6, 0.8)
        s1, s2 = str(tmp_path / "c1.svg"), str(tmp_path / "c2.svg")
        assert main(["report", "--in", report, "--svg", s1]) == 0
        assert main(["report", "--in", report, "--svg", s2]) == 0
        assert open(s1, "rb").read() == open(s2, "rb").read()

    def test_bar_heights_proportional_to_uar(self, tmp_path):
        report = self._make_report(tmp_path, "a.csv", 0.25, 0.75)
        svg = str(tmp_path / "geom.svg")
        assert main(["report", "--in", report, "--svg", svg]) == 0
        heights = [float(h) for h in
                   re.findall(r'<rect[^>]*height="([0-9.]+)"[^>]*fill="#(?:4878a8|e08840)"',
                              open(svg).read())][:2]
        assert heights[1] / heights[0] == pytest.approx(3.0, rel=0.01)

    def test_malformed_csv_exit_2_with_line(self, tmp_path, capsys):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as handle:
            handle.write("metric,value\nuar_7,0.5\nbroken-line\n")
        rc = main(["report", "--in", path, "--svg", str(tmp_path / "x.svg")])
        assert rc == 2
        assert ":3" in capsys.readouterr().err  # line number in message


class TestMalformedInputs:
    """Each broken input exits with its documented code and one `error:` line."""

    @staticmethod
    def _one_error_line(capsys, kind):
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith(f"error: {kind}: "), err_lines
        return err_lines[0]

    def _train(self, tmp_path, datasets, tiny_config, *extra, **paths):
        args = {"config": tiny_config, "train": datasets["train"], "dev": datasets["dev"]}
        args.update(paths)
        return main(["train", "--config", args["config"], "--train", args["train"],
                     "--dev", args["dev"], "--out", str(tmp_path / "run"), "--seed", "1",
                     *extra])

    @pytest.mark.parametrize("line", [
        b'{"id": "u\xff", "frames": 4, "frame_rate_hz": 8.0, "label": "Happy"}',
        b'{"id": "u", "frames": Infinity, "frame_rate_hz": 8.0, "label": "Happy"}',
        b'{"id": "u", "frames": 0, "frame_rate_hz": 8.0, "label": "Happy"}',
        b'{"id": "u", "frames": 4, "frame_rate_hz": 8.0, "label": "Happy", "prev_label": "Bored"}',
        b'{"id": "u", "frames": 4, "frame_rate_hz": 8.0, "label": "Happy", "prev_label": [1]}',
        b'{"id": "u", "frames": 4, "frame_rate_hz": 8.0, "label": "Happy", "language": 5}',
    ], ids=["not-utf8", "infinity", "zero-frames", "prev-label-unknown", "prev-label-list",
            "language-not-string"])
    def test_manifest_exit_2(self, tmp_path, datasets, tiny_config, capsys, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(open(datasets["train"], "rb").readline() + line + b"\n")
        assert self._train(tmp_path, datasets, tiny_config, train=str(bad)) == 2
        assert "bad.jsonl:2: " in self._one_error_line(capsys, "data")

    def test_feature_header_claiming_2_32_frames_exit_2(self, tmp_path, datasets, tiny_config,
                                                         capsys):
        record = read_manifest(datasets["train"])[0]
        with open(record.resolved_features_path(), "r+b") as handle:
            handle.seek(8)
            handle.write((2**32 - 1).to_bytes(4, "little"))
        assert self._train(tmp_path, datasets, tiny_config) == 2
        assert "header claims 4294967295 x" in self._one_error_line(capsys, "data")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_feature_value_exit_2(self, tmp_path, datasets, tiny_config, capsys,
                                             command):
        out = run_train(tmp_path, datasets, tiny_config, "trained") if command == "eval" else None
        record = read_manifest(datasets[command])[1]
        with open(record.resolved_features_path(), "r+b") as handle:
            handle.seek(16 + 4 * 8 * 3)         # frame 3 of an 8-dim file
            handle.write(np.float32(np.nan).tobytes())
        if command == "train":
            assert self._train(tmp_path, datasets, tiny_config) == 2
        else:
            checkpoint = os.path.join(out, "checkpoints", "epoch_001.serc")
            assert main(["eval", "--config", tiny_config, "--checkpoint", checkpoint,
                         "--manifest", datasets["eval"],
                         "--report", str(tmp_path / "r.csv")]) == 2
        error = self._one_error_line(capsys, "data")
        assert f"non-finite feature value in {record.resolved_features_path()} at frame 3" in error

    def test_config_not_utf8_exit_1(self, tmp_path, datasets, tiny_config, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(open(tiny_config, "rb").read() + b"train.epochs = \xe9\n")
        assert self._train(tmp_path, datasets, tiny_config, config=str(bad)) == 1
        line_no = TINY_CONFIG.count("\n") + 1
        assert f"bad.cfg:{line_no}: not UTF-8" in self._one_error_line(capsys, "config")

    @pytest.mark.parametrize("which", ["a", "b", "d"])
    def test_pseudolabel_inputs_not_utf8_exit_2(self, tmp_path, capsys, which):
        windows = window_split(4.0, ConsensusConfig())
        write_predictions(tmp_path / "a.jsonl", [("u1", s, e, "angry") for s, e in windows])
        write_predictions(tmp_path / "b.jsonl", [("u1", s, e, "angry") for s, e in windows])
        write_durations(tmp_path / "d.jsonl", [("u1", 4.0)])
        with open(tmp_path / f"{which}.jsonl", "ab") as handle:
            handle.write(b"\xc3\x28\n")
        rc = main(["pseudolabel", "--pred-a", str(tmp_path / "a.jsonl"),
                   "--pred-b", str(tmp_path / "b.jsonl"),
                   "--durations", str(tmp_path / "d.jsonl"),
                   "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert f"{which}.jsonl:2: not UTF-8" in self._one_error_line(capsys, "data")

    @pytest.mark.parametrize("setting", [
        "model.encoder_heads=0", "model.ecapa_gn_groups=0", "model.ecapa_res2_scale=0",
        "model.encoder_dim=0", "model.encoder_ff=0", "model.feature_dim=0",
        "model.ecapa_channels=0", "model.ecapa_se_bottleneck=0", "model.pool_attention_hidden=0",
        "model.ecapa_stats_attention_hidden=0", "model.ecapa_kernel=-1",
        "model.ecapa_dilations=0", "augment.speed_factors=nan", "augment.speed_factors=",
        "augment.noise_snr_db=nan,20", "augment.noise_snr_db=5", "augment.noise_snr_db=20,5",
        "augment.mixup_alpha=nan", "optim.backbone_lr=nan", "loss.lambda_dim=nan",
        "model.lora_alpha=nan", "optim.eps=nan", "optim.eps=0", "optim.eps=-1e-8",
        "optim.backbone_weight_decay=nan", "optim.backbone_weight_decay=-1e-5",
        "optim.downstream_weight_decay=nan", "optim.downstream_weight_decay=-1e-5",
        "train.max_frames=-3", "loss.eps_ccc=nan", "loss.eps_ccc=-1",
    ])
    def test_out_of_range_config_value_exit_1(self, tmp_path, datasets, tiny_config, capsys,
                                              setting):
        assert self._train(tmp_path, datasets, tiny_config, "--set", setting) == 1
        self._one_error_line(capsys, "config")

    @pytest.mark.parametrize("case, code", [
        ("eval-checkpoint-dir", 2), ("train-manifest-dir", 2), ("config-dir", 1),
        ("report-dir", 2), ("record-without-features-path", 2), ("missing-noise-dir", 1),
    ])
    def test_unreadable_path(self, tmp_path, datasets, tiny_config, capsys, case, code):
        directory = str(tmp_path)
        no_path = tmp_path / "no_path.jsonl"
        no_path.write_text('{"id": "u", "frames": 8, "frame_rate_hz": 8.0, "label": "Happy"}\n')
        train = ["train", "--config", tiny_config, "--train", datasets["train"],
                 "--dev", datasets["dev"], "--out", str(tmp_path / "run")]  # a later flag wins
        argv = {
            "eval-checkpoint-dir": ["eval", "--config", tiny_config, "--checkpoint", directory,
                                    "--manifest", datasets["eval"],
                                    "--report", str(tmp_path / "r.csv")],
            "train-manifest-dir": train + ["--train", directory],
            "config-dir": train + ["--config", directory],
            "report-dir": ["report", "--in", directory, "--svg", str(tmp_path / "x.svg")],
            "record-without-features-path": train + ["--train", str(no_path)],
            "missing-noise-dir": train + ["--set", f"augment.noise_dir={tmp_path / 'absent'}"],
        }[case]
        assert main(argv) == code
        assert "cannot read" in self._one_error_line(capsys, "config" if code == 1 else "data")

    def test_noise_dir_without_noise_files_exit_1(self, tmp_path, datasets, tiny_config, capsys):
        noise_dir = tmp_path / "noise"
        noise_dir.mkdir()
        (noise_dir / "readme.txt").write_text("not a feature file\n")
        assert self._train(tmp_path, datasets, tiny_config,
                           "--set", f"augment.noise_dir={noise_dir}") == 1
        assert "no .serf noise file" in self._one_error_line(capsys, "config")

    def test_empty_noise_file_exit_2(self, tmp_path, datasets, tiny_config, capsys):
        noise = tmp_path / "noise" / "silence.serf"
        write_features(str(noise), np.zeros((0, 8)))
        assert self._train(tmp_path, datasets, tiny_config,
                           "--set", f"augment.noise_dir={noise.parent}") == 2
        assert f"empty feature file {noise}" in self._one_error_line(capsys, "data")

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_output_path_that_cannot_be_made_exit_1(self, tmp_path, datasets, tiny_config,
                                                     capsys, command):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        if command == "train":  # --out names an existing file
            out = blocker
            rc = self._train(tmp_path, datasets, tiny_config, "--out", str(out))
        else:                   # --out lies under a file
            out = blocker / "x"
            rc = main(["synth", "--out", str(out), "--n-per-class", "1"])
        assert rc == 1
        assert self._one_error_line(capsys, "config").startswith(f"error: config: {out}: ")

    def test_report_csv_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"metric,value\nuar_7,0.5\nuar_\xff,0.25\n")
        assert main(["report", "--in", str(path), "--svg", str(tmp_path / "x.svg")]) == 2
        assert "bad.csv:3: not UTF-8" in self._one_error_line(capsys, "data")


class TestLogging:
    def test_invalid_log_level_exit_1(self, monkeypatch, capsys):
        monkeypatch.setenv("SER_LOG_LEVEL", "loud")
        rc = main(["gradcheck", "--samples", "1"])
        assert rc == 1
        assert "SER_LOG_LEVEL" in capsys.readouterr().err

    def test_valid_log_level_accepted(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SER_LOG_LEVEL", "debug")
        assert main(["synth", "--out", str(tmp_path / "d"), "--n-per-class", "1",
                     "--frames", "4", "--dim", "3"]) == 0


class TestSynthCommand:
    def test_writes_manifest_and_features(self, tmp_path):
        out = str(tmp_path / "ds")
        assert main(["synth", "--out", out, "--n-per-class", "1", "--frames", "6",
                     "--dim", "4", "--seed", "5", "--split", "eval"]) == 0
        records = read_manifest(os.path.join(out, "eval.jsonl"))
        assert len(records) == 7
        for record in records:
            assert os.path.exists(record.resolved_features_path())

    def test_bad_count_exit_1(self, capsys):
        rc = main(["synth", "--out", "/tmp/unused-serkit", "--n-per-class", "0"])
        assert rc == 1
