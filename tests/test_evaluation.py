"""Evaluation tests: confusion/UAR oracles, CCC metric, ensembling, reports."""

from dataclasses import replace

import numpy as np
import pytest

from serkit import evaluation
from serkit.datapipe import (
    GROUP_FRAMES,
    ManifestRecord,
    read_features,
    read_manifest,
    synth_dataset,
    write_features,
)
from serkit.errors import DataError
from serkit.evaluation import (
    PRIMARY_FOUR,
    ccc_metric,
    ensemble_predict,
    evaluate_manifest,
    per_class_recall,
    predict,
    select_top_checkpoints,
    uar,
    weighted_accuracy,
)
from serkit.labels import EmotionLabel
from serkit.model import ModelConfig, SERModel


def brute_force_uar(counts: np.ndarray, classes=None) -> float:
    classes = range(7) if classes is None else classes
    recalls = []
    for c in classes:
        support = counts[c].sum()
        if support > 0:
            recalls.append(counts[c, c] / support)
    return float(np.mean(recalls))


class TestUAR:
    def test_two_class_embedded_example(self):
        counts = np.zeros((7, 7), dtype=int)
        counts[0, 0], counts[0, 1] = 9, 1   # recall 0.9
        counts[1, 0], counts[1, 1] = 2, 2   # recall 0.5
        assert uar(counts) == pytest.approx(0.7)

    def test_perfect_diagonal(self):
        assert uar(np.diag([5, 3, 8, 1, 2, 9, 4])) == 1.0

    def test_brute_force_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            counts = rng.integers(0, 20, size=(7, 7))
            assert abs(uar(counts) - brute_force_uar(counts)) < 1e-12

    def test_subset_equals_row_restricted_computation(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            counts = rng.integers(0, 15, size=(7, 7))
            subset = sorted(int(c) for c in PRIMARY_FOUR)
            assert uar(counts, PRIMARY_FOUR) == pytest.approx(
                brute_force_uar(counts, subset), abs=1e-12)

    def test_duplication_invariance_vs_weighted_accuracy(self):
        rng = np.random.default_rng(5)
        wa_changed = 0
        for _ in range(100):
            counts = rng.integers(1, 10, size=(7, 7))
            duplicated = counts.copy()
            duplicated[3] *= 5  # clone every Angry utterance 5x
            u0 = uar(counts)
            u1 = uar(duplicated)
            assert abs(u0 - u1) < 1e-12
            w0 = weighted_accuracy(counts)
            w1 = weighted_accuracy(duplicated)
            if abs(w0 - w1) > 1e-12:
                wa_changed += 1
        assert wa_changed > 90  # weighted accuracy is generally NOT invariant

    def test_zero_support_classes_excluded(self):
        counts = np.zeros((7, 7), dtype=int)
        counts[0, 0] = 10
        counts[1, 1], counts[1, 0] = 3, 1
        assert uar(counts) == pytest.approx((1.0 + 0.75) / 2)

    def test_all_zero_support_rejected(self):
        with pytest.raises(DataError):
            uar(np.zeros((7, 7), dtype=np.int64))

    def test_per_class_recall_nan_for_unsupported(self):
        counts = np.zeros((7, 7), dtype=int)
        counts[2, 2] = 4
        recall = per_class_recall(counts)
        assert recall[2] == 1.0
        assert np.isnan(recall[0])


class TestCCCMetric:
    def test_identity(self):
        rng = np.random.default_rng(6)
        refs = rng.uniform(0, 1, size=(20, 3))
        values = ccc_metric(refs, refs.copy())
        for v in values:
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_anti_concordant(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(0, 1, size=(25, 3))
        refs = np.concatenate([base, 1.0 - base])  # symmetric about 0.5
        preds = 1.0 - refs
        for v in ccc_metric(refs, preds):
            assert v == pytest.approx(-1.0, abs=1e-9)

    def test_two_pass_matches_single_pass_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            refs = rng.uniform(0, 1, size=(30, 3))
            preds = rng.uniform(0, 1, size=(30, 3))
            ours = ccc_metric(refs, preds)
            for dim in range(3):
                y, p = refs[:, dim], preds[:, dim]
                # direct single-pass moments
                var_y = np.mean(y * y) - np.mean(y) ** 2
                var_p = np.mean(p * p) - np.mean(p) ** 2
                cov = np.mean(y * p) - np.mean(y) * np.mean(p)
                direct = 2 * cov / (var_y + var_p + (np.mean(y) - np.mean(p)) ** 2)
                assert ours[dim] == pytest.approx(direct, abs=1e-12)

    def test_constant_reference_warns_and_reports_zero(self, caplog):
        refs = np.full((5, 3), 0.5)
        preds = np.random.default_rng(9).uniform(0, 1, size=(5, 3))
        with caplog.at_level("WARNING", logger="serkit.evaluation"):
            values = ccc_metric(refs, preds)
        assert values == (0.0, 0.0, 0.0)
        assert any("constant reference" in r.message for r in caplog.records)

    def test_constant_reference_with_inexact_mean_reports_zero(self, caplog):
        # The float mean of ten 0.3s is not 0.3, so a variance test sees ~3e-33, not 0.
        preds = np.random.default_rng(10).uniform(0, 1, size=(100, 3))
        for n in (3, 7, 10, 33, 100):
            refs = preds[:n].copy()
            refs[:, 1] = 0.3
            caplog.clear()
            with caplog.at_level("WARNING", logger="serkit.evaluation"):
                values = ccc_metric(refs, preds[:n])
            assert values[1] == 0.0, n
            assert values[0] == values[2] == pytest.approx(1.0, abs=1e-9)
            assert [r.message for r in caplog.records] == [
                "constant reference in CCC dimension 1: reporting 0"], n

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            ccc_metric(np.zeros((1, 3)), np.zeros((1, 3)))


class TestTopCheckpointSelection:
    """History entries are `TrainState.history` triples (path, epoch, dev_cat_loss)."""

    def test_lowest_losses_win(self):
        history = [(f"ck{i}", i + 1, loss) for i, loss in enumerate([0.9, 0.5, 0.7, 0.4, 0.6])]
        assert select_top_checkpoints(history, k=4) == ["ck3", "ck1", "ck4", "ck2"]

    def test_underfull_history_returns_all(self):
        history = [("a", 1, 0.5), ("b", 2, 0.4)]
        assert select_top_checkpoints(history, k=4) == ["b", "a"]

    def test_tie_prefers_earlier_epoch(self):
        history = [("e1", 1, 0.9), ("e2", 2, 0.5), ("e3", 3, 0.8), ("e8", 8, 0.5)]
        assert select_top_checkpoints(history, k=2) == ["e2", "e8"]
        assert select_top_checkpoints(history, k=1) == ["e2"]

    def test_ranks_a_train_loop_history_by_dev_loss(self, tmp_path):
        from tests.test_training import run_tiny

        _, state = run_tiny(tmp_path, "run", epochs=3, augment=False)
        by_loss = sorted(state.history, key=lambda entry: entry[2])
        assert by_loss != state.history         # the ranking is not the epoch order
        assert select_top_checkpoints(state.history, k=3) == [path for path, *_ in by_loss]

    def test_empty_history_rejected(self):
        with pytest.raises(DataError):
            select_top_checkpoints([], k=4)


def small_model(seed=0):
    from tests.test_model import small_config

    return SERModel(small_config(seed=seed))


class TestEnsemble:
    def test_identical_models_equal_single(self):
        rng = np.random.default_rng(10)
        features = rng.normal(size=(6, 8))
        model = small_model(seed=3)
        single = model.forward(features)
        ens = ensemble_predict([model, model, model, model], features)
        np.testing.assert_allclose(ens.cat_probs.data, single.cat_probs.data, atol=1e-12)
        np.testing.assert_allclose(ens.dim_tensor.data, single.dim_tensor.data, atol=1e-12)

    def test_two_model_average(self):
        rng = np.random.default_rng(11)
        features = rng.normal(size=(5, 8))
        m1, m2 = small_model(seed=4), small_model(seed=5)
        ens = ensemble_predict([m1, m2], features)
        expected = 0.5 * (m1.forward(features).cat_probs.data
                          + m2.forward(features).cat_probs.data)
        np.testing.assert_allclose(ens.cat_probs.data, expected, atol=1e-15)

    def test_bit_identical_to_grad_tracking_members(self):
        features = np.random.default_rng(15).normal(size=(9, 8))
        models = [small_model(seed=s) for s in range(3)]
        outs = [m.forward(features) for m in models]
        assert all(o.cat_probs.requires_grad and o.dim_tensor.requires_grad for o in outs)
        probs, dims = np.zeros(7), np.zeros(3)
        for out in outs:  # the ensemble's own summation order
            probs += out.cat_probs.data
            dims += out.dim_tensor.data
        ens = ensemble_predict(models, features)
        assert ens.cat_probs.data.tobytes() == (probs / 3).tobytes()
        assert ens.dim_tensor.data.tobytes() == (dims / 3).tobytes()

    def test_probabilities_stay_on_simplex(self):
        rng = np.random.default_rng(12)
        models = [small_model(seed=s) for s in range(3)]
        for _ in range(20):
            ens = ensemble_predict(models, rng.normal(size=(4, 8)))
            assert abs(ens.cat_probs.data.sum() - 1.0) < 1e-12
            assert np.all(ens.cat_probs.data >= 0)

    def test_order_invariant_argmax(self):
        rng = np.random.default_rng(13)
        features = rng.normal(size=(7, 8))
        models = [small_model(seed=s) for s in range(4)]
        a = ensemble_predict(models, features)
        b = ensemble_predict(list(reversed(models)), features)
        assert np.argmax(a.cat_probs.data) == np.argmax(b.cat_probs.data)
        np.testing.assert_allclose(a.cat_probs.data, b.cat_probs.data, atol=1e-15)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(DataError):
            ensemble_predict([], np.zeros((3, 8)))


class TestPredict:
    def test_groups_match_per_utterance_forwards_in_input_order(self, monkeypatch):
        """Several groups, one utterance alone past the frame budget, rows in input order."""
        rng = np.random.default_rng(16)
        lengths = [40, 3, GROUP_FRAMES + 5, 17, 3, 90, 1, 60, 25, 250, 8]
        features = [rng.normal(size=(n, 8)) for n in lengths]
        models = [small_model(seed=s) for s in (8, 9)]
        groups = []
        ensemble = evaluation.ensemble_predict
        monkeypatch.setattr(evaluation, "ensemble_predict",
                            lambda ms, x, n: groups.append(list(n)) or ensemble(ms, x, n))
        probs, dims = predict(models, features)
        # shortest first, while rows x longest <= 1024: 9 x 90 fits, 10 x 250 and 2 x 1029 do not
        assert groups == [[1, 3, 3, 8, 17, 25, 40, 60, 90], [250], [GROUP_FRAMES + 5]]
        assert probs.shape == (len(lengths), 7) and dims.shape == (len(lengths), 3)
        for i, x in enumerate(features):
            outs = [m.forward(x) for m in models]
            np.testing.assert_allclose(probs[i], np.mean([o.cat_probs.data for o in outs], 0),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(dims[i], np.mean([o.dim_tensor.data for o in outs], 0),
                                       rtol=0, atol=1e-12)

    def test_empty_list_gives_empty_arrays(self):
        probs, dims = predict([small_model(seed=1)], [])
        assert probs.shape == (0, 7) and dims.shape == (0, 3)

    def test_no_models_rejected(self):
        with pytest.raises(DataError):
            predict([], [np.zeros((3, 8))])


class TestEvaluateManifest:
    @pytest.fixture
    def dataset(self, tmp_path):
        manifest = synth_dataset(str(tmp_path / "d"), n_per_class=2, frames=8, dim=16,
                                 seed=21, split="eval")
        return read_manifest(manifest)

    def test_fine_report_fields(self, dataset):
        model = SERModel(ModelConfig(feature_dim=16, seed=0))
        report = evaluate_manifest([model], dataset)
        assert report.n_scored == len(dataset)
        assert 0.0 <= report.uar_7 <= 1.0
        assert 0.0 <= report.weighted_accuracy <= 1.0
        assert report.ccc_arousal is not None
        assert len(report.per_class_recall) == 7

    def test_report_reproducible(self, dataset):
        model = SERModel(ModelConfig(feature_dim=16, seed=0))
        r1 = evaluate_manifest([model], dataset)
        r2 = evaluate_manifest([model], dataset)
        assert r1 == r2

    def test_merged_granularity_merges_adjacent_labels(self, dataset):
        model = SERModel(ModelConfig(feature_dim=16, seed=0))
        # id-sorted manifest groups the two utterances of each class adjacently:
        # 2 x 1s... frames=8 @ 8Hz = 1s each, so pairs merge to 2s segments.
        report = evaluate_manifest([model], dataset, granularity="merged")
        assert report.n_scored == 7
        fine = evaluate_manifest([model], dataset, granularity="fine")
        assert fine.n_scored == 14

    def test_merged_respects_cap(self, tmp_path):
        manifest = synth_dataset(str(tmp_path / "long"), n_per_class=3, frames=48,
                                 dim=16, seed=22, split="eval", frame_rate_hz=8.0)
        records = read_manifest(manifest)  # 3 x 6s per class adjacent = 18s runs
        model = SERModel(ModelConfig(feature_dim=16, seed=0))
        report = evaluate_manifest([model], records, granularity="merged", merge_cap_s=15.0)
        assert report.n_scored == 14  # each 18s run splits at 15s into 2 segments

    def test_rows_stable_order(self, dataset):
        model = SERModel(ModelConfig(feature_dim=16, seed=0))
        report = evaluate_manifest([model], dataset)
        names = [name for name, _ in report.rows()]
        assert names[:4] == ["n_scored", "uar_7", "uar_4", "weighted_accuracy"]
        assert names[4:11] == [f"recall_{l.name.lower()}" for l in EmotionLabel]
        assert names[11:] == ["ccc_arousal", "ccc_valence", "ccc_dominance"]


def timeline_records(directory, rows, frame_rate_hz=8.0):
    """Eval records with random 8-dim features from (label, frames, dims or None) rows."""
    rng = np.random.default_rng(30)
    records = []
    for i, (label, frames, dims) in enumerate(rows):
        path = str(directory / f"r{i}.serf")
        write_features(path, rng.normal(size=(frames, 8)))
        a, v, d = dims or (None, None, None)
        records.append(ManifestRecord(id=f"r{i}", features_path=path, frames=frames,
                                      frame_rate_hz=frame_rate_hz, label=label, arousal=a,
                                      valence=v, dominance=d, split="eval"))
    return records


class TestMergedWeighting:
    """Merged segments average the records they cover, weighted by overlap in seconds."""

    ROWS = [("Happy", 12, (0.2, 0.3, 0.4)),      # 0.0 - 1.5 s
            ("Happy", 20, (0.6, 0.1, 0.9)),      # 1.5 - 4.0 s, split by the 3 s cap
            ("Sad", 6, None),                    # 4.0 - 4.75 s, no dims
            ("Sad", 10, (0.5, 0.5, 0.5)),        # 4.75 - 6.0 s
            ("Angry", 16, (0.9, 0.8, 0.1)),      # 6.0 - 8.0 s
            ("Neutral", 9, (0.3, 0.7, 0.2))]     # 8.0 - 9.125 s
    # (label, [(record, seconds covered)]); the Sad segment holds a record without dims.
    SEGMENTS = [(EmotionLabel.HAPPY, [(0, 1.5), (1, 1.5)]),
                (EmotionLabel.HAPPY, [(1, 1.0)]),
                (EmotionLabel.SAD, [(2, 0.75), (3, 1.25)]),
                (EmotionLabel.ANGRY, [(4, 2.0)]),
                (EmotionLabel.NEUTRAL, [(5, 1.125)])]

    def test_matches_hand_computation(self, tmp_path, monkeypatch):
        records = timeline_records(tmp_path, self.ROWS)
        models = [small_model(seed=6), small_model(seed=7)]
        scored = []
        recall = evaluation.per_class_recall
        monkeypatch.setattr(evaluation, "per_class_recall",
                            lambda cm: scored.append(cm.copy()) or recall(cm))
        report = evaluate_manifest(models, records, granularity="merged", merge_cap_s=3.0)

        outs = [ensemble_predict(models, read_features(r.features_path)) for r in records]
        expected = []
        refs, preds = [], []
        for label, parts in self.SEGMENTS:
            total = sum(seconds for _, seconds in parts)
            probs = sum(seconds * outs[i].cat_probs.data for i, seconds in parts) / total
            expected.append((int(label), int(np.argmax(probs))))
            if all(records[i].has_dims for i, _ in parts):
                refs.append(sum(seconds * records[i].dim_array() for i, seconds in parts) / total)
                preds.append(sum(seconds * outs[i].dim_tensor.data for i, seconds in parts)
                             / total)
        refs, preds = np.array(refs), np.array(preds)
        assert len(refs) == 4
        cov = np.mean((refs - refs.mean(0)) * (preds - preds.mean(0)), axis=0)
        ccc = 2 * cov / (refs.var(0) + preds.var(0) + (refs.mean(0) - preds.mean(0)) ** 2)

        counts = np.zeros((7, 7), dtype=np.int64)
        for label, pred in expected:
            counts[label, pred] += 1
        assert all(np.array_equal(cm, counts) for cm in scored) and scored
        assert report.n_scored == len(expected)
        np.testing.assert_allclose(
            [report.ccc_arousal, report.ccc_valence, report.ccc_dominance], ccc, atol=1e-12)

    @pytest.mark.parametrize("granularity", ["fine", "merged"])
    def test_record_shorter_than_1e_12_s_rejected(self, tmp_path, granularity):
        records = timeline_records(tmp_path, self.ROWS[:2])
        tiny = timeline_records(tmp_path / "tiny", [("Sad", 1, None)], frame_rate_hz=1e13)[0]
        records.append(replace(tiny, id="tiny"))
        with pytest.raises(DataError, match="overlaps no record"):
            evaluate_manifest([small_model()], records, granularity=granularity)
