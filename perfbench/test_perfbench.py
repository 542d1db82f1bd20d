"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import statistics
import types

import numpy as np
import pytest

from serkit.datapipe import merge_segments, read_manifest

import inputs
from spans import Span, Tracer, covered, has_ancestor, self_times
from summary import median, quartiles, ratio, spread
from workloads import data_wait


def _tree_bytes(root: str) -> dict:
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


# -- generator -----------------------------------------------------------------


def test_train_inputs_are_a_function_of_the_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.write_train_inputs(str(tmp_path / name), seed, n_train=9, n_dev=4, frames=(12, 24))
    a, b, c = (_tree_bytes(str(tmp_path / name)) for name in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_spread_lengths_is_seed_free_and_spans_the_band():
    even = inputs.spread_lengths(8, (50, 400))
    assert even.tolist() == [50, 100, 150, 200, 250, 300, 350, 400]
    topped = inputs.spread_lengths(9, (10, 40), top_share=1 / 3)
    assert topped.tolist() == [10, 15, 20, 25, 30, 35, 40, 40, 40]


def test_eval_inputs_are_a_function_of_the_seed(tmp_path):
    results = [inputs.write_eval_inputs(str(tmp_path / name), seed, n_per_class=2, frames=(50, 400),
                                        n_checkpoints=2, merge_cap_s=15.0)
               for name, seed in (("a", 3), ("b", 3))]
    assert results[0][2] == results[1][2]
    assert _tree_bytes(str(tmp_path / "a")) == _tree_bytes(str(tmp_path / "b"))


def test_train_lengths_labels_and_dims_vary(tmp_path):
    train, dev = inputs.write_train_inputs(str(tmp_path), 1, n_train=14, n_dev=7, frames=(100, 200))
    records = read_manifest(train)
    frames = sorted(r.frames for r in records)
    assert frames[0] == 100 and frames.count(200) == round(14 * inputs.TOP_SHARE)
    assert len(set(frames)) == 14 - frames.count(200) + 1
    assert sorted(r.label_index for r in records) == sorted(list(range(7)) * 2)
    for dim in ("arousal", "valence", "dominance"):
        assert statistics.pstdev(getattr(r, dim) for r in records) > 0.05
    assert len(read_manifest(dev)) == 7


@pytest.mark.parametrize("seed", range(6))
def test_predicted_segment_count_matches_merge_segments(seed):
    rng = np.random.default_rng(seed)
    labels = inputs.label_runs(rng, 6)
    lengths = rng.integers(50, 800, size=labels.size)
    segments, cursor = [], 0.0
    for label, frames in zip(labels, lengths):
        segments.append((cursor, cursor + frames / inputs.FRAME_RATE_HZ, int(label)))
        cursor += frames / inputs.FRAME_RATE_HZ
    merged = merge_segments(segments, cap_s=15.0)
    assert inputs.merged_segment_count(labels, lengths, cap_frames=750) == len(merged)


def test_label_runs_are_balanced_and_merge():
    labels = inputs.label_runs(np.random.default_rng(0), 3)
    assert np.bincount(labels).tolist() == [3] * 7
    assert inputs.merged_segment_count(labels, [1] * labels.size, cap_frames=100) < labels.size


# -- spans and self time -------------------------------------------------------


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 3.5, 6.0, parent=0),      # overlaps a: union of children is [1, 6]
        Span("c", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 3.0 - 1.0, 1.0, 2.5, 1.0])


def test_covered_merges_overlaps_and_nesting():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6), (5.2, 5.5)]) == pytest.approx(4.0)


def test_tracer_nests_wraps_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    box = types.SimpleNamespace(outer=None, inner=lambda x: x + 1)
    box.outer = lambda x: box.inner(x) * 2
    original_inner = box.inner

    tracer.wrap(box, "inner", "inner", after=lambda span, a, k, r: span.data.update(r=r))
    tracer.wrap(box, "outer", "outer")
    tracer.count(box, "inner", "inner.calls")
    tracer.unit = 7
    assert box.outer(3) == 8
    assert tracer.counts == {"inner.calls": 1}
    tracer.restore()
    assert box.inner is original_inner

    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("outer", "inner")
    assert (outer.parent, inner.parent) == (-1, 0)
    assert inner.data == {"r": 4}
    assert outer.unit == inner.unit == 7
    assert has_ancestor(tracer.spans, 1, "outer")
    assert outer.start < inner.start < inner.end < outer.end


def test_data_wait_counts_gaps_before_each_forward():
    spans = [
        Span("training.train_loop", 0.0, 20.0),
        Span("training.forward", 1.0, 3.0, parent=0),
        Span("optim.step", 4.0, 4.5, parent=0),
        Span("training.forward", 5.0, 7.0, parent=0),      # waited 0.5
        Span("optim.step", 8.0, 8.5, parent=0),
        Span("training.dev_pass", 9.0, 10.0, parent=0),
        Span("checkpoint.save", 10.0, 10.5, parent=0),
        Span("training.forward", 11.0, 12.0, parent=0),    # waited 0.5 after the save
    ]
    assert data_wait(spans) == pytest.approx(1.0 + 0.5 + 0.5)


# -- order statistics and ratios ------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [float(v) for v in range(1, 11)]
    assert quartiles(values) == pytest.approx((2.75, 5.5, 8.25))
    assert median(values) == 5.5
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_spread_is_scale_free():
    values = [9.0, 10.0, 10.5, 11.0, 12.0]
    assert spread(values) == pytest.approx(spread([v * 1000 for v in values]))


def test_ratio_of_nothing_is_zero():
    assert ratio(3.0, 4.0) == 0.75
    assert ratio(5.0, 0) == 0.0
