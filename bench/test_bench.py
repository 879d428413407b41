"""Tests of the benchmark's helpers: percentiles, span self-time
arithmetic, seeded input generation and restoring traced attributes."""

import statistics

import numpy as np
import pytest

import hostspeed
import spans
import workloads as w
from gesturegen import autodiff
from gesturegen.autodiff import Tensor


@pytest.mark.parametrize("q", [0, 10, 25, 50, 90, 100])
def test_percentile_matches_numpy(q):
    values = list(np.random.default_rng(3).normal(size=17))
    assert w.percentile(values, q) == pytest.approx(float(np.percentile(values, q)), abs=1e-12)


def test_percentile_small_inputs():
    assert w.percentile([4.0], 90) == 4.0
    assert w.percentile([1.0, 3.0], 50) == 2.0
    with pytest.raises(ValueError):
        w.percentile([], 50)


def test_rolling_median_and_scaling():
    assert hostspeed.rolling([5.0, 1.0, 3.0, 9.0], 1) == [3.0, 3.0, 3.0, 6.0]
    cal = hostspeed.Calibration(hostspeed.object_work, 0.004)
    assert cal.at_reference(2.0, 0.008) == pytest.approx(1.0)
    half = hostspeed.Calibration(hostspeed.object_work, 0.004, elasticity=0.5)
    assert half.at_reference(2.0, 0.016) == pytest.approx(1.0)


@pytest.mark.parametrize("work", [hostspeed.object_work, hostspeed.graph_work])
def test_calibration_pass_runs(work):
    assert hostspeed.Calibration(work, 0.001).median(3) > 0.0


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_children():
    tree = [
        _span("root", 0, 100),
        _span("a", 10, 30, 0),
        _span("b", 40, 90, 0),
        _span("b.inner", 50, 60, 2),
    ]
    assert spans.self_times(tree) == [30, 20, 40, 10]
    acc = spans.accounting(tree, wall_ns=120)
    assert acc["nested"] and acc["self_ns"] == 100 and acc["uncovered_ns"] == 20


def test_self_time_counts_overlapping_children_once():
    tree = [_span("root", 0, 100), _span("a", 10, 50, 0), _span("b", 30, 70, 0), _span("c", 90, 130, 0)]
    # children cover [10, 70] and the in-parent part [90, 100] of c
    assert spans.self_times(tree)[0] == 100 - 60 - 10


def test_summarize_totals_and_scale():
    tree = [_span("op", 0, 100), _span("layer", 10, 30, 0), _span("layer", 50, 60, 0)]
    stats = spans.summarize(tree, scale=0.5)
    assert stats["layer"].calls == 2
    assert stats["layer"].total_ns == 15
    assert stats["op"].self_ns == 35


def test_utterance_stream_is_seeded():
    def first(seed, n=70):
        stream = w.utterance_stream(seed)
        return [next(stream) for _ in range(n)]

    assert first(5) == first(5)
    assert first(5) != first(6)
    cycle = first(5, 59)
    assert cycle[0] == w.criterion_12_utterance()
    assert sorted(len(words) for words, _ in cycle[1:]) == list(range(w.MIN_WORDS, w.MAX_WORDS + 1))
    for words, duration in cycle[1:]:
        nominal = len(words) * 60.0 / w.WORDS_PER_MINUTE
        assert 0.85 * nominal <= duration <= 1.15 * nominal


def test_track_lengths_are_seeded_and_stratified():
    a = w.track_lengths(np.random.default_rng(8))
    assert a == w.track_lengths(np.random.default_rng(8))
    assert a != w.track_lengths(np.random.default_rng(9))
    fps = 12.0
    assert min(a) >= w.MIN_TRACK_S * fps and max(a) <= w.MAX_TRACK_S * fps
    width = (w.MAX_TRACK_S - w.MIN_TRACK_S) * fps / w.RETARGET_TRACKS
    for i, frames in enumerate(sorted(a)):  # one track in the middle fifth of each equal slice
        assert w.MIN_TRACK_S * fps + (i + 0.4) * width - 1 <= frames <= w.MIN_TRACK_S * fps + (i + 0.6) * width + 1


def test_generate_output_bytes_repeat(tmp_path):
    state, setup_digest = w.setup_generate(2, tmp_path / "a")
    assert w.setup_generate(2, tmp_path / "b")[1] == setup_digest
    before = w.fingerprint_generate(state)
    m = w.measure_generate(state, 0.0)
    assert m.attempted == 1 and m.failed == 0 and len(m.passes) == 1
    assert w.fingerprint_generate(state) == before


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_tracer_restores_every_attribute(name):
    wl = w.WORKLOADS[name]
    targets = wl.setup_targets + wl.targets
    originals = [vars(t.owner)[t.attr] for t in targets]
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with tracer.installed(targets):
            assert all(vars(t.owner)[t.attr] is not o for t, o in zip(targets, originals))
            raise KeyError("leave the block early")
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))


def test_traced_method_records_count_and_result():
    target = spans.Target(autodiff.Tensor, "backward", "autodiff.Tensor.backward", lambda args, order: len(order))
    original = vars(autodiff.Tensor)["backward"]
    tracer = spans.Tracer()
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with tracer.installed([target]):
        order = autodiff.tsum(autodiff.mul(x, x)).backward()
    assert vars(autodiff.Tensor)["backward"] is original and len(tracer.spans) == 1
    assert tracer.spans[0].count == len(order) == 3
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_layer_metrics_divide_by_their_denominators():
    tree = [
        _span("op.train", 0, 10_000_000),
        _span("training.forward_graph", 0, 2_000_000, 0),
        _span("training.forward_graph", 2_000_000, 4_000_000, 0),
        _span("training.adam_step", 4_000_000, 5_000_000, 0),
    ]
    tree[1].count, tree[2].count = 24, 40
    values = w.layer_metrics(spans.summarize(tree))
    assert values["model.forward_ms_per_step"] == pytest.approx(4.0)
    assert values["training.forward_calls_per_step"] == 2
    assert values["training.rows_per_forward"] == 32
    assert values["kinematics.ik_us_per_frame"] == 0.0
    assert set(values) == set(w.PER_LAYER)


def test_measurement_scaling_uses_neighbouring_passes():
    cal = hostspeed.Calibration(hostspeed.object_work, 0.004)
    m = w.Measurement(latencies=[1.0, 1.0, 1.0], passes=[0.004 * f for f in (1, 2, 2)], calibration=cal, half=0)
    assert m.scaled() == pytest.approx([1.0, 0.5, 0.5])
    assert statistics.median(m.scaled()) == pytest.approx(0.5)
