"""The benchmark's traced run swaps layer entry points by name
(``bench/workloads.py``); a rename in the package would silently drop a
layer from the trace, so every traced name must still resolve."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def test_every_traced_target_resolves(workloads):
    targets = [t for w in workloads.WORKLOADS.values() for t in w.setup_targets + w.targets]
    assert targets
    missing = [t.name for t in targets if t.attr not in vars(t.owner)]
    assert missing == []


def test_retarget_reaches_each_traced_layer_once(workloads, monkeypatch):
    """The retarget per-layer metrics read the spans of the layers bound in
    ``lifting``; one retarget_track call must enter each of them once, or
    its metric silently reads 0."""
    import numpy as np

    from gesturegen import lifting
    from gesturegen.pose import RawPose, fit_pca, normalize_pose
    from gesturegen.synthesis import TimedPoseTrack

    layers = [
        t.attr
        for t in workloads.WORKLOADS["retarget"].targets
        if t.owner is lifting and t.attr != "retarget_track"
    ]
    assert sorted(layers) == ["assemble_pose3d", "clamp_angles", "compute_joint_angles", "decode_pose", "lift_forward"]
    calls = dict.fromkeys(layers, 0)
    for name in layers:
        original = getattr(lifting, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lifting, name, counted)

    rng = np.random.default_rng(0)
    base = np.array([[0, -1], [0, 0], [1, 0], [1.2, 0.8], [1.3, 1.6], [-1, 0], [-1.2, 0.8], [-1.3, 1.6]])
    pca = fit_pca([normalize_pose(RawPose.complete(base + rng.normal(0, 0.05, (8, 2)))) for _ in range(20)])
    track = TimedPoseTrack(frames=rng.normal(0, 0.3, size=(9, 10)))
    out = lifting.retarget_track(track, pca, lifting.init_lift_params(seed=0), {"head_yaw": (-0.3, 0.3)})
    assert out.frames.shape == (9, 12)
    assert calls == dict.fromkeys(layers, 1)
