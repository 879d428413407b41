"""The benchmark's traced run swaps layer entry points by name
(``bench/workloads.py``); a rename in the package would silently drop a
layer from the trace, so every traced name must still resolve."""

import hashlib
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


def test_bench_record_names_bind_config(workloads):
    """The benchmark still builds its training and lift settings under the
    record names that Config replaced; both names now build a Config."""
    from gesturegen import lifting, training
    from gesturegen.config import Config

    assert isinstance(training.Hyperparams(epochs=1, **workloads.TOY_HYPER), Config)
    lift = lifting.LiftTrainConfig(seed=3)
    assert isinstance(lift, Config)
    assert lift.lift_steps == 2000


def test_retarget_reaches_each_traced_layer_once(workloads, monkeypatch):
    """The retarget per-layer metrics read the spans of the layers bound in
    ``lifting``; one retarget_track call must enter each of them once, or
    its metric silently reads 0."""
    import numpy as np

    from gesturegen import lifting
    from gesturegen.pose import fit_pca, normalize_pose
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
    pca = fit_pca([normalize_pose(base + rng.normal(0, 0.05, (8, 2))) for _ in range(20)])
    track = TimedPoseTrack(frames=rng.normal(0, 0.3, size=(9, 10)))
    out = lifting.retarget_track(track, pca, lifting.init_lift_params(seed=0), {"head_yaw": (-0.3, 0.3)})
    assert out.frames.shape == (9, 12)
    assert calls == dict.fromkeys(layers, 1)


def test_train_reaches_each_traced_layer_once(workloads, monkeypatch):
    """The train per-layer metrics read the spans of the layers bound in
    ``training``; one train_model batch must enter each of them once, or
    its metric silently reads 0."""
    import numpy as np

    from gesturegen import training
    from gesturegen.config import Config
    from gesturegen.model import ModelConfig, init_model
    from gesturegen.text import EmbeddingTable

    layers = [
        t.attr
        for t in workloads.WORKLOADS["train"].targets
        if t.owner is training and t.attr != "train_model"
    ]
    assert sorted(layers) == ["adam_step", "backward", "clip_gradients", "compute_loss_graph", "forward_graph"]
    calls = dict.fromkeys(layers, 0)
    for name in layers:
        original = getattr(training, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(training, name, counted)

    rng = np.random.default_rng(0)
    table = EmbeddingTable(dim=6, entries={w: rng.normal(size=6) for w in ("a", "b", "c")})
    pairs = [training.TrainingPair(words=["a", "b", "c"][: 1 + i], target_poses=rng.normal(size=(5, 10))) for i in range(3)]
    model = init_model(ModelConfig(word_dim=6, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.1), seed=0)
    history = training.train_model(pairs, Config(epochs=1, batch_size=3), model, table).history
    assert len(history) == 1
    assert calls == dict.fromkeys(layers, 1)


def test_train_digests_pinned(workloads, tmp_path):
    """The seed-1 train set-up (corpus, pose basis, training pairs) and one
    epoch of two batches from a fresh model (losses and weights) hash to the
    values the benchmark printed while training ran on the autodiff tape."""
    state, digest = workloads.setup_train(1, tmp_path)
    assert digest == "f22f84ead7d8e72531805de5d1bb10dc5affe74389c2e0cae658328ff97d3c42"
    assert workloads.fingerprint_train(state) == (
        "6ec39a71610904f252548990ef58da460a66506ef3dfc0df5bb9d24633b6b10b"
    )


def test_train_setup_digest_pinned(workloads, tmp_path):
    """The train set-up (corpus, pose basis, training pairs) hashes to the
    value the benchmark printed for seed 0 before records became arrays."""
    _, digest = workloads.setup_train(0, tmp_path)
    assert digest == "a2a0fdce1a34c070d8ee65e4e721b40ddf4dbfc264997167d5bb5b0acdebaf8a"


def test_generate_digests_pinned(workloads, tmp_path):
    """The generate set-up (embedding file and seed-1 checkpoint) and the
    criterion-12 track and attention files hash to the values the
    benchmark printed before generation ran on the plain kernels."""
    state, digest = workloads.setup_generate(1, tmp_path)
    assert digest == "2e818f2171aad2a74ae6d698513a65d4f501b4513c2c87fc796f3d902fa2f7e6"
    assert workloads.fingerprint_generate(state) == (
        "d297be64b16e871af066b7858aa955aeba8c94ee8c2cdbf86686bddeb4a7dc28"
    )


def test_retarget_digests_pinned(workloads, tmp_path):
    """The retarget set-up (lift checkpoint and 24 seed-1 track files, all
    written by the row codec) and one track read, retargeted and written as
    joint angles hash to the values the benchmark printed before the codec
    read and wrote a block of rows per call."""
    state, digest = workloads.setup_retarget(1, tmp_path)
    assert len(state.tracks) == 24
    assert digest == "d3306a205024c5e342cc107f821ee68ed84aeac3d029c4297decb57330ce5698"
    assert workloads.fingerprint_retarget(state) == (
        "24b7801fd963a317f850531f4c029c470cfb487fb2b28b4ce156313c53a676fd"
    )


def test_synth_corpus_bytes_pinned(tmp_path):
    """The criterion-11 corpus file, as written before records became arrays."""
    from gesturegen.cli import main

    out = tmp_path / "corpus.jsonl"
    args = ["synth-corpus", "--sentences", "10", "--seed", "5", "--out", str(out), "--out-dir", str(tmp_path)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7ca985bbd290725053edddc4f90bedbe48e3b82b7fc9aa2c34b5787764d69271"
    )
