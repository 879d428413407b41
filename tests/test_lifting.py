import numpy as np
import pytest

from gesturegen import autodiff as ad
from gesturegen.autodiff import Tensor
from gesturegen.errors import InvalidConfig
from gesturegen.lifting import (
    LiftTrainConfig,
    assemble_pose3d,
    augment_3d,
    depth_targets,
    init_lift_params,
    lift_forward,
    lift_forward_graph,
    lift_mse,
    pose2d_to_lift_input,
    project_to_image,
    retarget_track,
    synth_pose3d_corpus,
    train_lift,
)
from gesturegen.model import backward
from gesturegen.pose import NECK, fit_pca, normalize_pose, RawPose
from gesturegen.synthesis import TimedPoseTrack


class TestLiftForward:
    def test_zero_weights_zero_depths(self):
        params = init_lift_params(seed=0)
        for name, p in params.store.items():
            if name.endswith(".w") or name.endswith(".b") or name.endswith(".shift"):
                p.value[...] = 0.0
        rng = np.random.default_rng(0)
        out = lift_forward(params, rng.normal(size=(5, 14)), mode="eval")
        assert np.array_equal(out, np.zeros((5, 7)))
        out_train = lift_forward(params, rng.normal(size=(5, 14)), mode="train")
        assert np.allclose(out_train, 0.0)

    def test_train_mode_needs_batch(self):
        params = init_lift_params(seed=1)
        with pytest.raises(InvalidConfig, match="needs at least 2 samples"):
            lift_forward(params, np.zeros((1, 14)), mode="train")

    def test_batchnorm_unit_statistics(self):
        # After the first linear layer, train-mode normalization (scale 1,
        # shift 0 at init) must give per-unit mean 0 and variance 1.
        params = init_lift_params(seed=2)
        rng = np.random.default_rng(2)
        # variance well above the 1e-5 epsilon guard keeps its bias < 1e-6
        x = rng.normal(0, 20.0, size=(64, 14)) + 1.5
        w, b = params.layer(1)
        pre = x @ w.value.T + b.value
        from gesturegen.lifting import batch_norm_graph

        scale, shift = params.norm(1)
        normalized = batch_norm_graph(
            Tensor(pre),
            Tensor(scale.value),
            Tensor(shift.value),
            params.running["mean1"].copy(),
            params.running["var1"].copy(),
            train=True,
            momentum=0.1,
            eps=1e-5,
        ).data
        assert np.max(np.abs(normalized.mean(axis=0))) < 1e-6
        assert np.max(np.abs(normalized.var(axis=0) - 1.0)) < 1e-6

    def test_running_stats_updated_in_train_only(self):
        params = init_lift_params(seed=3)
        before = params.running["mean1"].copy()
        rng = np.random.default_rng(3)
        lift_forward(params, rng.normal(size=(8, 14)), mode="eval")
        assert np.array_equal(params.running["mean1"], before)
        lift_forward(params, rng.normal(size=(8, 14)) + 2.0, mode="train")
        assert not np.array_equal(params.running["mean1"], before)

    def test_eval_batch_size_independent(self):
        params = init_lift_params(seed=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 14))
        full = lift_forward(params, x, mode="eval")
        singles = np.stack([lift_forward(params, x[i], mode="eval") for i in range(6)])
        assert np.allclose(full, singles, atol=1e-12)

    def test_finite_difference_gradients(self):
        params = init_lift_params(seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 14))
        target = rng.normal(size=(4, 7))

        def loss_value():
            out = lift_forward_graph(params, Tensor(x), train=False, record=False)
            diff = out.data - target
            return float(np.mean(diff * diff))

        out = lift_forward_graph(params, Tensor(x), train=False)
        diff = ad.add(out, -target)
        loss = ad.tmean(ad.mul(diff, diff))
        params.store.zero_grads()
        backward(loss)
        step = 1e-5
        for name, p in params.store.items():
            flat = p.value.reshape(-1)
            grad = p.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + step
                hi = loss_value()
                flat[i] = orig - step
                lo = loss_value()
                flat[i] = orig
                fd = (hi - lo) / (2 * step)
                rel = abs(grad[i] - fd) / max(1e-6, abs(grad[i]), abs(fd))
                assert rel < 1e-4, (name, i, grad[i], fd)


class TestAugment:
    def test_identity_with_zero_params(self):
        pose = synth_pose3d_corpus(seed=6, size=1)[0]
        out = augment_3d(pose, np.random.default_rng(0), rot_range=0.0, noise_sigma=0.0)
        assert np.max(np.abs(out.joints - pose.joints)) < 1e-12

    def test_rotation_preserves_distances(self):
        pose = synth_pose3d_corpus(seed=7, size=1)[0]
        out = augment_3d(pose, np.random.default_rng(1), rot_range=np.deg2rad(30), noise_sigma=0.0)
        for a in range(8):
            for b in range(a + 1, 8):
                d0 = np.linalg.norm(pose.joints[a] - pose.joints[b])
                d1 = np.linalg.norm(out.joints[a] - out.joints[b])
                assert abs(d0 - d1) < 1e-9

    def test_deterministic(self):
        pose = synth_pose3d_corpus(seed=8, size=1)[0]
        a = augment_3d(pose, np.random.default_rng(9), noise_sigma=0.05)
        b = augment_3d(pose, np.random.default_rng(9), noise_sigma=0.05)
        assert np.array_equal(a.joints, b.joints)

    def test_renormalized(self):
        pose = synth_pose3d_corpus(seed=10, size=1)[0]
        out = augment_3d(pose, np.random.default_rng(2), noise_sigma=0.1)
        assert np.allclose(out.joints[NECK], 0.0)
        assert abs(out.shoulder_scale() - 1.0) < 1e-9


class TestSynthCorpus3d:
    def test_size_and_invariants(self):
        poses = synth_pose3d_corpus(seed=11, size=10)
        assert len(poses) == 10
        for p in poses:
            assert np.allclose(p.joints[NECK], 0)
            assert abs(p.shoulder_scale() - 1.0) < 1e-9

    def test_deterministic(self):
        a = synth_pose3d_corpus(seed=12, size=5)
        b = synth_pose3d_corpus(seed=12, size=5)
        assert all(np.array_equal(x.joints, y.joints) for x, y in zip(a, b))


class TestProjectionBridge:
    def test_round_trip_through_depths(self):
        pose = synth_pose3d_corpus(seed=13, size=1)[0]
        rebuilt = assemble_pose3d(project_to_image(pose), depth_targets(pose))
        assert np.allclose(rebuilt.joints, pose.joints, atol=1e-9)

    def test_input_layout(self):
        pose = synth_pose3d_corpus(seed=14, size=1)[0]
        vec = pose2d_to_lift_input(project_to_image(pose))
        assert vec.shape == (14,)
        assert vec[2] == pose.joints[2, 0]  # l_shoulder x passes through


class TestTrainLift:
    def test_empty_dataset(self):
        with pytest.raises(InvalidConfig, match="no 3D poses to train on"):
            train_lift([], LiftTrainConfig(steps=1))

    def test_learnability_beats_zero_predictor(self):
        train_set = synth_pose3d_corpus(seed=15, size=50)
        held_out = synth_pose3d_corpus(seed=16, size=50)
        params = train_lift(train_set, LiftTrainConfig(steps=2000, lr=0.01, batch_size=16, seed=0))
        baseline = float(np.mean(np.stack([depth_targets(p) for p in held_out]) ** 2))
        model_mse = lift_mse(params, held_out)
        assert model_mse < 0.25 * baseline, (model_mse, baseline)

    def test_eval_deterministic_after_training(self):
        train_set = synth_pose3d_corpus(seed=17, size=20)
        params = train_lift(train_set, LiftTrainConfig(steps=50, seed=1))
        x = pose2d_to_lift_input(project_to_image(train_set[0]))
        assert np.array_equal(lift_forward(params, x), lift_forward(params, x))

    def test_clean_training_beats_noisy(self):
        data = synth_pose3d_corpus(seed=18, size=40)
        clean = train_lift(data, LiftTrainConfig(steps=400, noise_sigma=0.0, seed=2))
        noisy = train_lift(data, LiftTrainConfig(steps=400, noise_sigma=0.05, seed=2))
        assert lift_mse(clean, data) < lift_mse(noisy, data)


def _track_pca():
    rng = np.random.default_rng(19)
    base = np.array(
        [[320, 110], [320, 190], [375, 190], [395, 255], [405, 320], [265, 190], [245, 255], [235, 320]],
        dtype=float,
    )
    poses = [normalize_pose(RawPose.complete(base + rng.normal(0, 6.0, (8, 2)))) for _ in range(40)]
    return fit_pca(poses)


class TestRetarget:
    def test_constant_track_constant_angles(self):
        pca = _track_pca()
        lift = init_lift_params(seed=20)
        frame = np.random.default_rng(20).normal(0, 0.4, 10)
        track = TimedPoseTrack(frames=np.tile(frame, (6, 1)), fps=12.0)
        angles = retarget_track(track, pca, lift)
        assert len(angles) == 6
        assert np.allclose(angles.frames, angles.frames[0])

    def test_rowcount_and_framewise_purity(self):
        pca = _track_pca()
        lift = init_lift_params(seed=21)
        rng = np.random.default_rng(21)
        frames = rng.normal(0, 0.4, size=(8, 10))
        track = TimedPoseTrack(frames=frames, fps=12.0)
        out = retarget_track(track, pca, lift)
        assert isinstance(out, TimedPoseTrack) and out.fps == 12.0
        assert out.frames.shape == (8, 12)
        perm = rng.permutation(8)
        permuted = retarget_track(TimedPoseTrack(frames=frames[perm], fps=12.0), pca, lift)
        assert np.allclose(permuted.frames, out.frames[perm], atol=1e-12)

    def test_limits_clamp_everything(self):
        pca = _track_pca()
        lift = init_lift_params(seed=22)
        rng = np.random.default_rng(22)
        track = TimedPoseTrack(frames=rng.normal(0, 0.5, size=(5, 10)), fps=12.0)
        from gesturegen.kinematics import ANGLE_NAMES

        limits = {name: (-0.01, 0.01) for name in ANGLE_NAMES}
        out = retarget_track(track, pca, lift, limits)
        assert np.all(out.frames >= -0.01) and np.all(out.frames <= 0.01)

    def test_head_and_wrist_columns_zero(self):
        pca = _track_pca()
        lift = init_lift_params(seed=23)
        track = TimedPoseTrack(frames=np.random.default_rng(23).normal(0, 0.4, (7, 10)), fps=12.0)
        out = retarget_track(track, pca, lift)
        from gesturegen.kinematics import ANGLE_NAMES

        for col in ("head_pitch", "l_wr_yaw", "r_wr_yaw"):
            assert np.all(out.frames[:, ANGLE_NAMES.index(col)] == 0.0)
