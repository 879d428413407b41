import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesturegen import lifting
from gesturegen.autodiff import Tensor
from gesturegen.config import Config
from gesturegen.errors import DegeneratePose, InvalidConfig
from gesturegen.lifting import (
    assemble_pose3d,
    augment_3d,
    augment_draws,
    build_lift_params,
    depth_targets,
    init_lift_params,
    lift_forward,
    lift_mse,
    lift_pass,
    pose2d_to_lift_input,
    project_to_image,
    retarget_track,
    synth_pose3d_corpus,
    train_lift,
)
from gesturegen.pose import NECK, fit_pca, normalize_pose, shoulder_scale
from gesturegen.kinematics import ANGLE_NAMES
from gesturegen.synthesis import TimedPoseTrack
from gesturegen.training import AdamState, _check_finite, adam_step

import tape_oracle as tape
from test_autodiff import _add, _composed_batch_norm, _matmul, _relu, _transpose


def _lift_case(seed, batch):
    """Lift params with every value and running buffer perturbed away from
    its initial value, a (batch, 14) input and (batch, 7) target depths."""
    rng = np.random.default_rng(seed)
    params = init_lift_params(seed=seed % 97)
    params.store.values += rng.normal(0.0, 0.2, size=params.store.values.shape)
    for name, buf in params.running.items():
        buf[...] = rng.uniform(0.5, 1.5, size=buf.shape) if name.startswith("var") else rng.normal(size=buf.shape)
    x = rng.normal(0.3, 1.5, size=(batch, 14))
    return params, x, rng.normal(size=(batch, 7))


def _copy_params(params):
    copy = build_lift_params()
    copy.store.values[...] = params.store.values
    for name, buf in params.running.items():
        copy.running[name][...] = buf
    return copy


def _recorded_step(params, x, targets):
    # The train-mode graph train_lift recorded for each step before the
    # hand-written backward, kept as the reference: per linear layer a
    # matmul by the transposed weight leaf and a bias add, batch
    # normalization (updating the running buffers from the batch
    # statistics) and relu, then the mean squared error. Returns the loss.
    leaves = {name: Tensor(p.value, requires_grad=True, grad=p.grad) for name, p in params.store.items()}
    h = x
    for i in (1, 2):
        h = _add(_matmul(h, _transpose(leaves[f"lift.fc{i}.w"])), leaves[f"lift.fc{i}.b"])
        scale, shift = leaves[f"lift.bn{i}.scale"], leaves[f"lift.bn{i}.shift"]
        h, mu, var = _composed_batch_norm(h, scale, shift, lifting.BN_EPS)
        for stat, value in ((f"mean{i}", mu), (f"var{i}", var)):
            params.running[stat] *= 1.0 - lifting.BN_MOMENTUM
            params.running[stat] += lifting.BN_MOMENTUM * value[0]
        h = _relu(h)
    out = _add(_matmul(h, _transpose(leaves["lift.fc3.w"])), leaves["lift.fc3.b"])
    diff = _add(out, -targets)
    loss = tape.tmean(tape.mul(diff, diff))
    loss.backward()
    return loss.data


class TestLiftForward:
    def test_zero_weights_zero_depths(self):
        params = init_lift_params(seed=0)
        for name, p in params.store.items():
            if name.endswith(".w") or name.endswith(".b") or name.endswith(".shift"):
                p.value[...] = 0.0
        rng = np.random.default_rng(0)
        out = lift_forward(params, rng.normal(size=(5, 14)))
        assert np.array_equal(out, np.zeros((5, 7)))
        out_train = lift_pass(params, rng.normal(size=(5, 14)), train=True)[0]
        assert np.allclose(out_train, 0.0)

    def test_batchnorm_unit_statistics(self):
        # After the first linear layer, train-mode normalization (scale 1,
        # shift 0 at init) must give per-unit mean 0 and variance 1.
        params = init_lift_params(seed=2)
        rng = np.random.default_rng(2)
        # variance well above the 1e-5 epsilon guard keeps its bias < 1e-6
        x = rng.normal(0, 20.0, size=(64, 14)) + 1.5
        _, _, norms = lift_pass(params, x, train=True)
        normalized = norms[0][3]
        assert np.max(np.abs(normalized.mean(axis=0))) < 1e-6
        assert np.max(np.abs(normalized.var(axis=0) - 1.0)) < 1e-6

    def test_running_stats_updated_in_train_only(self):
        params = init_lift_params(seed=3)
        before = params.running["mean1"].copy()
        rng = np.random.default_rng(3)
        lift_forward(params, rng.normal(size=(8, 14)))
        assert np.array_equal(params.running["mean1"], before)
        lift_pass(params, rng.normal(size=(8, 14)) + 2.0, train=True)
        assert not np.array_equal(params.running["mean1"], before)

    def test_eval_batch_size_independent(self):
        params = init_lift_params(seed=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 14))
        full = lift_forward(params, x)
        singles = np.concatenate([lift_forward(params, x[i : i + 1]) for i in range(6)])
        assert np.allclose(full, singles, atol=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(batch=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
    def test_finite_difference_gradients(self, batch, seed):
        """The training step's gradient of every entry of every parameter
        matches central differences of the train-mode loss, except where a
        relu switches between the two probes; the running buffers are
        restored before each loss evaluation."""
        params, x, targets = _lift_case(seed, batch)
        running = {name: buf.copy() for name, buf in params.running.items()}
        params.store.zero_grads()
        lifting._train_step(params, x, targets)

        def loss_and_pattern():
            for name, buf in running.items():
                params.running[name][...] = buf
            out, inputs, _ = lift_pass(params, x, train=True)
            diff = out - targets
            return float(np.mean(diff * diff)), np.concatenate([h > 0.0 for h in inputs[1:]], axis=1)

        _, pattern = loss_and_pattern()
        step, kinked = 1e-6, 0
        flat, grads = params.store.values, params.store.grads
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi, hi_pattern = loss_and_pattern()
            flat[i] = orig - step
            lo, lo_pattern = loss_and_pattern()
            flat[i] = orig
            if not (np.array_equal(hi_pattern, pattern) and np.array_equal(lo_pattern, pattern)):
                kinked += 1  # a relu switches inside the interval: no derivative to compare
                continue
            fd = (hi - lo) / (2 * step)
            assert abs(grads[i] - fd) <= 1e-4 * max(1e-3, abs(grads[i]), abs(fd)), (i, grads[i], fd)
        assert kinked <= flat.size // 100


class TestTrainStep:
    @settings(max_examples=50, deadline=None)
    @given(batch=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
    @example(batch=16, seed=0)
    def test_gradients_bit_equal_to_recorded_graph(self, batch, seed):
        """One hand-written step gives the recorded graph's loss, gradient
        and running-buffer bits, adding into gradients already in the store."""
        params, x, targets = _lift_case(seed, batch)
        reference = _copy_params(params)
        for p in (params, reference):
            p.store.grads[...] = np.random.default_rng(seed).normal(size=p.store.grads.shape)
        assert lifting._train_step(params, x, targets) == _recorded_step(reference, x, targets)
        assert np.array_equal(params.store.grads, reference.store.grads)
        assert np.array_equal(params.store.values, reference.store.values)
        for name, buf in params.running.items():
            assert np.array_equal(buf, reference.running[name]), name

    def test_train_lift_values_pinned(self):
        # sha256 of store.values after this run, recorded while train_lift
        # still recorded each step on the autodiff tape.
        params = train_lift(synth_pose3d_corpus(seed=1, size=50), Config(lift_steps=50, seed=1))
        digest = hashlib.sha256(params.store.values.tobytes()).hexdigest()
        assert digest == "161d30e2d332fba95607940dbda6c1d541c36ed5adedca593d420deba7fc6091"

    def test_train_lift_builds_no_tensor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train_lift built a Tensor")

        monkeypatch.setattr(Tensor, "__init__", refuse)
        params = train_lift(synth_pose3d_corpus(seed=3, size=8), Config(lift_steps=3))
        lift_forward(params, np.zeros((2, 14)))


def _bn_inputs(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.5, 3.0, size=(16, 30))
    scale, shift, weights = rng.normal(size=30), rng.normal(size=30), rng.normal(size=(16, 30))
    return x, scale, shift, weights


def _bn_plain(x, scale, shift, weights):
    # Train-mode batch normalization as the lift step runs it, then the
    # backward of sum(out * weights): (out, mean, variance, [x, scale,
    # shift gradients]).
    stats, norm = lifting._batch_norm_train(x, 1e-5)
    grads = lifting._batch_norm_backward(weights, scale, norm)
    return norm[3] * scale + shift, stats[0], stats[1], list(grads)


class TestBatchNormNode:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_composed_graph(self, seed):
        x, scale, shift, weights = _bn_inputs(seed)
        leaves = [Tensor(v, requires_grad=True) for v in (x, scale, shift)]
        out, mu, var = _composed_batch_norm(*leaves, 1e-5)
        tape.tsum(tape.mul(out, weights)).backward()
        composed = (out.data, mu[0], var[0], [leaf.grad for leaf in leaves])
        plain = _bn_plain(x, scale, shift, weights)
        for a, b in zip(plain[:3], composed[:3]):
            assert np.array_equal(a, b)
        for name, a, b in zip(("x", "scale", "shift"), plain[3], composed[3]):
            assert np.array_equal(a, b), name

    def test_train_mode_finite_differences(self):
        x, scale, shift, weights = _bn_inputs(3)
        _, _, _, grads = _bn_plain(x, scale, shift, weights)
        values = [x, scale, shift]

        def loss_value():
            return float(np.sum(_bn_plain(*values, weights)[0] * weights))

        step = 1e-5
        rng = np.random.default_rng(3)
        for name, value, grad in zip(("x", "scale", "shift"), values, grads):
            flat, gflat = value.reshape(-1), grad.reshape(-1)
            for i in rng.choice(flat.size, size=6, replace=False):
                orig = flat[i]
                flat[i] = orig + step
                hi = loss_value()
                flat[i] = orig - step
                lo = loss_value()
                flat[i] = orig
                fd = (hi - lo) / (2 * step)
                assert abs(gflat[i] - fd) / max(1e-6, abs(gflat[i]), abs(fd)) < 1e-5, (name, i, gflat[i], fd)


def _augment(samples, rng, rot_range=lifting.LIFT_ROT_RANGE, noise_sigma=lifting.LIFT_NOISE_SIGMA):
    # One batch's draws, then its arithmetic, with the augmentation defaults
    # of lift training: what augment_3d did in one call before the split.
    angles, z = np.empty(len(samples)), np.empty(samples.shape)
    augment_draws(rng, angles, z, rot_range)
    return augment_3d(samples, angles, z, noise_sigma)


def _augment_one(sample, rng, noise_sigma, rot_range=np.deg2rad(30.0)):
    # The one-pose augmentation train_lift ran per sample before augment_3d
    # took whole batches, kept as the reference.
    angle = rng.uniform(-rot_range, rot_range)
    c, s = np.cos(angle), np.sin(angle)
    joints = sample @ np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]).T
    if noise_sigma > 0:
        joints = joints + rng.normal(0.0, noise_sigma, size=(8, 3))
    joints = joints - joints[NECK]
    return joints / shoulder_scale(joints)


class TestAugment:
    def test_identity_with_zero_params(self):
        pose = synth_pose3d_corpus(seed=6, size=1)[0]
        out = _augment(pose[None], np.random.default_rng(0), rot_range=0.0, noise_sigma=0.0)[0]
        assert np.max(np.abs(out - pose)) < 1e-12

    def test_rotation_preserves_distances(self):
        pose = synth_pose3d_corpus(seed=7, size=1)[0]
        out = _augment(pose[None], np.random.default_rng(1), rot_range=np.deg2rad(30), noise_sigma=0.0)[0]
        for a in range(8):
            for b in range(a + 1, 8):
                d0 = np.linalg.norm(pose[a] - pose[b])
                d1 = np.linalg.norm(out[a] - out[b])
                assert abs(d0 - d1) < 1e-9

    def test_deterministic(self):
        pose = synth_pose3d_corpus(seed=8, size=1)[0]
        a = _augment(pose[None], np.random.default_rng(9), noise_sigma=0.05)
        b = _augment(pose[None], np.random.default_rng(9), noise_sigma=0.05)
        assert np.array_equal(a, b)

    def test_renormalized(self):
        pose = synth_pose3d_corpus(seed=10, size=1)[0]
        out = _augment(pose[None], np.random.default_rng(2), noise_sigma=0.1)[0]
        assert np.allclose(out[NECK], 0.0)
        assert abs(shoulder_scale(out) - 1.0) < 1e-9

    @pytest.mark.parametrize("noise_sigma", [0.02])
    def test_batch_matches_single_calls(self, noise_sigma):
        poses = synth_pose3d_corpus(seed=11, size=16)
        rngs = [np.random.default_rng(5) for _ in range(3)]
        batch = _augment(poses, rngs[0], noise_sigma=noise_sigma)
        singles = np.concatenate([_augment(poses[i : i + 1], rngs[1], noise_sigma=noise_sigma) for i in range(16)])
        reference = np.stack([_augment_one(p, rngs[2], noise_sigma) for p in poses])
        assert batch.shape == (16, 8, 3)
        assert np.array_equal(batch, singles)
        assert np.array_equal(batch, reference)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state

    @settings(max_examples=20, deadline=None)
    @given(count=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_block_matches_batch_slices(self, count, seed):
        """The arithmetic over a block of poses, flat or as rows of 16 as
        train_lift lays it out, gives the bits of its 16-pose slices."""
        rng, sigma = np.random.default_rng(seed), lifting.LIFT_NOISE_SIGMA
        poses = synth_pose3d_corpus(seed=seed % 97, size=count)
        angles, z = np.empty(count), np.empty(poses.shape)
        augment_draws(rng, angles, z, lifting.LIFT_ROT_RANGE)
        block = augment_3d(poses, angles, z, sigma)
        slices = [augment_3d(poses[i : i + 16], angles[i : i + 16], z[i : i + 16], sigma) for i in range(0, count, 16)]
        assert np.array_equal(block, np.concatenate(slices))
        rows = count // 16
        if rows:
            n = 16 * rows
            blocked = augment_3d(
                poses[:n].reshape(rows, 16, 8, 3),
                angles[:n].reshape(rows, 16),
                z[:n].reshape(rows, 16, 8, 3),
                sigma,
            )
            assert np.array_equal(blocked.reshape(n, 8, 3), block[:n])


class TestSynthCorpus3d:
    def test_size_and_invariants(self):
        poses = synth_pose3d_corpus(seed=11, size=10)
        assert len(poses) == 10
        for p in poses:
            assert np.allclose(p[NECK], 0)
            assert abs(shoulder_scale(p) - 1.0) < 1e-9

    def test_deterministic(self):
        a = synth_pose3d_corpus(seed=12, size=5)
        b = synth_pose3d_corpus(seed=12, size=5)
        assert np.array_equal(a, b)


class TestProjectionBridge:
    def test_round_trip_through_depths(self):
        pose = synth_pose3d_corpus(seed=13, size=1)[0]
        rebuilt = assemble_pose3d(project_to_image(pose), depth_targets(pose))
        assert np.allclose(rebuilt, pose, atol=1e-9)

    def test_degenerate_frame_aborts(self):
        poses = project_to_image(synth_pose3d_corpus(seed=14, size=3))
        poses[1] = 0.0  # shoulders on the neck
        with pytest.raises(DegeneratePose, match="^degenerate shoulders after lifting$"):
            assemble_pose3d(poses, np.zeros((3, 7)))

    def test_input_layout(self):
        pose = synth_pose3d_corpus(seed=14, size=1)[0]
        vec = pose2d_to_lift_input(project_to_image(pose))
        assert vec.shape == (14,)
        assert vec[2] == pose[2, 0]  # l_shoulder x passes through


_B = lifting._LIFT_BLOCK


def _train_lift_per_step(data, cfg):
    # train_lift's loop before it prepared a block of steps' inputs at once,
    # kept as the reference: each step draws its indices, then each pose's
    # angle and noise, and augments and projects its own batch.
    params = init_lift_params(cfg.seed)
    state = AdamState(params.store)
    rng = np.random.default_rng(cfg.seed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(cfg.lift_steps):
            batch = _augment(data[rng.integers(0, len(data), size=lifting.LIFT_BATCH)], rng)
            params.store.zero_grads()
            loss = lifting._train_step(params, pose2d_to_lift_input(project_to_image(batch)), depth_targets(batch))
            _check_finite(params.store, loss, f"step {step}")
            adam_step(params.store, state, lifting.LIFT_LR)
    return params


class TestTrainLift:
    def test_list_of_poses_trains_as_array(self):
        data = synth_pose3d_corpus(seed=18, size=6)
        a = train_lift(list(data), Config(lift_steps=5, seed=2))
        b = train_lift(data, Config(lift_steps=5, seed=2))
        for name, p in a.store.items():
            assert np.array_equal(p.value, b.store[name].value), name

    def test_runs_lift_steps_adam_steps(self, monkeypatch):
        steps = []
        monkeypatch.setattr(lifting, "adam_step", lambda store, state, lr: steps.append(lr))
        train_lift(synth_pose3d_corpus(seed=3, size=4), Config(lift_steps=3))
        assert steps == [lifting.LIFT_LR] * 3

    def test_learnability_beats_zero_predictor(self):
        train_set = synth_pose3d_corpus(seed=15, size=50)
        held_out = synth_pose3d_corpus(seed=16, size=50)
        params = train_lift(train_set, Config(lift_steps=2000, seed=0))
        baseline = float(np.mean(depth_targets(held_out) ** 2))
        model_mse = lift_mse(params, held_out)
        assert model_mse < 0.25 * baseline, (model_mse, baseline)

    @settings(max_examples=15, deadline=None)
    @given(
        steps=st.sampled_from([1, _B - 1, _B, _B + 1, 2 * _B + 3]),
        size=st.integers(1, 40),
        seed=st.integers(0, 9),
    )
    @example(steps=2 * _B + 3, size=40, seed=1)
    def test_blocks_bit_equal_to_per_step_loop(self, steps, size, seed):
        """Preparing a block of steps' inputs at once keeps every draw in
        step order: the values and running buffers are the per-step loop's."""
        data = synth_pose3d_corpus(seed=seed, size=size)
        cfg = Config(lift_steps=steps, seed=seed)
        params, reference = train_lift(data, cfg), _train_lift_per_step(data, cfg)
        assert np.array_equal(params.store.values, reference.store.values)
        for name, buf in params.running.items():
            assert np.array_equal(buf, reference.running[name]), name

    def test_divergence_names_its_global_step(self, monkeypatch):
        calls, step = [], lifting._train_step

        def nan_at_block_step_2(*args):
            calls.append(len(calls))
            loss = step(*args)
            return np.nan if len(calls) == _B + 3 else loss

        monkeypatch.setattr(lifting, "_train_step", nan_at_block_step_2)
        with pytest.raises(InvalidConfig, match=f"^training diverged at step {_B + 2}: non-finite loss$"):
            train_lift(synth_pose3d_corpus(seed=3, size=8), Config(lift_steps=2 * _B + 3))
        assert len(calls) == _B + 3

    def test_eval_deterministic_after_training(self):
        train_set = synth_pose3d_corpus(seed=17, size=20)
        params = train_lift(train_set, Config(lift_steps=50, seed=1))
        x = pose2d_to_lift_input(project_to_image(train_set[:1]))
        assert np.array_equal(lift_forward(params, x), lift_forward(params, x))


def _track_pca():
    rng = np.random.default_rng(19)
    base = np.array(
        [[320, 110], [320, 190], [375, 190], [395, 255], [405, 320], [265, 190], [245, 255], [235, 320]],
        dtype=float,
    )
    poses = [normalize_pose(base + rng.normal(0, 6.0, (8, 2))) for _ in range(40)]
    return fit_pca(poses)


class TestRetarget:
    def test_constant_track_constant_angles(self):
        pca = _track_pca()
        lift = init_lift_params(seed=20)
        frame = np.random.default_rng(20).normal(0, 0.4, 10)
        track = TimedPoseTrack(frames=np.tile(frame, (6, 1)))
        angles = retarget_track(track, pca, lift)
        assert len(angles) == 6
        assert np.allclose(angles.frames, angles.frames[0])

    def test_rowcount_and_framewise_purity(self):
        pca = _track_pca()
        lift = init_lift_params(seed=21)
        rng = np.random.default_rng(21)
        frames = rng.normal(0, 0.4, size=(8, 10))
        track = TimedPoseTrack(frames=frames)
        out = retarget_track(track, pca, lift)
        assert isinstance(out, TimedPoseTrack)
        assert out.frames.shape == (8, 12)
        perm = rng.permutation(8)
        permuted = retarget_track(TimedPoseTrack(frames=frames[perm]), pca, lift)
        assert np.allclose(permuted.frames, out.frames[perm], atol=1e-12)

    def test_limits_clamp_everything(self):
        pca = _track_pca()
        lift = init_lift_params(seed=22)
        rng = np.random.default_rng(22)
        track = TimedPoseTrack(frames=rng.normal(0, 0.5, size=(5, 10)))
        limits = {name: (-0.01, 0.01) for name in ANGLE_NAMES}
        out = retarget_track(track, pca, lift, limits)
        assert np.all(out.frames >= -0.01) and np.all(out.frames <= 0.01)

    def test_head_and_wrist_columns_zero(self):
        pca = _track_pca()
        lift = init_lift_params(seed=23)
        track = TimedPoseTrack(frames=np.random.default_rng(23).normal(0, 0.4, (7, 10)))
        out = retarget_track(track, pca, lift)
        for col in ("head_pitch", "l_wr_yaw", "r_wr_yaw"):
            assert np.all(out.frames[:, ANGLE_NAMES.index(col)] == 0.0)

    def test_pinned_values(self):
        # Output of the per-frame implementation on this input, recorded
        # before retargeting became one array pass over the track.
        rng = np.random.default_rng(40)
        base = np.array(
            [[320, 110], [320, 190], [375, 190], [395, 255], [405, 320], [265, 190], [245, 255], [235, 320]],
            dtype=float,
        )
        pca = fit_pca([normalize_pose(base + rng.normal(0, 6.0, (8, 2))) for _ in range(40)])
        lift = train_lift(synth_pose3d_corpus(seed=41, size=30), Config(lift_steps=50, seed=42))
        track = TimedPoseTrack(frames=rng.normal(0, 0.6, size=(48, 10)))
        limits = {
            "head_pitch": (-0.5, 0.5),
            "head_yaw": (-0.3, 0.3),
            "l_sh_pitch": (-2.0, 0.2),
            "l_sh_roll": (-0.3, 1.3),
            "l_el_roll": (0.0, 1.5),
            "l_el_yaw": (-0.5, 0.5),
            "l_wr_yaw": (-1.8, 1.8),
            "r_sh_pitch": (-2.0, 0.2),
            "r_sh_roll": (-1.3, 0.3),
            "r_el_roll": (0.0, 1.5),
            "r_el_yaw": (-0.5, 0.5),
            "r_wr_yaw": (-1.8, 1.8),
        }
        out = retarget_track(track, pca, lift, limits).frames
        assert out.shape == _PINNED.shape
        assert np.max(np.abs(out - _PINNED)) <= 1e-12


# fmt: off
_PINNED = np.array([
    [0.0, 0.3, -1.100098315030653, -0.17797699730899083, 0.8074035491838092, -0.5, 0.0, -0.11642719966020898, -0.5974239220999235, 0.6660547345495258, -0.5, 0.0],
    [0.0, 0.3, -0.1680105988937266, 0.1038006304406696, 0.42193608482095074, -0.5, 0.0, -0.23945174118492804, -0.8333380730881664, 0.9262722440683596, -0.5, 0.0],
    [0.0, 0.3, -1.3823391520601205, 0.6334836871792081, 1.0791466879720666, 0.5, 0.0, -0.2370184725240336, -0.39512887019547926, 1.4422151888614392, -0.5, 0.0],
    [0.0, -0.05316068256243158, -0.8976228501046815, 0.2400333043436952, 0.7004237171541192, -0.5, 0.0, -0.1318459872098803, 0.3, 1.0142130250010244, 0.5, 0.0],
    [0.0, -0.3, -0.17389096058282377, 0.27021774427847556, 0.5724256872726955, -0.08028006481342971, 0.0, 0.2, -0.6923793478094594, 1.3603452786184715, 0.08378092085301538, 0.0],
    [0.0, 0.3, 0.2, 0.7961951308470685, 1.19758290259601, 0.5, 0.0, 0.15033560064287504, 0.23343403276053049, 1.0787465537107968, 0.5, 0.0],
    [0.0, -0.3, -0.5918692591128006, 0.08736524216923335, 0.5405154939327849, -0.12230799180745042, 0.0, 0.2, -0.840436026127836, 1.1537604860167956, -0.5, 0.0],
    [0.0, 0.11984878526129467, -0.06588851898117588, 0.6910756096449437, 1.045935553620984, 0.4835471124105841, 0.0, 0.11646215336284955, 0.3, 1.5, 0.5, 0.0],
    [0.0, 0.3, -0.689352044404959, 0.40526947312533, 0.2986608806481562, 0.5, 0.0, -0.08427633713629479, -0.2359575156745331, 0.3987246093020326, 0.5, 0.0],
    [0.0, 0.3, -0.9148013534926476, -0.3, 0.9841180344725055, -0.5, 0.0, -0.8652897339646679, 0.2041942268848046, 1.2106881909666525, 0.5, 0.0],
    [0.0, 0.3, -0.7998908450612535, 1.024004271770267, 1.4642461114159708, 0.5, 0.0, -0.1991629257628939, -0.4662952374207707, 1.0488787474075838, -0.5, 0.0],
    [0.0, 0.3, -0.16197482492986007, -0.3, 1.4204138852558172, -0.5, 0.0, -0.12478899375927444, -0.562457937838174, 0.8716740525645887, 0.2304583541993736, 0.0],
    [0.0, -0.3, -0.6739910682596052, 0.10377381458065758, 0.27793207213676313, -0.5, 0.0, -0.15123691225410235, -0.19179347594072868, 0.7482087521136499, -0.5, 0.0],
    [0.0, -0.3, -0.3595466991868798, -0.06483597482342154, 1.5, 0.002386807123773953, 0.0, -0.22616692648291095, -0.8386353783431059, 0.6342391522554813, -0.5, 0.0],
    [0.0, -0.3, -0.8145807782506521, -0.3, 0.4130843274437246, -0.5, 0.0, 0.2, -0.8285131716108618, 1.5, -0.5, 0.0],
    [0.0, 0.3, 0.07392569239906838, -0.3, 1.5, -0.26768921477612767, 0.0, -0.1554687532476563, -0.37128275424210144, 0.8024334539463162, 0.5, 0.0],
    [0.0, -0.3, -0.37506856100464786, 0.42120920296204867, 0.3758537253589014, 0.5, 0.0, -0.013416859737869524, 0.2410988894861931, 0.7979290848737629, 0.5, 0.0],
    [0.0, -0.3, -0.6090219122335071, 0.35606150986185303, 0.4001464211303063, 0.5, 0.0, 0.2, 0.29391145822381803, 0.8095667242578957, -0.1424083290981019, 0.0],
    [0.0, -0.3, -0.8955010656161566, 0.08061985748355494, 0.26460338047887877, -0.5, 0.0, -0.018745142564959568, -0.5649198852701166, 1.5, -0.5, 0.0],
    [0.0, 0.3, -2.0, -0.03856223394753914, 1.5, 0.5, 0.0, -0.08529647187227424, -0.26438973668586424, 1.1860280051702792, -0.5, 0.0],
    [0.0, -0.3, -0.5359550208948516, -0.09181079164650462, 0.5179713535829504, -0.5, 0.0, 0.2, 0.24315799128878296, 0.6508152063617365, 0.4511223695730371, 0.0],
    [0.0, -0.3, -0.5026763617661174, -0.24721766747393709, 0.6779713194688782, -0.5, 0.0, 0.2, -0.9515792087959422, 1.5, 0.5, 0.0],
    [0.0, 0.3, -1.6122519451761936, 0.7185584708442454, 1.190846654910683, 0.5, 0.0, -0.09777186309933804, -0.3898423662652696, 1.4836648860429593, -0.5, 0.0],
    [0.0, 0.3, 0.18053690927965702, 0.46944562959896485, 1.5, 0.04715157683993464, 0.0, -0.11748606389309889, -0.505909836322237, 0.9634042333699775, -0.5, 0.0],
    [0.0, -0.3, -0.7521178216701179, -0.27283969715475936, 0.6361797287147201, -0.5, 0.0, 0.008419993052636436, -0.7781879816136016, 1.5, -0.5, 0.0],
    [0.0, -0.3, -0.8371545527820959, 0.923082615192826, 1.2368963143011862, 0.5, 0.0, 0.2, 0.3, 0.9935694302918187, 0.5, 0.0],
    [0.0, -0.3, -0.5757006425555407, 0.7137865422197627, 1.5, 0.5, 0.0, -2.0, -0.5921566547465894, 1.5, 0.5, 0.0],
    [0.0, -0.3, -0.4944441873552545, 0.7239675947678135, 0.9160887533319004, 0.5, 0.0, 0.009568260992374601, -0.15131233095351382, 0.7922677610494305, -0.5, 0.0],
    [0.0, -0.1940695142339991, 0.11375958718611495, 0.5298379481886525, 1.2401599868079143, 0.13392780618730998, 0.0, 0.036496857326410594, 0.3, 1.1065024098310587, 0.5, 0.0],
    [0.0, -0.3, -0.3257589483667376, 0.33745634371494265, 0.891555680563225, 0.3191677289241173, 0.0, -0.38306163926001113, -0.45743069034355305, 1.5, -0.5, 0.0],
    [0.0, 0.27464437505044714, -0.17020408009017235, -0.013322357252833908, 0.5930839874086459, -0.5, 0.0, 0.008788244558913394, -0.372422035954717, 0.7487628662383895, 0.39626167558707526, 0.0],
    [0.0, -0.3, -1.078990598988059, 0.5660542262285244, 0.8053281105281491, 0.5, 0.0, 0.2, -0.004628275156148182, 0.7146838070870608, -0.2367376098282223, 0.0],
    [0.0, 0.3, 0.2, -0.09704718436893839, 1.0529926863706456, -0.016868596426853892, 0.0, 0.08509132324772638, -0.8330831455245895, 1.5, -0.5, 0.0],
    [0.0, -0.2694570564656351, -2.0, 0.920835377166937, 1.5, 0.5, 0.0, 0.2, -0.1435861632610793, 0.8508353873232357, -0.5, 0.0],
    [0.0, 0.3, 0.011955339776634677, 0.6675317082257207, 1.091730745999282, 0.5, 0.0, -0.15901783389872332, -0.167319971970284, 0.9058125175068727, -0.2439640851951003, 0.0],
    [0.0, -0.3, -0.8052432812255188, -0.283039249733382, 0.6877405866306776, -0.5, 0.0, 0.14165816751078114, -0.7667060936392736, 1.5, -0.5, 0.0],
    [0.0, -0.3, -0.8379621658120977, 0.24777310216915888, 0.05456636693066839, 0.5, 0.0, -0.04002111110510984, -0.8363820887548027, 1.4620898503681852, -0.5, 0.0],
    [0.0, 0.3, -0.26547424340991116, 1.007209500771034, 1.5, 0.5, 0.0, -0.0866768134791281, -0.2025898293888701, 0.2675013884567898, 0.5, 0.0],
    [0.0, -0.3, 0.18460406675945767, 0.24150954934123575, 1.5, 0.10676512000198476, 0.0, 0.10512605479337774, -0.28359412847050497, 1.5, -0.5, 0.0],
    [0.0, -0.3, -0.7910287592133942, 0.876332130017461, 1.0333133880830174, 0.5, 0.0, 0.2, -1.3, 1.5, -0.5, 0.0],
    [0.0, 0.02838739701466398, -0.706586392111173, 0.03503150415637223, 0.35179727716834247, -0.5, 0.0, -0.3778469200771332, -1.3, 1.4581919401645551, -0.5, 0.0],
    [0.0, 0.3, -0.48984772775549945, 0.35788487006735414, 0.6964340329620362, 0.5, 0.0, 0.010067550840176557, 0.3, 1.0526418364658556, 0.5, 0.0],
    [0.0, -0.3, -1.3173365818685125, -0.3, 0.8809124074338877, -0.5, 0.0, 0.2, -0.8264955628660096, 1.2657103634618039, -0.5, 0.0],
    [0.0, 0.3, -0.3223310109977932, 0.4682444033848083, 0.45476938825297003, 0.5, 0.0, 0.1566107741393201, 0.23816658046198602, 1.0732854097468334, 0.5, 0.0],
    [0.0, 0.3, -1.000011651787561, -0.3, 1.1329173457366901, -0.5, 0.0, -0.04782116218631173, 0.3, 1.496074377305786, 0.5, 0.0],
    [0.0, 0.3, -0.37194062664456584, 0.19719851329325624, 0.18198511156014718, -0.5, 0.0, -0.32779595480510854, 0.3, 1.2913724488662668, 0.5, 0.0],
    [0.0, -0.3, -0.16151740783777935, 0.392584925452394, 0.4739564132202104, 0.42492297187081957, 0.0, 0.15574612434148422, -0.07250362523714583, 0.9353403681069133, -0.03199155814395922, 0.0],
    [0.0, 0.239020977469826, -1.1525568171692575, -0.2907502054675155, 1.1721392841610538, -0.5, 0.0, -1.7561735660934552, -0.49951076176532777, 1.3887676138051468, 0.5, 0.0],
])
# fmt: on
