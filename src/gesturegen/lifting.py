"""2D-to-3D pose lifting and the full retargeting pipeline.

A small fully connected network (14 -> 30 -> 20 -> 7, batch normalization
after the first two layers) predicts a depth for each non-neck joint of a
normalized 2D pose; the neck anchors the torso frame at depth 0. One pass
over plain arrays (`lift_pass`) serves both modes: `lift_forward` runs it
in eval mode on the running statistics, and each training step runs it in
train mode on the batch statistics, then adds a hand-written backward's
gradients into the parameter store, so lift training records no autodiff
graph. Its dense layers are the kernels `autodiff._affine` and
`_affine_backward` that the seq2seq model runs on. Training prepares its
16-pose batches a block of steps at a time: it makes each step's draws in
step order (`augment_draws`), then augments and projects the whole block
in one `augment_3d` pass, and each step trains on its rows of the block.

Axis bridge: 2D poses use image convention (y down), the 3D torso frame
has Y up. Projection of a 3D pose to a 2D training input is (X, -Y); the
predicted depth is the torso-frame Z. Poses are arrays laid out as in
pose.py (2D) and kinematics.py (3D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import Config
from .errors import DegeneratePose
from .kinematics import ANGLE_NAMES, _rot, clamp_angles, compute_joint_angles, forward_kinematics
from .model import ParamStore, _xavier
from .pose import NECK, decode_pose, shoulder_scale
from .synthesis import TimedPoseTrack
from .training import AdamState, _check_finite, adam_step

LIFT_INPUT_DIM = 14  # 7 non-neck joints x (x, y)
LIFT_WIDTHS = (30, 20, 7)
NON_NECK = [i for i in range(8) if i != NECK]
LIFT_LR = 0.01  # Adam learning rate of lift training
LIFT_BATCH = 16  # poses per lift training step
LIFT_ROT_RANGE = np.deg2rad(30.0)  # half-range (rad) of lift training's rotation about the vertical axis
LIFT_NOISE_SIGMA = 0.02  # standard deviation of lift training's isotropic joint noise
BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # batch norm's running-statistics update rate and variance guard
_BN_KEEP = 1.0 - BN_MOMENTUM  # share of a running statistic that an update keeps
_LIFT_BLOCK = 64  # training steps whose inputs one augment_3d pass prepares: about 0.6 MB of block arrays

LiftTrainConfig = Config  # bench/workloads.py is its only user; the next benchmark change drops it


@dataclass
class LiftNetParams:
    store: ParamStore
    layers: tuple  # (w, b) of the linear layers fc1, fc2, fc3
    norms: tuple  # (scale, shift, running mean, running var) of the normalizations bn1, bn2
    # the running statistics by checkpoint name, the buffers in ``norms``:
    # state, not parameters, so no gradients
    running: dict = field(default_factory=dict)


def build_lift_params() -> LiftNetParams:
    """The lift net's parameter layout with zero weights and shifts, unit
    scales and fresh running statistics: `init_lift_params` draws the
    weights into it and `load_checkpoint` fills it from a file."""
    sizes = (LIFT_INPUT_DIM,) + LIFT_WIDTHS
    layout = [e for i in (1, 2, 3) for e in ((f"lift.fc{i}.w", (sizes[i], sizes[i - 1])), (f"lift.fc{i}.b", (sizes[i],)))]
    layout += [(f"lift.bn{i}.{kind}", (sizes[i],)) for i in (1, 2) for kind in ("scale", "shift")]
    store = ParamStore(layout)
    layers = tuple((store[f"lift.fc{i}.w"], store[f"lift.fc{i}.b"]) for i in (1, 2, 3))
    running = {f"{kind}{i}": np.full(sizes[i], fill) for i in (1, 2) for kind, fill in (("mean", 0.0), ("var", 1.0))}
    norms = tuple(
        (store[f"lift.bn{i}.scale"], store[f"lift.bn{i}.shift"], running[f"mean{i}"], running[f"var{i}"])
        for i in (1, 2)
    )
    for scale, *_ in norms:
        scale.value[...] = 1.0
    return LiftNetParams(store, layers, norms, running)


def init_lift_params(seed: int = 0) -> LiftNetParams:
    params = build_lift_params()
    rng = np.random.default_rng(seed)
    for w, _ in params.layers:
        _xavier(rng, w.value)
    return params


def _batch_norm_train(pre: np.ndarray, eps: float):
    """Train-mode batch normalization of (B, n) pre-activations with the
    batch statistics: ((mean, population variance), (centered, var + eps,
    inverse std, normalized)); _batch_norm_backward reads the second."""
    inv_n = 1.0 / len(pre)
    mu = np.add.reduce(pre, 0) * inv_n
    centered = pre + mu * -1.0
    var = np.add.reduce(centered * centered, 0) * inv_n
    var_eps = var + eps
    inv_std = np.power(var_eps, -0.5)
    return (mu, var), (centered, var_eps, inv_std, centered * inv_std)


def _batch_norm_backward(g: np.ndarray, scale: np.ndarray, norm):
    """Gradients (input, scale, shift) of train-mode batch normalization
    followed by ``* scale + shift``, from the output gradient g and the
    intermediates _batch_norm_train returned, in the op order of the same
    normalization composed of autodiff graph nodes."""
    centered, var_eps, inv_std, normalized = norm
    g_shift = np.add.reduce(g, 0)
    g_scale = np.add.reduce(g * normalized, 0)
    inv_n = 1.0 / len(g)
    g_norm = g * scale
    g_var = np.add.reduce(g_norm * centered, 0) * -0.5 * np.power(var_eps, -1.5)
    g_sq_c = g_var * inv_n * centered
    g = (g_norm * inv_std + g_sq_c) + g_sq_c
    return g + np.add.reduce(g, 0) * -1.0 * inv_n, g_scale, g_shift


def lift_pass(params: LiftNetParams, x: np.ndarray, train: bool):
    """One pass of the net over a (B, 14) array: (depths (B, 7), the three
    linear layers' inputs, per normalization (centered, var + eps, inverse
    std, normalized)); the training step's backward reads the last two.

    Train mode normalizes with the batch statistics (population variance)
    and updates the running buffers in place; eval mode uses the running
    statistics, so each row's depths are independent of the batch."""
    inputs, norms = [x], []
    for (w, b), (scale, shift, run_mean, run_var) in zip(params.layers, params.norms):
        pre = ad._affine(inputs[-1], w.value.T, b.value)
        if train:
            stats, norm = _batch_norm_train(pre, BN_EPS)
            for buf, stat in zip((run_mean, run_var), stats):
                buf *= _BN_KEEP
                buf += BN_MOMENTUM * stat
        else:
            centered = pre + -run_mean
            inv_std = 1.0 / np.sqrt(run_var + BN_EPS)
            norm = (centered, None, inv_std, centered * inv_std)
        norms.append(norm)
        inputs.append(np.maximum(norm[3] * scale.value + shift.value, 0.0))
    w, b = params.layers[2]
    return ad._affine(inputs[-1], w.value.T, b.value), inputs, norms


def _train_step(params: LiftNetParams, x: np.ndarray, targets: np.ndarray):
    """A train-mode pass on a (B, 14) batch against (B, 7) target depths
    that adds the mean squared error's gradients into ``params.store.grads``
    and returns the loss.

    The backward is written by hand in the op order of the same net
    composed of autodiff graph nodes (the tests' reference), so its
    gradients and running buffers are bit-equal to that graph's."""
    out, inputs, norms = lift_pass(params, x, train=True)
    diff = out + -targets
    inv_size = 1.0 / diff.size
    loss = np.add.reduce(diff * diff, None) * inv_size
    g = diff * inv_size
    g = g + g
    for i in (3, 2, 1):
        w, b = params.layers[i - 1]
        g = ad._affine_backward(g, inputs[i - 1], w.value, w.grad, b.grad, with_dx=i > 1)
        if i == 1:
            return loss
        g = g * (inputs[i - 1] > 0.0)  # through the relu
        scale, shift, _, _ = params.norms[i - 2]
        g, g_scale, g_shift = _batch_norm_backward(g, scale.value, norms[i - 2])
        shift.grad += g_shift
        scale.grad += g_scale


def pose2d_to_lift_input(pose2d) -> np.ndarray:
    """Flatten the 7 non-neck joints (image convention) of (..., 8, 2)
    poses into (..., 14) values."""
    return pose2d[..., NON_NECK, :].reshape(pose2d.shape[:-2] + (LIFT_INPUT_DIM,))


def project_to_image(pose3d) -> np.ndarray:
    """Drop depth and flip Y into image convention (y down)."""
    return np.stack([pose3d[..., 0], -pose3d[..., 1]], axis=-1)


def depth_targets(pose3d) -> np.ndarray:
    """Torso-frame Z (..., 7) of the 7 non-neck joints."""
    return pose3d[..., NON_NECK, 2]


def assemble_pose3d(pose2d, depths) -> np.ndarray:
    """Combine (..., 8, 2) image-convention poses with (..., 7) predicted
    depths into torso-frame (..., 8, 3) poses, rescaled so the mean
    neck-to-shoulder distance is 1."""
    joints = np.zeros(pose2d.shape[:-1] + (3,))
    joints[..., 0] = pose2d[..., 0]
    joints[..., 1] = -pose2d[..., 1]
    joints[..., NON_NECK, 2] = depths
    joints -= joints[..., NECK : NECK + 1, :]
    scale = shoulder_scale(joints)
    if np.any(scale < 1e-9):
        raise DegeneratePose("degenerate shoulders after lifting")
    return joints / scale[..., None, None]


def lift_forward(params: LiftNetParams, poses) -> np.ndarray:
    """Eval-mode depths (B, 7) for a (B, 14) batch of lift inputs."""
    return lift_pass(params, poses, train=False)[0]


def augment_draws(rng, angles: np.ndarray, z: np.ndarray, rot_range: float):
    """Fill the (n,) rotation angles and the (n, 8, 3) standard normal
    joint noise z of n poses, per pose in order: its angle, then its noise,
    so n poses consume ``rng`` exactly as n one-pose calls would. An angle
    is drawn as ``uniform(-r, r)`` computes it, ``-r + (r - -r) * u``: the
    same stream and the same bits."""
    low, span = -rot_range, rot_range - -rot_range
    for i in range(len(angles)):
        angles[i] = low + span * rng.random()
        rng.standard_normal(out=z[i])


def augment_3d(samples, angles, z, noise_sigma: float) -> np.ndarray:
    """Rigid rotation of (..., 8, 3) poses about the vertical axis by their
    (...) angles, then isotropic joint noise, then renormalization (neck to
    origin, mean shoulder distance 1); the angles and standard normals z
    come from `augment_draws`. The noise is scaled as ``normal(0, sigma)``
    does, ``0.0 + sigma * z``. Each pose's result depends on its own inputs
    alone, so a block gives its slices' bits."""
    joints = samples @ np.swapaxes(_rot(1, angles), -1, -2) + (0.0 + noise_sigma * z)
    joints = joints - joints[..., NECK : NECK + 1, :]
    return joints / shoulder_scale(joints)[..., None, None]


# Sampled joint ranges, in draw order; head pitch and wrist yaws stay 0.
_SAMPLED_ANGLES = (
    ("head_yaw", -0.6, 0.6),
    ("l_sh_pitch", -1.6, -0.1),
    ("l_sh_roll", -0.3, 1.4),
    ("l_el_roll", 0.05, 2.3),
    ("l_el_yaw", -1.2, 1.2),
    ("r_sh_pitch", -1.6, -0.1),
    ("r_sh_roll", -1.4, 0.3),
    ("r_el_roll", 0.05, 2.3),
    ("r_el_yaw", -1.2, 1.2),
)


def synth_pose3d_corpus(seed: int, size: int) -> np.ndarray:
    """(size, 8, 3) poses from a parametric sampler over plausible gesture
    arm configurations pushed through forward kinematics.

    Upper arms always point forward of the torso (negative pitch): hands
    stay in front of the body while gesturing, and a frontal 2D view only
    determines depth up to a front/back flip that this constraint removes.
    """
    names, lo, hi = zip(*_SAMPLED_ANGLES)
    draws = np.random.default_rng(seed).uniform(lo, hi, size=(size, len(names)))  # sample by sample
    angles = np.zeros((size, len(ANGLE_NAMES)))
    angles[:, [ANGLE_NAMES.index(n) for n in names]] = draws
    return forward_kinematics(angles)


def train_lift(dataset3d, cfg: Config) -> LiftNetParams:
    """Minimize mean squared depth error over projected, augmented samples
    of (N, 8, 3) poses, for ``cfg.lift_steps`` steps from ``cfg.seed``.

    Each step draws its 16 pose indices, then each pose's angle and noise.
    The inputs of up to _LIFT_BLOCK steps are made at once: a pre-pass makes
    the block's draws in that step order, one `augment_3d` pass augments the
    block's poses, and each step trains on its rows of the projected block,
    so every draw and every bit is that of one step at a time."""
    data = np.asarray(dataset3d, dtype=np.float64)
    params = init_lift_params(cfg.seed)
    state = AdamState(params.store)
    rng = np.random.default_rng(cfg.seed)
    index = np.empty((_LIFT_BLOCK, LIFT_BATCH), dtype=np.int64)
    angles = np.empty((_LIFT_BLOCK, LIFT_BATCH))
    z = np.empty((_LIFT_BLOCK, LIFT_BATCH, 8, 3))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # _check_finite reports these
        for start in range(0, cfg.lift_steps, _LIFT_BLOCK):
            steps = min(_LIFT_BLOCK, cfg.lift_steps - start)
            for s in range(steps):
                index[s] = rng.integers(0, len(data), size=LIFT_BATCH)
                augment_draws(rng, angles[s], z[s], LIFT_ROT_RANGE)
            block = augment_3d(data[index[:steps]], angles[:steps], z[:steps], LIFT_NOISE_SIGMA)
            inputs, targets = pose2d_to_lift_input(project_to_image(block)), depth_targets(block)
            for s in range(steps):
                params.store.zero_grads()
                loss = _train_step(params, inputs[s], targets[s])
                _check_finite(params.store, loss, f"step {start + s}")
                adam_step(params.store, state, LIFT_LR)
    return params


def lift_mse(params: LiftNetParams, dataset3d) -> float:
    """Eval-mode mean squared depth error over clean projections of
    (N, 8, 3) poses."""
    pred = lift_forward(params, pose2d_to_lift_input(project_to_image(dataset3d)))
    return float(np.mean((pred - depth_targets(dataset3d)) ** 2))


def retarget_track(track, pca, lift: LiftNetParams, limits: dict | None = None) -> TimedPoseTrack:
    """Decode the gesture vectors, lift them to 3D, solve joint angles and
    clamp them to the configured limits, each step once over the whole
    track. Returns a (T, 12) track in ANGLE_NAMES order; huge gesture
    vectors overflow into non-finite angles, which the track writer refuses."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # save_track_csv reports these
        poses2d = decode_pose(pca, track.frames)
        depths = lift_forward(lift, pose2d_to_lift_input(poses2d))
        angles = compute_joint_angles(assemble_pose3d(poses2d, depths))
        return TimedPoseTrack(frames=clamp_angles(angles, limits))
