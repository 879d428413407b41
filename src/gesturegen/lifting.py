"""2D-to-3D pose lifting and the full retargeting pipeline.

A small fully connected network (14 -> 30 -> 20 -> 7, batch normalization
after the first two layers) predicts a depth for each non-neck joint of a
normalized 2D pose; the neck anchors the torso frame at depth 0. One pass
over plain arrays (`lift_pass`) serves both modes: `lift_forward` runs it
in eval mode on the running statistics, and each training step runs it in
train mode on the batch statistics, then adds a hand-written backward's
gradients into the parameter store, so lift training records no autodiff
graph. Its dense layers are the kernels `autodiff._affine` and
`_affine_backward` that the seq2seq model runs on. Training draws 16-pose batches and augments each batch with one
augment_3d call.

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
from .errors import DegeneratePose, InvalidConfig
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

LiftTrainConfig = Config  # bench/workloads.py is its only user; the next benchmark change drops it


@dataclass
class LiftNetParams:
    store: ParamStore
    layers: tuple  # (w, b) of the linear layers fc1, fc2, fc3
    norms: tuple  # (scale, shift) of the normalizations bn1, bn2
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    # running statistics are state, not parameters: no gradients
    running: dict = field(default_factory=dict)


def build_lift_params(bn_momentum: float = 0.1, bn_eps: float = 1e-5) -> LiftNetParams:
    """The lift net's parameter layout with zero weights and shifts, unit
    scales and fresh running statistics: `init_lift_params` draws the
    weights into it and `load_checkpoint` fills it from a file."""
    sizes = (LIFT_INPUT_DIM,) + LIFT_WIDTHS
    layout = [e for i in (1, 2, 3) for e in ((f"lift.fc{i}.w", (sizes[i], sizes[i - 1])), (f"lift.fc{i}.b", (sizes[i],)))]
    layout += [(f"lift.bn{i}.{kind}", (sizes[i],)) for i in (1, 2) for kind in ("scale", "shift")]
    store = ParamStore(layout)
    layers = tuple((store[f"lift.fc{i}.w"], store[f"lift.fc{i}.b"]) for i in (1, 2, 3))
    norms = tuple((store[f"lift.bn{i}.scale"], store[f"lift.bn{i}.shift"]) for i in (1, 2))
    params = LiftNetParams(store, layers, norms, bn_momentum=bn_momentum, bn_eps=bn_eps)
    for i, (scale, _) in enumerate(norms, 1):
        scale.value[...] = 1.0
        params.running.update({f"mean{i}": np.zeros(sizes[i]), f"var{i}": np.ones(sizes[i])})
    return params


def init_lift_params(seed: int = 0, bn_momentum: float = 0.1, bn_eps: float = 1e-5) -> LiftNetParams:
    params = build_lift_params(bn_momentum, bn_eps)
    rng = np.random.default_rng(seed)
    for w, _ in params.layers:
        _xavier(rng, w.value)
    return params


def _batch_norm_train(pre: np.ndarray, eps: float):
    """Train-mode batch normalization of (B, n) pre-activations with the
    batch statistics: ((mean, population variance), (centered, var + eps,
    inverse std, normalized)); _batch_norm_backward reads the second."""
    inv_n = 1.0 / len(pre)
    mu = pre.sum(axis=0) * inv_n
    centered = pre + mu * -1.0
    var = (centered * centered).sum(axis=0) * inv_n
    var_eps = var + eps
    inv_std = np.power(var_eps, -0.5)
    return (mu, var), (centered, var_eps, inv_std, centered * inv_std)


def _batch_norm_backward(g: np.ndarray, scale: np.ndarray, norm):
    """Gradients (input, scale, shift) of train-mode batch normalization
    followed by ``* scale + shift``, from the output gradient g and the
    intermediates _batch_norm_train returned, in the op order of the same
    normalization composed of autodiff graph nodes."""
    centered, var_eps, inv_std, normalized = norm
    g_shift = g.sum(axis=0)
    g_scale = (g * normalized).sum(axis=0)
    inv_n = 1.0 / len(g)
    g_norm = g * scale
    g_var = (g_norm * centered).sum(axis=0) * -0.5 * np.power(var_eps, -1.5)
    g_sq_c = g_var * inv_n * centered
    g = (g_norm * inv_std + g_sq_c) + g_sq_c
    return g + g.sum(axis=0) * -1.0 * inv_n, g_scale, g_shift


def lift_pass(params: LiftNetParams, x: np.ndarray, train: bool):
    """One pass of the net over a (B, 14) array: (depths (B, 7), the three
    linear layers' inputs, per normalization (centered, var + eps, inverse
    std, normalized)); the training step's backward reads the last two.

    Train mode normalizes with the batch statistics (population variance)
    and updates the running buffers in place; eval mode uses the running
    statistics, so each row's depths are independent of the batch."""
    inputs, norms = [x], []
    for i, ((w, b), (scale, shift)) in enumerate(zip(params.layers, params.norms), 1):
        run_mean, run_var = params.running[f"mean{i}"], params.running[f"var{i}"]
        pre = ad._affine(inputs[-1], w.value.T, b.value)
        if train:
            stats, norm = _batch_norm_train(pre, params.bn_eps)
            for buf, stat in zip((run_mean, run_var), stats):
                buf *= 1.0 - params.bn_momentum
                buf += params.bn_momentum * stat
        else:
            centered = pre + -run_mean
            inv_std = 1.0 / np.sqrt(run_var + params.bn_eps)
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
    loss = (diff * diff).sum() * (1.0 / diff.size)
    g = diff * (1.0 / diff.size)
    g = g + g
    for i in (3, 2, 1):
        w, b = params.layers[i - 1]
        g = ad._affine_backward(g, inputs[i - 1], w.value, w.grad, b.grad, with_dx=i > 1)
        if i == 1:
            return loss
        g = g * (inputs[i - 1] > 0.0)  # through the relu
        scale, shift = params.norms[i - 2]
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
    depths = np.asarray(depths, dtype=np.float64)
    if depths.shape != pose2d.shape[:-2] + (7,):
        raise InvalidConfig(f"expected {pose2d.shape[:-2] + (7,)} depths, got {depths.shape}")
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
    return lift_pass(params, np.asarray(poses, dtype=np.float64), train=False)[0]


def augment_3d(samples, rng, rot_range: float = np.deg2rad(30.0), noise_sigma: float = 0.02) -> np.ndarray:
    """Rigid rotation of each pose of a (B, 8, 3) batch about the vertical
    axis, then isotropic joint noise, then renormalization (neck to origin,
    mean shoulder distance 1).

    Draws are per pose in batch order (its angle, then its noise), so a
    batch consumes ``rng`` exactly as one call per one-pose slice would. An
    angle is drawn as ``uniform(-r, r)`` computes it, ``-r + (r - -r) * u``,
    and the noise as ``normal(0, sigma)`` does, ``0.0 + sigma * z``, scaled
    once for the batch: the same stream and the same bits."""
    low, span = -rot_range, rot_range - -rot_range
    angles = np.empty(len(samples))
    z = np.empty(samples.shape)
    for i in range(len(samples)):
        angles[i] = low + span * rng.random()
        if noise_sigma > 0:
            rng.standard_normal(out=z[i])
    joints = samples @ np.swapaxes(_rot(1, angles), -1, -2)
    if noise_sigma > 0:
        joints = joints + (0.0 + noise_sigma * z)
    joints = joints - joints[:, NECK : NECK + 1]
    return joints / shoulder_scale(joints)[:, None, None]


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
    of (N, 8, 3) poses, for ``cfg.lift_steps`` steps from ``cfg.seed``."""
    try:
        data = np.asarray(dataset3d, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"3D poses must be an (N, 8, 3) array: {exc}") from None
    if data.size == 0:
        raise InvalidConfig("no 3D poses to train on")
    if data.ndim != 3 or data.shape[1:] != (8, 3):
        raise InvalidConfig(f"3D poses must be an (N, 8, 3) array, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise InvalidConfig("3D poses hold non-finite values")
    params = init_lift_params(cfg.seed)
    state = AdamState(params.store)
    rng = np.random.default_rng(cfg.seed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # _check_finite reports these
        for step in range(cfg.lift_steps):
            batch = augment_3d(data[rng.integers(0, len(data), size=LIFT_BATCH)], rng)
            params.store.zero_grads()
            loss = _train_step(params, pose2d_to_lift_input(project_to_image(batch)), depth_targets(batch))
            _check_finite(params.store, loss, f"step {step}")
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
