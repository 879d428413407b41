"""2D-to-3D pose lifting and the full retargeting pipeline.

A small fully connected network (14 -> 30 -> 20 -> 7, batch normalization
after the first two layers) predicts a depth for each non-neck joint of a
normalized 2D pose; the neck anchors the torso frame at depth 0. Training
draws 16-pose batches, augments each batch with one augment_3d call and
records each train-mode batch normalization as one fused graph node
(autodiff.batch_norm).

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
from .kinematics import ANGLE_NAMES, clamp_angles, compute_joint_angles, forward_kinematics
from .model import ParamStore, _Bag, _xavier, backward
from .pose import NECK, decode_pose, shoulder_scale
from .synthesis import TimedPoseTrack
from .training import AdamState, adam_step

LIFT_INPUT_DIM = 14  # 7 non-neck joints x (x, y)
LIFT_WIDTHS = (30, 20, 7)
NON_NECK = [i for i in range(8) if i != NECK]
LIFT_LR = 0.01  # Adam learning rate of lift training
LIFT_BATCH = 16  # poses per lift training step

LiftTrainConfig = Config  # bench/workloads.py is its only user; the next benchmark change drops it


@dataclass
class LiftNetParams:
    store: ParamStore
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    # running statistics are state, not parameters: no gradients
    running: dict = field(default_factory=dict)

    def layer(self, i):
        return self.store[f"lift.fc{i}.w"], self.store[f"lift.fc{i}.b"]

    def norm(self, i):
        return self.store[f"lift.bn{i}.scale"], self.store[f"lift.bn{i}.shift"]


def build_lift_params(bn_momentum: float = 0.1, bn_eps: float = 1e-5) -> LiftNetParams:
    """The lift net's parameter layout with zero weights and shifts, unit
    scales and fresh running statistics: `init_lift_params` draws the
    weights into it and `load_checkpoint` fills it from a file."""
    sizes = (LIFT_INPUT_DIM,) + LIFT_WIDTHS
    layout = [e for i in (1, 2, 3) for e in ((f"lift.fc{i}.w", (sizes[i], sizes[i - 1])), (f"lift.fc{i}.b", (sizes[i],)))]
    layout += [(f"lift.bn{i}.{kind}", (sizes[i],)) for i in (1, 2) for kind in ("scale", "shift")]
    params = LiftNetParams(store=ParamStore(layout), bn_momentum=bn_momentum, bn_eps=bn_eps)
    for i in (1, 2):
        params.norm(i)[0].value[...] = 1.0
        params.running.update({f"mean{i}": np.zeros(sizes[i]), f"var{i}": np.ones(sizes[i])})
    return params


def init_lift_params(seed: int = 0, bn_momentum: float = 0.1, bn_eps: float = 1e-5) -> LiftNetParams:
    params = build_lift_params(bn_momentum, bn_eps)
    rng = np.random.default_rng(seed)
    for i in (1, 2, 3):
        _xavier(rng, params.layer(i)[0].value)
    return params


def batch_norm_graph(x, scale, shift, run_mean, run_var, train, momentum, eps):
    """Normalize per feature. Train mode uses batch statistics (population
    variance, one fused graph node) and updates the running buffers in
    place; eval mode uses the running statistics as constants."""
    if train:
        out, mu, var = ad.batch_norm(x, scale, shift, eps)
        run_mean *= 1.0 - momentum
        run_mean += momentum * mu[0]
        run_var *= 1.0 - momentum
        run_var += momentum * var[0]
        return out
    inv = 1.0 / np.sqrt(run_var + eps)
    normalized = ad.mul(ad.add(x, -run_mean), inv)
    return ad.add(ad.mul(normalized, scale), shift)


def lift_forward_graph(params: LiftNetParams, x: np.ndarray, train: bool, record: bool = True):
    """x: (B, 14) -> depths (B, 7), a recorded tensor when ``record``, else
    a plain array."""
    bag = _Bag(record)
    h = x
    for i in (1, 2):
        w, b = params.layer(i)
        h = ad.add(ad.matmul(h, bag.T(w)), bag(b))
        scale, shift = params.norm(i)
        h = batch_norm_graph(
            h,
            bag(scale),
            bag(shift),
            params.running[f"mean{i}"],
            params.running[f"var{i}"],
            train,
            params.bn_momentum,
            params.bn_eps,
        )
        h = ad.relu(h)
    w, b = params.layer(3)
    return ad.add(ad.matmul(h, bag.T(w)), bag(b))


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
    """Depths (B, 7) for a (B, 14) batch of lift inputs.

    Eval mode: batch normalization uses the running statistics, so each
    row's depths are independent of the batch size.
    """
    return lift_forward_graph(params, np.asarray(poses, dtype=np.float64), train=False, record=False)


def augment_3d(samples, rng, rot_range: float = np.deg2rad(30.0), noise_sigma: float = 0.02) -> np.ndarray:
    """Rigid rotation of each pose of a (B, 8, 3) batch about the vertical
    axis, then isotropic joint noise, then renormalization (neck to origin,
    mean shoulder distance 1).

    Draws are per pose in batch order (its angle, then its noise), so a
    batch consumes ``rng`` exactly as one call per one-pose slice would."""
    angles = np.empty(len(samples))
    noise = np.empty(samples.shape)
    for i in range(len(samples)):
        angles[i] = rng.uniform(-rot_range, rot_range)
        if noise_sigma > 0:
            noise[i] = rng.normal(0.0, noise_sigma, size=(8, 3))
    c, s = np.cos(angles), np.sin(angles)
    rot = np.zeros((len(samples), 3, 3))
    rot[:, 0, 0] = rot[:, 2, 2] = c
    rot[:, 0, 2] = s
    rot[:, 2, 0] = -s
    rot[:, 1, 1] = 1.0
    joints = samples @ np.swapaxes(rot, -1, -2)
    if noise_sigma > 0:
        joints = joints + noise
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
    for _ in range(cfg.lift_steps):
        batch = augment_3d(data[rng.integers(0, len(data), size=LIFT_BATCH)], rng)
        out = lift_forward_graph(params, pose2d_to_lift_input(project_to_image(batch)), train=True)
        diff = ad.add(out, -depth_targets(batch))
        loss = ad.tmean(ad.mul(diff, diff))
        params.store.zero_grads()
        backward(loss)
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
