"""2D-to-3D pose lifting and the full retargeting pipeline.

A small fully connected network (14 -> 30 -> 20 -> 7, batch normalization
after the first two layers) predicts a depth for each non-neck joint of a
normalized 2D pose; the neck anchors the torso frame at depth 0.

Axis bridge: 2D poses use image convention (y down), the 3D torso frame
has Y up. Projection of a 3D pose to a 2D training input is (X, -Y); the
predicted depth is the torso-frame Z. Poses are arrays laid out as in
pose.py (2D) and kinematics.py (3D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegeneratePose, InvalidConfig
from .kinematics import ANGLE_NAMES, clamp_angles, compute_joint_angles, forward_kinematics
from .model import ParamStore, _Bag, _xavier, backward
from .pose import NECK, decode_pose, shoulder_scale
from .synthesis import TimedPoseTrack
from .training import AdamState, adam_step

LIFT_INPUT_DIM = 14  # 7 non-neck joints x (x, y)
LIFT_WIDTHS = (30, 20, 7)
NON_NECK = [i for i in range(8) if i != NECK]


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


def init_lift_params(seed: int = 0, bn_momentum: float = 0.1, bn_eps: float = 1e-5) -> LiftNetParams:
    rng = np.random.default_rng(seed)
    store = ParamStore()
    sizes = (LIFT_INPUT_DIM,) + LIFT_WIDTHS
    for i in range(3):
        store.register(f"lift.fc{i + 1}.w", _xavier(rng, sizes[i + 1], sizes[i]))
        store.register(f"lift.fc{i + 1}.b", np.zeros(sizes[i + 1]))
    running = {}
    for i, width in enumerate(LIFT_WIDTHS[:2], start=1):
        store.register(f"lift.bn{i}.scale", np.ones(width))
        store.register(f"lift.bn{i}.shift", np.zeros(width))
        running[f"mean{i}"] = np.zeros(width)
        running[f"var{i}"] = np.ones(width)
    return LiftNetParams(store=store, bn_momentum=bn_momentum, bn_eps=bn_eps, running=running)


def batch_norm_graph(x: Tensor, scale: Tensor, shift: Tensor, run_mean, run_var, train, momentum, eps):
    """Normalize per feature. Train mode uses batch statistics (population
    variance) and updates the running buffers in place; eval mode uses the
    running statistics as constants."""
    if train:
        mu = ad.tmean(x, axis=0, keepdims=True)
        centered = ad.add(x, ad.mul(mu, -1.0))
        var = ad.tmean(ad.mul(centered, centered), axis=0, keepdims=True)
        inv_std = ad.power(ad.add(var, eps), -0.5)
        normalized = ad.mul(centered, inv_std)
        run_mean *= 1.0 - momentum
        run_mean += momentum * mu.data[0]
        run_var *= 1.0 - momentum
        run_var += momentum * var.data[0]
    else:
        inv = 1.0 / np.sqrt(run_var + eps)
        normalized = ad.mul(ad.add(x, -run_mean), inv)
    return ad.add(ad.mul(normalized, scale), shift)


def lift_forward_graph(params: LiftNetParams, x: Tensor, train: bool, record: bool = True) -> Tensor:
    """x: (B, 14) -> depths (B, 7)."""
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


def lift_forward(params: LiftNetParams, poses):
    """Depths (7,) for one (14,) lift input, or (B, 7) for a (B, 14) batch.

    Eval mode: batch normalization uses the running statistics, so each
    row's depths are independent of the batch size.
    """
    x = np.asarray(poses, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None]
    out = lift_forward_graph(params, Tensor(x), train=False, record=False).data
    return out[0] if single else out


def augment_3d(sample, rng, rot_range: float = np.deg2rad(30.0), noise_sigma: float = 0.02) -> np.ndarray:
    """Rigid rotation of an (8, 3) pose about the vertical axis, then
    isotropic joint noise, then renormalization (neck to origin, mean
    shoulder distance 1)."""
    angle = rng.uniform(-rot_range, rot_range)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    joints = sample @ rot.T
    if noise_sigma > 0:
        joints = joints + rng.normal(0.0, noise_sigma, size=(8, 3))
    joints = joints - joints[NECK]
    return joints / shoulder_scale(joints)


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
    if size < 1:
        raise InvalidConfig("corpus size must be >= 1")
    names, lo, hi = zip(*_SAMPLED_ANGLES)
    draws = np.random.default_rng(seed).uniform(lo, hi, size=(size, len(names)))  # sample by sample
    angles = np.zeros((size, len(ANGLE_NAMES)))
    angles[:, [ANGLE_NAMES.index(n) for n in names]] = draws
    return forward_kinematics(angles)


@dataclass
class LiftTrainConfig:
    steps: int = 2000
    lr: float = 0.01
    batch_size: int = 16
    rot_range: float = np.deg2rad(30.0)
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 2 or self.lr <= 0:
            raise InvalidConfig("need steps >= 1, batch_size >= 2, lr > 0")


def train_lift(dataset3d, cfg: LiftTrainConfig = LiftTrainConfig()) -> LiftNetParams:
    """Minimize mean squared depth error over projected, augmented samples."""
    if len(dataset3d) == 0:
        raise InvalidConfig("no 3D poses to train on")
    params = init_lift_params(cfg.seed)
    state = AdamState(params.store)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.steps):
        idx = rng.integers(0, len(dataset3d), size=cfg.batch_size)
        batch = np.stack([augment_3d(dataset3d[i], rng, cfg.rot_range, cfg.noise_sigma) for i in idx])
        out = lift_forward_graph(params, Tensor(pose2d_to_lift_input(project_to_image(batch))), train=True)
        diff = ad.add(out, -depth_targets(batch))
        loss = ad.tmean(ad.mul(diff, diff))
        params.store.zero_grads()
        backward(loss)
        adam_step(params.store, state, cfg.lr)
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
