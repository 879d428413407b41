"""2D-to-3D pose lifting and the full retargeting pipeline.

A small fully connected network (14 -> 30 -> 20 -> 7, batch normalization
after the first two layers) predicts a depth for each non-neck joint of a
normalized 2D pose; the neck anchors the torso frame at depth 0.

Axis bridge: 2D poses use image convention (y down), the 3D torso frame
has Y up. Projection of a 3D pose to a 2D training input is (X, -Y); the
predicted depth is the torso-frame Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegeneratePose, InvalidConfig
from .kinematics import JointAngles, LimbLengths, Pose3D, clamp_angles, compute_joint_angles, forward_kinematics
from .model import ParamStore, _xavier, backward
from .pose import NECK, NormalizedPose, decode_pose
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

    def p(param):
        return Tensor(param.value, requires_grad=record, _param=param if record else None)

    h = x
    for i in (1, 2):
        w, b = params.layer(i)
        h = ad.add(ad.matmul(h, ad.transpose(p(w))), p(b))
        scale, shift = params.norm(i)
        h = batch_norm_graph(
            h,
            p(scale),
            p(shift),
            params.running[f"mean{i}"],
            params.running[f"var{i}"],
            train,
            params.bn_momentum,
            params.bn_eps,
        )
        h = ad.relu(h)
    w, b = params.layer(3)
    return ad.add(ad.matmul(h, ad.transpose(p(w))), p(b))


def pose2d_to_lift_input(pose: NormalizedPose) -> np.ndarray:
    """Flatten the 7 non-neck joints (image convention) into 14 values."""
    return pose.joints[NON_NECK].reshape(-1)


def project_to_image(pose: Pose3D) -> NormalizedPose:
    """Drop depth and flip Y into image convention (y down)."""
    flat = np.stack([pose.joints[:, 0], -pose.joints[:, 1]], axis=1)
    return NormalizedPose(flat)


def depth_targets(pose: Pose3D) -> np.ndarray:
    """Torso-frame Z of the 7 non-neck joints."""
    return pose.joints[NON_NECK, 2].copy()


def assemble_pose3d(pose2d: NormalizedPose, depths) -> Pose3D:
    """Combine an image-convention 2D pose with predicted depths into a
    torso-frame 3D pose, rescaled so mean neck-to-shoulder distance is 1."""
    depths = np.asarray(depths, dtype=np.float64)
    if depths.shape != (7,):
        raise InvalidConfig(f"expected 7 depths, got {depths.shape}")
    joints = np.zeros((8, 3))
    joints[:, 0] = pose2d.joints[:, 0]
    joints[:, 1] = -pose2d.joints[:, 1]
    joints[NON_NECK, 2] = depths
    joints -= joints[NECK]
    pose = Pose3D(joints)
    scale = pose.shoulder_scale()
    if scale < 1e-9:
        raise DegeneratePose("degenerate shoulders after lifting")
    return Pose3D(joints / scale)


def lift_forward(params: LiftNetParams, poses, mode: str = "eval"):
    """Depths (7,) for one (14,) lift input, or (B, 7) for a (B, 14) batch.

    Train mode uses batch statistics and needs at least 2 samples; eval
    mode uses running statistics and is batch-size independent.
    """
    if mode not in ("train", "eval"):
        raise InvalidConfig(f"unknown mode: {mode}")
    x = np.asarray(poses, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None]
    if mode == "train" and x.shape[0] < 2:
        raise InvalidConfig("train-mode batch normalization needs at least 2 samples")
    out = lift_forward_graph(params, Tensor(x), train=(mode == "train"), record=False).data
    return out[0] if single else out


def augment_3d(sample: Pose3D, rng, rot_range: float = np.deg2rad(30.0), noise_sigma: float = 0.02) -> Pose3D:
    """Rigid rotation about the vertical axis, then isotropic joint noise,
    then renormalization (neck to origin, mean shoulder distance 1)."""
    angle = rng.uniform(-rot_range, rot_range)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    joints = sample.joints @ rot.T
    if noise_sigma > 0:
        joints = joints + rng.normal(0.0, noise_sigma, size=(8, 3))
    joints = joints - joints[NECK]
    pose = Pose3D(joints)
    return Pose3D(joints / pose.shoulder_scale())


def synth_pose3d_corpus(seed: int, size: int, limbs: LimbLengths = LimbLengths()) -> list[Pose3D]:
    """Parametric sampler over plausible gesture arm configurations pushed
    through forward kinematics.

    Upper arms always point forward of the torso (negative pitch): hands
    stay in front of the body while gesturing, and a frontal 2D view only
    determines depth up to a front/back flip that this constraint removes.
    """
    if size < 1:
        raise InvalidConfig("corpus size must be >= 1")
    rng = np.random.default_rng(seed)
    poses = []
    for _ in range(size):
        angles = JointAngles(
            head_yaw=rng.uniform(-0.6, 0.6),
            l_sh_pitch=rng.uniform(-1.6, -0.1),
            l_sh_roll=rng.uniform(-0.3, 1.4),
            l_el_roll=rng.uniform(0.05, 2.3),
            l_el_yaw=rng.uniform(-1.2, 1.2),
            r_sh_pitch=rng.uniform(-1.6, -0.1),
            r_sh_roll=rng.uniform(-1.4, 0.3),
            r_el_roll=rng.uniform(0.05, 2.3),
            r_el_yaw=rng.uniform(-1.2, 1.2),
        )
        poses.append(forward_kinematics(angles, limbs))
    return poses


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
    if not dataset3d:
        raise InvalidConfig("no 3D poses to train on")
    params = init_lift_params(cfg.seed)
    state = AdamState(params.store)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.steps):
        idx = rng.integers(0, len(dataset3d), size=cfg.batch_size)
        inputs, targets = [], []
        for i in idx:
            aug = augment_3d(dataset3d[i], rng, cfg.rot_range, cfg.noise_sigma)
            inputs.append(pose2d_to_lift_input(project_to_image(aug)))
            targets.append(depth_targets(aug))
        x = Tensor(np.stack(inputs))
        y = np.stack(targets)
        out = lift_forward_graph(params, x, train=True)
        diff = ad.add(out, -y)
        loss = ad.tmean(ad.mul(diff, diff))
        params.store.zero_grads()
        backward(loss)
        adam_step(params.store, state, cfg.lr)
    return params


def lift_mse(params: LiftNetParams, dataset3d) -> float:
    """Eval-mode mean squared depth error over clean projections."""
    x = np.stack([pose2d_to_lift_input(project_to_image(p)) for p in dataset3d])
    y = np.stack([depth_targets(p) for p in dataset3d])
    pred = lift_forward(params, x, mode="eval")
    return float(np.mean((pred - y) ** 2))


def retarget_track(track, pca, lift: LiftNetParams, limits: dict | None = None) -> TimedPoseTrack:
    """Per frame: decode the gesture vector, lift to 3D, solve joint angles,
    clamp to configured limits. Returns a (T, 12) track in ANGLE_NAMES order."""
    poses2d = [decode_pose(pca, row) for row in track.frames]
    if not poses2d:
        return TimedPoseTrack(frames=np.zeros((0, 12)), fps=track.fps)
    x = np.stack([pose2d_to_lift_input(p) for p in poses2d])
    depths = lift_forward(lift, x, mode="eval")
    rows = []
    previous = None
    for pose2d, d in zip(poses2d, depths):
        pose3d = assemble_pose3d(pose2d, d)
        angles = clamp_angles(compute_joint_angles(pose3d, previous), limits)
        previous = angles
        rows.append(angles.to_array())
    return TimedPoseTrack(frames=np.stack(rows), fps=track.fps)
