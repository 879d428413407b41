"""Analytic retargeting between 3D upper-body skeletons and a 12-DoF
humanoid joint configuration, with forward kinematics as the verification
oracle for the inverse computation.

Array layouts (float64): a 3D pose is (..., 8, 3) joint positions in the
torso frame, in pose.JOINT_NAMES order; joint angles are (..., 12) radians
in ANGLE_NAMES order.

Torso frame: origin at the neck, X toward the speaker's left (right
shoulder to left shoulder), Y up, Z = X cross Y (forward). Arms rest
pointing straight down (-Y). Shoulder pitch rotates about the torso X
axis first; shoulder roll rotates about the pitched Z axis. Elbow roll is
the interior bend angle (0 = fully extended); elbow yaw turns the forearm
plane about the upper-arm axis. Head pitch and wrist yaws are fixed at 0
because nothing in an 8-joint skeleton determines them.
"""

from __future__ import annotations

import numpy as np

from .config import finite_number
from .errors import DegeneratePose, InvalidConfig
from .pose import HEAD, L_ELBOW, L_SHOULDER, L_WRIST, NECK, R_ELBOW, R_SHOULDER, R_WRIST, rowdot
from .synthesis import TimedPoseTrack, save_track_csv

ANGLE_NAMES = (
    "head_pitch",
    "head_yaw",
    "l_sh_pitch",
    "l_sh_roll",
    "l_el_roll",
    "l_el_yaw",
    "l_wr_yaw",
    "r_sh_pitch",
    "r_sh_roll",
    "r_el_roll",
    "r_el_yaw",
    "r_wr_yaw",
)

_REST_NOSE = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)  # forward-up at zero yaw
_DOWN = np.array([0.0, -1.0, 0.0])
_HEAD_YAW = ANGLE_NAMES.index("head_yaw")
# Per arm: joints, then the first of its four consecutive angle columns
# (shoulder pitch, shoulder roll, elbow roll, elbow yaw).
_ARMS = (
    (L_SHOULDER, L_ELBOW, L_WRIST, ANGLE_NAMES.index("l_sh_pitch")),
    (R_SHOULDER, R_ELBOW, R_WRIST, ANGLE_NAMES.index("r_sh_pitch")),
)


# Segment lengths in shoulder units: neck-to-shoulder and neck-to-nose are 1,
# which keeps 3D poses normalized.
UPPER_ARM = 1.5
FOREARM = 1.3


def _rot(axis, angle):
    """(..., 3, 3) right-handed rotations by `angle` about coordinate `axis`."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    m = np.zeros(np.shape(angle) + (3, 3))
    m[..., axis, axis] = 1.0
    m[..., i, i] = c
    m[..., j, j] = c
    m[..., i, j] = -s
    m[..., j, i] = s
    return m


def _apply(m, v):
    """Stacked matrix-vector products (..., 3, 3) x (..., 3) -> (..., 3)."""
    return (m @ v[..., None])[..., 0]


def _shoulder_frame(pitch, roll):
    return _rot(0, pitch) @ _rot(2, roll)


def _forearm_local(bend, yaw):
    """Forearm direction in the shoulder frame; (0,-1,0) when extended."""
    sb, cb = np.sin(bend), np.cos(bend)
    sy, cy = np.sin(yaw), np.cos(yaw)
    return np.stack([-sb * sy, -cb, sb * cy], axis=-1)


def forward_kinematics(angles) -> np.ndarray:
    """Joint positions (..., 8, 3) in the torso frame for (..., 12) angles."""
    joints = np.zeros(angles.shape[:-1] + (8, 3))
    joints[..., L_SHOULDER, 0] = 1.0
    joints[..., R_SHOULDER, 0] = -1.0
    joints[..., HEAD, :] = _rot(1, angles[..., _HEAD_YAW]) @ _REST_NOSE
    for shoulder, elbow, wrist, col in _ARMS:
        pitch, roll, bend, yaw = np.moveaxis(angles[..., col : col + 4], -1, 0)
        frame = _shoulder_frame(pitch, roll)
        joints[..., elbow, :] = joints[..., shoulder, :] + UPPER_ARM * (frame @ _DOWN)
        joints[..., wrist, :] = joints[..., elbow, :] + FOREARM * _apply(frame, _forearm_local(bend, yaw))
    return joints


def _hold_last(values, hold):
    """`values` with every entry where `hold` is set replaced by the last
    entry before it that is not held (0 if there is none)."""
    source = np.where(hold, 0, np.arange(1, len(values) + 1))
    return np.concatenate([[0.0], values])[np.maximum.accumulate(source)]


def _solve_arm(u, f):
    """(T, 4) shoulder pitch, shoulder roll, elbow roll and elbow yaw from
    (T, 3) unit upper-arm and forearm directions."""
    roll = np.arcsin(np.clip(u[:, 0], -1.0, 1.0))
    cos_roll = np.sqrt(np.maximum(0.0, 1.0 - u[:, 0] * u[:, 0]))
    pitch = np.where(cos_roll < 1e-9, 0.0, np.arctan2(-u[:, 2], -u[:, 1]))

    normal = np.cross(u, f)
    bend = np.arctan2(np.sqrt(rowdot(normal, normal)), rowdot(u, f))
    f_local = _apply(np.swapaxes(_shoulder_frame(pitch, roll), -1, -2), f)
    straight = np.hypot(f_local[:, 0], f_local[:, 2]) < 1e-9  # forearm plane undefined
    yaw = _hold_last(np.arctan2(-f_local[:, 0], f_local[:, 2]), straight)
    return np.stack([pitch, roll, bend, yaw], axis=1)


def compute_joint_angles(joints) -> np.ndarray:
    """Analytic inverse of forward_kinematics on arm directions and head
    yaw: (T, 8, 3) poses in time order -> (T, 12) angles. At the
    straight-arm singularity the elbow yaw carries over from the last frame
    where that arm was bent (0 before any)."""
    # left upper arm, left forearm, right upper arm, right forearm: the first
    # zero-length segment of the first bad frame, in this order, is reported
    segments = [joints[:, b] - joints[:, a] for s, e, w, _ in _ARMS for a, b in ((s, e), (e, w))]
    lengths = np.stack([np.sqrt(rowdot(v, v)) for v in segments], axis=1)
    short = lengths < 1e-6
    if short.any():
        first_frame = short[np.argmax(short.any(axis=1))]
        raise DegeneratePose(("zero-length upper arm", "zero-length forearm")[np.argmax(first_frame) % 2])

    angles = np.zeros((joints.shape[0], len(ANGLE_NAMES)))
    units = [v / length[:, None] for v, length in zip(segments, lengths.T)]
    for k, (_, _, _, col) in enumerate(_ARMS):
        angles[:, col : col + 4] = _solve_arm(units[2 * k], units[2 * k + 1])
    nose = joints[:, HEAD] - joints[:, NECK]
    flat = np.hypot(nose[:, 0], nose[:, 2]) < 1e-9
    angles[:, _HEAD_YAW] = np.where(flat, 0.0, np.arctan2(nose[:, 0], nose[:, 2]))
    return angles


def _is_range(bounds) -> bool:
    """True for a pair of finite numbers (lo, hi) with lo <= hi (see
    `config.finite_number`)."""
    try:
        lo, hi = bounds
    except (TypeError, ValueError):
        return False
    return finite_number(lo) and finite_number(hi) and lo <= hi


def clamp_angles(angles, limits: dict | None):
    """Clip (..., 12) angles into per-joint (lo, hi) ranges; None means no
    clamping. The limits are checked once per call."""
    if not limits:
        return angles
    lo = np.full(len(ANGLE_NAMES), -np.inf)
    hi = np.full(len(ANGLE_NAMES), np.inf)
    for name, bounds in limits.items():
        if name not in ANGLE_NAMES:
            raise InvalidConfig(f"unknown joint name in limits: {name}")
        if not _is_range(bounds):
            raise InvalidConfig(f"limits for {name} must be two finite numbers lo <= hi, got {bounds!r}")
        col = ANGLE_NAMES.index(name)
        lo[col], hi[col] = bounds
    return np.clip(angles, lo, hi)


def save_angles_csv(track: TimedPoseTrack, path):
    """Joint trajectory CSV: a track CSV whose columns are ANGLE_NAMES."""
    save_track_csv(track, path, ANGLE_NAMES)
