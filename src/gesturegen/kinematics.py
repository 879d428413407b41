"""Analytic retargeting between 3D upper-body skeletons and a 12-DoF
humanoid joint configuration, with forward kinematics as the verification
oracle for the inverse computation.

Torso frame: origin at the neck, X toward the speaker's left (right
shoulder to left shoulder), Y up, Z = X cross Y (forward). Arms rest
pointing straight down (-Y). Shoulder pitch rotates about the torso X
axis first; shoulder roll rotates about the pitched Z axis. Elbow roll is
the interior bend angle (0 = fully extended); elbow yaw turns the forearm
plane about the upper-arm axis. Head pitch and wrist yaws are fixed at 0
because nothing in an 8-joint skeleton determines them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePose, InvalidConfig
from .pose import HEAD, L_ELBOW, L_SHOULDER, L_WRIST, NECK, R_ELBOW, R_SHOULDER, R_WRIST
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


@dataclass(frozen=True)
class Pose3D:
    """8 named 3D joints in the torso frame (same joint order as 2D poses).

    Valid instances have the neck at the origin and mean neck-to-shoulder
    distance 1.
    """

    joints: np.ndarray  # (8, 3)

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=np.float64)
        if joints.shape != (8, 3):
            raise InvalidConfig(f"need (8,3) joints, got {joints.shape}")
        object.__setattr__(self, "joints", joints)

    def shoulder_scale(self) -> float:
        neck = self.joints[NECK]
        return 0.5 * (
            np.linalg.norm(self.joints[L_SHOULDER] - neck) + np.linalg.norm(self.joints[R_SHOULDER] - neck)
        )


@dataclass(frozen=True)
class JointAngles:
    """12 humanoid joint angles in radians. head_pitch and the wrist yaws
    are always 0 (set, not computed)."""

    head_pitch: float = 0.0
    head_yaw: float = 0.0
    l_sh_pitch: float = 0.0
    l_sh_roll: float = 0.0
    l_el_roll: float = 0.0
    l_el_yaw: float = 0.0
    l_wr_yaw: float = 0.0
    r_sh_pitch: float = 0.0
    r_sh_roll: float = 0.0
    r_el_roll: float = 0.0
    r_el_yaw: float = 0.0
    r_wr_yaw: float = 0.0

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in ANGLE_NAMES])

    @classmethod
    def from_array(cls, values) -> "JointAngles":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(ANGLE_NAMES),):
            raise InvalidConfig(f"need {len(ANGLE_NAMES)} angles, got {values.shape}")
        return cls(**dict(zip(ANGLE_NAMES, (float(v) for v in values))))


@dataclass(frozen=True)
class LimbLengths:
    """Segment lengths in shoulder units (neck-to-shoulder = 1 keeps the
    Pose3D normalization invariant)."""

    neck_to_shoulder: float = 1.0
    upper_arm: float = 1.5
    forearm: float = 1.3
    neck_to_nose: float = 1.0

    def validate(self):
        for name in ("neck_to_shoulder", "upper_arm", "forearm", "neck_to_nose"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be positive")


def _rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def _rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def _shoulder_frame(pitch, roll):
    return _rot_x(pitch) @ _rot_z(roll)


def _forearm_local(bend, yaw):
    """Forearm direction in the shoulder frame; (0,-1,0) when extended."""
    sb, cb = np.sin(bend), np.cos(bend)
    sy, cy = np.sin(yaw), np.cos(yaw)
    return np.array([-sb * sy, -cb, sb * cy])


def forward_kinematics(angles: JointAngles, limbs: LimbLengths = LimbLengths()) -> Pose3D:
    """Joint positions in the torso frame for the given joint angles."""
    limbs.validate()
    joints = np.zeros((8, 3))
    joints[NECK] = 0.0
    joints[L_SHOULDER] = (limbs.neck_to_shoulder, 0.0, 0.0)
    joints[R_SHOULDER] = (-limbs.neck_to_shoulder, 0.0, 0.0)
    joints[HEAD] = limbs.neck_to_nose * (_rot_y(angles.head_yaw) @ _REST_NOSE)
    for shoulder, elbow, wrist, pitch, roll, bend, yaw in (
        (L_SHOULDER, L_ELBOW, L_WRIST, angles.l_sh_pitch, angles.l_sh_roll, angles.l_el_roll, angles.l_el_yaw),
        (R_SHOULDER, R_ELBOW, R_WRIST, angles.r_sh_pitch, angles.r_sh_roll, angles.r_el_roll, angles.r_el_yaw),
    ):
        frame = _shoulder_frame(pitch, roll)
        upper_dir = frame @ np.array([0.0, -1.0, 0.0])
        joints[elbow] = joints[shoulder] + limbs.upper_arm * upper_dir
        fore_dir = frame @ _forearm_local(bend, yaw)
        joints[wrist] = joints[elbow] + limbs.forearm * fore_dir
    return Pose3D(joints)


def _solve_arm(shoulder, elbow, wrist, prev_yaw):
    upper = elbow - shoulder
    upper_len = np.linalg.norm(upper)
    if upper_len < 1e-6:
        raise DegeneratePose("zero-length upper arm")
    fore = wrist - elbow
    fore_len = np.linalg.norm(fore)
    if fore_len < 1e-6:
        raise DegeneratePose("zero-length forearm")
    u = upper / upper_len
    f = fore / fore_len

    roll = np.arcsin(np.clip(u[0], -1.0, 1.0))
    cos_roll = np.sqrt(max(0.0, 1.0 - u[0] * u[0]))
    pitch = 0.0 if cos_roll < 1e-9 else np.arctan2(-u[2], -u[1])

    bend = np.arctan2(np.linalg.norm(np.cross(u, f)), np.dot(u, f))
    f_local = _shoulder_frame(pitch, roll).T @ f
    planar = np.hypot(f_local[0], f_local[2])
    if planar < 1e-9:
        yaw = prev_yaw  # forearm plane undefined when the arm is straight
    else:
        yaw = np.arctan2(-f_local[0], f_local[2])
    return float(pitch), float(roll), float(bend), float(yaw)


def compute_joint_angles(pose: Pose3D, previous: JointAngles | None = None) -> JointAngles:
    """Analytic inverse of forward_kinematics on arm directions and head
    yaw. At the straight-arm singularity the elbow yaw carries over from
    `previous` (or 0 on a first frame)."""
    joints = pose.joints
    prev_l = previous.l_el_yaw if previous is not None else 0.0
    prev_r = previous.r_el_yaw if previous is not None else 0.0
    l_pitch, l_roll, l_bend, l_yaw = _solve_arm(joints[L_SHOULDER], joints[L_ELBOW], joints[L_WRIST], prev_l)
    r_pitch, r_roll, r_bend, r_yaw = _solve_arm(joints[R_SHOULDER], joints[R_ELBOW], joints[R_WRIST], prev_r)

    nose = joints[HEAD] - joints[NECK]
    head_yaw = 0.0 if np.hypot(nose[0], nose[2]) < 1e-9 else float(np.arctan2(nose[0], nose[2]))

    return JointAngles(
        head_pitch=0.0,
        head_yaw=head_yaw,
        l_sh_pitch=l_pitch,
        l_sh_roll=l_roll,
        l_el_roll=l_bend,
        l_el_yaw=l_yaw,
        l_wr_yaw=0.0,
        r_sh_pitch=r_pitch,
        r_sh_roll=r_roll,
        r_el_roll=r_bend,
        r_el_yaw=r_yaw,
        r_wr_yaw=0.0,
    )


def _is_range(bounds) -> bool:
    """True for a pair of finite numbers (lo, hi) with lo <= hi."""
    try:
        lo, hi = bounds
        return -math.inf < lo <= hi < math.inf  # False for NaN, TypeError for non-numbers
    except (TypeError, ValueError):
        return False


def clamp_angles(angles: JointAngles, limits: dict | None) -> JointAngles:
    """Clamp angles into per-joint (lo, hi) ranges; None means no clamping."""
    if not limits:
        return angles
    updates = {}
    for name, bounds in limits.items():
        if name not in ANGLE_NAMES:
            raise InvalidConfig(f"unknown joint name in limits: {name}")
        if not _is_range(bounds):
            raise InvalidConfig(f"limits for {name} must be two finite numbers lo <= hi, got {bounds!r}")
        lo, hi = bounds
        updates[name] = float(np.clip(getattr(angles, name), lo, hi))
    return replace(angles, **updates)


def save_angles_csv(track: TimedPoseTrack, path):
    """Joint trajectory CSV: a track CSV whose columns are ANGLE_NAMES."""
    save_track_csv(track, path, ANGLE_NAMES)
