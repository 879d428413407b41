"""Upper-body pose representation and the low-dimensional gesture space.

A pose is 8 named 2D joints. Flattening order is fixed so fitted models and
checkpoints stay portable: head, neck, l_shoulder, l_elbow, l_wrist,
r_shoulder, r_elbow, r_wrist, with x before y (16 values).

Gesture vectors are 10-dimensional coefficient vectors in a linear pose
basis fitted from data; components 1 and 4 (1-based) are restrained to
[-1, 1] when encoding because they capture in-plane rotation rather than
gesture content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePose, InvalidConfig

JOINT_NAMES = (
    "head",
    "neck",
    "l_shoulder",
    "l_elbow",
    "l_wrist",
    "r_shoulder",
    "r_elbow",
    "r_wrist",
)
HEAD, NECK, L_SHOULDER, L_ELBOW, L_WRIST, R_SHOULDER, R_ELBOW, R_WRIST = range(8)

POSE_DIM = 16  # 8 joints x (x, y)
GESTURE_DIM = 10
CLAMPED_COMPONENTS = (1, 4)  # 1-based component indices clamped at encode time


@dataclass(frozen=True)
class RawPose:
    """Detected 2D joints in image pixels (y grows downward).

    joints: (8, 2) float array in JOINT_NAMES order.
    present: (8,) bool array, False where the detector produced no joint.
    """

    joints: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=np.float64)
        present = np.asarray(self.present, dtype=bool)
        if joints.shape != (8, 2) or present.shape != (8,):
            raise InvalidConfig(f"raw pose needs (8,2) joints and (8,) flags, got {joints.shape}/{present.shape}")
        if not np.all(np.isfinite(joints[present])):
            raise InvalidConfig("present joints must have finite coordinates")
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "present", present)

    @classmethod
    def complete(cls, joints) -> "RawPose":
        return cls(np.asarray(joints, dtype=np.float64), np.ones(8, dtype=bool))


@dataclass(frozen=True)
class NormalizedPose:
    """Unitless pose with the neck at the origin and mean neck-to-shoulder
    distance 1. Outputs of linear decoding reuse this container even though
    reconstruction does not exactly preserve the shoulder-length constraint.
    """

    joints: np.ndarray

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=np.float64)
        if joints.shape != (8, 2):
            raise InvalidConfig(f"normalized pose needs (8,2) joints, got {joints.shape}")
        object.__setattr__(self, "joints", joints)

    def flatten(self) -> np.ndarray:
        """16-vector in the documented joint order, x before y."""
        return self.joints.reshape(-1).copy()

    @classmethod
    def from_flat(cls, flat) -> "NormalizedPose":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (POSE_DIM,):
            raise InvalidConfig(f"expected {POSE_DIM} values, got {flat.shape}")
        return cls(flat.reshape(8, 2))

    def shoulder_scale(self) -> float:
        """Mean of the two neck-to-shoulder distances."""
        neck = self.joints[NECK]
        left = np.linalg.norm(self.joints[L_SHOULDER] - neck)
        right = np.linalg.norm(self.joints[R_SHOULDER] - neck)
        return 0.5 * (left + right)


@dataclass(frozen=True)
class PcaModel:
    """Linear gesture basis: mean pose, orthonormal component rows sorted by
    descending explained variance, and per-component variance ratios."""

    mean: np.ndarray  # (16,)
    components: np.ndarray  # (k, 16), rows orthonormal
    explained_variance_ratio: np.ndarray  # (k,)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def normalize_pose(raw: RawPose) -> NormalizedPose:
    """Translate the neck to the origin and rescale so that the mean
    neck-to-shoulder distance is exactly 1."""
    if not raw.present.all():
        missing = [JOINT_NAMES[i] for i in np.flatnonzero(~raw.present)]
        raise DegeneratePose(f"missing joints: {', '.join(missing)}")
    centered = raw.joints - raw.joints[NECK]
    scale = 0.5 * (np.linalg.norm(centered[L_SHOULDER]) + np.linalg.norm(centered[R_SHOULDER]))
    if scale < 1e-12:
        raise DegeneratePose("both shoulders coincide with the neck")
    return NormalizedPose(centered / scale)


def fit_pca(poses, k: int = GESTURE_DIM) -> PcaModel:
    """Fit the linear gesture basis from normalized poses.

    Mean-centered eigendecomposition of the sample covariance. Rows are
    sorted by descending eigenvalue and sign-fixed so the largest-magnitude
    entry of each row is positive, which makes refits bit-comparable.
    Rank-deficient data is fine: trailing variance ratios come out as 0.
    """
    if k < 1 or k > POSE_DIM:
        raise InvalidConfig(f"component count must be in [1, {POSE_DIM}], got {k}")
    data = np.stack([p.flatten() for p in poses]) if len(poses) else np.empty((0, POSE_DIM))
    if data.shape[0] < k + 1:
        raise InvalidConfig(f"need at least {k + 1} poses, got {data.shape[0]}")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = np.clip(eigvals[order], 0.0, None)
    rows = eigvecs[:, order].T[:k].copy()
    for row in rows:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    total = eigvals.sum()
    # Constant data leaves only float residue (~1e-30 at unit pose scale)
    # in the covariance; report zero variance rather than ratios of noise.
    if total <= 1e-20:
        ratios = np.zeros(k)
    else:
        ratios = eigvals[:k] / total
    return PcaModel(mean=mean, components=rows, explained_variance_ratio=ratios)


def project_pose(model: PcaModel, pose: NormalizedPose) -> np.ndarray:
    """Raw (unclamped) coefficients of the pose in the fitted basis."""
    return model.components @ (pose.flatten() - model.mean)


def encode_pose(model: PcaModel, pose: NormalizedPose) -> np.ndarray:
    """Project onto the basis, then clamp the in-plane-rotation components
    (1 and 4, 1-based) to [-1, 1]."""
    coeffs = project_pose(model, pose)
    for dim in CLAMPED_COMPONENTS:
        if dim <= coeffs.shape[0]:
            coeffs[dim - 1] = np.clip(coeffs[dim - 1], -1.0, 1.0)
    return coeffs


def decode_pose(model: PcaModel, coeffs) -> NormalizedPose:
    """Reconstruct a pose from coefficients: mean + components^T @ coeffs.

    Accepts any coefficient values; network outputs are unconstrained.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (model.n_components,):
        raise InvalidConfig(f"expected {model.n_components} coefficients, got {coeffs.shape}")
    return NormalizedPose.from_flat(model.mean + model.components.T @ coeffs)


def component_sweep(model: PcaModel, dim: int, values) -> list:
    """Poses obtained by varying a single component (1-based) over `values`
    while holding all others at zero."""
    if not 1 <= dim <= model.n_components:
        raise InvalidConfig(f"component {dim} not in [1, {model.n_components}]")
    poses = []
    for v in values:
        coeffs = np.zeros(model.n_components)
        coeffs[dim - 1] = v
        poses.append(decode_pose(model, coeffs))
    return poses
