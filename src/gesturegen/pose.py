"""Upper-body pose representation and the low-dimensional gesture space.

Poses are plain float64 arrays of 8 joints in JOINT_NAMES order:
- a 2D pose is (..., 8, 2) in image convention (y down); in a raw
  pixel-space pose an undetected joint is a NaN row; a normalized pose has
  no missing joints, the neck at the origin and mean neck-to-shoulder
  distance 1;
- a 3D pose is (..., 8, 3) in the torso frame (see kinematics.py).
Flattening order is fixed so fitted models and checkpoints stay portable:
head, neck, l_shoulder, l_elbow, l_wrist, r_shoulder, r_elbow, r_wrist,
with x before y (16 values).

normalize_pose, project_pose and encode_pose take one pose or a stack of
them and give the same bits either way.

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


def rowdot(a, b):
    """Dot products over the last axis of stacked vectors. Each is one
    (1, D) @ (D, 1) product, which rounds exactly as np.dot does on a single
    vector, so batched and per-vector results agree bit for bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def shoulder_scale(joints):
    """Mean of the two neck-to-shoulder distances of (..., 8, D) joints
    centred on the neck (the neck row is 0): one `rowdot` of the rows-2-and-5
    slice gives both squared shoulder lengths."""
    shoulders = joints[..., L_SHOULDER : R_SHOULDER + 1 : R_SHOULDER - L_SHOULDER, :]
    lengths = np.sqrt(rowdot(shoulders, shoulders))
    return 0.5 * (lengths[..., 0] + lengths[..., 1])


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


def normalize_pose(joints) -> np.ndarray:
    """(..., 8, 2) poses with the neck translated to the origin and
    rescaled so that the mean neck-to-shoulder distance is exactly 1.

    A joint with a non-finite coordinate (NaN marks an undetected joint) is
    missing; the error names the missing joints of the first such frame.
    """
    if not np.isfinite(joints).all():
        bad = ~np.isfinite(joints).reshape(-1, 8, 2).all(axis=2)
        first = bad[np.flatnonzero(bad.any(axis=1))[0]]
        raise DegeneratePose(f"missing joints: {', '.join(JOINT_NAMES[i] for i in np.flatnonzero(first))}")
    centered = joints - joints[..., NECK : NECK + 1, :]
    scale = shoulder_scale(centered)
    if (scale < 1e-12).any():
        raise DegeneratePose("both shoulders coincide with the neck")
    return centered / scale[..., None, None]


def fit_pca(poses, k: int = GESTURE_DIM) -> PcaModel:
    """Fit the linear gesture basis from (N, 8, 2) normalized poses (or a
    sequence of (8, 2) poses).

    Mean-centered eigendecomposition of the sample covariance. Rows are
    sorted by descending eigenvalue and sign-fixed so the largest-magnitude
    entry of each row is positive, which makes refits bit-comparable.
    Rank-deficient data is fine: trailing variance ratios come out as 0.
    """
    data = np.asarray(poses, dtype=np.float64).reshape(-1, POSE_DIM)
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


def project_pose(model: PcaModel, poses) -> np.ndarray:
    """Raw (unclamped) (..., k) coefficients of (..., 8, 2) poses in the
    fitted basis. One stacked (k, 16) @ (16, 1) product per pose, so a batch
    projects bit for bit as its poses do one at a time."""
    flat = poses.reshape(poses.shape[:-2] + (POSE_DIM,)) - model.mean
    return (model.components @ flat[..., :, None])[..., 0]


def encode_pose(model: PcaModel, poses) -> np.ndarray:
    """Project (..., 8, 2) poses onto the basis, then clamp the
    in-plane-rotation components (1 and 4, 1-based) to [-1, 1]."""
    coeffs = project_pose(model, poses)
    for dim in CLAMPED_COMPONENTS:
        if dim <= coeffs.shape[-1]:
            coeffs[..., dim - 1] = np.clip(coeffs[..., dim - 1], -1.0, 1.0)
    return coeffs


def decode_pose(model: PcaModel, coeffs) -> np.ndarray:
    """Reconstruct (..., 8, 2) poses from (..., k) coefficients:
    mean + components^T @ coeffs.

    Accepts any coefficient values; network outputs are unconstrained.
    """
    if coeffs.shape[-1:] != (model.n_components,):
        raise InvalidConfig(f"expected {model.n_components} coefficients, got {coeffs.shape[-1:]}")
    flat = model.mean + (model.components.T @ coeffs[..., None])[..., 0]
    return flat.reshape(coeffs.shape[:-1] + (8, 2))


def component_sweep(model: PcaModel, dim: int, values) -> np.ndarray:
    """(V, 8, 2) poses obtained by varying a single component (1-based)
    over the V `values` while holding all others at zero."""
    if not 1 <= dim <= model.n_components:
        raise InvalidConfig(f"component {dim} not in [1, {model.n_components}]")
    coeffs = np.zeros((len(values), model.n_components))
    coeffs[:, dim - 1] = values
    return decode_pose(model, coeffs)
