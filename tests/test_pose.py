import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gesturegen.errors import DegeneratePose, InvalidConfig
from gesturegen.pose import (
    CLAMPED_COMPONENTS,
    GESTURE_DIM,
    JOINT_NAMES,
    L_SHOULDER,
    NECK,
    POSE_DIM,
    R_SHOULDER,
    component_sweep,
    decode_pose,
    encode_pose,
    fit_pca,
    normalize_pose,
    project_pose,
    rowdot,
    shoulder_scale,
)


def _raw_with(neck, l_sh, r_sh):
    joints = np.array(
        [
            [neck[0], neck[1] - 80.0],  # head
            neck,
            l_sh,
            [l_sh[0] + 20, l_sh[1] + 60],  # l elbow
            [l_sh[0] + 30, l_sh[1] + 120],  # l wrist
            r_sh,
            [r_sh[0] - 20, r_sh[1] + 60],
            [r_sh[0] - 30, r_sh[1] + 120],
        ],
        dtype=float,
    )
    return joints


def random_normalized(rng):
    """A plausible normalized pose: unit mean shoulder length, neck at 0."""
    raw = _raw_with((0.0, 0.0), (55.0, 2.0), (-53.0, -1.0))
    jitter = rng.normal(0, 8.0, size=(8, 2))
    jitter[NECK] = 0
    return normalize_pose(raw + jitter)


class TestNormalizePose:
    def test_hand_case(self):
        # neck (100,200), shoulders 40 px away on the x axis: scale is 1/40
        raw = _raw_with((100.0, 200.0), (140.0, 200.0), (60.0, 200.0))
        norm = normalize_pose(raw)
        assert np.allclose(norm[NECK], [0.0, 0.0])
        assert np.allclose(norm[L_SHOULDER], [1.0, 0.0])
        assert np.allclose(norm[R_SHOULDER], [-1.0, 0.0])

    def test_idempotent(self):
        raw = _raw_with((100.0, 200.0), (141.0, 196.0), (59.0, 203.0))
        once = normalize_pose(raw)
        twice = normalize_pose(once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_translation_invariance(self):
        raw = _raw_with((100.0, 200.0), (141.0, 196.0), (59.0, 203.0))
        shifted = raw + np.array([7.0, -3.0])
        assert np.allclose(normalize_pose(raw), normalize_pose(shifted), atol=1e-12)

    def test_scale_invariance(self):
        raw = _raw_with((10.0, 20.0), (14.0, 19.0), (6.0, 21.0))
        scaled = raw * 3.7
        a, b = normalize_pose(raw), normalize_pose(scaled)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_shoulder_scale_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pose = random_normalized(rng)
            assert abs(shoulder_scale(pose) - 1.0) < 1e-9

    def test_missing_joint(self):
        raw = _raw_with((0.0, 0.0), (40.0, 0.0), (-40.0, 0.0))
        raw[4] = np.nan
        with pytest.raises(DegeneratePose, match="^missing joints: l_wrist$"):
            normalize_pose(raw)

    def test_degenerate(self):
        joints = np.zeros((8, 2))
        with pytest.raises(DegeneratePose, match="both shoulders coincide with the neck"):
            normalize_pose(joints)


_SKELETON = _raw_with((0.0, 0.0), (40.0, 0.0), (-40.0, 0.0))

# jitter of at most 15 px per coordinate keeps each shoulder off the neck
_JITTER = arrays(
    np.float64, st.tuples(st.integers(1, 12), st.just(8), st.just(2)), elements=st.floats(-15.0, 15.0)
)


def _normalize_reference(joints):
    """normalize_pose's arithmetic before the shoulders were read as one
    slice: each shoulder minus the centred neck, one rowdot per shoulder.
    None where a scale is below 1e-12, which normalize_pose refuses."""
    centered = joints - joints[..., NECK : NECK + 1, :]
    neck = centered[..., NECK, :]
    left = centered[..., L_SHOULDER, :] - neck
    right = centered[..., R_SHOULDER, :] - neck
    scale = 0.5 * (np.sqrt(rowdot(left, left)) + np.sqrt(rowdot(right, right)))
    return None if (scale < 1e-12).any() else centered / scale[..., None, None]


_POSE_SHAPES = st.one_of(st.just((8, 2)), st.tuples(st.integers(1, 6), st.just(8), st.just(2)))


class TestBatchedPose:
    @settings(max_examples=80, deadline=None)
    @given(poses=arrays(np.float64, _POSE_SHAPES, elements=st.floats(-1e6, 1e6)))
    def test_bytes_equal_reference(self, poses):
        """Single poses and (T, 8, 2) stacks of any finite coordinates
        normalize to the reference's bytes, and are refused where its
        scale is degenerate."""
        want = _normalize_reference(poses)
        if want is None:
            with pytest.raises(DegeneratePose, match="^both shoulders coincide with the neck$"):
                normalize_pose(poses)
        else:
            got = normalize_pose(poses)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(jitter=_JITTER)
    def test_batch_equals_stacked_frames(self, fitted, jitter):
        poses = _SKELETON + jitter
        norm = normalize_pose(poses)
        assert np.array_equal(norm, np.stack([normalize_pose(p) for p in poses]))
        for batch in (norm, poses / 40.0):  # raw scale also exercises the clamp
            coeffs = encode_pose(fitted, batch)
            assert np.array_equal(coeffs, np.stack([encode_pose(fitted, p) for p in batch]))

    def test_missing_joint_names_first_bad_frame(self):
        poses = np.tile(_SKELETON, (5, 1, 1))
        poses[2, 4] = np.nan
        poses[3, 6] = np.nan
        with pytest.raises(DegeneratePose, match=f"^missing joints: {JOINT_NAMES[4]}$"):
            normalize_pose(poses)

    def test_degenerate_frame_in_batch(self):
        poses = np.tile(_SKELETON, (5, 1, 1))
        poses[3, [L_SHOULDER, R_SHOULDER]] = poses[3, NECK]
        with pytest.raises(DegeneratePose, match="^both shoulders coincide with the neck$"):
            normalize_pose(poses)


def _svd_oracle(data, k):
    """Independent route: principal directions from the SVD of the centered
    data matrix rather than an eigendecomposition of the covariance."""
    mean = data.mean(axis=0)
    centered = data - mean
    _, singular, rows = np.linalg.svd(centered, full_matrices=True)
    eigvals = np.zeros(data.shape[1])
    eigvals[: singular.shape[0]] = singular**2 / (data.shape[0] - 1)
    rows = rows[:k].copy()
    for row in rows:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return mean, rows, eigvals[:k] / eigvals.sum()


class TestFitPca:
    def test_constant_data(self):
        rng = np.random.default_rng(0)
        pose = random_normalized(rng)
        model = fit_pca([pose] * 20)
        assert np.allclose(model.explained_variance_ratio, 0.0)
        assert np.allclose(model.mean, pose.reshape(-1))

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        direction = rng.normal(size=POSE_DIM)
        direction /= np.linalg.norm(direction)
        base = rng.normal(size=POSE_DIM)
        poses = [(base + t * direction).reshape(8, 2) for t in np.linspace(-2, 2, 30)]
        model = fit_pca(poses)
        assert abs(model.explained_variance_ratio[0] - 1.0) < 1e-9
        assert min(
            np.linalg.norm(model.components[0] - direction), np.linalg.norm(model.components[0] + direction)
        ) < 1e-9

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(2)
        basis = np.linalg.qr(rng.normal(size=(POSE_DIM, POSE_DIM)))[0][:, :10].T
        coeffs = rng.normal(size=(200, 10)) * np.linspace(3.0, 0.3, 10)
        data = rng.normal(size=POSE_DIM) + coeffs @ basis  # exact rank 10
        model = fit_pca([row.reshape(8, 2) for row in data])
        mean_o, rows_o, ratios_o = _svd_oracle(data, 10)
        assert np.allclose(model.mean, mean_o, atol=1e-10)
        assert np.allclose(model.components, rows_o, atol=1e-8)
        assert np.allclose(model.explained_variance_ratio, ratios_o, atol=1e-10)

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(3)
        poses = [random_normalized(rng) for _ in range(60)]
        model = fit_pca(poses)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(GESTURE_DIM))) < 1e-10

    def test_ratio_properties(self):
        rng = np.random.default_rng(5)
        poses = [random_normalized(rng) for _ in range(60)]
        model = fit_pca(poses)
        ratios = model.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-15)
        assert np.all(ratios >= 0)
        assert ratios.sum() <= 1 + 1e-12

    def test_rank_deficient_trailing_ratios(self):
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.normal(size=(POSE_DIM, 6)))[0].T  # rank 6
        data = rng.normal(size=(50, 6)) @ basis
        model = fit_pca([row.reshape(8, 2) for row in data])
        assert np.all(model.explained_variance_ratio[6:] <= 1e-12)

    def test_deterministic_refit(self):
        rng = np.random.default_rng(7)
        poses = [random_normalized(rng) for _ in range(40)]
        a, b = fit_pca(poses), fit_pca(poses)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.mean, b.mean)

    def test_insufficient_data(self):
        rng = np.random.default_rng(8)
        with pytest.raises(InvalidConfig, match="need at least 11 poses, got 10"):
            fit_pca([random_normalized(rng) for _ in range(10)], k=10)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(11)
    return fit_pca([random_normalized(rng) for _ in range(80)])


class TestEncodeDecode:
    def test_mean_encodes_to_zero(self, fitted):
        coeffs = encode_pose(fitted, fitted.mean.reshape(8, 2))
        assert np.max(np.abs(coeffs)) < 1e-10

    def test_zero_decodes_to_mean(self, fitted):
        pose = decode_pose(fitted, np.zeros(GESTURE_DIM))
        assert np.array_equal(pose.reshape(-1), fitted.mean)

    def test_basis_projection(self, fitted):
        pose = (fitted.mean + 0.5 * fitted.components[1]).reshape(8, 2)
        coeffs = encode_pose(fitted, pose)
        expected = np.zeros(GESTURE_DIM)
        expected[1] = 0.5
        assert np.allclose(coeffs, expected, atol=1e-10)

    def test_clamp_on_first_component(self, fitted):
        pose = (fitted.mean + 3.0 * fitted.components[0]).reshape(8, 2)
        coeffs = encode_pose(fitted, pose)
        assert coeffs[0] == 1.0
        raw = project_pose(fitted, pose)
        assert abs(raw[0] - 3.0) < 1e-9

    def test_clamped_components_in_range(self, fitted):
        rng = np.random.default_rng(12)
        for _ in range(100):
            coeffs = encode_pose(fitted, rng.normal(0, 3, POSE_DIM).reshape(8, 2))
            for dim in CLAMPED_COMPONENTS:
                assert -1.0 <= coeffs[dim - 1] <= 1.0

    def test_round_trip_in_span(self, fitted):
        rng = np.random.default_rng(13)
        for _ in range(50):
            coeffs = rng.uniform(-0.9, 0.9, GESTURE_DIM)
            pose = decode_pose(fitted, coeffs)
            back = encode_pose(fitted, pose)
            assert np.allclose(back, coeffs, atol=1e-8)
            again = decode_pose(fitted, back)
            assert np.allclose(again.reshape(-1), pose.reshape(-1), atol=1e-8)

    def test_unit_coefficient_decodes_to_component(self, fitted):
        coeffs = np.zeros(GESTURE_DIM)
        coeffs[4] = 1.0
        pose = decode_pose(fitted, coeffs)
        assert np.allclose(pose.reshape(-1), fitted.mean + fitted.components[4], atol=1e-12)

    def test_projection_optimality(self, fitted):
        rng = np.random.default_rng(14)
        pose = rng.normal(0, 1.5, POSE_DIM).reshape(8, 2)
        best = decode_pose(fitted, project_pose(fitted, pose))
        best_err = np.linalg.norm(best.reshape(-1) - pose.reshape(-1))
        for _ in range(1000):
            w = rng.normal(0, 2.0, GESTURE_DIM)
            err = np.linalg.norm(decode_pose(fitted, w).reshape(-1) - pose.reshape(-1))
            assert best_err <= err + 1e-9


class TestComponentSweep:
    def test_single_zero_value(self, fitted):
        poses = component_sweep(fitted, 2, [0.0])
        assert len(poses) == 1
        assert np.array_equal(poses[0].reshape(-1), fitted.mean)

    def test_collinear(self, fitted):
        a, b, c = (p.reshape(-1) for p in component_sweep(fitted, 2, [-1.0, 0.0, 1.0]))
        assert np.allclose(b - a, c - b, atol=1e-12)

    def test_out_of_range(self, fitted):
        with pytest.raises(InvalidConfig, match=r"component 11 not in \[1, "):
            component_sweep(fitted, 11, [0.0])
        with pytest.raises(InvalidConfig, match=r"component 0 not in \[1, "):
            component_sweep(fitted, 0, [0.0])
