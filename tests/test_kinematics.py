import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gesturegen.errors import DegeneratePose, InvalidConfig
from gesturegen.kinematics import (
    ANGLE_NAMES,
    clamp_angles,
    compute_joint_angles,
    forward_kinematics,
)
from gesturegen.pose import HEAD, L_ELBOW, L_SHOULDER, L_WRIST, NECK, R_ELBOW, R_SHOULDER, R_WRIST, shoulder_scale


def _col(name):
    return ANGLE_NAMES.index(name)


def _angles(**named):
    """(12,) joint angles: the named ones set, the rest 0."""
    values = np.zeros(len(ANGLE_NAMES))
    for name, value in named.items():
        values[_col(name)] = value
    return values


def _angle_between(a, b):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return np.arctan2(np.linalg.norm(np.cross(a, b)), np.dot(a, b))


def _arm_dirs(j):
    return (
        j[L_ELBOW] - j[L_SHOULDER],
        j[L_WRIST] - j[L_ELBOW],
        j[R_ELBOW] - j[R_SHOULDER],
        j[R_WRIST] - j[R_ELBOW],
    )


class TestForwardKinematics:
    def test_rest_pose(self):
        j = forward_kinematics(_angles())
        assert np.allclose(j[NECK], 0)
        assert np.allclose(j[L_SHOULDER], [1, 0, 0])
        assert np.allclose(j[R_SHOULDER], [-1, 0, 0])
        # arms straight down
        assert np.allclose(j[L_ELBOW], [1, -1.5, 0])
        assert np.allclose(j[L_WRIST], [1, -2.8, 0])
        assert np.allclose(j[R_WRIST], [-1, -2.8, 0])
        # nose forward-up
        assert j[HEAD][1] > 0 and j[HEAD][2] > 0 and abs(j[HEAD][0]) < 1e-12

    def test_elbow_bend_perpendicular(self):
        pose = forward_kinematics(_angles(l_el_roll=np.pi / 2))
        upper, fore, _, _ = _arm_dirs(pose)
        assert abs(np.dot(upper, fore)) < 1e-12

    def test_shoulder_roll_raises_arm_sideways(self):
        pose = forward_kinematics(_angles(l_sh_roll=np.pi / 2))
        upper = pose[L_ELBOW] - pose[L_SHOULDER]
        assert np.allclose(upper / np.linalg.norm(upper), [1, 0, 0], atol=1e-12)

    def test_normalization_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pose = forward_kinematics(
                _angles(
                    l_sh_pitch=rng.uniform(-1.5, 0.5),
                    l_sh_roll=rng.uniform(-0.3, 1.4),
                    l_el_roll=rng.uniform(0.1, 2.0),
                )
            )
            assert np.allclose(pose[NECK], 0)
            assert abs(shoulder_scale(pose) - 1.0) < 1e-9


class TestInverseKinematics:
    def test_rest_pose_zero_angles(self):
        angles = compute_joint_angles(forward_kinematics(_angles())[None])
        assert np.allclose(angles, 0.0, atol=1e-12)

    def test_left_arm_straight_out(self):
        # upper arm along +X with the forearm aligned
        joints = forward_kinematics(_angles())
        joints[L_ELBOW] = [2.5, 0.0, 0.0]
        joints[L_WRIST] = [3.8, 0.0, 0.0]
        angles = compute_joint_angles(joints[None])[0]
        assert abs(angles[_col("l_sh_roll")] - np.pi / 2) < 1e-9
        assert abs(angles[_col("l_sh_pitch")]) < 1e-9
        assert abs(angles[_col("l_el_roll")]) < 1e-9

    def test_head_pitch_and_wrist_yaw_always_zero(self):
        from gesturegen.lifting import synth_pose3d_corpus

        angles = compute_joint_angles(synth_pose3d_corpus(seed=2, size=50))
        for name in ("head_pitch", "l_wr_yaw", "r_wr_yaw"):
            assert np.all(angles[:, _col(name)] == 0.0)

    def test_head_yaw_recovered(self):
        for yaw in (-0.5, 0.0, 0.7):
            angles = compute_joint_angles(forward_kinematics(_angles(head_yaw=yaw))[None])[0]
            assert abs(angles[_col("head_yaw")] - yaw) < 1e-9

    def test_degenerate_arm(self):
        joints = forward_kinematics(_angles())
        joints[L_ELBOW] = joints[L_SHOULDER]
        with pytest.raises(DegeneratePose, match="zero-length upper arm"):
            compute_joint_angles(joints[None])

    def test_singular_elbow_carries_previous_yaw(self):
        bent = forward_kinematics(_angles(l_el_roll=0.5, l_el_yaw=0.42, r_el_roll=0.5, r_el_yaw=-0.1))
        straight = forward_kinematics(_angles())  # arms fully extended
        angles = compute_joint_angles(np.stack([bent, straight]))
        assert abs(angles[0, _col("l_el_yaw")] - 0.42) < 1e-12
        assert abs(angles[0, _col("r_el_yaw")] + 0.1) < 1e-12
        assert angles[1, _col("l_el_yaw")] == angles[0, _col("l_el_yaw")]
        assert angles[1, _col("r_el_yaw")] == angles[0, _col("r_el_yaw")]
        first = compute_joint_angles(straight[None])  # no previous frame: yaw 0
        assert first[0, _col("l_el_yaw")] == 0.0

    def test_first_degenerate_frame_names_the_error(self):
        good = forward_kinematics(_angles(l_el_roll=0.5))
        no_forearm = good.copy()
        no_forearm[R_WRIST] = no_forearm[R_ELBOW]
        no_upper = good.copy()
        no_upper[L_ELBOW] = no_upper[L_SHOULDER]
        with pytest.raises(DegeneratePose, match="zero-length forearm"):
            compute_joint_angles(np.stack([good, no_forearm, no_upper]))


class TestRoundTrip:
    def test_fk_ik_arm_directions(self):
        from gesturegen.lifting import synth_pose3d_corpus

        poses = synth_pose3d_corpus(seed=3, size=1000)
        for pose, rebuilt in zip(poses, forward_kinematics(compute_joint_angles(poses))):
            for original, recovered in zip(_arm_dirs(pose), _arm_dirs(rebuilt)):
                assert _angle_between(original, recovered) < 1e-6


# Half-width of the sampled range of each angle (elbow rolls use [0, 2.3]).
_HALF_RANGE = _angles(
    head_yaw=0.6,
    l_sh_pitch=1.5,
    l_sh_roll=1.4,
    l_el_roll=2.3,
    l_el_yaw=1.2,
    r_sh_pitch=1.5,
    r_sh_roll=1.4,
    r_el_roll=2.3,
    r_el_yaw=1.2,
)


@st.composite
def _tracks_with_straight_arms(draw):
    """(T, 12) angle tracks in which some frames of each arm have the elbow
    roll forced to exactly 0 or into [0, 1e-7]."""
    frames = draw(st.integers(min_value=1, max_value=12))
    unit = draw(hnp.arrays(np.float64, (frames, 12), elements=st.floats(-1.0, 1.0)))
    angles = unit * _HALF_RANGE
    for side in "lr":
        col = _col(f"{side}_el_roll")
        angles[:, col] = np.abs(angles[:, col])
        straight = draw(hnp.arrays(bool, frames))
        tiny = draw(hnp.arrays(np.float64, frames, elements=st.one_of(st.just(0.0), st.floats(0.0, 1e-7))))
        angles[straight, col] = tiny[straight]
    return angles


class TestStraightArmSingularity:
    @settings(max_examples=80, deadline=None)
    @given(angles=_tracks_with_straight_arms(), yaw_limits=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2))
    def test_round_trip_and_held_yaw(self, angles, yaw_limits):
        poses = forward_kinematics(angles)
        solved = compute_joint_angles(poses)
        for pose, rebuilt in zip(poses, forward_kinematics(solved)):
            for original, recovered in zip(_arm_dirs(pose), _arm_dirs(rebuilt)):
                assert _angle_between(original, recovered) < 1e-6

        lo, hi = sorted(yaw_limits)
        limits = {name: (-np.pi, np.pi) for name in ANGLE_NAMES}
        limits.update(l_el_yaw=(lo, hi), r_el_yaw=(lo, hi))
        clamped = clamp_angles(solved, limits)
        for side in "lr":
            yaw = clamped[:, _col(f"{side}_el_yaw")]
            # a bend this small leaves the forearm plane numerically undefined
            for t in np.flatnonzero(angles[:, _col(f"{side}_el_roll")] <= 1e-10):
                held = yaw[t - 1] if t > 0 else np.clip(0.0, lo, hi)
                assert yaw[t] == held, (side, t)


class TestClamp:
    def test_limits(self):
        angles = _angles(l_sh_roll=1.0, r_sh_pitch=-2.0)
        clamped = clamp_angles(angles, {"l_sh_roll": (-0.5, 0.5), "r_sh_pitch": (-0.1, 0.1)})
        assert clamped[_col("l_sh_roll")] == 0.5
        assert clamped[_col("r_sh_pitch")] == -0.1

    # a bool is no angle: JSON [false, true] would clip as (0, 1)
    @pytest.mark.parametrize(
        "bounds", [(1.0,), ("a", "b"), (0.5, -0.5), (0.0, float("nan")), (-float("inf"), 0.0), (False, True), (0.0, True)]
    )
    def test_bad_range_rejected(self, bounds):
        with pytest.raises(InvalidConfig, match="limits for l_sh_roll must be two finite numbers lo <= hi"):
            clamp_angles(_angles(), {"l_sh_roll": bounds})

    def test_none_is_identity(self):
        angles = _angles(l_sh_roll=1.0)
        assert clamp_angles(angles, None) is angles

    def test_track_clipped_per_column(self):
        rng = np.random.default_rng(2)
        track = rng.normal(size=(6, 12))
        clamped = clamp_angles(track, {"l_sh_roll": (-0.5, 0.5)})
        col = _col("l_sh_roll")
        assert np.array_equal(clamped[:, col], np.clip(track[:, col], -0.5, 0.5))
        others = [i for i in range(12) if i != col]
        assert np.array_equal(clamped[:, others], track[:, others])
