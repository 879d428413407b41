import numpy as np
import pytest

from gesturegen.errors import DegeneratePose, InvalidConfig
from gesturegen.kinematics import (
    ANGLE_NAMES,
    JointAngles,
    LimbLengths,
    Pose3D,
    clamp_angles,
    compute_joint_angles,
    forward_kinematics,
)
from gesturegen.pose import HEAD, L_ELBOW, L_SHOULDER, L_WRIST, NECK, R_ELBOW, R_SHOULDER, R_WRIST


def _angle_between(a, b):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return np.arctan2(np.linalg.norm(np.cross(a, b)), np.dot(a, b))


def _arm_dirs(pose: Pose3D):
    j = pose.joints
    return (
        j[L_ELBOW] - j[L_SHOULDER],
        j[L_WRIST] - j[L_ELBOW],
        j[R_ELBOW] - j[R_SHOULDER],
        j[R_WRIST] - j[R_ELBOW],
    )


class TestForwardKinematics:
    def test_rest_pose(self):
        pose = forward_kinematics(JointAngles())
        j = pose.joints
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
        pose = forward_kinematics(JointAngles(l_el_roll=np.pi / 2))
        upper, fore, _, _ = _arm_dirs(pose)
        assert abs(np.dot(upper, fore)) < 1e-12

    def test_shoulder_roll_raises_arm_sideways(self):
        pose = forward_kinematics(JointAngles(l_sh_roll=np.pi / 2))
        upper = pose.joints[L_ELBOW] - pose.joints[L_SHOULDER]
        assert np.allclose(upper / np.linalg.norm(upper), [1, 0, 0], atol=1e-12)

    def test_invalid_limbs(self):
        with pytest.raises(InvalidConfig, match="upper_arm must be positive"):
            forward_kinematics(JointAngles(), LimbLengths(upper_arm=0.0))

    def test_normalization_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pose = forward_kinematics(
                JointAngles(
                    l_sh_pitch=rng.uniform(-1.5, 0.5),
                    l_sh_roll=rng.uniform(-0.3, 1.4),
                    l_el_roll=rng.uniform(0.1, 2.0),
                )
            )
            assert np.allclose(pose.joints[NECK], 0)
            assert abs(pose.shoulder_scale() - 1.0) < 1e-9


class TestInverseKinematics:
    def test_rest_pose_zero_angles(self):
        angles = compute_joint_angles(forward_kinematics(JointAngles()))
        assert np.allclose(angles.to_array(), 0.0, atol=1e-12)

    def test_left_arm_straight_out(self):
        # upper arm along +X with the forearm aligned
        joints = forward_kinematics(JointAngles()).joints.copy()
        joints[L_ELBOW] = [2.5, 0.0, 0.0]
        joints[L_WRIST] = [3.8, 0.0, 0.0]
        angles = compute_joint_angles(Pose3D(joints))
        assert abs(angles.l_sh_roll - np.pi / 2) < 1e-9
        assert abs(angles.l_sh_pitch) < 1e-9
        assert abs(angles.l_el_roll) < 1e-9

    def test_head_pitch_and_wrist_yaw_always_zero(self):
        rng = np.random.default_rng(1)
        from gesturegen.lifting import synth_pose3d_corpus

        for pose in synth_pose3d_corpus(seed=2, size=50):
            angles = compute_joint_angles(pose)
            assert angles.head_pitch == 0.0
            assert angles.l_wr_yaw == 0.0
            assert angles.r_wr_yaw == 0.0

    def test_head_yaw_recovered(self):
        for yaw in (-0.5, 0.0, 0.7):
            angles = compute_joint_angles(forward_kinematics(JointAngles(head_yaw=yaw)))
            assert abs(angles.head_yaw - yaw) < 1e-9

    def test_degenerate_arm(self):
        joints = forward_kinematics(JointAngles()).joints.copy()
        joints[L_ELBOW] = joints[L_SHOULDER]
        with pytest.raises(DegeneratePose, match="zero-length upper arm"):
            compute_joint_angles(Pose3D(joints))

    def test_singular_elbow_carries_previous_yaw(self):
        pose = forward_kinematics(JointAngles())  # arms fully extended
        previous = JointAngles(l_el_yaw=0.42, r_el_yaw=-0.1)
        angles = compute_joint_angles(pose, previous)
        assert angles.l_el_yaw == 0.42
        assert angles.r_el_yaw == -0.1
        first = compute_joint_angles(pose)  # no previous frame: yaw 0
        assert first.l_el_yaw == 0.0


class TestRoundTrip:
    def test_fk_ik_arm_directions(self):
        from gesturegen.lifting import synth_pose3d_corpus

        for pose in synth_pose3d_corpus(seed=3, size=1000):
            rebuilt = forward_kinematics(compute_joint_angles(pose))
            for original, recovered in zip(_arm_dirs(pose), _arm_dirs(rebuilt)):
                assert _angle_between(original, recovered) < 1e-6


class TestClamp:
    def test_limits(self):
        angles = JointAngles(l_sh_roll=1.0, r_sh_pitch=-2.0)
        clamped = clamp_angles(angles, {"l_sh_roll": (-0.5, 0.5), "r_sh_pitch": (-0.1, 0.1)})
        assert clamped.l_sh_roll == 0.5
        assert clamped.r_sh_pitch == -0.1

    @pytest.mark.parametrize("bounds", [(1.0,), ("a", "b"), (0.5, -0.5), (0.0, float("nan")), (-float("inf"), 0.0)])
    def test_bad_range_rejected(self, bounds):
        with pytest.raises(InvalidConfig, match="limits for l_sh_roll must be two finite numbers lo <= hi"):
            clamp_angles(JointAngles(), {"l_sh_roll": bounds})

    def test_none_is_identity(self):
        angles = JointAngles(l_sh_roll=1.0)
        assert clamp_angles(angles, None) is angles

    def test_array_round_trip(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=12)
        values[ANGLE_NAMES.index("head_pitch")] = 0.0
        angles = JointAngles.from_array(values)
        assert np.allclose(angles.to_array(), values)
