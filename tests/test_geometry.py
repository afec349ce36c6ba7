import math
import pickle

import numpy as np
import pytest

from egonav.errors import InvalidArgumentError
from egonav.geometry import (FORWARD_AXES, Pose2, VelocityCommand, ground_poses,
                             require_yaw, to_frame_rows, wrap, yaw_quaternion)

from oracles import compose, ground_pose, rollout, step

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the property tests below are skipped without it
    st = None


def reference_to_frame(reference, target):
    """``to_frame_rows`` written out for one pose, which the row form must equal."""
    dx = target.x - reference.x
    dy = target.y - reference.y
    c, s = math.cos(reference.theta), math.sin(reference.theta)
    return Pose2(c * dx + s * dy, -s * dx + c * dy,
                 wrap(target.theta - reference.theta))


def hex_pose(p):
    return tuple(float.hex(float(c)) for c in p)


class TestWrap:
    def test_identity(self):
        assert wrap(0.0) == 0.0

    def test_three_half_pi(self):
        assert wrap(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_boundary_convention(self):
        # (-pi, pi]: -pi maps to +pi
        assert wrap(-math.pi) == math.pi
        assert wrap(math.pi) == math.pi

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_periodicity(self, k):
        rng = np.random.default_rng(17)
        for theta in rng.uniform(-math.pi, math.pi, 50):
            assert wrap(theta + 2 * math.pi * k) == pytest.approx(
                wrap(theta), abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            wrap(float("nan"))
        with pytest.raises(InvalidArgumentError):
            wrap(float("inf"))


class TestPose2:
    def test_fields_are_read_only(self):
        p = Pose2(1.0, 2.0, 0.5)
        for name in ("x", "y", "theta"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0.0)

    def test_unpacks_as_x_y_theta(self):
        x, y, theta = Pose2(1.0, 2.0, 0.5)
        assert (x, y, theta) == (1.0, 2.0, 0.5)

    def test_equals_plain_tuple(self):
        assert Pose2(1.0, 2.0, 0.5) == (1.0, 2.0, 0.5)

    def test_normalized_wraps_yaw(self):
        p = Pose2(1.0, 2.0, 3 * math.pi / 2).normalized()
        assert type(p) is Pose2
        assert (p.x, p.y) == (1.0, 2.0)
        assert p.theta == wrap(3 * math.pi / 2)

    def test_pickle_round_trip(self):
        p = Pose2(0.1, -0.2, 3.0)
        q = pickle.loads(pickle.dumps(p))
        assert type(q) is Pose2 and q == p


class TestVelocityCommand:
    def test_equals_plain_tuple(self):
        assert VelocityCommand(0.5, -1.25) == (0.5, -1.25)
        assert np.array([VelocityCommand(0.5, -1.25)]).tolist() == [[0.5, -1.25]]

    def test_pickle_round_trip(self):
        c = VelocityCommand(0.5, -1.25)
        d = pickle.loads(pickle.dumps(c))
        assert type(d) is VelocityCommand and d == c == (0.5, -1.25)

    def test_as_dict_names_v_and_omega(self):
        assert VelocityCommand(0.5, -1.25)._asdict() == {"v": 0.5, "omega": -1.25}


class TestStep:
    def test_straight(self):
        p = step(Pose2(0, 0, 0), VelocityCommand(1, 0), 0.16)
        assert (p.x, p.y, p.theta) == (0.16, 0.0, 0.0)

    def test_straight_rotated(self):
        p = step(Pose2(0, 0, math.pi / 2), VelocityCommand(1, 0), 0.16)
        assert p.x == pytest.approx(0.0, abs=1e-16)
        assert p.y == pytest.approx(0.16, abs=1e-16)
        assert p.theta == math.pi / 2

    def test_pure_rotation(self):
        p = step(Pose2(0, 0, 0), VelocityCommand(0, math.pi), 0.16)
        assert (p.x, p.y) == (0.0, 0.0)
        assert p.theta == pytest.approx(0.16 * math.pi)

    def test_bad_dt(self):
        with pytest.raises(InvalidArgumentError):
            step(Pose2(0, 0, 0), VelocityCommand(1, 0), 0.0)

    def test_bit_stable(self):
        a = step(Pose2(0.3, -0.2, 1.1), VelocityCommand(0.7, -0.4), 0.16)
        b = step(Pose2(0.3, -0.2, 1.1), VelocityCommand(0.7, -0.4), 0.16)
        assert (a.x, a.y, a.theta) == (b.x, b.y, b.theta)


class TestRollout:
    def test_repeated_straight(self):
        poses = rollout(Pose2(0, 0, 0), [VelocityCommand(1, 0)] * 2, 0.16)
        assert [(p.x, p.y, p.theta) for p in poses] == [
            (0.16, 0.0, 0.0), (0.32, 0.0, 0.0)]

    def test_zero_commands(self):
        poses = rollout(Pose2(1, 2, 0.5), [VelocityCommand(0, 0)] * 5, 0.16)
        assert all((p.x, p.y, p.theta) == (1, 2, 0.5) for p in poses)

    def test_matches_independent_recursion(self):
        # frozen output of a separately hand-iterated Euler recursion
        expected = [
            (0.16, 0.0, 0.25132741228718347),
            (0.31497330578058097, 0.03979038194637677, 0.5026548245743669),
            (0.45518237458759914, 0.11687096980265123, 0.7539822368615504),
            (0.571817354975025, 0.22639850675124143, 1.0053096491487339),
        ]
        poses = rollout(Pose2(0, 0, 0),
                        [VelocityCommand(1, math.pi / 2)] * 4, 0.16)
        for p, (ex, ey, eth) in zip(poses, expected):
            assert p.x == pytest.approx(ex, abs=1e-15)
            assert p.y == pytest.approx(ey, abs=1e-15)
            assert p.theta == pytest.approx(eth, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rollout(Pose2(0, 0, 0), [], 0.16)

    def test_zero_omega_collinear(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            th = rng.uniform(-math.pi, math.pi)
            start = Pose2(rng.uniform(-1, 1), rng.uniform(-1, 1), th)
            cmds = [VelocityCommand(v, 0.0) for v in rng.uniform(-1, 1, 8)]
            for p in rollout(start, cmds, 0.16):
                cross = (-math.sin(th) * (p.x - start.x)
                         + math.cos(th) * (p.y - start.y))
                assert abs(cross) <= 1e-12


class TestFrames:
    def test_identity_reference(self):
        (t,) = to_frame_rows(Pose2(0, 0, 0), [Pose2(1, 2, math.pi / 4)])
        assert (t.x, t.y, t.theta) == (1.0, 2.0, math.pi / 4)

    def test_rotated_reference(self):
        (t,) = to_frame_rows(Pose2(1, 0, math.pi / 2), [Pose2(1, 1, math.pi / 2)])
        assert t.x == pytest.approx(1.0)
        assert t.y == pytest.approx(0.0, abs=1e-15)
        assert t.theta == 0.0

    def test_self_frame(self):
        p = Pose2(0.4, -2.0, 1.2)
        (t,) = to_frame_rows(p, [p])
        assert (t.x, t.y, t.theta) == (0.0, 0.0, 0.0)

    def test_compose_inverts_to_frame(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            ref = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
            tgt = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
            back = compose(ref, to_frame_rows(ref, [tgt])[0])
            assert back.x == pytest.approx(tgt.x, abs=1e-12)
            assert back.y == pytest.approx(tgt.y, abs=1e-12)
            assert wrap(back.theta - tgt.theta) == pytest.approx(0.0, abs=1e-12)


class TestGroundProjection:
    def test_identity_orientation(self):
        p = ground_pose((1, 2, 1.7), (1, 0, 0, 0))
        assert (p.x, p.y, p.theta) == (1, 2, 0.0)

    def test_yaw_rotation(self):
        q = yaw_quaternion(math.pi / 2)
        p = ground_pose((0, 0, 0), q)
        assert p.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_forward_axis_down_degenerate(self):
        # pitch the +X axis straight down: rotation by -pi/2 about +Y
        h = 0.5 * (-math.pi / 2)
        q = (math.cos(h), 0.0, math.sin(h), 0.0)
        with pytest.raises(InvalidArgumentError, match="yaw undefined"):
            ground_pose((0, 0, 0), q)

    def test_configurable_axis(self):
        p = ground_pose((0, 0, 0), (1, 0, 0, 0), forward_axis="+y")
        assert p.theta == pytest.approx(math.pi / 2)

    def test_unknown_axis(self):
        with pytest.raises(InvalidArgumentError):
            ground_pose((0, 0, 0), (1, 0, 0, 0), forward_axis="up")

    def test_ground_poses_marks_degenerate_rows(self):
        h = 0.5 * (-math.pi / 2)
        quats = np.array([(1.0, 0.0, 0.0, 0.0), (math.cos(h), 0.0, math.sin(h), 0.0)])
        poses = ground_poses(np.zeros((2, 3)), quats)
        assert poses[0].tolist() == [0.0, 0.0, 0.0] and math.isnan(poses[1, 2])
        require_yaw(poses[:1])
        with pytest.raises(InvalidArgumentError, match="yaw undefined"):
            require_yaw(poses)

    def test_ground_poses_unknown_axis(self):
        with pytest.raises(InvalidArgumentError):
            ground_poses(np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]), "up")

    def test_ground_poses_of_no_rows(self):
        assert ground_poses(np.zeros((0, 3)), np.zeros((0, 4))).shape == (0, 3)


def test_to_frame_rows_equals_to_frame_written_out():
    rng = np.random.default_rng(12)
    ref = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
    rows = [(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
            for _ in range(200)] + [(0.0, 0.0, -math.pi), (1.0, -1.0, math.pi)]
    got = to_frame_rows(ref, rows)
    assert all(type(p) is Pose2 for p in got)
    assert [hex_pose(p) for p in got] == \
        [hex_pose(reference_to_frame(ref, Pose2(*r))) for r in rows]


if st is not None:
    # the quarter turns about x and y put one forward axis or another on
    # gravity, and the identity puts +z there; the half turns about z give
    # atan2 = -pi for +x, which wraps to pi
    SPECIAL = [(1.0, 0.0, 0.0, 0.0), yaw_quaternion(-math.pi),
               yaw_quaternion(math.pi), (1e-300, 0.0, 0.0, -1.0)] + [
        (math.sqrt(0.5), *(sign * math.sqrt(0.5) * (k == i) for k in range(3)))
        for i in range(3) for sign in (1.0, -1.0)]
    unit = st.floats(-1.0, 1.0)

    @st.composite
    def head_rows(draw):
        """Positions and quaternions: random, special and near-special rows."""
        n = draw(st.integers(1, 12))
        pos, quat = [], []
        for _ in range(n):
            pos.append(draw(st.tuples(*[st.floats(-50.0, 50.0)] * 3)))
            how = draw(st.sampled_from(["random", "special", "nudged"]))
            if how == "random":
                q = np.array(draw(st.tuples(unit, unit, unit, unit)))
                norm = float(np.linalg.norm(q))
                q = q / norm if norm > 0.1 else np.array([1.0, 0.0, 0.0, 0.0])
                quat.append(tuple(q.tolist()))
            else:
                q = draw(st.sampled_from(SPECIAL))
                if how == "nudged":  # on either side of the 1e-6 cut
                    q = tuple(c + draw(st.floats(-1e-6, 1e-6)) for c in q)
                quat.append(q)
        return np.array(pos), np.array(quat)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(head_rows(), st.sampled_from(sorted(FORWARD_AXES)))
    @example((np.zeros((2, 3)), np.array([yaw_quaternion(-math.pi),
                                          (math.sqrt(0.5), 0.0, -math.sqrt(0.5), 0.0)])),
             "+x")
    def test_ground_poses_equal_ground_pose_row_by_row(rows, axis):
        pos, quat = rows
        got = ground_poses(pos, quat, axis)
        assert got.shape == (len(pos), 3)
        for p, q, row in zip(pos.tolist(), quat.tolist(), got.tolist()):
            try:
                want = ground_pose(p, q, axis)
            except InvalidArgumentError as exc:
                assert "yaw undefined" in str(exc)
                assert math.isnan(row[2]) and row[:2] == p[:2]
            else:
                assert hex_pose(row) == hex_pose(want)
else:
    def test_ground_poses_property_needs_hypothesis():
        pytest.skip("hypothesis is not installed")
