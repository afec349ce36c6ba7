"""Planar pose algebra and differential-drive kinematics.

Poses live in SE(2) as (x, y, theta) with theta kept in (-pi, pi].
The base motion model is the standard unicycle stepped with explicit
Euler. :func:`step` and :func:`rollout` are its scalar reference. The
optimizer and the simulator share one vectorized form of the same model
(:func:`egonav.retarget.window_rollout`), which sums headings instead of
wrapping them after every step; the two agree to rounding, not bit for
bit, and the tests compare them.

:class:`Pose2` is a :class:`typing.NamedTuple`: immutable, picklable and
cheap to build, and, as a tuple of floats, untracked by the garbage
collector. Being a tuple, a ``Pose2`` compares equal to the plain 3-tuple
``(x, y, theta)`` with the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DegenerateOrientationError, InvalidArgumentError

TWO_PI = 2.0 * math.pi

# Forward-axis selectors for ground projection of a 3D head pose.
_AXES = {
    "+x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0),
    "-y": (0.0, -1.0, 0.0),
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
}


def wrap(angle: float) -> float:
    """Normalize an angle to (-pi, pi].

    The half-open interval removes the +/-pi ambiguity: wrap(-pi) == pi.
    """
    if not math.isfinite(angle):
        raise InvalidArgumentError(f"angle must be finite, got {angle!r}")
    if -math.pi < angle <= math.pi:
        return angle  # already in range; keep bit-exact
    a = angle % TWO_PI
    if a > math.pi:
        a -= TWO_PI
    return a


class Pose2(NamedTuple):
    """A planar pose (x, y, theta) in meters / radians."""

    x: float
    y: float
    theta: float

    def normalized(self) -> "Pose2":
        return Pose2(self.x, self.y, wrap(self.theta))


@dataclass(frozen=True)
class Pose3:
    """A 3D pose: position (x, y, z) and a unit quaternion (w, x, y, z)."""

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]

    def __post_init__(self):
        w, x, y, z = self.orientation
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if abs(n - 1.0) > 1e-9:
            raise InvalidArgumentError(f"quaternion norm {n} != 1")


@dataclass(frozen=True)
class VelocityCommand:
    """One differential-drive command: forward speed v, yaw rate omega."""

    v: float
    omega: float


def step(pose: Pose2, cmd: VelocityCommand, dt: float) -> Pose2:
    """Advance a pose by one explicit Euler step of the unicycle model."""
    if not dt > 0.0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    return Pose2(
        pose.x + cmd.v * math.cos(pose.theta) * dt,
        pose.y + cmd.v * math.sin(pose.theta) * dt,
        wrap(pose.theta + cmd.omega * dt),
    )


def rollout(start: Pose2, cmds: Sequence[VelocityCommand], dt: float) -> list[Pose2]:
    """Apply a command sequence from ``start``; returns the K poses after each step."""
    if len(cmds) == 0:
        raise InvalidArgumentError("command sequence must be non-empty")
    poses = []
    pose = start
    for cmd in cmds:
        pose = step(pose, cmd, dt)
        poses.append(pose)
    return poses


def compose(reference: Pose2, relative: Pose2) -> Pose2:
    """Express a pose given relative to ``reference`` in the world frame."""
    c, s = math.cos(reference.theta), math.sin(reference.theta)
    return Pose2(
        reference.x + c * relative.x - s * relative.y,
        reference.y + s * relative.x + c * relative.y,
        wrap(reference.theta + relative.theta),
    )


def to_frame(reference: Pose2, target: Pose2) -> Pose2:
    """Express ``target`` in the coordinate frame of ``reference``.

    Inverse of :func:`compose` up to rounding: compose(ref, to_frame(ref, t))
    equals t to within a few ulps of the coordinates, not bit for bit.
    """
    dx = target.x - reference.x
    dy = target.y - reference.y
    c, s = math.cos(reference.theta), math.sin(reference.theta)
    return Pose2(
        c * dx + s * dy,
        -s * dx + c * dy,
        wrap(target.theta - reference.theta),
    )


def rotate_vector(q: tuple[float, float, float, float],
                  v: tuple[float, float, float]) -> tuple[float, float, float]:
    """Rotate a 3-vector by a unit quaternion (w, x, y, z)."""
    w, qx, qy, qz = q
    vx, vy, vz = v
    # t = 2 q_vec x v
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return (
        vx + w * tx + qy * tz - qz * ty,
        vy + w * ty + qz * tx - qx * tz,
        vz + w * tz + qx * ty - qy * tx,
    )


def project_to_ground(head: Pose3, forward_axis: str = "+x") -> Pose2:
    """Project a 3D head pose onto the ground plane (see :func:`ground_pose`)."""
    return ground_pose(head.position, head.orientation, forward_axis)


def ground_pose(position: Sequence[float], orientation: Sequence[float],
                forward_axis: str = "+x") -> Pose2:
    """Project a head position and unit quaternion (w, x, y, z) onto the ground.

    The planar position comes from (x, y); yaw is the atan2 of the rotated
    forward axis projected onto the plane. Which device axis points
    "forward" depends on the sensor mounting, so it is configurable.
    """
    try:
        axis = _AXES[forward_axis]
    except KeyError:
        raise InvalidArgumentError(f"unknown forward axis {forward_axis!r}") from None
    fx, fy, fz = rotate_vector(orientation, axis)
    if math.hypot(fx, fy) < 1e-6:
        raise DegenerateOrientationError(
            "forward axis is (anti)parallel to gravity; yaw undefined"
        )
    return Pose2(position[0], position[1], wrap(math.atan2(fy, fx)))


def yaw_quaternion(theta: float) -> tuple[float, float, float, float]:
    """Quaternion for a pure yaw rotation about +Z."""
    h = 0.5 * theta
    return (math.cos(h), 0.0, 0.0, math.sin(h))
