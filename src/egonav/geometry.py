"""Planar pose algebra and differential-drive kinematics.

Poses live in SE(2) as (x, y, theta) with theta kept in (-pi, pi].
The base motion model is the standard unicycle stepped with explicit
Euler. The optimizer and the simulator share one vectorized form of it
(``egonav.retarget._Window.rollout``), which sums headings instead of
wrapping them after every step; the tests keep a scalar step-by-step
rollout as its reference.

:class:`Pose2` and :class:`VelocityCommand` are each a
:class:`typing.NamedTuple`: immutable, picklable and cheap to build, and,
as a tuple of floats, untracked by the garbage collector. Being tuples,
they compare equal to the plain ``(x, y, theta)`` and ``(v, omega)`` with
the same values, and enter NumPy arrays as they are.

:func:`ground_poses` projects a whole array of head poses onto the
ground at once; :func:`to_frame_rows` moves many poses into one frame.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

# Forward-axis selectors for ground projection of a 3D head pose.
FORWARD_AXES = {
    "+x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0),
    "-y": (0.0, -1.0, 0.0),
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
}
_DEGENERATE = "forward axis is (anti)parallel to gravity; yaw undefined"


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


class VelocityCommand(NamedTuple):
    """One differential-drive command: forward speed v, yaw rate omega."""

    v: float
    omega: float


def to_frame_rows(reference: Sequence[float],
                  targets: Iterable[Sequence[float]]) -> tuple[Pose2, ...]:
    """Express each (x, y, theta) of ``targets`` in the frame of ``reference``."""
    rx, ry, rt = reference
    c, s = math.cos(rt), math.sin(rt)
    new = tuple.__new__
    return tuple([new(Pose2, (c * (x - rx) + s * (y - ry),
                              -s * (x - rx) + c * (y - ry),
                              wrap(t - rt)))
                  for x, y, t in targets])


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


def ground_poses(positions: np.ndarray, orientations: np.ndarray,
                 forward_axis: str = "+x") -> np.ndarray:
    """Ground rows (x, y, yaw) of (n, 3) head positions and (n, 4) quaternions.

    The yaw is that of the rotated ``forward_axis`` projected onto the plane.
    Each row equals the scalar ``ground_pose`` of ``tests/oracles.py`` bit
    for bit: :func:`rotate_vector` runs on whole columns in its own order of
    operations, the degeneracy test takes ``math.hypot`` and each yaw is
    ``wrap(math.atan2(fy, fx))``. A row whose yaw is undefined gets a NaN
    yaw instead of raising; see :func:`require_yaw`.
    """
    fx, fy, fz = rotate_vector(orientations.T, _axis(forward_axis))
    fx, fy = fx.tolist(), fy.tolist()
    yaw = np.array(list(map(wrap, map(math.atan2, fy, fx))), dtype=float)
    yaw[np.array(list(map(math.hypot, fx, fy))) < 1e-6] = math.nan
    return np.column_stack([positions[:, 0], positions[:, 1], yaw])


def require_yaw(poses: np.ndarray) -> None:
    """Raise :class:`InvalidArgumentError` if a row of ``poses`` has a NaN yaw.

    ``poses`` are rows of :func:`ground_poses`, which marks that way a
    yaw left undefined by a forward axis (anti)parallel to gravity.
    """
    if np.isnan(poses[:, 2]).any():
        raise InvalidArgumentError(_DEGENERATE)


def _axis(forward_axis: str) -> tuple[float, float, float]:
    try:
        return FORWARD_AXES[forward_axis]
    except KeyError:
        raise InvalidArgumentError(f"unknown forward axis {forward_axis!r}") from None


def yaw_quaternion(theta: float) -> tuple[float, float, float, float]:
    """Quaternion for a pure yaw rotation about +Z."""
    h = 0.5 * theta
    return (math.cos(h), 0.0, 0.0, math.sin(h))
