"""Test-only oracles: references the tests compare egonav's production code against.

:func:`step` and :func:`rollout` advance a pose one explicit Euler step
at a time, wrapping the heading after each; egonav's vectorized rollout
(``retarget._Window.rollout``) sums headings instead, so the two agree to
rounding, not bit for bit. :func:`brute_force` enumerates a grid of
command sequences with its own batched rollout, an independent oracle
for the solver on small instances.

:func:`compose` is the inverse of ``geometry.to_frame_rows`` up to
rounding; :func:`ground_pose` projects one head pose onto the ground, the
scalar form that ``geometry.ground_poses`` equals row by row, bit for
bit. :func:`gradient` is 2 J^T r from the production
``retarget._Window.jacobian``, which the acceptance tests compare with
finite differences of ``retarget.cost``; :func:`responsibilities` is the
E-step posterior from the production ``segmentation`` log-joint and
posterior.

``retarget.cost`` itself stays in ``egonav.retarget``, not here, while the
benchmark's own tests (``perfbench/tests``) import it from there; it can
move here with the next change to the benchmark.
"""

import math
from typing import Sequence

import numpy as np

from egonav import segmentation
from egonav.errors import InvalidArgumentError
from egonav.geometry import (Pose2, VelocityCommand, _axis, _DEGENERATE, rotate_vector,
                             wrap)
from egonav.retarget import RetargetProblem, _Window


def compose(reference: Pose2, relative: Pose2) -> Pose2:
    """Express a pose given relative to ``reference`` in the world frame."""
    c, s = math.cos(reference.theta), math.sin(reference.theta)
    return Pose2(
        reference.x + c * relative.x - s * relative.y,
        reference.y + s * relative.x + c * relative.y,
        wrap(reference.theta + relative.theta),
    )


def ground_pose(position: Sequence[float], orientation: Sequence[float],
                forward_axis: str = "+x") -> Pose2:
    """Project a head position and unit quaternion (w, x, y, z) onto the ground.

    The planar position comes from (x, y); yaw is the atan2 of the rotated
    forward axis projected onto the plane. An undefined yaw raises
    :class:`InvalidArgumentError`.
    """
    fx, fy, fz = rotate_vector(orientation, _axis(forward_axis))
    if math.hypot(fx, fy) < 1e-6:
        raise InvalidArgumentError(_DEGENERATE)
    return Pose2(position[0], position[1], wrap(math.atan2(fy, fx)))


def gradient(z, prob: RetargetProblem) -> np.ndarray:
    """Exact gradient 2 J^T r of ``retarget.cost``, shaped like the commands (K x 2)."""
    model = _Window(prob)
    ro, parts = model.rollout(z)
    return (2.0 * (ro.r @ model.jacobian(parts))).reshape(-1, 2)


def responsibilities(model: segmentation.GmmModel, points) -> np.ndarray:
    """E-step posterior component probabilities, one row per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    log_p = segmentation._log_joint(model, points)
    return segmentation._posterior(log_p, segmentation._logsumexp(log_p))


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


def brute_force(prob: RetargetProblem, grid_per_axis: int) -> tuple[np.ndarray, float]:
    """Exhaustive grid minimizer of the objective; oracle for small instances.

    Enumerates (grid_per_axis^2)^K command sequences uniformly spanning
    the bounds (endpoints included) and returns the best by exact cost.
    """
    cfg = prob.config
    K = len(prob.desired)
    if K > 4 or grid_per_axis > 15:
        raise InvalidArgumentError("brute force limited to K <= 4 and grid <= 15")
    vs = np.linspace(cfg.v_min, cfg.v_max, grid_per_axis)
    ws = np.linspace(cfg.omega_min, cfg.omega_max, grid_per_axis)
    pairs = np.array([(v, w) for v in vs for w in ws])  # (g^2, 2)
    # every sequence of K pairs, the last step varying fastest
    z_all = pairs[np.indices((len(pairs),) * K).reshape(K, -1).T]

    dt = cfg.dt
    x, y, th = prob.start.x, prob.start.y, prob.start.theta
    pv, pw = prob.prev_cmd.v, prob.prev_cmd.omega
    total = np.zeros(len(z_all))
    for k in range(K):
        v, w = z_all[:, k].T
        x = x + v * np.cos(th) * dt
        y = y + v * np.sin(th) * dt
        th = th + w * dt
        d = prob.desired[k]
        total += cfg.lambda_pos * ((x - d.x) ** 2 + (y - d.y) ** 2)
        dyaw = np.mod(th - d.theta, 2.0 * math.pi)
        dyaw = np.where(dyaw > math.pi, dyaw - 2.0 * math.pi, dyaw)
        total += cfg.lambda_yaw * dyaw ** 2
        total += cfg.lambda_smooth * ((v - pv) ** 2 + (w - pw) ** 2)
        pv, pw = v, w
    best = int(np.argmin(total))
    return z_all[best].copy(), float(total[best])
