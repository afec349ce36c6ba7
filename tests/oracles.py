"""Test-only oracles: the scalar unicycle rollout and a brute-force grid minimizer.

:func:`step` and :func:`rollout` advance a pose one explicit Euler step
at a time, wrapping the heading after each; egonav's vectorized rollout
(``retarget.window_rollout``) sums headings instead, so the two agree to
rounding, not bit for bit. :func:`brute_force` enumerates a grid of
command sequences with its own batched rollout, an independent oracle
for the solver on small instances.
"""

import math
from typing import Sequence

import numpy as np

from egonav.errors import InvalidArgumentError
from egonav.geometry import Pose2, VelocityCommand, wrap
from egonav.retarget import RetargetProblem


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
