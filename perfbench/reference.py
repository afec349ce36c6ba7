"""Independent bounded least-squares reference for egonav's window costs.

egonav minimizes, per window of K waypoints, the sum of squares of

    sqrt(lambda_pos)    * (x_k - x_d_k), (y_k - y_d_k)
    sqrt(lambda_yaw)    * wrap(theta_k - theta_d_k)
    sqrt(lambda_smooth) * (v_k - v_{k-1}), (omega_k - omega_{k-1})

over box-bounded commands, where (x, y, theta) is the Euler unicycle
rollout. This module writes that residual vector and its Jacobian from
scratch in numpy and solves it with scipy's trust-region reflective
method (Coleman & Li 1996), so the reference shares no code with egonav's
solver. scipy is only used here, never by egonav.

``cost_gap`` is the worst relative excess of egonav's window cost over
the reference cost, for the same window start and previous command that
egonav's own output implies; 0 when egonav ties or beats the reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

from egonav import ingest, retarget

try:
    from scipy.optimize import least_squares
    SCIPY_MISSING = None
except ImportError as exc:  # the benchmark still runs; cost_gap is null
    least_squares = None
    SCIPY_MISSING = f"scipy not importable ({exc}); cost_gap not computed"


def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


class WindowModel:
    """Residuals and Jacobian of one window's objective; z = [v0, w0, v1, ...]."""

    def __init__(self, start, desired, prev_cmd, cfg):
        self.start = np.asarray(start, dtype=float)        # (x, y, theta)
        self.desired = np.asarray(desired, dtype=float)    # (K, 3)
        self.prev = np.asarray(prev_cmd, dtype=float)      # (v, omega)
        self.cfg = cfg
        self.K = len(self.desired)

    def _rollout(self, z):
        z = z.reshape(-1, 2)
        dt = self.cfg.dt
        th = self.start[2] + dt * np.concatenate(([0.0], np.cumsum(z[:, 1])))
        c = z[:, 0] * np.cos(th[:-1]) * dt
        s = z[:, 0] * np.sin(th[:-1]) * dt
        x = self.start[0] + np.cumsum(c)
        y = self.start[1] + np.cumsum(s)
        return z, th, x, y

    def residuals(self, z):
        cfg = self.cfg
        z, th, x, y = self._rollout(np.asarray(z, dtype=float))
        d = self.desired
        sp, sy, ss = (math.sqrt(cfg.lambda_pos), math.sqrt(cfg.lambda_yaw),
                      math.sqrt(cfg.lambda_smooth))
        dz = np.diff(np.vstack([self.prev, z]), axis=0)
        return np.concatenate([sp * (x - d[:, 0]), sp * (y - d[:, 1]),
                               sy * _wrap(th[1:] - d[:, 2]),
                               ss * dz[:, 0], ss * dz[:, 1]])

    def jacobian(self, z):
        cfg = self.cfg
        dt = cfg.dt
        z, th, _, _ = self._rollout(np.asarray(z, dtype=float))
        K = self.K
        sp, sy, ss = (math.sqrt(cfg.lambda_pos), math.sqrt(cfg.lambda_yaw),
                      math.sqrt(cfg.lambda_smooth))
        cos, sin = np.cos(th[:-1]), np.sin(th[:-1])
        low = np.tril(np.ones((K, K)))  # row k-1 depends on commands 0..k-1
        cum_c = np.cumsum(z[:, 0] * cos)
        cum_s = np.cumsum(z[:, 0] * sin)
        # d x_k / d omega_i = -dt^2 * sum_{i<j<k} v_j sin(theta_j), same for y
        dxw = -dt * dt * (cum_s[:, None] - cum_s[None, :]) * low
        dyw = dt * dt * (cum_c[:, None] - cum_c[None, :]) * low
        J = np.zeros((5 * K, K, 2))
        J[:K, :, 0] = sp * dt * cos[None, :] * low
        J[:K, :, 1] = sp * dxw
        J[K:2 * K, :, 0] = sp * dt * sin[None, :] * low
        J[K:2 * K, :, 1] = sp * dyw
        J[2 * K:3 * K, :, 1] = sy * dt * low
        diff = np.eye(K) - np.eye(K, k=-1)
        J[3 * K:4 * K, :, 0] = ss * diff
        J[4 * K:, :, 1] = ss * diff
        return J.reshape(5 * K, 2 * K)

    def cost(self, z) -> float:
        r = self.residuals(z)
        return float(r @ r)

    def fd_init(self):
        """Commands that step straight from waypoint to waypoint, clipped."""
        cfg = self.cfg
        prev = np.vstack([self.start, self.desired[:-1]])
        dx = self.desired[:, 0] - prev[:, 0]
        dy = self.desired[:, 1] - prev[:, 1]
        v = (dx * np.cos(prev[:, 2]) + dy * np.sin(prev[:, 2])) / cfg.dt
        w = _wrap(self.desired[:, 2] - prev[:, 2]) / cfg.dt
        return np.column_stack([np.clip(v, cfg.v_min, cfg.v_max),
                                np.clip(w, cfg.omega_min, cfg.omega_max)]).ravel()

    def solve(self, starts) -> float:
        """Lowest cost TRF reaches from any of ``starts``."""
        cfg = self.cfg
        lb = np.tile([cfg.v_min, cfg.omega_min], self.K)
        ub = np.tile([cfg.v_max, cfg.omega_max], self.K)
        best = math.inf
        for z0 in starts:
            res = least_squares(self.residuals, np.clip(z0, lb, ub),
                                jac=self.jacobian, bounds=(lb, ub),
                                method="trf", ftol=1e-15, xtol=1e-15,
                                gtol=1e-15, max_nfev=2000)
            best = min(best, self.cost(res.x))
        return best


def window_models(art_dir, cfg):
    """Rebuild each solved window from a recording's artifacts.

    Returns (model, egonav commands, egonav reported cost) per window. A
    window starts where the simulated rollout of the earlier windows ends
    (``sim.json``) and is anchored to the previous window's last command.
    """
    with open(art_dir / "recording.jsonl") as fh:
        ep = ingest.parse_recording(fh, fps=cfg.ingest.fps)
    track = ingest.extract_waypoints(ep, cfg.ingest.d_thresh, cfg.ingest.k_h,
                                     cfg.ingest.forward_axis)
    poses = [(p.x, p.y, p.theta) for _, p in track.waypoints]
    solutions, _ = retarget.read_command_file(art_dir / "commands.txt")
    with open(art_dir / "sim.json") as fh:
        rollout = json.load(fh)["poses"]
    out = []
    offset = 0
    prev = (0.0, 0.0)
    for sol in solutions:
        n = len(sol.cmds)
        start = poses[0] if offset == 0 else rollout[offset - 1]
        model = WindowModel(start, poses[1 + offset:1 + offset + n], prev,
                            cfg.retarget)
        z = np.array([[c.v, c.omega] for c in sol.cmds]).ravel()
        out.append((model, z, sol.cost_total))
        offset += n
        prev = (sol.cmds[-1].v, sol.cmds[-1].omega)
    return out


def cost_gap(art_dirs, cfg) -> dict:
    """Worst relative window-cost excess of egonav over the reference.

    Also reports the worst relative disagreement between egonav's
    reported window cost and this module's model of the same objective,
    which must be ~1e-12 for the gap to mean anything.
    """
    if least_squares is None:
        return {"cost_gap": None, "reason": SCIPY_MISSING}
    gap = 0.0
    model_err = 0.0
    windows = 0
    for art in art_dirs:
        for model, z, reported in window_models(art, cfg):
            ours = model.cost(z)
            model_err = max(model_err, abs(ours - reported) / max(abs(reported), 1.0))
            ref = model.solve([np.zeros_like(z), model.fd_init(), z])
            gap = max(gap, (ours - ref) / max(ref, 1e-300))
            windows += 1
    return {"cost_gap": gap, "model_err": model_err, "windows": windows,
            "reason": None}
