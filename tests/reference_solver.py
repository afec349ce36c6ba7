"""The projected-Newton solver as it was before its hot loop made fewer NumPy calls.

It is the reference for ``egonav.retarget``'s solver, which must return
the same solution as :func:`solve` here, bit for bit, on every problem.
Its :class:`_Window` methods, :func:`_gauss_newton` and :func:`solve`
compute what they computed then; unlike the production solver,
:func:`solve` rolls the winning start out once more to take its costs.
"""

import functools
import math

import numpy as np

from egonav.errors import InvalidArgumentError, NumericalFailureError
from egonav.geometry import TWO_PI, VelocityCommand
from egonav.retarget import (NEWTON_SWITCH, STOP_FLOOR, RetargetConfig, RetargetProblem,
                             RetargetSolution, WindowRollout)


@functools.lru_cache(maxsize=32)
def _blocks(K: int, dt: float, lambda_pos: float, lambda_yaw: float,
            lambda_smooth: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only arrays every window of one size and objective shares.

    They are the (5, 1) square roots of the residual blocks' weights, the
    (K, K) lower-triangular ones (command j moves every pose k >= j) and
    the (5K, K, 2) Jacobian with its constant yaw and smoothness blocks.
    """
    sp, sy, ss = math.sqrt(lambda_pos), math.sqrt(lambda_yaw), math.sqrt(lambda_smooth)
    low = np.tril(np.ones((K, K)))
    jac = np.zeros((5 * K, K, 2))
    jac[2 * K:3 * K, :, 1] = sy * dt * low
    jac[3 * K:4 * K, :, 0] = jac[4 * K:, :, 1] = ss * (np.eye(K) - np.eye(K, k=-1))
    blocks = np.array([sp, sp, sy, ss, ss])[:, None], low, jac
    for a in blocks:
        a.flags.writeable = False
    return blocks


class _Window:
    """One problem's rollout with its waypoint arrays and constant Jacobian blocks."""

    def __init__(self, prob: RetargetProblem):
        cfg, K = prob.config, len(prob.desired)
        self.K, self.dt = K, cfg.dt
        self.start = (prob.start.x, prob.start.y, prob.start.theta)
        self.prev = (prob.prev_cmd.v, prob.prev_cmd.omega)
        self.desired = np.array([(d.x, d.y, d.theta) for d in prob.desired]).T
        self.sp = math.sqrt(cfg.lambda_pos)
        self.weights, self.low, self.jac = _blocks(
            K, cfg.dt, cfg.lambda_pos, cfg.lambda_yaw, cfg.lambda_smooth)

    def rollout(self, z) -> tuple[WindowRollout, tuple]:
        """The rollout of ``z`` without J, and the cos, sin and sums J is built from."""
        K, dt = self.K, self.dt
        z = np.asarray(z, dtype=float).reshape(-1, 2)
        if len(z) != K:
            raise InvalidArgumentError(
                f"command count {len(z)} != waypoint count {K}")
        v, w = z.T
        x0, y0, th0 = self.start
        # heading before each command: th0 + dt * (omega_0 + ... + omega_{k-1})
        th = th0 + dt * np.concatenate([[0.0], np.cumsum(w)])
        cos, sin = np.cos(th[:-1]), np.sin(th[:-1])
        cx, sy = np.cumsum(v * cos), np.cumsum(v * sin)
        states = np.array([x0 + dt * cx, y0 + dt * sy, th[1:]])
        r = np.empty((5, K))
        np.subtract(states, self.desired, out=r[:3])
        r[2] -= TWO_PI * np.round(r[2] / TWO_PI)
        r[3:, 0] = z[0] - self.prev
        np.subtract(z[1:].T, z[:-1].T, out=r[3:, 1:])
        r *= self.weights
        return WindowRollout(states, r.ravel()), (cos, sin, cx, sy)

    def jacobian(self, parts: tuple) -> np.ndarray:
        """J at the point whose :meth:`rollout` returned ``parts``."""
        K, dt = self.K, self.dt
        cos, sin, cx, sy = parts
        # d x_k / d omega_j = -dt^2 (sy_k - sy_j) for j <= k, and
        # d y_k / d omega_j = dt^2 (cx_k - cx_j)
        f = self.sp * dt
        J = self.jac.copy()
        J[:K, :, 0] = f * cos * self.low
        J[:K, :, 1] = -f * dt * (sy[:, None] - sy) * self.low
        J[K:2 * K, :, 0] = f * sin * self.low
        J[K:2 * K, :, 1] = f * dt * (cx[:, None] - cx) * self.low
        return J.reshape(5 * K, 2 * K)

    def curvature(self, z, ro: WindowRollout) -> np.ndarray:
        """S = sum_i r_i Hess(r_i) at ``z``: the cost's Hessian is 2 (J^T J + S).

        ``ro`` is the rollout of ``z``. Only the position residuals are
        nonlinear. With Rx_j, Ry_j the sums of the x and y residuals k >= j
        and theta_j the heading before command j, S[v_j, omega_m] for m < j
        is sqrt(lambda_pos) dt^2 (cos theta_j Ry_j - sin theta_j Rx_j), and
        S[omega_m, omega_n] is -sqrt(lambda_pos) dt^3 times the sum over
        j > max(m, n) of v_j (cos theta_j Rx_j + sin theta_j Ry_j).
        """
        K, dt = self.K, self.dt
        v = np.asarray(z, dtype=float).reshape(-1, 2)[:, 0]
        th = np.concatenate([[self.start[2]], ro.states[2, :-1]])
        cos, sin = np.cos(th), np.sin(th)
        rx, ry = np.cumsum(ro.r[:2 * K].reshape(2, K)[:, ::-1], axis=1)[:, ::-1]
        b = v * (cos * rx + sin * ry)
        after = np.append(np.cumsum(b[::-1])[-2::-1], 0.0)  # sum of b_j over j > m
        f = self.sp * dt * dt
        S = np.zeros((K, 2, K, 2))
        S[:, 0, :, 1] = f * (cos * ry - sin * rx)[:, None] * (self.low - np.eye(K))
        S[:, 1, :, 0] = S[:, 0, :, 1].T
        S[:, 1, :, 1] = -f * dt * after[np.maximum.outer(np.arange(K), np.arange(K))]
        return S.reshape(2 * K, 2 * K)


def _fd_inversion_init(prob: RetargetProblem) -> np.ndarray:
    """Initialize by finite-difference inversion of the desired waypoints."""
    p = np.array([(q.x, q.y, q.theta) for q in (prob.start, *prob.desired)])
    dx, dy, dth = np.diff(p, axis=0).T
    v = dx * np.cos(p[:-1, 2]) + dy * np.sin(p[:-1, 2])
    return np.column_stack([v, dth - TWO_PI * np.round(dth / TWO_PI)]) / prob.config.dt


def _gauss_newton(model: _Window, z: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  cfg: RetargetConfig):
    """Projected Gauss-Newton from ``z`` (flat, inside [lo, hi]), Newton once it stalls.

    Variables within eps of a bound that the gradient pushes against are
    active and take a diagonally scaled gradient step; the others take a
    Gauss-Newton step, or the exact Newton step of 2 (J^T J + S) once the
    last accepted step cut the cost by less than ``NEWTON_SWITCH`` and
    that free block is positive definite. The arc P(z + a d) is searched
    by halving a from the last accepted step, doubled if that one passed
    at once (infeasible windows overshoot steadily). Trial points are
    rolled out without J, which only the accepted one gets. Returns (z, f,
    iterations, converged).
    """
    ro, parts = model.rollout(z)
    J = model.jacobian(parts)
    f = float(ro.r @ ro.r)
    if not math.isfinite(f):
        raise NumericalFailureError("initial cost is not finite")
    iters = 0
    a = 1.0
    stalled = False
    while True:
        g = 2.0 * (ro.r @ J)
        pg = z - np.clip(z - g, lo, hi)
        pg_norm = math.sqrt(float(pg @ pg))
        if pg_norm <= cfg.grad_tol * (STOP_FLOOR + f):
            return z, f, iters, True
        if iters == cfg.max_iters:
            return z, f, iters, False
        eps = min(1e-3, pg_norm)
        free = ~(((z <= lo + eps) & (g > 0)) | ((z >= hi - eps) & (g < 0)))
        H = 2.0 * (J.T @ J)
        diag = H.diagonal() + 1e-12 * (1.0 + H.diagonal().max())
        coupled = np.outer(free, free)
        H *= coupled  # decouple the active variables ...
        np.fill_diagonal(H, diag)  # ... which keep only their diagonal
        if stalled:
            newton = H + 2.0 * model.curvature(z, ro) * coupled
            try:
                np.linalg.cholesky(newton)
            except np.linalg.LinAlgError:
                pass  # not positive definite: keep the Gauss-Newton step
            else:
                H = newton
        d = np.linalg.solve(H, -g)
        g_free = np.where(free, g, 0.0)
        slope = float(g_free @ d)
        trial = a
        while True:
            z_new = np.clip(z + a * d, lo, hi)
            ro_new, parts = model.rollout(z_new)
            f_new = float(ro_new.r @ ro_new.r)
            if not math.isfinite(f_new):
                raise NumericalFailureError("cost became non-finite during the arc "
                                            "search")
            if f_new <= f + 1e-4 * (a * slope + float((g - g_free) @ (z_new - z))):
                break
            a *= 0.5
            if a < 1e-12:
                return z, f, iters, False  # no descent left at this precision
        if a == trial:
            a = min(1.0, 2.0 * a)
        stalled = f_new > (1.0 - NEWTON_SWITCH) * f
        z, f, ro = z_new, f_new, ro_new
        J = model.jacobian(parts)
        iters += 1


def solve(prob: RetargetProblem) -> RetargetSolution:
    """Minimize the tracking objective over box-bounded commands.

    Runs from zero commands and then from the finite-difference
    inversion of the waypoints, which guards the
    nonconvex shooting objective against a poor local minimum; the
    lower-cost run wins and reports its own iteration count and
    convergence. Both starts are deterministic, so one problem always
    gets one answer.
    """
    cfg = prob.config
    K = len(prob.desired)
    model = _Window(prob)
    lo, hi = np.tile([[cfg.v_min, cfg.omega_min], [cfg.v_max, cfg.omega_max]], K)
    runs = [_gauss_newton(model, np.clip(z0.ravel(), lo, hi), lo, hi, cfg)
            for z0 in (np.zeros((K, 2)), _fd_inversion_init(prob))]
    z, _, iters, conv = min(runs, key=lambda run: run[1])  # ties: earliest start
    cmds = tuple(VelocityCommand(v, w) for v, w in z.reshape(-1, 2).tolist())
    return RetargetSolution(cmds, *model.rollout(z)[0].costs(), iters, conv)
