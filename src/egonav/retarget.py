"""Waypoint-tracking trajectory optimization for a differential-drive base.

Finds bounded (v, omega) commands whose Euler rollout tracks a window of
K planar waypoints, minimizing the sum of squares of 5K residuals: the
x, y and wrapped yaw errors and the first differences of v and omega,
weighted by the square roots of lambda_pos, lambda_yaw, lambda_smooth.
:func:`window_rollout` yields them and their closed-form Jacobian J.
:func:`solve` runs Bertsekas's epsilon-active-set projected Newton method
(SIAM J. Control Optim. 20(2), 1982) with an Armijo search along the
projected arc, from a small multi-start. Its Hessian is the Gauss-Newton
2 J^T J until a step cuts the cost by less than ``NEWTON_SWITCH`` (20%):
the next step then tries the exact 2 (J^T J + S), S = sum_i r_i Hess(r_i)
in closed form, and takes it if its free block is positive definite
(the hybrid of Fletcher & Xu, IMA J. Numer. Anal. 7, 1987). Windows
whose waypoints ask for more than the bounds allow keep large residuals
at the optimum, where Gauss-Newton alone converges only linearly.
``iterations`` counts solver steps of either kind. A start has
*converged* once ||z - P(z - g)|| <= grad_tol * (1 + f), with P the clip
to the bounds, g the gradient and f the cost; every iterate is tested,
the last one ``max_iters`` allows too. A brute-force grid enumerator
with its own batched rollout is an independent oracle for small
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .geometry import TWO_PI, Pose2, VelocityCommand, wrap
from .ingest import WaypointTrack

# a step that cuts the cost by less than this fraction makes the next step
# try the exact Hessian instead of the Gauss-Newton one
NEWTON_SWITCH = 0.2


@dataclass(frozen=True)
class RetargetConfig:
    lambda_pos: float = 32.0
    lambda_yaw: float = 2.0
    lambda_smooth: float = 1.0
    v_min: float = -1.0
    v_max: float = 1.0
    omega_min: float = -math.pi
    omega_max: float = math.pi
    dt: float = 0.16  # 0.02 s frame period x 8-frame sampling step
    max_iters: int = 500
    grad_tol: float = 1e-6
    n_starts: int = 3
    window: int = 10  # waypoints per optimization window
    seed: int = 0

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise InvalidArgumentError("v_min must be < v_max")
        if not self.omega_min < self.omega_max:
            raise InvalidArgumentError("omega_min must be < omega_max")
        if not self.dt > 0:
            raise InvalidArgumentError("dt must be positive")
        for name in ("lambda_pos", "lambda_yaw", "lambda_smooth"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be >= 0")


@dataclass(frozen=True)
class RetargetProblem:
    start: Pose2
    desired: tuple[Pose2, ...]  # waypoints (x_d, y_d, theta_d), yaws wrapped
    config: RetargetConfig = field(default_factory=RetargetConfig)
    prev_cmd: VelocityCommand = VelocityCommand(0.0, 0.0)

    def __post_init__(self):
        if len(self.desired) == 0:
            raise InvalidArgumentError("desired waypoint sequence is empty")


@dataclass(frozen=True)
class RetargetSolution:
    cmds: tuple[VelocityCommand, ...]
    cost_total: float
    cost_pos: float
    cost_yaw: float
    cost_smooth: float
    iterations: int
    converged: bool


class WindowRollout(NamedTuple):
    """Euler rollout of one window's commands against its waypoints."""

    states: np.ndarray       # (3, K) x, y, unwrapped theta after each command
    r: np.ndarray            # (5K,) residuals, blocks x, y, yaw, dv, domega
    J: Optional[np.ndarray]  # (5K, 2K) dr/dz for z = [v0, omega0, v1, ...]

    def costs(self) -> tuple[float, float, float, float]:
        """(total, pos, yaw, smooth) parts of the objective."""
        x, y, yaw, dv, dw = (self.r.reshape(5, -1) ** 2).sum(axis=1).tolist()
        return x + y + yaw + dv + dw, x + y, yaw, dv + dw

    def poses(self) -> list[Pose2]:
        """The states as poses, headings wrapped; the last starts the next window."""
        return [Pose2(x, y, wrap(th)) for x, y, th in zip(*self.states.tolist())]


class _Window:
    """One problem's rollout with its waypoint arrays and constant Jacobian blocks."""

    def __init__(self, prob: RetargetProblem):
        cfg, K = prob.config, len(prob.desired)
        self.K, self.dt = K, cfg.dt
        self.start = (prob.start.x, prob.start.y, prob.start.theta)
        self.prev = (prob.prev_cmd.v, prob.prev_cmd.omega)
        self.desired = np.array([(d.x, d.y, d.theta) for d in prob.desired]).T
        self.sp, sy, ss = (math.sqrt(cfg.lambda_pos), math.sqrt(cfg.lambda_yaw),
                           math.sqrt(cfg.lambda_smooth))
        self.weights = np.array([self.sp, self.sp, sy, ss, ss])[:, None]
        # command j moves every pose k >= j
        self.low = np.tril(np.ones((K, K)))
        self.jac = np.zeros((5 * K, K, 2))  # its yaw and smoothness blocks are constant
        self.jac[2 * K:3 * K, :, 1] = sy * cfg.dt * self.low
        self.jac[3 * K:4 * K, :, 0] = self.jac[4 * K:, :, 1] = ss * (
            np.eye(K) - np.eye(K, k=-1))

    def __call__(self, z, jacobian: bool = False) -> WindowRollout:
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
        r = r.ravel()
        if not jacobian:
            return WindowRollout(states, r, None)
        # d x_k / d omega_j = -dt^2 (sy_k - sy_j) for j <= k, and
        # d y_k / d omega_j = dt^2 (cx_k - cx_j)
        f = self.sp * dt
        J = self.jac.copy()
        J[:K, :, 0] = f * cos * self.low
        J[:K, :, 1] = -f * dt * (sy[:, None] - sy) * self.low
        J[K:2 * K, :, 0] = f * sin * self.low
        J[K:2 * K, :, 1] = f * dt * (cx[:, None] - cx) * self.low
        return WindowRollout(states, r, J.reshape(5 * K, 2 * K))

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


def window_rollout(z, prob: RetargetProblem, jacobian: bool = False) -> WindowRollout:
    """Roll commands ``z`` (K x 2 of v, omega) out from ``prob.start``.

    Heading is the start heading plus dt times the running sum of omega.
    The wrap of the yaw error is differentiated as the identity.
    """
    return _Window(prob)(z, jacobian)


def cost(z, prob: RetargetProblem) -> tuple[float, float, float, float]:
    """Evaluate the tracking objective; returns (total, pos, yaw, smooth)."""
    return window_rollout(z, prob).costs()


def gradient(z, prob: RetargetProblem) -> np.ndarray:
    """Exact gradient 2 J^T r of :func:`cost`, shaped like the commands (K x 2)."""
    ro = window_rollout(z, prob, jacobian=True)
    return (2.0 * (ro.r @ ro.J)).reshape(-1, 2)


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
    at once (infeasible windows overshoot steadily). Returns (z, f,
    iterations, converged).
    """
    ro = model(z, jacobian=True)
    f = float(ro.r @ ro.r)
    if not math.isfinite(f):
        raise NumericalFailureError("initial cost is not finite",
                                    last_iterate=z.reshape(-1, 2))
    iters = 0
    a = 1.0
    stalled = False
    while True:
        g = 2.0 * (ro.r @ ro.J)
        pg = z - np.clip(z - g, lo, hi)
        pg_norm = math.sqrt(float(pg @ pg))
        if pg_norm <= cfg.grad_tol * (1.0 + f):
            return z, f, iters, True
        if iters == cfg.max_iters:
            return z, f, iters, False
        eps = min(1e-3, pg_norm)
        free = ~(((z <= lo + eps) & (g > 0)) | ((z >= hi - eps) & (g < 0)))
        H = 2.0 * (ro.J.T @ ro.J)
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
            ro_new = model(z_new, jacobian=True)
            f_new = float(ro_new.r @ ro_new.r)
            if not math.isfinite(f_new):
                raise NumericalFailureError("cost became non-finite during the arc "
                                            "search", last_iterate=z.reshape(-1, 2))
            if f_new <= f + 1e-4 * (a * slope + float((g - g_free) @ (z_new - z))):
                break
            a *= 0.5
            if a < 1e-12:
                return z, f, iters, False  # no descent left at this precision
        if a == trial:
            a = min(1.0, 2.0 * a)
        stalled = f_new > (1.0 - NEWTON_SWITCH) * f
        z, f, ro = z_new, f_new, ro_new
        iters += 1


def solve(prob: RetargetProblem) -> RetargetSolution:
    """Minimize the tracking objective over box-bounded commands.

    Multi-start (zeros, finite-difference inversion of the waypoints, and
    seeded uniform random commands) guards against local minima of the
    nonconvex shooting objective; the lowest-cost run wins and reports
    its own iteration count and convergence.
    """
    cfg = prob.config
    K = len(prob.desired)
    starts = [np.zeros((K, 2))]
    if cfg.n_starts >= 2:
        starts.append(_fd_inversion_init(prob))
    if cfg.n_starts >= 3:
        rng = np.random.default_rng(cfg.seed)
        starts.append(np.column_stack([rng.uniform(cfg.v_min, cfg.v_max, K),
                                       rng.uniform(cfg.omega_min, cfg.omega_max, K)]))

    model = _Window(prob)
    lo, hi = np.tile([[cfg.v_min, cfg.omega_min], [cfg.v_max, cfg.omega_max]], K)
    runs = [_gauss_newton(model, np.clip(z0.ravel(), lo, hi), lo, hi, cfg)
            for z0 in starts]
    z, _, iters, conv = min(runs, key=lambda run: run[1])  # ties: earliest start
    cmds = tuple(VelocityCommand(v, w) for v, w in z.reshape(-1, 2).tolist())
    return RetargetSolution(cmds, *model(z).costs(), iters, conv)


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


def chain_windows(start: Pose2, desired: Sequence[Pose2], sizes: Iterable[int],
                  cfg: RetargetConfig,
                  commands: Callable[[int, RetargetProblem], RetargetSolution],
                  ) -> Iterator[tuple[RetargetSolution, WindowRollout]]:
    """Cut ``desired`` into consecutive windows of ``sizes`` and chain them.

    Window i starts where the rollout of window i - 1 ended (``start``
    for the first) and anchors its smoothness term to that window's last
    command (zero for the first). ``commands(i, prob)`` gives window i's
    solution: ``retarget_track`` solves it, ``simulate`` replays it from a
    command file. Yields each solution with the rollout of its commands.
    """
    prev_cmd = VelocityCommand(0.0, 0.0)
    w0 = 0
    for i, size in enumerate(sizes):
        window = tuple(p.normalized() for p in desired[w0:w0 + size])
        prob = RetargetProblem(start, window, cfg, prev_cmd)
        try:
            sol = commands(i, prob)
        except NumericalFailureError as exc:
            raise NumericalFailureError(
                f"window {i}: {exc}", exc.last_iterate) from exc
        ro = window_rollout([[c.v, c.omega] for c in sol.cmds], prob)
        yield sol, ro
        start, prev_cmd = ro.poses()[-1], sol.cmds[-1]
        w0 += size


def retarget_track(track: WaypointTrack,
                   cfg: Optional[RetargetConfig] = None) -> list[RetargetSolution]:
    """Solve a whole waypoint track in chained windows of ``cfg.window``.

    The first waypoint is the start pose; the others are the desired
    sequence, chained by :func:`chain_windows`.
    """
    cfg = cfg or RetargetConfig()
    poses = [p for _, p in track.waypoints]
    if len(poses) < 2:
        raise InvalidArgumentError("need at least 2 waypoints to retarget")
    n = len(poses) - 1
    sizes = [min(cfg.window, n - w0) for w0 in range(0, n, cfg.window)]
    chain = chain_windows(poses[0], poses[1:], sizes, cfg,
                          lambda i, prob: solve(prob))
    return [sol for sol, _ in chain]


def write_command_file(path, solutions: Sequence[RetargetSolution],
                       dt: float) -> None:
    """Plain-text command table: one (window, v, omega, dt) row per command.

    Window cost breakdowns are recorded in '#!' comment rows so the file
    round-trips through :func:`read_command_file`.
    """
    with open(path, "w") as fh:
        fh.write("# window v omega dt\n")
        fh.write(f"#! dt={dt!r}\n")
        for i, sol in enumerate(solutions):
            fh.write(
                f"#! window={i} cost_total={sol.cost_total!r} "
                f"cost_pos={sol.cost_pos!r} cost_yaw={sol.cost_yaw!r} "
                f"cost_smooth={sol.cost_smooth!r} iterations={sol.iterations} "
                f"converged={int(sol.converged)}\n"
            )
            for c in sol.cmds:
                fh.write(f"{i} {c.v!r} {c.omega!r} {dt!r}\n")


def read_command_file(path) -> tuple[list[RetargetSolution], float]:
    """Rebuild solutions (commands + reported costs) from a command file.

    A malformed row or '#!' token, or a window without a complete
    '#! window=' record, raises :class:`InvalidArgumentError`.
    """
    metas: dict[int, dict] = {}
    cmds: dict[int, list[VelocityCommand]] = {}
    dt = None
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            try:
                if line.startswith("#!"):
                    fields = dict(kv.split("=") for kv in line[2:].split())
                    if "window" in fields:
                        metas[int(fields["window"])] = fields
                    else:
                        dt = float(fields["dt"])
                elif line.startswith("#") or not line:
                    continue
                else:
                    w, v, omega, dt_s = line.split()
                    cmds.setdefault(int(w), []).append(
                        VelocityCommand(float(v), float(omega)))
                    dt = float(dt_s)
            except (KeyError, ValueError):
                raise InvalidArgumentError(
                    f"command file {path} line {n}: malformed row {line!r}") from None
    solutions = []
    for w in sorted(cmds):
        m = metas.get(w, {})
        try:
            solutions.append(RetargetSolution(
                tuple(cmds[w]), float(m["cost_total"]), float(m["cost_pos"]),
                float(m["cost_yaw"]), float(m["cost_smooth"]),
                int(m["iterations"]), bool(int(m["converged"]))))
        except (KeyError, ValueError):
            raise InvalidArgumentError(
                f"command file {path}: window {w} has no complete "
                f"'#! window={w}' record") from None
    if dt is None:
        raise InvalidArgumentError(f"command file {path} has no dt record")
    return solutions, dt
