"""Waypoint-tracking trajectory optimization for a differential-drive base.

Finds bounded (v, omega) commands whose Euler rollout tracks a window of
K planar waypoints, minimizing the sum of squares of 5K residuals: the
x, y and wrapped yaw errors and the first differences of v and omega,
weighted by the square roots of lambda_pos, lambda_yaw, lambda_smooth.
:func:`window_rollout` yields them and their closed-form Jacobian J.
:func:`solve` runs Bertsekas's epsilon-active-set projected Newton method
(SIAM J. Control Optim. 20(2), 1982) with an Armijo search along the
projected arc, from two deterministic starts. Its Hessian is the Gauss-Newton
2 J^T J until a step cuts the cost by less than ``NEWTON_SWITCH`` (20%):
the next step then tries the exact 2 (J^T J + S), S = sum_i r_i Hess(r_i)
in closed form, and takes it if its free block is positive definite
(the hybrid of Fletcher & Xu, IMA J. Numer. Anal. 7, 1987). Windows
whose waypoints ask for more than the bounds allow keep large residuals
at the optimum, where Gauss-Newton alone converges only linearly.
``iterations`` counts solver steps of either kind. A start has
*converged* once ||z - P(z - g)|| <= grad_tol * (``STOP_FLOOR`` + f), with P
the clip to the bounds, g the gradient and f the cost; every iterate is
tested, the last one ``max_iters`` allows too. The arc search rolls its
trial points out without J and builds J only for the point it accepts,
from that rollout's own cos, sin and running sums. A brute-force grid
enumerator with its own batched rollout is an independent oracle for
small instances.

A command file holds the solutions, the objective they were solved under
and the :class:`WalkRecord` they were solved for (the recording's digest
and its waypoints), which is all a replay reads.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .geometry import TWO_PI, Pose2, VelocityCommand, wrap
from .ingest import WaypointTrack, finite_number

# a step that cuts the cost by less than this fraction makes the next step
# try the exact Hessian instead of the Gauss-Newton one
NEWTON_SWITCH = 0.2
# the stop test scales grad_tol by the cost plus this floor: 1 let windows costing
# ~1e-6 stop 1e-9 relative above their optimum; 3e-3 leaves some unconverged
STOP_FLOOR = 0.1
# the RetargetConfig fields a command file records: all of them a replay reads
OBJECTIVE = ("dt", "lambda_pos", "lambda_yaw", "lambda_smooth",
             "v_min", "v_max", "omega_min", "omega_max")


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
    window: int = 10  # waypoints per optimization window

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise InvalidArgumentError("v_min must be < v_max")
        if not self.omega_min < self.omega_max:
            raise InvalidArgumentError("omega_min must be < omega_max")
        for name in ("dt", "grad_tol"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")
        for name in ("lambda_pos", "lambda_yaw", "lambda_smooth"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be >= 0")
        for name, low in (("window", 1), ("max_iters", 0)):
            if getattr(self, name) < low:
                raise InvalidArgumentError(f"{name} must be >= {low}")


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
        return WindowRollout(states, r.ravel(), None), (cos, sin, cx, sy)

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

    def __call__(self, z, jacobian: bool = False) -> WindowRollout:
        ro, parts = self.rollout(z)
        return ro._replace(J=self.jacobian(parts)) if jacobian else ro

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
    at once (infeasible windows overshoot steadily). Trial points are
    rolled out without J, which only the accepted one gets. Returns (z, f,
    iterations, converged).
    """
    ro, parts = model.rollout(z)
    J = model.jacobian(parts)
    f = float(ro.r @ ro.r)
    if not math.isfinite(f):
        raise NumericalFailureError("initial cost is not finite",
                                    last_iterate=z.reshape(-1, 2))
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


def retarget_track(track: WaypointTrack, cfg: RetargetConfig) -> list[RetargetSolution]:
    """Solve a whole waypoint track in chained windows of ``cfg.window``.

    The first waypoint is the start pose; the others are the desired
    sequence, chained by :func:`chain_windows`.
    """
    poses = [p for _, p in track.waypoints]
    if len(poses) < 2:
        raise InvalidArgumentError("need at least 2 waypoints to retarget")
    n = len(poses) - 1
    sizes = [min(cfg.window, n - w0) for w0 in range(0, n, cfg.window)]
    chain = chain_windows(poses[0], poses[1:], sizes, cfg,
                          lambda i, prob: solve(prob))
    return [sol for sol, _ in chain]


class WalkRecord(NamedTuple):
    """The walk a command file's commands were solved for: all a replay needs of it."""

    recording_sha256: str         # hex SHA-256 of the recording file's bytes
    waypoints: tuple[Pose2, ...]  # the start pose, then each desired waypoint


def write_command_file(path, solutions: Sequence[RetargetSolution],
                       cfg: RetargetConfig, walk: WalkRecord) -> None:
    """Plain-text command table: one (window, v, omega) row per command.

    '#!' rows record the ``OBJECTIVE`` values of ``cfg`` the commands were
    solved under, the ``walk`` they were solved for (its recording digest
    and one '#! waypoint=' row per waypoint) and, in '#! window=' rows,
    each window's cost breakdown, so the file round-trips through
    :func:`read_replay`. A walk that does not have one waypoint more than
    there are commands raises :class:`InvalidArgumentError`.
    """
    n_cmds = sum(len(sol.cmds) for sol in solutions)
    if len(walk.waypoints) != n_cmds + 1:
        raise InvalidArgumentError(
            f"waypoint count {len(walk.waypoints)} is not command count {n_cmds} + 1")
    with open(path, "w") as fh:
        objective = " ".join(f"{k}={getattr(cfg, k)!r}" for k in OBJECTIVE)
        fh.write(f"# window v omega\n#! {objective}\n"
                 f"#! recording_sha256={walk.recording_sha256}\n")
        for i, p in enumerate(walk.waypoints):
            fh.write(f"#! waypoint={i} x={p.x!r} y={p.y!r} theta={p.theta!r}\n")
        for i, sol in enumerate(solutions):
            fh.write(
                f"#! window={i} cost_total={sol.cost_total!r} "
                f"cost_pos={sol.cost_pos!r} cost_yaw={sol.cost_yaw!r} "
                f"cost_smooth={sol.cost_smooth!r} iterations={sol.iterations} "
                f"converged={int(sol.converged)}\n"
            )
            for c in sol.cmds:
                fh.write(f"{i} {c.v!r} {c.omega!r}\n")


def _number(raw: str) -> float:
    """``raw`` as a float; a value that is not finite raises ValueError."""
    x = float(raw)
    if not finite_number(x):
        raise ValueError(f"{raw!r} is not finite")
    return x


def _index(fields: dict, key: str, expected: int) -> None:
    """Check that the row's ``key`` number is the next one, ``expected``."""
    if int(fields[key]) != expected:
        raise InvalidArgumentError(
            f"'{key}={fields[key]}' where {key}={expected} comes next: "
            f"a {key} number repeated or skipped")


def _read(path) -> tuple[list[RetargetSolution], RetargetConfig, Optional[WalkRecord]]:
    """The solutions, the objective and the walk record, None if the file has none."""
    metas: list[tuple] = []
    cmds: list[list[VelocityCommand]] = []
    waypoints: list[Pose2] = []
    cfg = digest = None
    record_line = 0  # the last digest or waypoint row
    rerun = "; re-run retarget to write it"
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            line, where = line.strip(), f"command file {path} line {n}"
            try:
                if line.startswith("#!"):
                    fields = dict(kv.split("=") for kv in line[2:].split())
                    if "window" in fields:
                        _index(fields, "window", len(metas))
                        metas.append((
                            *(_number(fields[k]) for k in (
                                "cost_total", "cost_pos", "cost_yaw", "cost_smooth")),
                            int(fields["iterations"]), bool(int(fields["converged"]))))
                        cmds.append([])
                    elif "waypoint" in fields:
                        _index(fields, "waypoint", len(waypoints))
                        waypoints.append(Pose2(*(_number(fields[k])
                                                 for k in ("x", "y", "theta"))))
                        record_line = n
                    elif fields.keys() == {"recording_sha256"}:
                        if digest is not None:
                            raise InvalidArgumentError("second recording_sha256 row")
                        digest = fields["recording_sha256"]
                        if not re.fullmatch("[0-9a-f]{64}", digest):
                            raise ValueError(f"{digest!r} is not a SHA-256 digest")
                        record_line = n
                    elif cfg is None and fields.keys() == set(OBJECTIVE):
                        cfg = RetargetConfig(**{k: _number(x) for k, x in fields.items()})
                    else:
                        raise InvalidArgumentError(
                            f"expected one objective row of {', '.join(OBJECTIVE)}{rerun}")
                elif line.startswith("#") or not line:
                    continue
                elif cfg is None:
                    raise InvalidArgumentError(f"command before the objective row{rerun}")
                else:
                    w, v, omega = line.split()
                    c = VelocityCommand(_number(v), _number(omega))
                    if not (cfg.v_min <= c.v <= cfg.v_max
                            and cfg.omega_min <= c.omega <= cfg.omega_max):
                        raise InvalidArgumentError(
                            f"command ({v}, {omega}) outside the objective's bounds")
                    if not metas or int(w) != len(metas) - 1:
                        raise InvalidArgumentError(
                            f"a command of window {w} must follow the "
                            f"'#! window={w}' record and precede the next one")
                    cmds[-1].append(c)
            except InvalidArgumentError as exc:
                raise InvalidArgumentError(f"{where}: {exc}") from None
            except (KeyError, ValueError):
                raise InvalidArgumentError(f"{where}: malformed row {line!r}") from None
    if cfg is None:
        raise InvalidArgumentError(f"command file {path} has no objective row{rerun}")
    if not all(cmds):
        raise InvalidArgumentError(
            f"command file {path}: window {cmds.index([])} has no commands")
    walk = None
    if digest is not None or waypoints:
        n_cmds = sum(map(len, cmds))
        if digest is None:
            raise InvalidArgumentError(
                f"command file {path}: waypoint rows without a recording_sha256 row{rerun}")
        if len(waypoints) != n_cmds + 1:
            raise InvalidArgumentError(
                f"command file {path} line {record_line}: waypoint count "
                f"{len(waypoints)} is not command count {n_cmds} + 1")
        walk = WalkRecord(digest, tuple(waypoints))
    return [RetargetSolution(tuple(c), *m) for c, m in zip(cmds, metas)], cfg, walk


def read_command_file(path) -> tuple[list[RetargetSolution], RetargetConfig]:
    """Rebuild the solutions and the objective they were solved under.

    The objective is a :class:`RetargetConfig` of the header's ``OBJECTIVE``
    values; its solver fields keep their defaults. A malformed row or '#!'
    token, a value that is not a finite number, a missing, second or late
    header, a command outside the header's bounds, a window or waypoint
    number repeated or skipped, a command not under its window's '#!
    window=' record, a window without commands, a second recording digest
    or a walk record whose waypoints are not one more than the commands
    raises :class:`InvalidArgumentError`. The walk record may be absent.
    """
    solutions, cfg, _ = _read(path)
    return solutions, cfg


def read_replay(path) -> tuple[list[RetargetSolution], RetargetConfig, WalkRecord]:
    """:func:`read_command_file` plus the walk record, which must be there.

    A file without it, such as one written before the record existed,
    raises :class:`InvalidArgumentError` asking for retarget to be re-run.
    """
    solutions, cfg, walk = _read(path)
    if walk is None:
        raise InvalidArgumentError(
            f"command file {path} has no recording_sha256 or waypoint rows; "
            "re-run retarget to write them")
    return solutions, cfg, walk
