"""Waypoint-tracking trajectory optimization for a differential-drive base.

Finds bounded (v, omega) commands whose Euler rollout tracks a window of
K planar waypoints, minimizing the sum of squares of 5K residuals: the
x, y and wrapped yaw errors and the first differences of v and omega,
weighted by the square roots of lambda_pos, lambda_yaw, lambda_smooth.
``_Window.rollout`` yields them, and ``_Window.jacobian`` their Jacobian J.
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
from that rollout's own cos, sin and running sums. Each call works on
arrays of 5K or (2K)^2 elements, so the number of NumPy calls per step
sets the solver's cost, not the arithmetic.

A command file holds the solutions, the objective they were solved under
and the :class:`WalkRecord` they were solved for (the recording's digest
and its waypoints), which is all a replay reads.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .geometry import TWO_PI, Pose2, VelocityCommand, wrap
from .ingest import WaypointTrack, finite_number, unique_keys

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

    states: np.ndarray  # (3, K) x, y, unwrapped theta after each command
    r: np.ndarray       # (5K,) residuals, blocks x, y, yaw, dv, domega

    def costs(self) -> tuple[float, float, float, float]:
        """(total, pos, yaw, smooth) parts of the objective."""
        x, y, yaw, dv, dw = (self.r.reshape(5, -1) ** 2).sum(axis=1).tolist()
        return x + y + yaw + dv + dw, x + y, yaw, dv + dw

    def poses(self) -> list[Pose2]:
        """The states as poses, headings wrapped."""
        return [Pose2(x, y, wrap(th)) for x, y, th in zip(*self.states.tolist())]


@functools.lru_cache(maxsize=32)
def _blocks(K: int, dt: float, lambda_pos: float, lambda_yaw: float,
            lambda_smooth: float) -> tuple[np.ndarray, ...]:
    """The read-only arrays every window of one size and objective shares.

    They are the (5, 1) square roots of the residual blocks' weights, the
    (K, K) lower-triangular ones (command j moves every pose k >= j), the
    (5K, K, 2) Jacobian with its constant yaw and smoothness blocks, and
    for :meth:`_Window.curvature` the strictly lower-triangular ones and
    the (K, K) index max(m, n).
    """
    sp, sy, ss = math.sqrt(lambda_pos), math.sqrt(lambda_yaw), math.sqrt(lambda_smooth)
    low = np.tril(np.ones((K, K)))
    jac = np.zeros((5 * K, K, 2))
    jac[2 * K:3 * K, :, 1] = sy * dt * low
    jac[3 * K:4 * K, :, 0] = jac[4 * K:, :, 1] = ss * (np.eye(K) - np.eye(K, k=-1))
    blocks = (np.array([sp, sp, sy, ss, ss])[:, None], low, jac, low - np.eye(K),
              np.maximum.outer(np.arange(K), np.arange(K)))
    for a in blocks:
        a.flags.writeable = False
    return blocks


class _Window:
    """One problem's rollout with its waypoint arrays and constant Jacobian blocks.

    Each rollout overwrites the previous commands in ``before``, so one
    window serves one thread.
    """

    def __init__(self, prob: RetargetProblem):
        cfg, K = prob.config, len(prob.desired)
        self.K, self.dt = K, cfg.dt
        self.origin = np.array([[prob.start.x], [prob.start.y]], dtype=float)
        self.th0 = prob.start.theta
        self.sp = math.sqrt(cfg.lambda_pos)
        self.weights, self.low, self.jac, self.strict, self.later = _blocks(
            K, cfg.dt, cfg.lambda_pos, cfg.lambda_yaw, cfg.lambda_smooth)
        f = self.sp * cfg.dt
        # dx_k/d omega_j and dy_k/d omega_j scale sy_k - sy_j and cx_k - cx_j by these
        self.turn = np.array([-f * cfg.dt, f * cfg.dt])[:, None, None]
        # what the rollout's rows x, y, yaw, v, omega are compared with: the
        # waypoints, then the command before each command
        self.before = np.empty((5, K))
        self.before[:3] = list(zip(*prob.desired))
        self.before[3:, 0] = prob.prev_cmd

    def rollout(self, z) -> tuple[WindowRollout, tuple]:
        """The rollout of ``z`` (K x 2 of v, omega) without J, and the cos, sin and
        sums J is built from; J takes the yaw error's wrap as the identity."""
        K, dt = self.K, self.dt
        z = np.asarray(z, dtype=float).reshape(-1, 2)
        if len(z) != K:
            raise InvalidArgumentError(
                f"command count {len(z)} != waypoint count {K}")
        # heading before each command: th0 + dt * (omega_0 + ... + omega_{k-1});
        # np.add.accumulate is np.cumsum without the method's call overhead
        th = np.empty(K + 1)
        th[0] = 0.0
        np.add.accumulate(z[:, 1], out=th[1:])
        th *= dt
        th += self.th0
        trig = np.empty((2, K))
        np.cos(th[:-1], out=trig[0])
        np.sin(th[:-1], out=trig[1])
        # running sums cx of v cos theta and sy of v sin theta
        sums = np.add.accumulate(z[:, 0] * trig, axis=1)
        now = np.empty((5, K))  # states, then the commands
        np.multiply(dt, sums, out=now[:2])
        now[:2] += self.origin
        now[2] = th[1:]
        now[3:] = z.T
        self.before[3:, 1:] = z[:-1].T
        r = now - self.before
        r[2] -= TWO_PI * np.rint(r[2] / TWO_PI)
        r *= self.weights
        return WindowRollout(now[:3], r.ravel()), (trig, sums)

    def jacobian(self, parts: tuple) -> np.ndarray:
        """J = dr/dz, (5K, 2K) for z = [v0, omega0, v1, ...], at the point
        whose :meth:`rollout` returned ``parts``."""
        K = self.K
        trig, sums = parts
        J = self.jac.copy()
        pos = J[:2 * K].reshape(2, K, K, 2)  # x rows, then y rows
        # d x_k / d v_j = sqrt(lambda_pos) dt cos theta_j for j <= k, and
        # d y_k / d v_j the same with sin
        np.multiply((self.sp * self.dt * trig)[:, None], self.low, out=pos[..., 0])
        # d x_k / d omega_j = -dt^2 (sy_k - sy_j) for j <= k, and
        # d y_k / d omega_j = dt^2 (cx_k - cx_j), both times sqrt(lambda_pos)
        sycx = sums[::-1]
        d = sycx[:, :, None] - sycx[:, None]
        d *= self.turn
        np.multiply(d, self.low, out=pos[..., 1])
        return J.reshape(5 * K, 2 * K)

    def curvature(self, z, ro: WindowRollout, parts: tuple) -> np.ndarray:
        """S = sum_i r_i Hess(r_i) at ``z``: the cost's Hessian is 2 (J^T J + S).

        ``ro`` and ``parts`` are what :meth:`rollout` returned for ``z``, so
        theta_j's cos and sin are the ones J is built from. Only the position
        residuals are nonlinear. With Rx_j, Ry_j the sums of the x and y
        residuals k >= j and theta_j the heading before command j,
        S[v_j, omega_m] for m < j is sqrt(lambda_pos) dt^2 (cos theta_j Ry_j
        - sin theta_j Rx_j), and S[omega_m, omega_n] is -sqrt(lambda_pos)
        dt^3 times the sum over j > max(m, n) of v_j (cos theta_j Rx_j +
        sin theta_j Ry_j).
        """
        K, dt = self.K, self.dt
        v = np.asarray(z, dtype=float).reshape(-1, 2)[:, 0]
        cos, sin = parts[0]
        rx, ry = np.add.accumulate(ro.r[:2 * K].reshape(2, K)[:, ::-1], axis=1)[:, ::-1]
        b = v * (cos * rx + sin * ry)
        after = np.zeros(K)  # sum of b_j over j > m
        np.add.accumulate(b[:0:-1], out=after[-2::-1])
        f = self.sp * dt * dt
        S = np.zeros((K, 2, K, 2))
        S[:, 0, :, 1] = f * (cos * ry - sin * rx)[:, None] * self.strict
        S[:, 1, :, 0] = S[:, 0, :, 1].T
        S[:, 1, :, 1] = -f * dt * after[self.later]
        return S.reshape(2 * K, 2 * K)


def cost(z, prob: RetargetProblem) -> tuple[float, float, float, float]:
    """Evaluate the tracking objective; returns (total, pos, yaw, smooth)."""
    return _Window(prob).rollout(z)[0].costs()


def _fd_inversion_init(prob: RetargetProblem) -> np.ndarray:
    """Initialize by finite-difference inversion of the desired waypoints."""
    p = np.array((prob.start, *prob.desired))
    dx, dy, dth = np.diff(p, axis=0).T
    v = dx * np.cos(p[:-1, 2]) + dy * np.sin(p[:-1, 2])
    with np.errstate(over="ignore"):  # a tiny dt; solve clips the start to the bounds
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
    iterations, converged, the rollout of z).
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
        pg = z - np.minimum(np.maximum(z - g, lo), hi)
        pg_norm = math.sqrt(float(pg @ pg))
        if pg_norm <= cfg.grad_tol * (STOP_FLOOR + f):
            return z, f, iters, True, ro
        if iters == cfg.max_iters:
            return z, f, iters, False, ro
        eps = min(1e-3, pg_norm)
        free = ~(((z <= lo + eps) & (g > 0)) | ((z >= hi - eps) & (g < 0)))
        H = 2.0 * (J.T @ J)
        diag = H.diagonal()
        diag = diag + 1e-12 * (1.0 + diag.max())
        coupled = free[:, None] & free
        H *= coupled  # decouple the active variables ...
        H.flat[::len(z) + 1] = diag  # ... which keep only their diagonal
        if stalled:
            newton = H + 2.0 * model.curvature(z, ro, parts) * coupled
            try:
                np.linalg.cholesky(newton)
            except np.linalg.LinAlgError:
                pass  # not positive definite: keep the Gauss-Newton step
            else:
                H = newton
        d = np.linalg.solve(H, -g)
        g_free = np.where(free, g, 0.0)
        slope = float(g_free @ d)
        g_active = g - g_free
        trial = a
        while True:
            z_new = a * d
            z_new += z
            np.maximum(z_new, lo, out=z_new)
            np.minimum(z_new, hi, out=z_new)
            ro_new, parts = model.rollout(z_new)
            f_new = float(ro_new.r @ ro_new.r)
            if not math.isfinite(f_new):
                raise NumericalFailureError("cost became non-finite during the arc search")
            if f_new <= f + 1e-4 * (a * slope + float(g_active @ (z_new - z))):
                break
            a *= 0.5
            if a < 1e-12:
                return z, f, iters, False, ro  # no descent left at this precision
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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite cost raises
        runs = [_gauss_newton(model, np.clip(z0.ravel(), lo, hi), lo, hi, cfg)
                for z0 in (np.zeros((K, 2)), _fd_inversion_init(prob))]
    z, _, iters, conv, ro = min(runs, key=lambda run: run[1])  # ties: earliest start
    cmds = tuple(map(VelocityCommand._make, z.reshape(-1, 2).tolist()))
    return RetargetSolution(cmds, *ro.costs(), iters, conv)


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
            raise NumericalFailureError(f"window {i}: {exc}") from exc
        ro = _Window(prob).rollout(sol.cmds)[0]
        yield sol, ro
        start = Pose2._make(ro.states[:, -1].tolist()).normalized()
        prev_cmd = sol.cmds[-1]
        w0 += size


def retarget_track(track: WaypointTrack, cfg: RetargetConfig) -> list[RetargetSolution]:
    """Solve a whole waypoint track in chained windows of ``cfg.window``.

    The first waypoint is the start pose; the others are the desired
    sequence, chained by :func:`chain_windows`: one waypoint gives ``[]``,
    and none raises :class:`InvalidArgumentError`.
    """
    poses = [p for _, p in track.waypoints]
    if not poses:
        raise InvalidArgumentError("track has no waypoints")
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
    objective = " ".join(f"{k}={getattr(cfg, k)!r}" for k in OBJECTIVE)
    rows = ["# window v omega", f"#! {objective}",
            f"#! recording_sha256={walk.recording_sha256}"]
    rows += [f"#! waypoint={i} x={p.x!r} y={p.y!r} theta={p.theta!r}"
             for i, p in enumerate(walk.waypoints)]
    for i, sol in enumerate(solutions):
        rows.append(
            f"#! window={i} cost_total={sol.cost_total!r} "
            f"cost_pos={sol.cost_pos!r} cost_yaw={sol.cost_yaw!r} "
            f"cost_smooth={sol.cost_smooth!r} iterations={sol.iterations} "
            f"converged={int(sol.converged)}")
        rows += [f"{i} {c.v!r} {c.omega!r}" for c in sol.cmds]
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _number(raw: str) -> float:
    """``raw`` as a float; a value that is not finite raises ValueError."""
    x = float(raw)
    if not finite_number(x):
        raise ValueError(f"{raw!r} is not finite")
    return x


def _record(fields: dict, keys: tuple[str, ...], expected: int | None = None) -> None:
    """Check that a '#!' row has just ``keys`` and its ``keys[0]`` is ``expected``,
    if given."""
    key = keys[0]
    if fields.keys() != set(keys):
        odd = ", ".join(map(repr, sorted(fields.keys() ^ set(keys))))
        raise InvalidArgumentError(f"a '#! {key}=' row has the keys {', '.join(keys)}, "
                                   f"each once; this one differs in {odd}")
    if expected is not None and int(fields[key]) != expected:
        raise InvalidArgumentError(
            f"'{key}={fields[key]}' where {key}={expected} comes next: "
            f"a {key} number repeated or skipped")


def read_replay(path) -> tuple[list[RetargetSolution], RetargetConfig, WalkRecord]:
    """Rebuild the solutions, the objective they were solved under and the walk.

    The objective is a :class:`RetargetConfig` of the header's ``OBJECTIVE``
    values; its solver fields keep their defaults. A malformed row or '#!'
    token, a '#!' row with a key repeated, missing or unknown, a value that
    is not a finite number, a missing, second or late header, a window
    record with a negative cost or iteration count or a ``converged`` other
    than 0 or 1, a command outside the header's bounds, a window or
    waypoint number repeated or skipped, a command not under its window's
    '#! window=' record, a window without commands, a missing or second
    recording digest, waypoints that are not one more than the commands or
    bytes that are not UTF-8 raise :class:`InvalidArgumentError`. A file
    without the objective row or the walk record, written before either
    existed, asks for retarget to be re-run.
    """
    metas: list[tuple] = []
    cmds: list[list[VelocityCommand]] = []
    waypoints: list[Pose2] = []
    cfg = digest = None
    record_line = 0  # the last digest or waypoint row
    rerun = "; re-run retarget to write it"
    with open(path) as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"command file {path}: {exc}") from None
        for n, line in enumerate(lines, start=1):
            line, where = line.strip(), f"command file {path} line {n}"
            try:
                if line.startswith("#!"):
                    fields = unique_keys(kv.split("=") for kv in line[2:].split())
                    if "window" in fields:
                        names = ("cost_total", "cost_pos", "cost_yaw", "cost_smooth")
                        _record(fields, ("window", *names, "iterations", "converged"),
                                len(metas))
                        costs = [_number(fields[k]) for k in names]
                        iterations = int(fields["iterations"])
                        converged = int(fields["converged"])
                        if min(costs) < 0 or iterations < 0 or converged not in (0, 1):
                            raise InvalidArgumentError(
                                "a window record needs costs >= 0, iterations >= 0 "
                                "and converged 0 or 1")
                        metas.append((*costs, iterations, bool(converged)))
                        cmds.append([])
                    elif "waypoint" in fields:
                        _record(fields, ("waypoint", "x", "y", "theta"), len(waypoints))
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
                    elif cfg is None and fields.keys() >= set(OBJECTIVE):
                        _record(fields, OBJECTIVE)  # names a key beyond them
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
    if digest is None:
        raise InvalidArgumentError(
            f"command file {path} has no recording_sha256 row{rerun}")
    n_cmds = sum(map(len, cmds))
    if len(waypoints) != n_cmds + 1:
        raise InvalidArgumentError(
            f"command file {path} line {record_line}: waypoint count "
            f"{len(waypoints)} is not command count {n_cmds} + 1")
    return ([RetargetSolution(tuple(c), *m) for c, m in zip(cmds, metas)], cfg,
            WalkRecord(digest, tuple(waypoints)))


def read_command_file(path) -> tuple[list[RetargetSolution], RetargetConfig]:
    """The solutions and the objective of :func:`read_replay`."""
    return read_replay(path)[:2]
