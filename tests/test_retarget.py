import dataclasses
import math

import numpy as np
import pytest

from egonav import retarget
from egonav.cli import main
from egonav.errors import InvalidArgumentError
from egonav.geometry import Pose2, VelocityCommand, wrap
from egonav.ingest import WaypointTrack, extract_waypoints, serialize_recording
from egonav.retarget import (OBJECTIVE, RetargetConfig, RetargetProblem,
                             RetargetSolution, WalkRecord, _Window, cost,
                             read_command_file, read_replay, retarget_track, solve,
                             write_command_file)
from egonav.simulator import simulate, spec_from_json, synthesize

from conftest import two_zone_spec
from oracles import brute_force, gradient, rollout
from test_cli import E2E_SPEC

CFG = RetargetConfig()


@pytest.fixture(scope="module")
def two_zone_run():
    """Waypoints and solved windows of the two-zone walk at the defaults.

    Waypoints 0.25 m apart every 0.16 s ask for more than v_max, so the
    windows are infeasible and most commands sit at the v bound.
    """
    ep, _ = synthesize(two_zone_spec(seed=3))
    track = extract_waypoints(ep)
    return [p for _, p in track.waypoints], retarget_track(track, CFG)


def two_zone_window(poses, sols, i):
    """Window ``i`` of the two-zone run, started where the windows before it end."""
    start, prev = poses[0], VelocityCommand(0.0, 0.0)
    n = sum(len(s.cmds) for s in sols[:i])
    if i:
        start = simulate(poses[0], sols[:i], poses[1:n + 1], CFG).poses[-1]
        prev = sols[i - 1].cmds[-1]
    desired = poses[n + 1:n + 1 + len(sols[i].cmds)]
    return RetargetProblem(start, tuple(p.normalized() for p in desired), CFG, prev)


def random_problem(rng, k, cfg=CFG):
    desired = tuple(
        Pose2(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8)),
              float(rng.uniform(-2.5, 2.5)))
        for _ in range(k)
    )
    prev = VelocityCommand(float(rng.uniform(-0.5, 0.5)),
                           float(rng.uniform(-1.0, 1.0)))
    return RetargetProblem(Pose2(0, 0, 0), desired, cfg, prev)


def fd_gradient(z, prob, h=1e-6):
    z = np.asarray(z, dtype=float)
    g = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(2):
            zp = z.copy()
            zp[i, j] += h
            zm = z.copy()
            zm[i, j] -= h
            g[i, j] = (cost(zp, prob)[0] - cost(zm, prob)[0]) / (2 * h)
    return g


class TestCost:
    def test_zero_case(self):
        prob = RetargetProblem(Pose2(0, 0, 0),
                               (Pose2(0, 0, 0),) * 3, CFG)
        total, *_ = cost(np.zeros((3, 2)), prob)
        assert total == 0.0

    def test_hand_evaluated_single_step(self):
        prob = RetargetProblem(Pose2(0, 0, 0), (Pose2(0.16, 0, 0),), CFG)
        total, c_pos, c_yaw, c_smooth = cost([[1.0, 0.0]], prob)
        assert c_pos == pytest.approx(0.0, abs=1e-15)
        assert c_yaw == 0.0
        assert c_smooth == pytest.approx(1.0)
        assert total == pytest.approx(1.0)

    def test_weight_linearity(self):
        rng = np.random.default_rng(1)
        prob1 = random_problem(rng, 4)
        cfg2 = RetargetConfig(lambda_pos=64.0)
        prob2 = RetargetProblem(prob1.start, prob1.desired, cfg2,
                                prob1.prev_cmd)
        z = rng.uniform(-0.5, 0.5, (4, 2))
        _, p1, y1, s1 = cost(z, prob1)
        _, p2, y2, s2 = cost(z, prob2)
        assert p2 == pytest.approx(2 * p1)
        assert y2 == pytest.approx(y1)
        assert s2 == pytest.approx(s1)

    def test_components_sum_and_nonneg(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prob = random_problem(rng, 5)
            z = rng.uniform(-1, 1, (5, 2))
            total, p, y, s = cost(z, prob)
            assert p >= 0 and y >= 0 and s >= 0
            assert total == pytest.approx(p + y + s, abs=1e-9)

    def test_rollout_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            prob = random_problem(rng, int(rng.integers(1, 12)))
            z = np.column_stack([rng.uniform(-1, 1, len(prob.desired)),
                                 rng.uniform(-math.pi, math.pi, len(prob.desired))])
            ref = rollout(prob.start, [VelocityCommand(v, w) for v, w in z], CFG.dt)
            x, y, th = _Window(prob).rollout(z)[0].states
            for p, xk, yk, tk in zip(ref, x, y, th):
                assert abs(p.x - xk) <= 1e-12 and abs(p.y - yk) <= 1e-12
                assert abs(wrap(p.theta - tk)) <= 1e-12

    def test_length_mismatch(self):
        prob = RetargetProblem(Pose2(0, 0, 0), (Pose2(1, 0, 0),), CFG)
        with pytest.raises(InvalidArgumentError):
            cost(np.zeros((2, 2)), prob)

    def test_problem_needs_a_waypoint(self):
        with pytest.raises(InvalidArgumentError, match="waypoint sequence is empty"):
            RetargetProblem(Pose2(0, 0, 0), (), CFG)


def test_windows_share_read_only_constant_blocks():
    rng = np.random.default_rng(4)
    a, b = _Window(random_problem(rng, 4)), _Window(random_problem(rng, 4))
    blocks = ("weights", "low", "jac", "strict", "later")
    assert all(getattr(a, name) is getattr(b, name) for name in blocks)
    assert not any(getattr(a, name).flags.writeable for name in blocks)
    assert np.array_equal(a.strict, np.tril(np.ones((4, 4)), k=-1))
    assert a.later.tolist() == [[max(m, n) for n in range(4)] for m in range(4)]
    J = a.jacobian(a.rollout(np.zeros(8))[1])
    assert J.flags.writeable and not np.shares_memory(J, a.jac)
    assert _Window(random_problem(rng, 3)).jac.shape == (15, 3, 2)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            prob = random_problem(rng, int(rng.integers(1, 8)))
            k = len(prob.desired)
            z = rng.uniform(-0.9, 0.9, (k, 2))
            g = gradient(z, prob)
            fd = fd_gradient(z, prob)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
            assert rel.max() <= 1e-5

    def test_hessian_matches_finite_differences(self):
        # 2 (J^T J + S) against central differences of the exact gradient
        rng = np.random.default_rng(21)
        for k in range(1, 11):
            prob = random_problem(rng, k)
            z = np.column_stack([rng.uniform(-1, 1, k),
                                 rng.uniform(-3, 3, k)]).ravel()
            model = _Window(prob)
            ro, parts = model.rollout(z)
            J = model.jacobian(parts)
            hess = 2.0 * (J.T @ J + model.curvature(z, ro, parts))
            h = 1e-5
            fd = np.column_stack([
                (gradient(z + h * e, prob) - gradient(z - h * e, prob)).ravel()
                / (2 * h) for e in np.eye(2 * k)])
            assert np.abs(hess - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_translation_symmetry(self):
        # pure-translation target from zero commands: omega gradient vanishes
        prob = RetargetProblem(Pose2(0, 0, 0),
                               tuple(Pose2(0.2 * (i + 1), 0, 0)
                                     for i in range(4)), CFG)
        g = gradient(np.zeros((4, 2)), prob)
        assert g[:, 1] == pytest.approx(np.zeros(4), abs=1e-15)

    def test_stationary_at_minimum(self):
        # zero commands on a stationary target with zero prev_cmd
        prob = RetargetProblem(Pose2(0, 0, 0), (Pose2(0, 0, 0),) * 3, CFG)
        g = gradient(np.zeros((3, 2)), prob)
        assert np.abs(g).max() <= CFG.grad_tol


class TestSolve:
    def test_stationary_target(self):
        prob = RetargetProblem(Pose2(0, 0, 0), (Pose2(0, 0, 0),) * 5, CFG)
        sol = solve(prob)
        assert sol.cost_total == pytest.approx(0.0, abs=1e-12)
        assert all(c.v == pytest.approx(0.0, abs=1e-9) for c in sol.cmds)

    def test_feasible_recovery(self):
        # slowly drifting bounded commands; the robot is already moving, so
        # prev_cmd matches the first command
        k = 30
        t = np.arange(k)
        z_true = np.stack([0.5 + 0.002 * t, 0.2 + 0.001 * t], axis=1)
        cmds = [VelocityCommand(*c) for c in z_true]
        desired = tuple(rollout(Pose2(0, 0, 0), cmds, CFG.dt))
        sol = solve(RetargetProblem(Pose2(0, 0, 0), desired, CFG, cmds[0]))
        poses = rollout(Pose2(0, 0, 0), list(sol.cmds), CFG.dt)
        rmse = math.sqrt(sum((a.x - b.x) ** 2 + (a.y - b.y) ** 2
                             for a, b in zip(poses, desired)) / k)
        assert rmse <= 1e-3

    def test_commands_within_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            prob = random_problem(rng, 6)
            sol = solve(prob)
            for c in sol.cmds:
                assert CFG.v_min <= c.v <= CFG.v_max
                assert CFG.omega_min <= c.omega <= CFG.omega_max

    def test_cost_breakdown_consistent(self):
        rng = np.random.default_rng(5)
        sol = solve(random_problem(rng, 5))
        assert sol.cost_total == pytest.approx(
            sol.cost_pos + sol.cost_yaw + sol.cost_smooth, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng, 5)
        a = solve(prob)
        b = solve(prob)
        assert a.cmds == b.cmds
        assert a.cost_total == b.cost_total

    def test_beats_initializations(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            prob = random_problem(rng, 4)
            sol = solve(prob)
            zeros_cost, *_ = cost(np.zeros((4, 2)), prob)
            assert sol.cost_total <= zeros_cost + 1e-9

    def test_starts_are_zeros_then_the_fd_inversion(self, monkeypatch):
        starts = []
        gauss_newton = retarget._gauss_newton

        def recorded(model, z, *args):
            starts.append(z.copy())
            return gauss_newton(model, z, *args)

        monkeypatch.setattr(retarget, "_gauss_newton", recorded)
        rng = np.random.default_rng(8)
        for _ in range(5):
            prob = random_problem(rng, 6)
            starts.clear()
            solve(prob)
            assert len(starts) == 2 and not starts[0].any() and starts[1].any()


class TestBruteForce:
    def test_stationary_zero_on_grid(self):
        prob = RetargetProblem(Pose2(0, 0, 0), (Pose2(0, 0, 0),), CFG)
        z, c = brute_force(prob, 3)  # odd grid includes 0
        assert z[0] == pytest.approx([0.0, 0.0])
        assert c == pytest.approx(0.0, abs=1e-15)

    def test_grid_count(self):
        # 3 points per axis, K=1: the 9 grid points exactly
        prob = RetargetProblem(Pose2(0, 0, 0), (Pose2(0.1, 0, 0),), CFG)
        vs = np.linspace(CFG.v_min, CFG.v_max, 3)
        ws = np.linspace(CFG.omega_min, CFG.omega_max, 3)
        grid_costs = [cost([[v, w]], prob)[0] for v in vs for w in ws]
        _, c = brute_force(prob, 3)
        assert c == pytest.approx(min(grid_costs))

    def test_solver_dominates_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            prob = random_problem(rng, int(rng.integers(1, 4)))
            _, cb = brute_force(prob, 9)
            sol = solve(prob)
            assert sol.cost_total <= cb + 1e-3

    def test_budget_guard(self):
        prob = RetargetProblem(Pose2(0, 0, 0), (Pose2(0.1, 0, 0),) * 5, CFG)
        with pytest.raises(InvalidArgumentError):
            brute_force(prob, 9)


class TestRetargetTrack:
    def straight_track(self, n, spacing=0.16):
        wps = tuple((i, Pose2(spacing * i, 0.0, 0.0)) for i in range(n))
        return WaypointTrack(wps)

    def test_window_chaining(self):
        track = self.straight_track(21)
        sols = retarget_track(track, CFG)
        assert len(sols) == 2
        assert len(sols[0].cmds) == 10 and len(sols[1].cmds) == 10

    def test_straight_line_near_unit_speed(self):
        track = self.straight_track(21)
        sols = retarget_track(track, CFG)
        vs = [c.v for s in sols for c in s.cmds]
        assert np.mean(vs) == pytest.approx(1.0, abs=0.1)
        assert all(abs(c.omega) < 0.15 for s in sols for c in s.cmds)

    def test_single_window_matches_solve(self):
        track = self.straight_track(6)
        sols = retarget_track(track, CFG)
        desired = tuple(p for _, p in track.waypoints[1:])
        direct = solve(RetargetProblem(Pose2(0, 0, 0), desired, CFG))
        assert sols[0].cmds == direct.cmds

    def test_too_few_waypoints(self):
        # one waypoint is a stationary walk: no window, nothing to command
        assert retarget_track(self.straight_track(1), CFG) == []
        with pytest.raises(InvalidArgumentError):
            retarget_track(WaypointTrack(()), CFG)

    def test_simulate_replays_the_chain_exactly(self, two_zone_run):
        poses, sols = two_zone_run
        res = simulate(poses[0], sols, poses[1:], CFG)
        assert res.cost_discrepancy == 0.0
        # the last window starts where the simulated earlier windows end,
        # which is where retarget_track chained it from
        n = len(sols[-1].cmds)
        last = RetargetProblem(res.poses[-n - 1],
                               tuple(p.normalized() for p in poses[-n:]),
                               CFG, sols[-2].cmds[-1])
        assert solve(last) == sols[-1]
        z = [[c.v, c.omega] for c in sols[-1].cmds]
        assert res.poses[-1] == _Window(last).rollout(z)[0].poses()[-1]


class TestConvergence:
    def test_saturated_walk_windows_converge(self, two_zone_run):
        _, sols = two_zone_run
        assert len(sols) == 13
        assert sum(s.converged for s in sols) >= 12

    def test_iteration_cap_is_not_convergence(self, two_zone_run):
        poses, sols = two_zone_run
        prob = RetargetProblem(poses[0], tuple(p.normalized() for p in poses[1:11]),
                               CFG)
        assert solve(prob) == sols[0] and sols[0].iterations > 1
        capped = solve(dataclasses.replace(
            prob, config=dataclasses.replace(CFG, max_iters=1)))
        assert capped.iterations == 1
        assert not capped.converged
        assert capped.cost_total > sols[0].cost_total

    def test_saturated_walk_takes_few_steps(self, two_zone_run, monkeypatch):
        # every start's steps, two per window; Gauss-Newton steps alone took
        # 1003 over the track with three starts, and 68, 135 and 144 on window 5
        steps = []
        gauss_newton = retarget._gauss_newton

        def counted(*args):
            run = gauss_newton(*args)
            steps.append(run[2])
            return run

        monkeypatch.setattr(retarget, "_gauss_newton", counted)
        ep, _ = synthesize(two_zone_spec(seed=3))
        assert retarget_track(extract_waypoints(ep), CFG) == two_zone_run[1]
        assert len(steps) == 2 * 13
        assert sum(steps) <= 300
        assert max(steps[10:12]) <= 20

    def test_newton_fallback_is_gauss_newton(self, two_zone_run, monkeypatch):
        poses, sols = two_zone_run
        prob = two_zone_window(poses, sols, 5)
        hybrid = solve(prob)
        assert hybrid == sols[5]

        def not_positive_definite(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        gn = solve(prob)
        assert gn.converged
        assert gn.iterations > 3 * hybrid.iterations
        assert gn.cost_total == pytest.approx(hybrid.cost_total, rel=1e-9)


def reference_residuals(z, prob):
    """The objective's residuals from the scalar reference rollout."""
    cfg = prob.config
    z = z.reshape(-1, 2)
    poses = rollout(prob.start, [VelocityCommand(v, w) for v, w in z], cfg.dt)
    sp, sy = math.sqrt(cfg.lambda_pos), math.sqrt(cfg.lambda_yaw)
    r = [e for p, d in zip(poses, prob.desired)
         for e in (sp * (p.x - d.x), sp * (p.y - d.y), sy * wrap(p.theta - d.theta))]
    prev = np.vstack([[prob.prev_cmd.v, prob.prev_cmd.omega], z[:-1]])
    return np.concatenate([r, math.sqrt(cfg.lambda_smooth) * (z - prev).ravel()])


def test_solve_matches_bounded_least_squares_oracle():
    # scipy's trust-region reflective solver (Coleman & Li 1996) on the
    # same objective, started from zero commands and from solve's answer
    opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(30)
    for k in range(1, 11):
        lb = np.tile([CFG.v_min, CFG.omega_min], k)
        ub = np.tile([CFG.v_max, CFG.omega_max], k)
        for spacing in (0.08, 0.3):  # 0.3 m per 0.16 s step saturates v
            heading = float(rng.uniform(-math.pi, math.pi)) + np.cumsum(
                rng.uniform(-0.5, 0.5, k))
            xs = np.cumsum(spacing * np.cos(heading))
            ys = np.cumsum(spacing * np.sin(heading))
            prob = RetargetProblem(
                Pose2(0.0, 0.0, float(heading[0])),
                tuple(Pose2(x, y, wrap(h)) for x, y, h in zip(xs, ys, heading)),
                CFG, VelocityCommand(float(rng.uniform(0.5, 1)),
                                     float(rng.uniform(-1, 1))))
            sol = solve(prob)
            z = np.array([[c.v, c.omega] for c in sol.cmds]).ravel()
            trf = min(
                float(np.sum(reference_residuals(opt.least_squares(
                    reference_residuals, z0, jac="3-point", bounds=(lb, ub),
                    method="trf", ftol=1e-15, xtol=1e-15, gtol=1e-15,
                    args=(prob,)).x, prob) ** 2))
                for z0 in (np.zeros(2 * k), z))
            assert sol.cost_total <= trf * (1 + 1e-9) + 1e-12
            if spacing > CFG.v_max * CFG.dt:
                assert max(c.v for c in sol.cmds) == CFG.v_max


def test_small_cost_windows_stop_at_their_optimum():
    # the feasible end-to-end walk: its window 6 costs ~1e-6, where a stop
    # test with a floor of 1 left it 1.6e-9 relative above the oracle; the
    # 1e-18 slack covers float64 rounding of windows costing ~1e-9
    opt = pytest.importorskip("scipy.optimize")
    ep, _ = synthesize(spec_from_json(E2E_SPEC))
    track = extract_waypoints(ep, d_thresh=0.13)
    poses, sols = [p for _, p in track.waypoints], retarget_track(track, CFG)
    for i, sol in enumerate(sols):
        prob = two_zone_window(poses, sols, i)
        k = len(sol.cmds)
        bounds = (np.tile([CFG.v_min, CFG.omega_min], k),
                  np.tile([CFG.v_max, CFG.omega_max], k))
        z = np.array([[c.v, c.omega] for c in sol.cmds]).ravel()
        trf = min(
            float(np.sum(reference_residuals(opt.least_squares(
                reference_residuals, z0, bounds=bounds, method="trf",
                ftol=1e-15, xtol=1e-15, gtol=1e-15, args=(prob,)).x, prob) ** 2))
            for z0 in (np.zeros(2 * k), z))
        assert sol.cost_total <= trf * (1 + 1e-10) + 1e-18


def test_command_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    sols = [solve(random_problem(rng, 3)) for _ in range(2)]
    path = tmp_path / "commands.txt"
    write_command_file(path, sols, CFG, WalkRecord("0" * 64, (Pose2(0, 0, 0),) * 7))
    back, cfg = read_command_file(path)
    assert cfg == CFG
    assert [s.cmds for s in back] == [s.cmds for s in sols]
    assert [s.cost_total for s in back] == [s.cost_total for s in sols]


@pytest.mark.parametrize("n_waypoints", [2, 4], ids=["fewer", "more"])
def test_command_file_needs_one_waypoint_more_than_commands(tmp_path, n_waypoints):
    sol = RetargetSolution((VelocityCommand(0.0, 0.0),) * 2, 0.0, 0.0, 0.0, 0.0, 0, True)
    walk = WalkRecord("0" * 64, (Pose2(0, 0, 0),) * n_waypoints)
    with pytest.raises(InvalidArgumentError,
                       match=rf"waypoint count {n_waypoints} is not command count 2 \+ 1"):
        write_command_file(tmp_path / "commands.txt", [sol], CFG, walk)


def test_command_file_text(tmp_path):
    # the writer's bytes: the objective, the walk, then each window's record
    # and commands, one row per line
    sols = [RetargetSolution((VelocityCommand(1.0, -0.5), VelocityCommand(0.25, 0.0)),
                             3.5, 2.0, 1.0, 0.5, 4, True),
            RetargetSolution((VelocityCommand(-1.0, 3.0),), 0.125, 0.0, 0.125, 0.0,
                             500, False)]
    walk = WalkRecord("ab" * 32, (Pose2(0.0, 0.0, 0.0), Pose2(0.16, 0.0, 0.1),
                                  Pose2(0.3, 0.02, -3.0), Pose2(0.1, 0.0, 3.1)))
    path = tmp_path / "commands.txt"
    write_command_file(path, sols, CFG, walk)
    assert path.read_text() == (
        "# window v omega\n"
        "#! dt=0.16 lambda_pos=32.0 lambda_yaw=2.0 lambda_smooth=1.0 v_min=-1.0 "
        "v_max=1.0 omega_min=-3.141592653589793 omega_max=3.141592653589793\n"
        f"#! recording_sha256={'ab' * 32}\n"
        "#! waypoint=0 x=0.0 y=0.0 theta=0.0\n"
        "#! waypoint=1 x=0.16 y=0.0 theta=0.1\n"
        "#! waypoint=2 x=0.3 y=0.02 theta=-3.0\n"
        "#! waypoint=3 x=0.1 y=0.0 theta=3.1\n"
        "#! window=0 cost_total=3.5 cost_pos=2.0 cost_yaw=1.0 cost_smooth=0.5 "
        "iterations=4 converged=1\n"
        "0 1.0 -0.5\n"
        "0 0.25 0.0\n"
        "#! window=1 cost_total=0.125 cost_pos=0.0 cost_yaw=0.125 cost_smooth=0.0 "
        "iterations=500 converged=0\n"
        "1 -1.0 3.0\n")


class TestCommandFileErrors:
    OBJECTIVE_ROW = ("#! dt=0.16 lambda_pos=32.0 lambda_yaw=2.0 lambda_smooth=1.0 "
                     "v_min=-1.0 v_max=1.0 omega_min=-3.0 omega_max=3.0\n")
    DIGEST_ROW = "#! recording_sha256=" + "0" * 64 + "\n"
    WAYPOINT_1 = "#! waypoint=1 x=0.08 y=0.0 theta=0.016\n"
    WALK = DIGEST_ROW + "#! waypoint=0 x=0.0 y=0.0 theta=0.0\n" + WAYPOINT_1
    ROWS = OBJECTIVE_ROW + WALK + "0 0.5 0.1\n"
    RECORD = ("#! window=0 cost_total=0.5 cost_pos=0.25 cost_yaw=0.125 "
              "cost_smooth=0.125 iterations=3 converged=1\n")

    def check(self, tmp_path, text):
        path = tmp_path / "commands.txt"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError):
            read_command_file(path)
        # simulate reads the command file first, so the recording may be absent
        assert main(["simulate", str(path), str(tmp_path / "rec.jsonl"),
                     "--out", str(tmp_path / "sim.json")]) == 2

    def test_commands_without_window_record(self, tmp_path):
        self.check(tmp_path, self.ROWS)

    @pytest.mark.parametrize("text, words", [
        # the one header row a command file had before it recorded the objective
        ("#! dt=0.16\n", "line 1: expected one objective row"),
        ("# window v omega\n", "no objective row"),
        ("0 0.5 0.1\n" + OBJECTIVE_ROW, "line 1: command before the objective row"),
        (OBJECTIVE_ROW * 2, "line 2: expected one objective row"),
        (OBJECTIVE_ROW.replace(" omega_max=3.0", ""), "line 1: expected one"),
        (OBJECTIVE_ROW.replace("v_max=1.0", "v_max=-2.0"), "v_min must be < v_max"),
        (OBJECTIVE_ROW.replace("dt=0.16", "dt=0.0"), "dt must be positive"),
        (OBJECTIVE_ROW + "0 1.5 0.1\n", "line 2: command (1.5, 0.1) outside"),
        (OBJECTIVE_ROW + "0 0.5 -3.5\n", "line 2: command (0.5, -3.5) outside"),
    ], ids=["dt-only", "none", "command-first", "two", "omega-max-missing", "empty-v-range",
            "zero-dt", "v-above-v-max", "omega-below-omega-min"])
    def test_objective_row_fault(self, tmp_path, capsys, text, words):
        self.check(tmp_path, text)
        err = capsys.readouterr().err
        assert str(tmp_path / "commands.txt") in err and words in err
        if "objective row" in words:  # a file from before the row asks for a re-run
            assert "re-run retarget" in err

    W0 = RECORD + "0 0.5 0.1\n"
    RECORD_1 = RECORD.replace("window=0", "window=1")

    @pytest.mark.parametrize("text, words", [
        (OBJECTIVE_ROW + W0 + W0, "line 4: 'window=0' where window=1 comes next"),
        (OBJECTIVE_ROW + W0 + RECORD.replace("window=0", "window=5") + "5 0.5 0.1\n",
         "line 4: 'window=5' where window=1 comes next"),
        (OBJECTIVE_ROW + W0 + RECORD_1 + "0 0.5 0.1\n",
         "line 5: a command of window 0 must follow"),
        (OBJECTIVE_ROW + "-1 0.5 0.1\n" + W0, "line 2: a command of window -1 must follow"),
        (OBJECTIVE_ROW + W0 + RECORD_1, "window 1 has no commands"),
    ], ids=["repeated", "skipped", "command-under-next-record", "command-before-records",
            "no-commands"])
    def test_window_numbers_in_order(self, tmp_path, capsys, text, words):
        self.check(tmp_path, text)
        err = capsys.readouterr().err
        assert str(tmp_path / "commands.txt") in err and words in err

    @pytest.mark.parametrize("text, words", [
        (OBJECTIVE_ROW + WALK + DIGEST_ROW + W0, "line 5: second recording_sha256 row"),
        (OBJECTIVE_ROW + WALK.replace("0" * 64, "0" * 63) + W0, "line 2: malformed row"),
        (OBJECTIVE_ROW + WALK.replace("x=0.08", "x=nan") + W0, "line 4: malformed row"),
        (OBJECTIVE_ROW + WALK.replace("theta=0.016", "theta=inf") + W0,
         "line 4: malformed row"),
        (OBJECTIVE_ROW + WALK.replace("waypoint=1", "waypoint=2") + W0,
         "line 4: 'waypoint=2' where waypoint=1 comes next"),
        (OBJECTIVE_ROW + WALK.replace(WAYPOINT_1, "") + W0,
         "line 3: waypoint count 1 is not command count 1 + 1"),
        (OBJECTIVE_ROW + WALK + WAYPOINT_1.replace("=1", "=2") + W0,
         "line 5: waypoint count 3 is not command count 1 + 1"),
        (OBJECTIVE_ROW + WALK.replace(DIGEST_ROW, "") + W0,
         "has no recording_sha256 row; re-run retarget"),
    ], ids=["second-digest", "short-digest", "nan-waypoint", "inf-waypoint",
            "skipped-waypoint", "too-few-waypoints", "too-many-waypoints", "no-digest"])
    def test_walk_record_fault(self, tmp_path, capsys, text, words):
        (tmp_path / "commands.txt").write_text(self.OBJECTIVE_ROW + self.WALK + self.W0)
        assert read_replay(tmp_path / "commands.txt")[2].waypoints[1] == (0.08, 0.0, 0.016)
        self.check(tmp_path, text)
        err = capsys.readouterr().err
        assert str(tmp_path / "commands.txt") in err and words in err

    @pytest.mark.parametrize("text, words", [
        (OBJECTIVE_ROW.replace("dt=0.16", "dt=0.16 dt=0.5") + WALK + W0,
         "line 1: key 'dt' given twice"),
        (OBJECTIVE_ROW + WALK.replace("x=0.08", "x=0.08 x=9.0") + W0,
         "line 4: key 'x' given twice"),
        (OBJECTIVE_ROW + WALK.replace("theta=0.016", "theta=0.016 bogus=3") + W0,
         "line 4: a '#! waypoint=' row has the keys waypoint, x, y, theta, each once; "
         "this one differs in 'bogus'"),
        (OBJECTIVE_ROW + WALK + W0.replace("iterations=3", "iterations=3 iterations=9"),
         "line 5: key 'iterations' given twice"),
        (OBJECTIVE_ROW + WALK + W0.replace("converged=1", "converged=1 bogus=3"),
         "line 5: a '#! window=' row has the keys window, cost_total, cost_pos, "
         "cost_yaw, cost_smooth, iterations, converged, each once; this one differs "
         "in 'bogus'"),
        (OBJECTIVE_ROW + WALK.replace("\n", f" recording_sha256={'1' * 64}\n", 1) + W0,
         "line 2: key 'recording_sha256' given twice"),
        (OBJECTIVE_ROW.replace("\n", " bogus=1\n") + WALK + W0,
         "line 1: a '#! dt=' row has the keys dt, lambda_pos, lambda_yaw, lambda_smooth, "
         "v_min, v_max, omega_min, omega_max, each once; this one differs in 'bogus'"),
    ], ids=["objective-key-twice", "waypoint-key-twice", "waypoint-unknown-key",
            "window-key-twice", "window-unknown-key", "digest-twice-in-a-row",
            "objective-unknown-key"])
    def test_record_key_repeated_or_unknown(self, tmp_path, capsys, text, words):
        self.check(tmp_path, text)
        err = capsys.readouterr().err
        assert str(tmp_path / "commands.txt") in err and words in err
        assert "re-run" not in err  # a hand edit needs no new solve

    def test_replay_without_walk_record_asks_to_rerun_retarget(self, tmp_path, capsys):
        # a file written before the record existed: every reader rejects it
        self.check(tmp_path, self.OBJECTIVE_ROW + self.W0)
        assert main(["report", str(tmp_path), "--out", str(tmp_path / "rep")]) == 2
        errs = capsys.readouterr().err.splitlines()  # simulate's, then report's
        assert len(errs) == 2 and all(
            f"{tmp_path / 'commands.txt'} has no recording_sha256 row; re-run retarget"
            in err for err in errs)

    @pytest.mark.parametrize("old, new", [
        ("converged=1", "converged=5"),
        ("converged=1", "converged=-1"),
        ("iterations=3", "iterations=-7"),
        ("cost_total=0.5", "cost_total=-0.5"),
        ("cost_yaw=0.125", "cost_yaw=-3.0"),
    ], ids=["converged-5", "converged-minus-1", "negative-iterations",
            "negative-cost-total", "negative-cost-yaw"])
    def test_impossible_window_record(self, tmp_path, capsys, old, new):
        text = self.OBJECTIVE_ROW + self.WALK + self.W0.replace(old, new)
        self.check(tmp_path, text)
        err = capsys.readouterr().err
        assert f"{tmp_path / 'commands.txt'} line 5: a window record needs" in err

    def test_metadata_token_without_equals(self, tmp_path):
        self.check(tmp_path, "#! window=0 cost_total\n" + self.ROWS)

    @pytest.mark.parametrize("old, new", [
        ("0 0.5 0.1", "0 nan 0.1"),
        ("0 0.5 0.1", "0 0.5 -inf"),
        ("0 0.5 0.1", "0 True 0.1"),
        ("#! dt=0.16", "#! dt=nan"),
        ("cost_total=0.5", "cost_total=nan"),
        ("cost_smooth=0.125", "cost_smooth=inf"),
    ], ids=["nan-v", "inf-omega", "bool-v", "nan-dt-record",
            "nan-cost-total", "inf-cost-smooth"])
    def test_value_not_a_finite_number(self, tmp_path, capsys, old, new):
        (tmp_path / "commands.txt").write_text(self.RECORD + self.ROWS)
        assert read_command_file(tmp_path / "commands.txt")[0][0].converged
        text = (self.RECORD + self.ROWS).replace(old, new)
        self.check(tmp_path, text)
        line = next(n for n, row in enumerate(text.splitlines(), 1) if new in row)
        err = capsys.readouterr().err
        assert str(tmp_path / "commands.txt") in err and f"line {line}:" in err


def test_command_file_records_every_objective_field():
    # a new RetargetConfig field must be either written to the command file
    # or read by the solver alone
    names = [f.name for f in dataclasses.fields(RetargetConfig)]
    assert sorted([*OBJECTIVE, "max_iters", "grad_tol", "window"]) == sorted(names)


def test_commands_do_not_depend_on_the_seed(tmp_path):
    # the seed drives segmentation's EM only; both retarget starts are
    # deterministic
    ep, _ = synthesize(two_zone_spec(seed=3))
    rec = tmp_path / "rec.jsonl"
    with open(rec, "w") as fh:
        serialize_recording(ep, fh)
    out = []
    for seed in (1, 2):
        cfg = tmp_path / f"seed{seed}.txt"
        cfg.write_text(f"seed = {seed}\n")
        out.append(tmp_path / f"commands{seed}.txt")
        assert main(["retarget", str(rec), "--out", str(out[-1]),
                     "--config", str(cfg)]) == 0
    assert out[0].read_bytes() == out[1].read_bytes()
