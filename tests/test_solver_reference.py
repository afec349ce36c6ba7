"""The solver returns its reference's solutions bit for bit, with fewer rollouts.

``reference_solver`` keeps the projected-Newton solver as it was before
its hot loop made fewer NumPy calls. Solutions are compared by ``repr``,
which tells -0.0 from 0.0, so command files written from either hold the
same bytes.
"""

import math

import numpy as np
import pytest

import reference_solver
from egonav import retarget
from egonav.geometry import Pose2, VelocityCommand
from egonav.ingest import extract_waypoints
from egonav.retarget import (RetargetConfig, RetargetProblem, _Window, retarget_track,
                             solve)
from egonav.simulator import spec_from_json, synthesize

from conftest import two_zone_spec
from test_cli import E2E_SPEC
from test_retarget import two_zone_window

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below is skipped without it
    st = None

CFG = RetargetConfig()


def walk_track(walk):
    """The waypoints of the two-zone seed-3 walk or of the CLI end-to-end walk."""
    if walk == "two_zone":
        ep, _ = synthesize(two_zone_spec(seed=3))
        return extract_waypoints(ep)
    ep, _ = synthesize(spec_from_json(E2E_SPEC))
    return extract_waypoints(ep, d_thresh=0.13)


@pytest.mark.parametrize("walk", ["two_zone", "cli_end_to_end"])
def test_track_equals_the_reference(walk, monkeypatch):
    track = walk_track(walk)
    sols = retarget_track(track, CFG)
    monkeypatch.setattr(retarget, "solve", reference_solver.solve)
    assert repr(retarget_track(track, CFG)) == repr(sols)


def test_solve_rolls_out_only_its_starts_and_trials(monkeypatch):
    # window 5 of the two-zone walk stalls, so its steps take the Newton
    # Hessian and its arc searches backtrack
    track = walk_track("two_zone")
    poses, sols = [p for _, p in track.waypoints], retarget_track(track, CFG)
    prob = two_zone_window(poses, sols, 5)
    events = []

    def count(cls, name, label):
        method = getattr(cls, name)

        def counted(*args):
            events.append(label)
            return method(*args)
        monkeypatch.setattr(cls, name, counted)

    count(_Window, "rollout", "rollout")
    count(_Window, "jacobian", "jacobian")
    count(reference_solver._Window, "rollout", "reference rollout")
    gauss_newton = retarget._gauss_newton

    def run(*args):
        events.append("start")
        out = gauss_newton(*args)
        events.append(("return", out[2]))
        return out
    monkeypatch.setattr(retarget, "_gauss_newton", run)

    assert repr(solve(prob)) == repr(reference_solver.solve(prob))
    mine = events[:events.index("reference rollout")]
    steps = [e[1] for e in mine if isinstance(e, tuple)]
    assert mine.count("start") == len(steps) == 2 and sols[5].iterations in steps
    # each start rolls out its start point, then one point per arc-search
    # trial; the start point and each accepted trial get a Jacobian
    starts = [i for i, e in enumerate(mine) if e == "start"]
    assert [mine[i + 1:i + 3] for i in starts] == [["rollout", "jacobian"]] * 2
    assert mine.count("jacobian") == 2 + sum(steps)
    assert mine.count("rollout") > mine.count("jacobian")  # some trials backtracked
    # nothing is rolled out after the last start returns, where the
    # reference rolls its winner out once more
    assert mine[0] == "start" and isinstance(mine[-1], tuple)
    assert mine.count("rollout") == events.count("reference rollout") - 1


def one_start_cost(prob, start):
    """The cost ``retarget._gauss_newton`` ends at from one of ``solve``'s starts."""
    cfg, K = prob.config, len(prob.desired)
    lo, hi = np.tile([[cfg.v_min, cfg.omega_min], [cfg.v_max, cfg.omega_max]], K)
    z0 = np.zeros((K, 2)) if start == "zero" else retarget._fd_inversion_init(prob)
    return retarget._gauss_newton(_Window(prob), np.clip(z0.ravel(), lo, hi), lo, hi,
                                  cfg)[1]


# Windows drawn by problems() below (rounded), keyed by the start that alone
# ends in a local minimum about 6x (zero) and 2.7x (fd_inversion) the two-start
# cost; the other start finds that cost.
ONE_START_WINDOWS = {
    "zero": RetargetProblem(
        Pose2(-3.0, 0.6, 0.0),
        (Pose2(-3.0, 0.6, 0.0), Pose2(0.0, 0.0, 1.0), Pose2(-3.0, 0.6, 0.0),
         Pose2(-1.0, 2.0, -2.0), Pose2(-3.0, 1.0, -2.0), Pose2(-0.4, 0.0, 2.0),
         Pose2(0.0, 1.0, 2.0)),
        RetargetConfig(lambda_pos=6e-05, lambda_yaw=4.9, lambda_smooth=0.0,
                       v_min=-0.435, v_max=-0.135, omega_min=-2.28, omega_max=0.58,
                       dt=0.4),
        VelocityCommand(-1.93, -3.98)),
    "fd_inversion": RetargetProblem(
        Pose2(-3.0, -1.0, -1.7),
        (Pose2(0.0, -3.0, 1.0), Pose2(-2.0, 2.57, -3.0), Pose2(0.0, 0.0, -2.85),
         Pose2(0.0, 0.0, 1.0), Pose2(0.0, 1.0, 3.0)),
        RetargetConfig(lambda_pos=0.0, lambda_yaw=0.41, lambda_smooth=2.16,
                       v_min=-1.0, v_max=2.83, omega_min=-1.91, omega_max=2.76, dt=0.5),
        VelocityCommand(-0.85, -1.37)),
}


@pytest.mark.parametrize("alone", sorted(ONE_START_WINDOWS))
def test_each_start_finds_a_window_the_other_misses(alone):
    # a solver that keeps one start only fails one of these windows
    prob = ONE_START_WINDOWS[alone]
    other = "fd_inversion" if alone == "zero" else "zero"
    best = solve(prob).cost_total
    assert one_start_cost(prob, alone) >= 2.0 * best
    assert one_start_cost(prob, other) == pytest.approx(best, rel=1e-12)


if st is not None:
    # whole numbers too: Pose2(0, 0, 0) holds ints, which the arrays must not inherit
    coordinates = st.floats(-3.0, 3.0) | st.integers(-3, 3)
    poses = st.builds(Pose2, coordinates, coordinates,
                      st.floats(-math.pi, math.pi) | st.integers(-3, 3))

    @st.composite
    def problems(draw):
        """A window of 1 to 12 waypoints under random bounds, weights and dt."""
        v_min, omega_min = draw(st.floats(-2.0, 0.0)), draw(st.floats(-4.0, 0.0))
        cfg = RetargetConfig(
            lambda_pos=draw(st.floats(0.0, 64.0)), lambda_yaw=draw(st.floats(0.0, 8.0)),
            lambda_smooth=draw(st.floats(0.0, 4.0)),
            v_min=v_min, v_max=v_min + draw(st.floats(0.01, 3.0)),
            omega_min=omega_min, omega_max=omega_min + draw(st.floats(0.01, 6.0)),
            dt=draw(st.floats(0.01, 0.5)))
        k = draw(st.integers(1, 12))
        prev = draw(st.builds(VelocityCommand, st.floats(-2.0, 2.0), st.floats(-4.0, 4.0)))
        return RetargetProblem(draw(poses), tuple(draw(st.lists(poses, min_size=k,
                                                                max_size=k))), cfg, prev)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(problems())
    def test_solve_equals_the_reference(prob):
        assert repr(solve(prob)) == repr(reference_solver.solve(prob))
else:
    def test_solver_property_needs_hypothesis():
        pytest.skip("hypothesis is not installed")
