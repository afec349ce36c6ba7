"""Property tests for the window chain, the run finder, the command file
and the pose algebra (skipped without hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from egonav.geometry import Pose2, VelocityCommand, compose, to_frame, wrap
from egonav.ingest import WaypointTrack
from egonav.retarget import (RetargetConfig, RetargetSolution, read_command_file,
                             retarget_track, write_command_file)
from egonav.segmentation import PhaseConfig, candidate_mask, runs
from egonav.simulator import simulate

# deterministic across runs, no example database, no timing flakes
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

finite = st.floats(allow_nan=False, allow_infinity=False)
angles = st.floats(-math.pi, math.pi)
# rounding in compose/to_frame grows with the coordinates; within 100 m
# it stays well below the 1e-12 the round trip is held to
coords = st.floats(-100.0, 100.0)
poses = st.builds(Pose2, coords, coords, angles)


@st.composite
def chained_tracks(draw):
    """A window size and a track whose desired waypoints span 2-3 windows."""
    window = draw(st.integers(1, 12))
    n = draw(st.integers(window + 1, 3 * window))
    near = st.floats(-3.0, 3.0)
    return window, draw(st.lists(st.builds(Pose2, near, near, angles),
                                 min_size=n + 1, max_size=n + 1))


@settings(PROPERTY, max_examples=40)
@given(chained_tracks(), st.floats(0.05, 0.3))
def test_simulate_replays_retarget_track_exactly(chained, dt):
    window, waypoints = chained
    track = WaypointTrack(tuple(enumerate(waypoints)), d_thresh=0.25)
    sols = retarget_track(track, RetargetConfig(dt=dt, window=window))
    assert [len(s.cmds) for s in sols[:-1]] == [window] * (len(sols) - 1)
    # no config: the replay takes the default weights and the given dt
    res = simulate(waypoints[0], sols, waypoints[1:], dt)
    assert res.cost_discrepancy == 0.0
    assert len(res.poses) == len(waypoints) - 1


@PROPERTY
@given(st.lists(st.integers(0, 2), max_size=40))
def test_runs_partition_into_maximal_runs(values):
    bounds = runs(np.array(values, dtype=np.int64)).tolist()
    edges = [0] + [j for _, j in bounds]
    assert bounds == [[i, j] for i, j in zip(edges, edges[1:])]  # consecutive
    assert edges[-1] == len(values)  # covering every index
    for i, j in bounds:
        assert i < j and len(set(values[i:j])) == 1  # non-empty and constant
    for _, j in bounds[:-1]:
        assert values[j - 1] != values[j]  # maximal


def naive_candidate_mask(v_head, v_hand, cfg):
    mask = [h / (v + cfg.epsilon) > cfg.tau_ratio and v < cfg.tau_head
            for v, h in zip(v_head, v_hand)]
    out = list(mask)
    start = 0
    for k in range(len(mask) + 1):
        if k == len(mask) or not mask[k]:
            if k - start < cfg.tau_duration:
                out[start:k] = [False] * (k - start)
            start = k + 1
    return out


@PROPERTY
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 3.0)), max_size=60),
       st.integers(1, 8))
def test_candidate_mask_matches_naive_reference(speeds, tau_duration):
    cfg = PhaseConfig(tau_duration=tau_duration)
    v_head = np.array([v for v, _ in speeds])
    v_hand = np.array([h for _, h in speeds])
    got = candidate_mask(v_head, v_hand, cfg)
    assert got.dtype == bool
    assert got.tolist() == naive_candidate_mask(v_head, v_hand, cfg)


solutions = st.builds(
    RetargetSolution,
    st.lists(st.builds(VelocityCommand, finite, finite), min_size=1,
             max_size=4).map(tuple),
    finite, finite, finite, finite, st.integers(0, 10**6), st.booleans())


@PROPERTY
@given(st.lists(solutions, max_size=4), st.floats(1e-6, 10.0))
def test_command_file_round_trips_bit_exactly(tmp_path_factory, sols, dt):
    path = tmp_path_factory.mktemp("cmds") / "commands.txt"
    write_command_file(path, sols, dt)
    back, back_dt = read_command_file(path)
    assert back == sols and back_dt == dt
    text = path.read_bytes()
    write_command_file(path, back, back_dt)
    assert path.read_bytes() == text  # repr-equal floats are bit-equal, -0.0 too


@PROPERTY
@given(finite)
def test_wrap_lands_in_half_open_interval_and_is_idempotent(angle):
    a = wrap(angle)
    assert -math.pi < a <= math.pi
    assert wrap(a) == a


@PROPERTY
@given(poses, poses)
def test_compose_inverts_to_frame_up_to_rounding(ref, t):
    back = compose(ref, to_frame(ref, t))
    assert abs(back.x - t.x) <= 1e-12 and abs(back.y - t.y) <= 1e-12
    assert abs(wrap(back.theta - t.theta)) <= 1e-12
