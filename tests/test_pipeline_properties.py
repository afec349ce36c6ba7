"""Property tests for the window chain, the run finder, the command file,
the pose algebra and the config parser, and fuzzers of simulate's
command-file input (skipped without hypothesis)."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from egonav.cli import main
from egonav.config import PipelineConfig, effective_parameters, parse_config
from egonav.errors import ConfigError
from egonav.geometry import Pose2, VelocityCommand, compose, to_frame, wrap
from egonav.ingest import WaypointTrack
from egonav.retarget import (RetargetConfig, RetargetSolution, WalkRecord,
                             read_command_file, read_replay, retarget_track,
                             write_command_file)
from egonav.segmentation import (MANIPULATION, NAVIGATION, GmmModel,
                                 PhaseConfig, PhaseTrack, candidate_mask,
                                 read_phase_file, runs, write_phase_file)
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


@st.composite
def objectives(draw, bounds=finite, lambdas=st.floats(0.0, allow_infinity=False),
               dts=st.floats(1e-6, 10.0)):
    """A RetargetConfig with each of the ``OBJECTIVE`` values drawn."""
    def interval():
        return sorted(draw(st.lists(bounds, min_size=2, max_size=2, unique=True)))
    (v_min, v_max), (omega_min, omega_max) = interval(), interval()
    return RetargetConfig(dt=draw(dts), lambda_pos=draw(lambdas),
                          lambda_yaw=draw(lambdas), lambda_smooth=draw(lambdas),
                          v_min=v_min, v_max=v_max,
                          omega_min=omega_min, omega_max=omega_max)


@settings(PROPERTY, max_examples=40)
@given(chained_tracks(), objectives(st.floats(-2.0, 2.0), st.floats(0.0, 50.0),
                                    st.floats(0.05, 0.3)))
def test_simulate_replays_retarget_track_exactly(tmp_path_factory, chained,
                                                 objective):
    window, waypoints = chained
    track = WaypointTrack(tuple(enumerate(waypoints)))
    cfg = dataclasses.replace(objective, window=window)
    sols = retarget_track(track, cfg)
    assert [len(s.cmds) for s in sols[:-1]] == [window] * (len(sols) - 1)
    # the replay reads the objective from the command file alone
    path = tmp_path_factory.mktemp("cmds") / "commands.txt"
    write_command_file(path, sols, cfg, WalkRecord("0" * 64, tuple(waypoints)))
    back, recorded = read_command_file(path)
    assert recorded == objective
    res = simulate(waypoints[0], back, waypoints[1:], recorded)
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


@st.composite
def command_files(draw):
    """An objective, up to 4 solutions whose commands lie inside its bounds,
    and a walk record of arbitrary finite waypoints, one more than the commands."""
    cfg = draw(objectives())
    cmd = st.builds(VelocityCommand, st.floats(cfg.v_min, cfg.v_max),
                    st.floats(cfg.omega_min, cfg.omega_max))
    solution = st.builds(
        RetargetSolution, st.lists(cmd, min_size=1, max_size=4).map(tuple),
        finite, finite, finite, finite, st.integers(0, 10**6), st.booleans())
    sols = draw(st.lists(solution, max_size=4))
    n = sum(len(sol.cmds) for sol in sols) + 1
    waypoints = st.lists(st.builds(Pose2, finite, finite, finite), min_size=n, max_size=n)
    digest = st.text("0123456789abcdef", min_size=64, max_size=64)
    return cfg, sols, draw(st.builds(WalkRecord, digest, waypoints.map(tuple)))


@PROPERTY
@given(command_files())
def test_command_file_round_trips_bit_exactly(tmp_path_factory, drawn):
    cfg, sols, walk = drawn
    path = tmp_path_factory.mktemp("cmds") / "commands.txt"
    write_command_file(path, sols, cfg, walk)
    back, back_cfg = read_command_file(path)
    assert back == sols and back_cfg == cfg
    text = path.read_bytes()
    write_command_file(path, back, back_cfg, read_replay(path)[2])
    assert path.read_bytes() == text  # repr-equal floats are bit-equal, -0.0 too


@st.composite
def gmm_models(draw):
    """A K-component model of arbitrary finite floats, -0.0 and subnormals too."""
    k = draw(st.integers(1, 4))
    return GmmModel(*(draw(arrays(np.float64, shape, elements=finite))
                      for shape in ((k,), (k, 2), (k, 2, 2))))


positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
phase_configs = st.builds(PhaseConfig, positive, positive, st.integers(1, 10**6),
                          st.integers(1, 64), positive, positive)


@PROPERTY
@given(st.lists(st.sampled_from([MANIPULATION, NAVIGATION]), max_size=50),
       st.none() | gmm_models(), phase_configs, st.integers(0, 2**70))
@example([], GmmModel(np.array([-0.0]), np.array([[5e-324, -5e-324]]),
                      np.array([[[1e-310, -0.0], [0.0, 1.0]]])),
         PhaseConfig(), 2**70)
def test_phase_file_round_trips_bit_exactly(tmp_path_factory, labels, model,
                                            cfg, seed):
    path = tmp_path_factory.mktemp("phases") / "phases.json"
    write_phase_file(path, PhaseTrack(np.asarray(labels, dtype=np.int64)),
                     model, cfg, seed)
    track, back, back_cfg, back_seed = read_phase_file(path)
    assert track.labels.dtype == np.int64 and track.labels.tolist() == labels
    assert (back is None) == (model is None)
    if model is not None:
        for name in ("weights", "means", "covariances"):
            a, b = getattr(model, name), getattr(back, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert back_cfg == cfg and repr(back_cfg) == repr(cfg)  # ints stay ints
    assert back_seed == seed


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


@PROPERTY
@given(st.sampled_from(sorted(effective_parameters(PipelineConfig()))),
       st.text() | st.integers().map(str) | st.floats().map(repr))
def test_config_value_is_accepted_or_a_config_error(key, token):
    try:
        cfg = parse_config(f"{key} = {token}\n")
    except ConfigError:
        return
    values = effective_parameters(cfg).values()
    assert all(math.isfinite(v) for v in values if isinstance(v, float))


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory):
    """A two-window walk's recording and the rows of its command file."""
    d = tmp_path_factory.mktemp("replay")
    (d / "spec.json").write_text(json.dumps({"segments": [
        {"kind": "straight", "duration": 2.0},
        {"kind": "arc", "duration": 1.0, "turn_rate": 0.8}], "fps": 30.0}))
    assert main(["synth", str(d / "spec.json"), "--out", str(d)]) == 0
    rec, cmds = d / "recording.jsonl", d / "commands.txt"
    assert main(["retarget", str(rec), "--out", str(cmds)]) == 0
    assert sum(row.startswith("#! window=") for row in cmds.read_text().splitlines()) == 2
    return rec, cmds.read_text().splitlines()


def simulate_exit(rec, content) -> tuple[int, str]:
    """Exit code and stderr of ``simulate`` on a command file of ``content``."""
    path = rec.parent / "fuzzed.commands.txt"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", str(path), str(rec),
                     "--out", str(rec.parent / "sim.json")])
    return code, err.getvalue()


# tokens near the edges of what a command file row accepts
TOKENS = (st.sampled_from(["", "0", "1", "-1", "5", "-0.0", "nan", "inf", "1e308",
                           "True", "=", "#!", "window=0", "waypoint=0", "x=nan",
                           "recording_sha256=" + "0" * 64])
          | st.text(max_size=8) | st.integers().map(str) | st.floats().map(repr))


@st.composite
def mutated_rows(draw, rows):
    """``rows`` after one to three drops, duplicates, swaps or token edits."""
    rows = list(rows)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "edit"]))
        if op == "drop" and len(rows) > 1:
            del rows[i]
        elif op == "duplicate":
            rows.insert(i, rows[i])
        elif op == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        else:
            tokens = rows[i].split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            key = tokens[k].partition("=")[0]
            tokens[k] = draw(TOKENS | TOKENS.map(lambda t: f"{key}={t}"))
            rows[i] = " ".join(tokens)
    return "\n".join(rows) + "\n"


@PROPERTY
@given(st.data())
def test_simulate_of_a_mutated_command_file_exits_0_or_2(replay_inputs, data):
    rec, rows = replay_inputs
    assert simulate_exit(rec, "\n".join(rows) + "\n") == (0, "")
    code, err = simulate_exit(rec, data.draw(mutated_rows(rows)))
    assert code in (0, 2) and "Traceback" not in err


@PROPERTY
@given(st.text() | st.binary())
def test_simulate_of_arbitrary_input_exits_2(replay_inputs, content):
    code, err = simulate_exit(replay_inputs[0], content)
    assert code == 2 and "Traceback" not in err
