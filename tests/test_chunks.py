import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from egonav import chunks
from egonav.chunks import (ActionChunk, blend_yaw, modulate, subsample,
                           upsample)
from egonav.config import ChunkConfig
from egonav.errors import InvalidArgumentError
from egonav.geometry import Pose2, to_frame_rows, wrap, yaw_quaternion
from egonav.segmentation import MANIPULATION, NAVIGATION, PhaseTrack
from egonav.simulator import SynthSegment, SynthSpec, synthesize

from conftest import episode_of, frame_row
from oracles import ground_pose

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the property tests below are skipped without it
    st = None


def reference_subsample(ep, t0, horizon, step, phases, forward_axis="+x"):
    """The point-by-point subsample that the sliced one must equal."""
    if t0 + horizon * step >= len(ep.frames):
        raise InvalidArgumentError("chunk exceeds episode length")
    ref = ground_pose(ep.head_pos[t0].tolist(), ep.head_quat[t0].tolist(),
                      forward_axis)
    poses = []
    labels = []
    for i in range(1, horizon + 1):
        idx = t0 + i * step
        poses.append(ground_pose(ep.head_pos[idx].tolist(), ep.head_quat[idx].tolist(),
                                 forward_axis))
        labels.append(int(phases.labels[idx]))
    return ActionChunk(to_frame_rows(ref, poses), tuple(labels))


def reference_upsample(chunk, target_len):
    """The point-by-point upsample that the array-blended one must equal."""
    n = len(chunk.waypoints)
    out_wp = []
    out_ph = []
    for j in range(target_len):
        u = j / (target_len - 1) * (n - 1)
        i = min(int(u), n - 2)
        s = u - i
        a = chunk.waypoints[i]
        b = chunk.waypoints[i + 1]
        out_wp.append(Pose2(
            (1.0 - s) * a.x + s * b.x,
            (1.0 - s) * a.y + s * b.y,
            blend_yaw(a.theta, b.theta, s),
        ))
        out_ph.append(chunk.phases[int(round(u))])
    return ActionChunk(tuple(out_wp), tuple(out_ph))


def reference_modulate(chunk, current_phase):
    """The branch-per-phase modulate that the one-pass one must equal."""
    wps = chunk.waypoints
    n = len(wps)
    if current_phase == MANIPULATION:
        if NAVIGATION not in chunk.phases:
            out = [Pose2(0.0, 0.0, 0.0)] * n
        else:
            j = chunk.phases.index(NAVIGATION)
            target = wps[j]
            out = []
            for i in range(n):
                if i <= j:
                    s = (i + 1) / (j + 1)
                    out.append(Pose2(s * target.x, s * target.y,
                                     blend_yaw(0.0, target.theta, s)))
                else:
                    out.append(target)
        return ActionChunk(tuple(out), chunk.phases)

    # navigation phase
    out = []
    last_nav = Pose2(0.0, 0.0, 0.0)
    for i in range(n):
        if chunk.phases[i] == NAVIGATION:
            last_nav = wps[i]
            out.append(wps[i])
        else:
            out.append(last_nav)
    return ActionChunk(tuple(out), chunk.phases)


def bits(chunk):
    """Every coordinate as float.hex, plus the phases, for exact comparison."""
    return ([tuple(float.hex(float(c)) for c in p) for p in chunk.waypoints],
            list(chunk.phases))


def walk_episode(n=100, dx=0.02, fps=30.0):
    return episode_of([frame_row(i / fps, (dx * i, 0.0, 1.6), yaw_quaternion(0.0))
                       for i in range(n)], fps)


def nav_track(n=100):
    return PhaseTrack(np.full(n, NAVIGATION, dtype=np.int64))


def chunk_of(poses, phases):
    return ActionChunk(tuple(poses), tuple(phases))


class TestSubsample:
    def test_horizon_and_step(self):
        chunk = subsample(walk_episode(), 0, horizon=10, step=8, phases=nav_track())
        assert len(chunk.waypoints) == 10
        assert chunk.waypoints[-1].x == pytest.approx(0.02 * 80)

    def test_stationary_all_zero(self):
        chunk = subsample(walk_episode(dx=0.0), 5, 10, 8, nav_track())
        assert all((p.x, p.y, p.theta) == (0.0, 0.0, 0.0)
                   for p in chunk.waypoints)

    def test_identity_reference(self):
        # observation pose at the origin with zero yaw: egocentric = absolute
        chunk = subsample(walk_episode(), 0, 5, 8, nav_track())
        assert chunk.waypoints[0].x == pytest.approx(0.02 * 8)

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            subsample(walk_episode(n=50), 0, 10, 8, nav_track(50))

    def test_carries_phase_labels(self):
        labels = np.full(100, NAVIGATION, dtype=np.int64)
        labels[40:60] = MANIPULATION
        chunk = subsample(walk_episode(), 0, 10, 8, PhaseTrack(labels))
        assert chunk.phases[4] == MANIPULATION  # frame 40
        assert chunk.phases[9] == NAVIGATION    # frame 80


class TestUpsample:
    def test_midpoint_yaw_blend(self):
        chunk = chunk_of([Pose2(0, 0, 0), Pose2(1, 0, math.pi / 2)],
                         [NAVIGATION, NAVIGATION])
        up = upsample(chunk, 3)
        assert up.waypoints[1].theta == pytest.approx(math.pi / 4, abs=1e-12)

    def test_10_to_100_length(self):
        chunk = chunk_of([Pose2(0.1 * i, 0, 0) for i in range(10)],
                         [NAVIGATION] * 10)
        assert len(upsample(chunk, 100).waypoints) == 100

    def test_endpoints_exact(self):
        rng = np.random.default_rng(3)
        poses = [Pose2(*rng.uniform(-1, 1, 2), rng.uniform(-math.pi, math.pi))
                 for _ in range(10)]
        up = upsample(chunk_of(poses, [NAVIGATION] * 10), 100)
        assert up.waypoints[0] == poses[0]
        assert up.waypoints[-1] == poses[-1]

    def test_constant_input(self):
        p = Pose2(0.3, -0.4, 1.0)
        up = upsample(chunk_of([p] * 5, [NAVIGATION] * 5), 50)
        assert all(q == pytest.approx((p.x, p.y, p.theta))
                   for q in [(w.x, w.y, w.theta) for w in up.waypoints])

    def test_antipodal_resolves_positive(self):
        chunk = chunk_of([Pose2(0, 0, 0), Pose2(1, 0, math.pi)],
                         [NAVIGATION] * 2)
        up = upsample(chunk, 3)
        assert up.waypoints[1].theta == pytest.approx(math.pi / 2)

    def test_monotone_collinear(self):
        poses = [Pose2(0.2 * i, 0, 0) for i in range(6)]
        up = upsample(chunk_of(poses, [NAVIGATION] * 6), 60)
        xs = [p.x for p in up.waypoints]
        assert all(b >= a for a, b in zip(xs, xs[1:]))

    def test_yaw_continuity(self):
        rng = np.random.default_rng(8)
        poses = [Pose2(*rng.uniform(-1, 1, 2), rng.uniform(-math.pi, math.pi))
                 for _ in range(10)]
        chunk = chunk_of(poses, [NAVIGATION] * 10)
        max_gap = max(abs(wrap(b.theta - a.theta))
                      for a, b in zip(poses, poses[1:]))
        up = upsample(chunk, 100)
        for a, b in zip(up.waypoints, up.waypoints[1:]):
            assert abs(wrap(b.theta - a.theta)) <= max_gap + 1e-9

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            upsample(chunk_of([Pose2(0, 0, 0)], [NAVIGATION]), 10)


def stop_and_go_episode():
    """Three 4 s manipulation stops, each followed by a straight and an arc."""
    segs = []
    for turn in (1.2, -0.9, 0.6):
        segs += [SynthSegment("pause-and-manipulate", 4.0),
                 SynthSegment("straight", 1.0, speed=1.0),
                 SynthSegment("arc", 1.0, speed=1.0, turn_rate=turn)]
    return synthesize(SynthSpec(tuple(segs), fps=60.0, noise_std=0.002, seed=5))


def dataset_digest(ep, track, cfg, build_sub, build_up, build_mod, stride=8):
    """SHA-256 over every chunk's waypoints and phases, built as perfbench does."""
    labels = track.labels.tolist()
    h = hashlib.sha256()
    count = 0
    for t0 in range(0, len(labels), stride):
        step = cfg.manip_step if labels[t0] == MANIPULATION else cfg.nav_step
        if t0 + cfg.horizon * step >= len(labels):
            continue
        up = build_up(build_sub(ep, t0, cfg.horizon, step, track),
                      cfg.target_len)
        chunk = build_mod(up, labels[t0])
        h.update(np.array(chunk.waypoints, dtype=float).tobytes())
        h.update(np.array(chunk.phases, dtype=np.int64).tobytes())
        count += 1
    return h.hexdigest(), count


def test_dataset_digest_equals_reference():
    ep, track = stop_and_go_episode()
    cfg = ChunkConfig()
    fast = dataset_digest(ep, track, cfg, subsample, upsample, modulate)
    ref = dataset_digest(ep, track, cfg, reference_subsample, reference_upsample,
                         reference_modulate)
    assert fast[1] > 100
    assert fast == ref


def test_degenerate_frame_fails_only_the_chunks_that_sample_it():
    # frame 37 pitches +x straight down, so its yaw is undefined
    ep = walk_episode(n=60)
    rows = np.array(ep.frames)
    h = 0.5 * (-math.pi / 2)
    rows[37, 4:8] = (math.cos(h), 0.0, math.sin(h), 0.0)
    ep = episode_of(rows)
    track = nav_track(60)
    failed = 0
    for step in (1, 2, 3, 8):
        for t0 in range(0, 60 - 5 * step):
            if 37 in range(t0, t0 + 5 * step + 1, step):
                failed += 1
                with pytest.raises(InvalidArgumentError, match="yaw undefined"):
                    subsample(ep, t0, 5, step, track)
                with pytest.raises(InvalidArgumentError, match="yaw undefined"):
                    reference_subsample(ep, t0, 5, step, track)
            else:
                assert bits(subsample(ep, t0, 5, step, track)) == \
                    bits(reference_subsample(ep, t0, 5, step, track))
    assert failed > 10


@pytest.mark.parametrize("n_labels", [99, 200])
def test_subsample_rejects_a_phase_track_of_another_length(n_labels):
    with pytest.raises(InvalidArgumentError, match=f"{n_labels} labels .* 100 frames"):
        subsample(walk_episode(), 0, 5, 8, nav_track(n_labels))


def test_ground_track_is_kept_per_axis_and_read_only():
    ep = walk_episode()
    track = ep.ground_track("+x")
    assert ep.ground_track("+x") is track
    assert ep.ground_track("+y") is not track
    with pytest.raises(ValueError):
        track[0, 0] = 1.0
    assert [float.hex(v) for v in track[:, 2]] == \
        [float.hex(ground_pose(p, q).theta) for p, q in
         zip(ep.head_pos.tolist(), ep.head_quat.tolist())]


class TestActionChunk:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidArgumentError):
            ActionChunk((Pose2(0, 0, 0),), (NAVIGATION, NAVIGATION))
        chunk = chunk_of([Pose2(0, 0, 0)] * 2, [NAVIGATION] * 2)
        with pytest.raises(InvalidArgumentError):
            dataclasses.replace(chunk, phases=(NAVIGATION,))

    def test_fields_are_read_only(self):
        chunk = chunk_of([Pose2(0, 0, 0)] * 2, [NAVIGATION] * 2)
        for name in ("waypoints", "phases", "extra"):
            with pytest.raises(AttributeError):
                setattr(chunk, name, None)
        assert [f.name for f in dataclasses.fields(chunk)] == ["waypoints", "phases"]

    def test_pickle_round_trip(self):
        chunk = chunk_of([Pose2(0.5, 0, 1.0)] * 3,
                         [NAVIGATION, MANIPULATION, NAVIGATION])
        again = pickle.loads(pickle.dumps(chunk))
        assert type(again) is ActionChunk and again == chunk


def test_subsample_rejects_negative_start_and_zero_step():
    with pytest.raises(InvalidArgumentError):
        subsample(walk_episode(), -1, 5, 8, nav_track())
    with pytest.raises(InvalidArgumentError):
        subsample(walk_episode(), 0, 5, 0, nav_track())


def test_upsample_hits_waypoints_inside_the_grid():
    # 10 -> 91 points puts grid points on interior waypoints (s == 0) as
    # well as on the last one (s == 1); all take blend_yaw's edge rules
    rng = np.random.default_rng(4)
    poses = [Pose2(*rng.uniform(-1, 1, 2), rng.uniform(-4.0, 4.0))
             for _ in range(10)]
    chunk = chunk_of(poses, [NAVIGATION, MANIPULATION] * 5)
    u = np.arange(91) / 90 * 9
    assert np.count_nonzero(u == np.floor(u)) > 2
    assert bits(upsample(chunk, 91)) == bits(reference_upsample(chunk, 91))


def test_upsample_antipodal_midpoints_match_reference():
    # every segment is a half turn, so each midpoint blend has zero norm
    poses = [Pose2(0.1 * k, -0.2 * k, wrap(0.3 + k * math.pi))
             for k in range(6)]
    chunk = chunk_of(poses, [NAVIGATION] * 6)
    assert bits(upsample(chunk, 11)) == bits(reference_upsample(chunk, 11))


def test_upsample_outputs_are_pose2():
    rng = np.random.default_rng(6)
    up = upsample(random_chunk(rng, 10), 100)
    assert all(type(p) is Pose2 for p in up.waypoints)
    p = up.waypoints[37]
    assert p.theta == p[2]
    assert p._asdict() == {"x": p[0], "y": p[1], "theta": p[2]}
    again = pickle.loads(pickle.dumps(up.waypoints))
    assert again == up.waypoints and all(type(q) is Pose2 for q in again)


def test_upsample_grid_is_read_only():
    grid = chunks._grid(10, 100)
    for arr in (grid.index, grid.weights):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_upsample_alternating_shapes_match_reference():
    # more (n, target_len) pairs than the grid cache holds, revisited in
    # turn, so every call meets a hit, a miss or an evicted-and-rebuilt grid
    rng = np.random.default_rng(9)
    pairs = [(n, target_len) for n in (2, 3, 10, 11, 12)
             for target_len in (n, 17, 40, 100)]
    assert len(set(pairs)) > chunks._grid.cache_info().maxsize
    for _ in range(3):
        for n, target_len in pairs:
            chunk = random_chunk(rng, n)
            assert bits(upsample(chunk, target_len)) == \
                bits(reference_upsample(chunk, target_len))


if st is not None:
    PROPERTY = settings(derandomize=True, database=None, deadline=None,
                        max_examples=300)
    coords = st.floats(-50.0, 50.0)
    # yaws beyond (-pi, pi] exercise wrap on the s == 0 and s == 1 points
    yaws = st.floats(-7.0, 7.0)

    @st.composite
    def chunks_to_upsample(draw):
        """A chunk of 2-12 waypoints, its target length and how to store it."""
        n = draw(st.integers(2, 12))
        target_len = draw(st.integers(n, 150))
        xs = draw(st.lists(coords, min_size=n, max_size=n))
        ys = draw(st.lists(coords, min_size=n, max_size=n))
        thetas = draw(st.lists(yaws, min_size=n, max_size=n))
        for k in range(1, n):
            how = draw(st.sampled_from(["free", "antipodal", "near-antipodal"]))
            if how == "antipodal":
                thetas[k] = wrap(thetas[k - 1] + math.pi)
            elif how == "near-antipodal":
                thetas[k] = thetas[k - 1] + math.pi + draw(
                    st.floats(-1e-12, 1e-12))
        if draw(st.booleans()):
            xs, ys, thetas = (list(np.array(v)) for v in (xs, ys, thetas))
        phases = draw(st.lists(st.sampled_from([MANIPULATION, NAVIGATION]),
                               min_size=n, max_size=n))
        return chunk_of(list(map(Pose2, xs, ys, thetas)), phases), target_len

    @PROPERTY
    @given(chunks_to_upsample())
    @example((chunk_of([Pose2(0.0, 0.0, 0.0), Pose2(1.0, 0.0, math.pi)],
                       [NAVIGATION] * 2), 3))
    @example((chunk_of([Pose2(0.0, 0.0, 0.5), Pose2(1.0, 2.0, -0.5),
                        Pose2(3.0, 1.0, 2.9)], [MANIPULATION] * 3), 5))
    def test_upsample_bit_identical_to_reference(case):
        chunk, target_len = case
        assert bits(upsample(chunk, target_len)) == \
            bits(reference_upsample(chunk, target_len))

    @PROPERTY
    @given(st.integers(0, 40), st.integers(1, 8), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_subsample_bit_identical_to_reference(t0, horizon, step, seed):
        rng = np.random.default_rng(seed)
        n = t0 + horizon * step + 1 + int(rng.integers(0, 3))
        rows = [frame_row(k / 30.0, rng.uniform(-5, 5, 3),
                          yaw_quaternion(rng.uniform(-3, 3)))
                for k in range(n)]
        track = PhaseTrack(rng.integers(0, 2, n).astype(np.int64))
        ep = episode_of(rows)
        fast = subsample(ep, t0, horizon, step, track)
        ref = reference_subsample(ep, t0, horizon, step, track)
        assert bits(fast) == bits(ref)
        assert all(type(p) is int for p in fast.phases)
else:
    def test_chunk_properties_need_hypothesis():
        pytest.skip("hypothesis is not installed")


def random_chunk(rng, n=20):
    poses = [Pose2(*rng.uniform(-1, 1, 2), rng.uniform(-math.pi, math.pi))
             for _ in range(n)]
    phases = [int(p) for p in rng.integers(0, 2, n)]
    return chunk_of(poses, phases)


class TestModulate:
    def test_all_navigation_unchanged(self):
        rng = np.random.default_rng(1)
        poses = [Pose2(*rng.uniform(-1, 1, 2), 0.1) for _ in range(10)]
        chunk = chunk_of(poses, [NAVIGATION] * 10)
        assert modulate(chunk, NAVIGATION).waypoints == chunk.waypoints

    def test_manipulation_no_nav_all_zero(self):
        rng = np.random.default_rng(2)
        chunk = chunk_of([Pose2(*rng.uniform(-1, 1, 2), 0.3)
                          for _ in range(8)], [MANIPULATION] * 8)
        out = modulate(chunk, MANIPULATION)
        assert all((p.x, p.y, p.theta) == (0, 0, 0) for p in out.waypoints)

    def test_navigation_pins_manipulation_steps(self):
        poses = [Pose2(0.2 * i, 0, 0) for i in range(5)] + \
            [Pose2(9.0, 9.0, 1.0)] * 5
        phases = [NAVIGATION] * 5 + [MANIPULATION] * 5
        out = modulate(chunk_of(poses, phases), NAVIGATION)
        # steps 5..9 collapse to the last navigation waypoint (index 4)
        for p in out.waypoints[5:]:
            assert (p.x, p.y, p.theta) == (0.8, 0.0, 0.0)

    def test_navigation_leading_manipulation_zeroed(self):
        poses = [Pose2(5, 5, 1)] * 3 + [Pose2(1, 0, 0)] * 3
        phases = [MANIPULATION] * 3 + [NAVIGATION] * 3
        out = modulate(chunk_of(poses, phases), NAVIGATION)
        for p in out.waypoints[:3]:
            assert (p.x, p.y, p.theta) == (0, 0, 0)

    def test_manipulation_ramps_to_first_nav(self):
        poses = [Pose2(9, 9, 2)] * 4 + [Pose2(1.0, 0.5, 0.4)] + \
            [Pose2(2, 2, 2)] * 3
        phases = [MANIPULATION] * 4 + [NAVIGATION] * 4
        out = modulate(chunk_of(poses, phases), MANIPULATION)
        # ramp reaches the first navigation waypoint at its own index
        w = out.waypoints[4]
        assert (w.x, w.y, w.theta) == pytest.approx((1.0, 0.5, 0.4))
        norms = [math.hypot(p.x, p.y) for p in out.waypoints]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("phase", [MANIPULATION, NAVIGATION])
    def test_idempotent(self, phase):
        rng = np.random.default_rng(7)
        for _ in range(200):
            chunk = random_chunk(rng)
            once = modulate(chunk, phase)
            twice = modulate(once, phase)
            assert once.waypoints == twice.waypoints


@pytest.mark.parametrize("phase", [MANIPULATION, NAVIGATION])
def test_modulate_bit_identical_to_reference(phase):
    rng = np.random.default_rng(12)
    cases = [random_chunk(rng, int(rng.integers(1, 30))) for _ in range(300)]
    # a navigation target beyond (-pi, pi] exercises wrap at the ramp's end
    poses = random_chunk(rng, 12).waypoints[:-1] + (Pose2(0.4, -0.3, 5.0),)
    m, v = MANIPULATION, NAVIGATION
    for phases in ([m] * 12, [v] * 12, [m] * 5 + [v] * 7, [m] * 11 + [v],
                   [v] + [m] * 11, [m, v] * 6):
        cases.append(chunk_of(poses, phases))
    for chunk in cases:
        assert bits(modulate(chunk, phase)) == bits(reference_modulate(chunk, phase))


def test_blend_yaw_endpoints_exact():
    assert blend_yaw(0.3, -2.0, 0.0) == 0.3
    assert blend_yaw(0.3, -2.0, 1.0) == -2.0
