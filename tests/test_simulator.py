import io
import json
import math

import numpy as np
import pytest

from egonav.errors import InvalidArgumentError
from egonav.geometry import Pose2, VelocityCommand
from egonav.ingest import parse_recording, serialize_recording
from egonav.retarget import RetargetConfig, RetargetProblem, RetargetSolution, cost
from egonav.segmentation import MANIPULATION, NAVIGATION, PhaseTrack
from egonav.simulator import (SimResult, SynthSegment, SynthSpec,
                              score_segmentation, simulate, spec_from_json,
                              synthesize, write_sim_file)

from conftest import two_zone_spec
from oracles import rollout

CFG = RetargetConfig()


def rec_text(ep):
    buf = io.StringIO()
    serialize_recording(ep, buf)
    return buf.getvalue()


def solution_for(cmds, desired, start=Pose2(0, 0, 0),
                 prev=VelocityCommand(0.0, 0.0)):
    """Package raw commands with their true objective value."""
    z = np.array([[c.v, c.omega] for c in cmds])
    total, p, y, s = cost(z, RetargetProblem(start, tuple(desired), CFG, prev))
    return RetargetSolution(tuple(cmds), total, p, y, s, 0, True)


class TestSimulate:
    def test_self_consistent_zero_rmse(self):
        cmds = [VelocityCommand(0.5, 0.1)] * 6
        desired = rollout(Pose2(0, 0, 0), cmds, CFG.dt)
        res = simulate(Pose2(0, 0, 0), [solution_for(cmds, desired)],
                       desired, CFG)
        assert res.pos_rmse == pytest.approx(0.0, abs=1e-12)
        assert res.yaw_rmse == pytest.approx(0.0, abs=1e-12)
        assert res.cost_discrepancy == pytest.approx(0.0, abs=1e-12)

    def test_zero_commands_frozen_rmse(self):
        # staying put against waypoints 0.1, 0.2, 0.3 m ahead:
        # rmse = sqrt((0.01 + 0.04 + 0.09) / 3)
        cmds = [VelocityCommand(0.0, 0.0)] * 3
        desired = [Pose2(0.1, 0, 0), Pose2(0.2, 0, 0), Pose2(0.3, 0, 0)]
        res = simulate(Pose2(0, 0, 0), [solution_for(cmds, desired)],
                       desired, CFG)
        assert res.pos_rmse == 0.21602468994692867
        assert res.pos_max == pytest.approx(0.3)

    def test_cost_discrepancy_flags_wrong_report(self):
        cmds = [VelocityCommand(0.3, 0.0)] * 4
        desired = rollout(Pose2(0, 0, 0), cmds, CFG.dt)
        good = solution_for(cmds, desired)
        bad = RetargetSolution(good.cmds, good.cost_total + 0.5, good.cost_pos,
                               good.cost_yaw, good.cost_smooth, 0, True)
        res = simulate(Pose2(0, 0, 0), [bad], desired, CFG)
        assert res.cost_discrepancy == pytest.approx(0.5)

    def test_window_chaining(self):
        cmds = [VelocityCommand(0.4, 0.05)] * 8
        desired = rollout(Pose2(0, 0, 0), cmds, CFG.dt)
        first = solution_for(cmds[:4], desired[:4])
        second = solution_for(cmds[4:], desired[4:], start=desired[3],
                              prev=cmds[3])
        res = simulate(Pose2(0, 0, 0), [first, second], desired, CFG)
        assert res.pos_rmse == pytest.approx(0.0, abs=1e-12)
        assert len(res.poses) == 8

    def test_count_mismatch(self):
        cmds = [VelocityCommand(0.0, 0.0)] * 2
        with pytest.raises(InvalidArgumentError):
            simulate(Pose2(0, 0, 0),
                     [solution_for(cmds, [Pose2(0, 0, 0)] * 2)],
                     [Pose2(0, 0, 0)], CFG)


class TestSynthesize:
    def test_straight_segment_geometry(self):
        spec = SynthSpec((SynthSegment("straight", 2.0, speed=1.0),), fps=30.0)
        ep, track = synthesize(spec)
        assert len(ep.frames) == 60
        assert ep.head_pos[-1, 0] == pytest.approx(2.0)
        assert (track.labels == NAVIGATION).all()

    def test_arc_stays_on_circle(self):
        spec = SynthSpec((SynthSegment("arc", 3.0, speed=1.0, turn_rate=0.8),),
                         fps=50.0)
        ep, _ = synthesize(spec)
        r = 1.0 / 0.8
        for x, y, _ in ep.head_pos.tolist():
            assert math.hypot(x, y - r) == pytest.approx(r, abs=1e-9)

    def test_pause_has_hand_and_labels(self):
        spec = SynthSpec((SynthSegment("pause-and-manipulate", 1.0),),
                         fps=30.0, noise_std=0.002, seed=3)
        ep, track = synthesize(spec)
        assert (track.labels == MANIPULATION).all()
        assert not np.isnan(ep.hand_conf[:, 1]).any()

    def test_deterministic(self):
        a, _ = synthesize(two_zone_spec(seed=17))
        b, _ = synthesize(two_zone_spec(seed=17))
        assert rec_text(a) == rec_text(b)

    def test_seed_changes_jitter(self):
        a, _ = synthesize(two_zone_spec(seed=1))
        b, _ = synthesize(two_zone_spec(seed=2))
        assert rec_text(a) != rec_text(b)

    def test_recording_round_trip(self):
        ep, _ = synthesize(two_zone_spec(seed=4))
        back = parse_recording(io.StringIO(rec_text(ep)))
        assert rec_text(back) == rec_text(ep)

    def test_hand_speed_constant_during_pause(self):
        spec = SynthSpec((SynthSegment("pause-and-manipulate", 2.0),),
                         fps=30.0, noise_std=0.0)
        ep, _ = synthesize(spec)
        pts = ep.hand_pos[:, 1]
        speeds = [np.linalg.norm(b - a) * 30.0 for a, b in zip(pts, pts[1:])]
        expected = 2 * math.pi * 2.0 * 0.3  # circle speed at 2 Hz, 0.3 m
        assert np.mean(speeds) == pytest.approx(expected, rel=0.05)

    def test_invalid_segment_kind(self):
        with pytest.raises(InvalidArgumentError):
            SynthSegment("spiral", 1.0)

    def test_arc_needs_turn_rate(self):
        with pytest.raises(InvalidArgumentError):
            SynthSegment("arc", 1.0, turn_rate=0.0)


class TestScoreSegmentation:
    def track(self, labels):
        return PhaseTrack(np.asarray(labels, dtype=np.int64))

    def test_perfect(self):
        t = self.track([0, 1, 1, 0])
        assert score_segmentation(t, t) == 1.0

    def test_inverted(self):
        a = self.track([0, 1, 0, 1])
        b = self.track([1, 0, 1, 0])
        assert score_segmentation(a, b) == 0.0

    def test_half(self):
        a = self.track([0, 0, 1, 1])
        b = self.track([0, 1, 1, 0])
        assert score_segmentation(a, b) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            score_segmentation(self.track([0]), self.track([0, 1]))


class TestSpecFromJson:
    def test_round_trip_fields(self):
        obj = {
            "segments": [
                {"kind": "straight", "duration": 2.0, "speed": 0.8},
                {"kind": "arc", "duration": 1.0, "turn_rate": 0.5},
                {"kind": "pause-and-manipulate", "duration": 3.0},
            ],
            "fps": 50.0, "noise_std": 0.001, "seed": 7,
        }
        spec = spec_from_json(obj)
        assert spec.fps == 50.0
        assert spec.seed == 7
        assert spec.segments[0].speed == 0.8
        assert spec.segments[1].turn_rate == 0.5

    def test_missing_segments(self):
        with pytest.raises(InvalidArgumentError):
            spec_from_json({"fps": 30.0})


def test_sim_file_round_trip(tmp_path):
    cmds = [VelocityCommand(0.2, -0.1)] * 5
    desired = rollout(Pose2(0, 0, 0), cmds, CFG.dt)
    res = simulate(Pose2(0, 0, 0), [solution_for(cmds, desired)],
                   desired, CFG)
    path = tmp_path / "sim.json"
    write_sim_file(path, res)
    obj = json.loads(path.read_text())
    assert obj["pos_rmse"] == res.pos_rmse
    assert obj["cost_discrepancy"] == res.cost_discrepancy
    assert len(obj["poses"]) == 5


def test_sim_file_text(tmp_path):
    # the writer's bytes: one JSON object at indent 1, then a newline
    res = SimResult((Pose2(0.0, 0.1, -0.5), Pose2(0.25, 0.125, 3.0)),
                    0.5, 0.75, 0.1, (1.0, 2.0, 3.5), 0.0)
    path = tmp_path / "sim.json"
    write_sim_file(path, res)
    assert path.read_text() == """{
 "pos_rmse": 0.5,
 "pos_max": 0.75,
 "yaw_rmse": 0.1,
 "cost_pos": 1.0,
 "cost_yaw": 2.0,
 "cost_smooth": 3.5,
 "cost_discrepancy": 0.0,
 "poses": [
  [
   0.0,
   0.1,
   -0.5
  ],
  [
   0.25,
   0.125,
   3.0
  ]
 ]
}
"""
