import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import egonav
from egonav import cli, errors, ingest, report, segmentation, simulator
from egonav.cli import main
from egonav.config import load_config, parse_config
from egonav.errors import InvalidArgumentError
from egonav.geometry import Pose2
from egonav.ingest import extract_waypoints, parse_recording
from egonav.retarget import read_command_file, read_replay
from egonav.simulator import simulate

from conftest import two_zone_spec

E2E_SPEC = {
    "segments": [
        {"kind": "pause-and-manipulate", "duration": 4.0},
        {"kind": "straight", "duration": 2.5, "speed": 1.0},
        {"kind": "arc", "duration": 2.0, "speed": 1.0, "turn_rate": 0.8},
        {"kind": "straight", "duration": 2.5, "speed": 1.0},
        {"kind": "pause-and-manipulate", "duration": 4.0},
        {"kind": "straight", "duration": 3.0, "speed": 1.0},
    ],
    "fps": 50.0,
    "noise_std": 0.002,
    "seed": 11,
}

# waypoint spacing 0.13 m at dt = 0.16 s needs ~0.9 m/s, inside the
# velocity bounds, so the rollout can actually keep up
E2E_CFG = "ingest.d_thresh = 0.13\ningest.fps = 50.0\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(E2E_SPEC))
    (tmp_path / "cfg.txt").write_text(E2E_CFG)
    return tmp_path


def run_pipeline(d, fmt="text"):
    cfg = str(d / "cfg.txt")
    art = d / "art"
    assert main(["synth", str(d / "spec.json"), "--out", str(art),
                 "--config", cfg]) == 0
    rec = str(art / "recording.jsonl")
    assert main(["segment", rec, "--out", str(art / "phases.json"),
                 "--config", cfg]) == 0
    assert main(["retarget", rec, "--out", str(art / "commands.txt"),
                 "--config", cfg]) == 0
    assert main(["simulate", str(art / "commands.txt"), rec,
                 "--out", str(art / "sim.json"), "--config", cfg]) == 0
    assert main(["report", str(art), "--out", str(d / "rep"),
                 "--config", cfg, "--format", fmt]) == 0
    return art


def straight_walk(d):
    """Synthesize a 2 s straight walk at 1 m/s under ``d``; returns its directory."""
    (d / "s.json").write_text(json.dumps(
        {"segments": [{"kind": "straight", "duration": 2.0}], "fps": 30.0}))
    assert main(["synth", str(d / "s.json"), "--out", str(d / "art")]) == 0
    return d / "art"


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["segment", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "p.json")]) == 2

    def test_malformed_recording_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 0.1, "head"\n')
        assert main(["segment", str(bad), "--out",
                     str(tmp_path / "p.json")]) == 2

    def test_non_utf8_recording_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'\xff\xfe{"t": 0.0}\n')
        assert main(["segment", str(bad), "--out",
                     str(tmp_path / "p.json")]) == 2

    @pytest.mark.parametrize("frame", [
        '{"t": NaN, "head": {"p": [0, 0, 1.6], "q": [1, 0, 0, 0]}}',
        '{"t": 0.1, "head": {"p": [Infinity, 0, 1.6], "q": [1, 0, 0, 0]}}',
        '{"t": 0.1, "head": [0, 0, 1.6]}',
    ], ids=["nan-t", "inf-p", "head-list"])
    def test_malformed_frame_value_is_input_error(self, tmp_path, frame):
        rec = tmp_path / "bad.jsonl"
        rec.write_text('{"t": 0.0, "head": {"p": [0, 0, 1.6], "q": [1, 0, 0, 0]}}\n'
                       + frame + "\n")
        assert main(["retarget", str(rec), "--out", str(tmp_path / "c.txt")]) == 2

    def test_bad_config_key_is_input_error(self, workdir):
        (workdir / "cfg.txt").write_text("ingest.not_a_knob = 1\n")
        assert main(["synth", str(workdir / "spec.json"),
                     "--out", str(workdir / "art"),
                     "--config", str(workdir / "cfg.txt")]) == 2

    @pytest.mark.parametrize("text, key, lines", [
        ("retarget.window = 5\nretarget.window = 7\n", "retarget.window", (1, 2)),
        ("seed = 3\n# the seed again\nseed = 4\n", "seed", (1, 3)),
    ], ids=["section-key", "seed"])
    def test_config_key_given_twice_is_input_error(self, workdir, capsys, text, key,
                                                   lines):
        with pytest.raises(InvalidArgumentError,
                           match=rf"'{key}' given twice, on lines "
                                 rf"{lines[0]} and {lines[1]}"):
            parse_config(text)
        (workdir / "cfg.txt").write_text(text)
        capsys.readouterr()
        assert main(["synth", str(workdir / "spec.json"),
                     "--out", str(workdir / "art"),
                     "--config", str(workdir / "cfg.txt")]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "retarget.window = 0",
        "retarget.max_iters = -1",
        "retarget.n_starts = 0",
        "retarget.n_starts = 3",  # two deterministic starts at most
        "retarget.seed = 5",  # the one seed is the top-level one
        "chunk.horizon = 1",
        "chunk.nav_step = 0",
        "chunk.manip_step = 0",
        "chunk.target_len = -3",
        "chunk.target_len = 9",  # below the default horizon of 10
        "ingest.d_thresh = -1",  # every frame would become a waypoint
        "ingest.d_thresh = 0",
        "ingest.k_h = 0",
        "ingest.forward_axis = up",  # ground_pose accepts no such axis
        "ingest.fps = 0",
        "seed = -1",
        "retarget.v_max = inf",  # a command file its own reader refuses
        "retarget.grad_tol = nan",  # no window would converge
        "retarget.grad_tol = 0",
        "phase.tau_head = inf",
        "retarget.omega_min = 4",  # above the default omega_max of pi
        "retarget.lambda_smooth = -1",
        "phase.epsilon = 0",
        "phase.k_components = 0",
    ], ids=lambda line: line.replace(" = ", "="))
    def test_out_of_range_config_value_is_input_error(self, tmp_path, capsys,
                                                      line):
        spec = {"segments": [{"kind": "straight", "duration": 2.0}],
                "fps": 30.0}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        art = tmp_path / "art"
        assert main(["synth", str(tmp_path / "s.json"), "--out", str(art)]) == 0
        (tmp_path / "cfg.txt").write_text(line + "\n")
        capsys.readouterr()
        assert main(["retarget", str(art / "recording.jsonl"),
                     "--out", str(tmp_path / "c.txt"),
                     "--config", str(tmp_path / "cfg.txt")]) == 2
        err = capsys.readouterr().err
        assert line.split(" = ")[0] in err and "Traceback" not in err

    @pytest.mark.parametrize("line", ["ingest.forward_axis = up", "ingest.fps = 0"],
                             ids=["forward_axis", "fps"])
    def test_bad_ingest_value_fails_synth_and_segment(self, workdir, capsys, line):
        art = workdir / "art"
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art)]) == 0
        (workdir / "bad.txt").write_text(line + "\n")
        cfg = ["--config", str(workdir / "bad.txt")]
        capsys.readouterr()
        assert main(["synth", str(workdir / "spec.json"),
                     "--out", str(workdir / "art2"), *cfg]) == 2
        assert main(["segment", str(art / "recording.jsonl"),
                     "--out", str(workdir / "p.json"), *cfg]) == 2
        err = capsys.readouterr().err
        assert err.count(line.split(" = ")[0]) == 2 and "Traceback" not in err

    @pytest.mark.parametrize("spec_seed, flag", [(0, ["--seed", "-1"]), (-2, [])],
                             ids=["flag", "spec"])
    def test_negative_seed_is_input_error(self, tmp_path, capsys, spec_seed, flag):
        spec = {"segments": [{"kind": "straight", "duration": 1.0}],
                "seed": spec_seed}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        assert main(["synth", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "art"), *flag]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err

    def test_no_hands_is_exit_3(self, tmp_path, capsys):
        spec = {"segments": [{"kind": "straight", "duration": 5.0}],
                "fps": 30.0}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        assert main(["synth", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "art")]) == 0
        rec = tmp_path / "art" / "recording.jsonl"
        assert main(["segment", str(rec), "--out", str(tmp_path / "p.json")]) == 3
        err = capsys.readouterr().err  # the message names the recording
        assert err.startswith(f"egonav: {rec}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("retarget.bogus = 1\n", "line 1: unknown key 'retarget.bogus'"),
        ("retarget.window = 0\n", "retarget.window must be >= 1"),
        ("retarget.window 5\n", "line 1: expected 'key = value'"),
        ("robot.window = 5\n", "line 1: unknown key 'robot.window'"),
    ], ids=["unknown-key", "out-of-range", "no-equals", "unknown-section"])
    def test_config_error_names_the_config_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main(["report", str(tmp_path), "--out", str(tmp_path / "rep"),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"egonav: {cfg}: {message}\n"

    def test_missing_config_file_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "missing.txt"
        assert main(["report", str(tmp_path), "--out", str(tmp_path / "rep"),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err  # the OS message names the file
        assert str(cfg) in err and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, named", [
        (["synth", "f.bin", "--out", "art"], "f.bin"),
        (["simulate", "f.bin", "rec.jsonl", "--out", "sim.json"], "command file f.bin"),
        (["report", ".", "--out", "rep", "--config", "f.bin"], "f.bin"),
    ], ids=["spec", "command-file", "config"])
    def test_undecodable_file_is_input_error_naming_it(self, tmp_path, capsys,
                                                       monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)
        Path("f.bin").write_bytes(b"\xff\xfe\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"egonav: {named}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("read", [segmentation.read_phase_file, read_replay],
                             ids=["phase-file", "command-file"])
    def test_undecodable_artifact_raises_input_error(self, tmp_path, read):
        path = tmp_path / "f.bin"
        path.write_bytes(b"\xff\xfe\n")
        with pytest.raises(InvalidArgumentError, match="codec can't decode") as info:
            read(path)
        assert str(path) in str(info.value)

    def test_zero_duration_spec_is_input_error(self, tmp_path):
        spec = {"segments": [{"kind": "straight", "duration": 0.0}]}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        assert main(["synth", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "art")]) == 2

    def test_stationary_recording_yields_empty_commands(self, tmp_path):
        spec = {"segments": [{"kind": "pause-and-manipulate",
                              "duration": 3.0}], "fps": 30.0}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        assert main(["synth", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "art")]) == 0
        out = tmp_path / "commands.txt"
        assert main(["retarget", str(tmp_path / "art" / "recording.jsonl"),
                     "--out", str(out)]) == 0
        solutions, _ = read_command_file(out)
        assert solutions == []

    def test_stationary_recording_runs_through_every_step(self, tmp_path):
        spec = {"segments": [{"kind": "pause-and-manipulate",
                              "duration": 3.0}], "fps": 30.0}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        art = tmp_path / "art"
        assert main(["synth", str(tmp_path / "s.json"), "--out", str(art)]) == 0
        assert main(["retarget", str(art / "recording.jsonl"),
                     "--out", str(art / "commands.txt")]) == 0
        assert main(["simulate", str(art / "commands.txt"),
                     str(art / "recording.jsonl"),
                     "--out", str(art / "sim.json")]) == 0
        sim = json.loads((art / "sim.json").read_text())
        assert sim["poses"] == []
        assert sim["pos_rmse"] == sim["pos_max"] == sim["yaw_rmse"] == 0.0
        assert sim["cost_discrepancy"] == 0.0
        assert main(["report", str(art), "--out", str(tmp_path / "rep")]) == 0
        assert "<polyline" in (tmp_path / "rep" / "trajectory.svg").read_text()

    def small_walk(self, tmp_path):
        """A 3 s pause, a 2 s straight and a 1 s arc at 30 fps; its recording."""
        spec = {"segments": [{"kind": "pause-and-manipulate", "duration": 3.0},
                             {"kind": "straight", "duration": 2.0, "speed": 1.0},
                             {"kind": "arc", "duration": 1.0, "speed": 1.0,
                              "turn_rate": 0.8}],
                "fps": 30.0, "noise_std": 0.002}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        assert main(["synth", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "art")]) == 0
        return tmp_path / "art" / "recording.jsonl"

    def test_segment_whose_fit_overflows_is_input_error(self, tmp_path, capsys):
        rec = self.small_walk(tmp_path)
        frames = [json.loads(line) for line in rec.read_text().splitlines()]
        for frame in frames:  # every head and hand x, far out
            for part in ("head", "lh", "rh"):
                if part in frame:
                    frame[part]["p"][0] += 1e200
        rec.write_text("".join(json.dumps(f) + "\n" for f in frames))
        out = tmp_path / "phases.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["segment", str(rec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"egonav: {rec}: the mixture fit") and err.count("\n") == 1
        assert not out.exists()

    def segment_quietly(self, rec, capsys):
        """Segment ``rec`` with warnings as errors; assert exit 0, no stderr."""
        out = rec.parent / "phases.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["segment", str(rec), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        return segmentation.read_phase_file(out)[0].labels

    def test_segment_of_sub_normal_time_steps_is_quiet(self, tmp_path, capsys):
        # every speed over a 1e-320 s step overflows to inf: the still
        # head's 0 stays 0, so the pause is the manipulation zone
        lines = []
        for i in range(200):
            x = 0.0 if i < 100 else 0.03 * (i - 99)  # a head pause, then a walk
            frame = {"t": i * 1e-320, "head": {"p": [x, 0.0, 1.6], "q": [1, 0, 0, 0]},
                     "rh": {"p": [x + 0.3, 0.1 * math.sin(i), 1.2], "c": 1.0}}
            lines.append(json.dumps(frame) + "\n")
        rec = tmp_path / "rec.jsonl"
        rec.write_text("".join(lines))
        labels = self.segment_quietly(rec, capsys)
        assert labels.tolist() == [0] * 100 + [1] * 100

    def test_segment_of_head_steps_that_overflow_is_quiet(self, tmp_path, capsys):
        rec = self.small_walk(tmp_path)
        frames = [json.loads(line) for line in rec.read_text().splitlines()]
        for i, x in zip(range(120, 124), (1.7e308, -1.7e308) * 2):  # in the walk
            frames[i]["head"]["p"][0] = x
        rec.write_text("".join(json.dumps(f) + "\n" for f in frames))
        labels = self.segment_quietly(rec, capsys)
        assert labels[120:124].tolist() == [1] * 4

    def test_each_error_class_has_its_own_exit_code(self, tmp_path, capsys, monkeypatch):
        codes = {}
        for cls in vars(errors).values():
            if not (isinstance(cls, type) and issubclass(cls, Exception)):
                continue

            def fail(args, cfg, cls=cls):
                raise cls("what went wrong")
            monkeypatch.setattr(cli, "cmd_report", fail)
            codes[cls.__name__] = main(["report", str(tmp_path),
                                        "--out", str(tmp_path / "rep")])
            assert capsys.readouterr().err == "egonav: what went wrong\n"
        assert codes == {"InvalidArgumentError": 2, "NoManipulationZonesError": 3,
                         "NumericalFailureError": 4}

    @pytest.mark.parametrize("line", ["retarget.lambda_pos = 1e308",
                                      "retarget.lambda_smooth = 1e308",
                                      "retarget.dt = 1e300"],
                             ids=["lambda_pos", "lambda_smooth", "dt"])
    def test_retarget_whose_cost_overflows_is_numerical_failure(self, tmp_path, capsys,
                                                                line):
        rec = self.small_walk(tmp_path)
        (tmp_path / "cfg.txt").write_text(line + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["retarget", str(rec), "--out", str(tmp_path / "c.txt"),
                         "--config", str(tmp_path / "cfg.txt")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"egonav: {rec}: window 0: ") and err.count("\n") == 1


class TestPipeline:
    def test_simulate_replays_at_the_command_file_dt(self, workdir):
        # retarget under a non-default dt, simulate with no config: the
        # replay must use the dt recorded in the command file
        (workdir / "dt.txt").write_text("retarget.dt = 0.1\n")
        art = workdir / "art"
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art)]) == 0
        rec = str(art / "recording.jsonl")
        assert main(["retarget", rec, "--out", str(art / "commands.txt"),
                     "--config", str(workdir / "dt.txt")]) == 0
        assert read_command_file(art / "commands.txt")[1].dt == 0.1
        assert main(["simulate", str(art / "commands.txt"), rec,
                     "--out", str(art / "sim.json")]) == 0
        assert json.loads((art / "sim.json").read_text())["cost_discrepancy"] == 0.0

    def test_simulate_replays_under_the_command_file_weights(self, tmp_path):
        # retarget under a non-default weight, simulate with no config: the
        # replay scores under the weights recorded in the command file
        art = straight_walk(tmp_path)
        (tmp_path / "w.txt").write_text("retarget.lambda_smooth = 2\n")
        rec = str(art / "recording.jsonl")
        assert main(["retarget", rec, "--out", str(art / "commands.txt"),
                     "--config", str(tmp_path / "w.txt")]) == 0
        assert main(["simulate", str(art / "commands.txt"), rec,
                     "--out", str(art / "sim.json")]) == 0
        assert json.loads((art / "sim.json").read_text())["cost_discrepancy"] == 0.0

    @pytest.mark.parametrize("solve_cfg, replay_cfg", [
        (E2E_CFG + "ingest.forward_axis = +y\n", E2E_CFG),
        (E2E_CFG, "ingest.fps = 50.0\n"),  # the default d_thresh of 0.25
    ], ids=["forward_axis", "d_thresh"])
    def test_simulate_replays_the_waypoints_retarget_solved_for(
            self, workdir, solve_cfg, replay_cfg):
        # simulate under other ingest keys than retarget's: it replays the
        # waypoints the command file records, not ones it extracts again
        art = workdir / "art"
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art)]) == 0
        (workdir / "solve.txt").write_text(solve_cfg)
        (workdir / "replay.txt").write_text(replay_cfg)
        rec, cmds = str(art / "recording.jsonl"), art / "commands.txt"
        assert main(["retarget", rec, "--out", str(cmds),
                     "--config", str(workdir / "solve.txt")]) == 0
        assert main(["simulate", str(cmds), rec, "--out", str(art / "sim.json"),
                     "--config", str(workdir / "replay.txt")]) == 0
        sim = json.loads((art / "sim.json").read_text())
        assert sim["cost_discrepancy"] == 0.0
        sols, objective, walk = read_replay(cmds)
        replay = simulate(walk.waypoints[0], sols, walk.waypoints[1:], objective)
        assert sim["pos_rmse"] == replay.pos_rmse

    def test_simulate_of_another_recording_is_input_error(self, workdir, capsys):
        (workdir / "other").mkdir()
        art, other = workdir / "art", straight_walk(workdir / "other")
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art)]) == 0
        cmds = art / "commands.txt"
        assert main(["retarget", str(art / "recording.jsonl"), "--out", str(cmds)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(cmds), str(other / "recording.jsonl"),
                     "--out", str(art / "sim.json")]) == 2
        err = capsys.readouterr().err
        assert str(cmds) in err and str(other / "recording.jsonl") in err
        assert "re-run retarget" in err and not (art / "sim.json").exists()

    def test_simulate_warns_when_most_commands_sit_on_a_bound(self, tmp_path, capsys):
        # the two-zone walk at the defaults asks for more than v_max, so
        # its commands saturate; the run still exits 0 and writes sim.json
        (tmp_path / "s.json").write_text(json.dumps(dataclasses.asdict(two_zone_spec(3))))
        art = tmp_path / "art"
        assert main(["synth", str(tmp_path / "s.json"), "--out", str(art)]) == 0
        rec, cmds = str(art / "recording.jsonl"), art / "commands.txt"
        assert main(["retarget", rec, "--out", str(cmds)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(cmds), rec, "--out", str(art / "sim.json")]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "warning" in err
        sols, objective, _ = read_replay(cmds)
        n_cmds = sum(len(sol.cmds) for sol in sols)
        saturated = sum(c.v in (objective.v_min, objective.v_max)
                        or c.omega in (objective.omega_min, objective.omega_max)
                        for sol in sols for c in sol.cmds)
        assert saturated > simulator.SATURATION_WARN * n_cmds
        assert f"{saturated} of {n_cmds} commands" in err
        assert json.loads((art / "sim.json").read_text())["pos_rmse"] > 1.0

    def test_simulate_of_a_trackable_walk_is_silent(self, workdir, capsys):
        art = workdir / "art"
        cfg = ["--config", str(workdir / "cfg.txt")]
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art)]) == 0
        rec, cmds = str(art / "recording.jsonl"), art / "commands.txt"
        assert main(["retarget", rec, "--out", str(cmds), *cfg]) == 0
        capsys.readouterr()
        assert main(["simulate", str(cmds), rec, "--out", str(art / "sim.json"),
                     *cfg]) == 0
        assert capsys.readouterr().err == ""

    def test_a_walk_pass_parses_each_recording_twice(self, workdir, monkeypatch):
        # segment and retarget parse the recording; simulate replays the
        # waypoints that the command file records, and report reads no recording
        calls = []
        parse = ingest.parse_recording

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return parse(*args, **kwargs)

        monkeypatch.setattr(ingest, "parse_recording", counted)
        art = run_pipeline(workdir)
        assert calls == [str(art / "recording.jsonl")] * 2

    @pytest.mark.parametrize("v", ["1e308", "5.0"])
    def test_command_outside_the_bounds_is_input_error(self, tmp_path, capsys, v):
        art = straight_walk(tmp_path)
        rec, cmds = str(art / "recording.jsonl"), art / "commands.txt"
        assert main(["retarget", rec, "--out", str(cmds)]) == 0
        rows = cmds.read_text().splitlines()
        n = next(i for i, row in enumerate(rows) if not row.startswith("#"))
        window, _, omega = rows[n].split()
        rows[n] = f"{window} {v} {omega}"
        cmds.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(cmds), rec,
                         "--out", str(art / "sim.json")]) == 2
        err = capsys.readouterr().err
        assert f"{cmds} line {n + 1}:" in err and "outside" in err
        assert not (art / "sim.json").exists()

    @pytest.mark.parametrize("old, new", [("dt=0.16", "dt=1e308"),
                                          ("lambda_pos=32.0", "lambda_pos=1e308")],
                             ids=["dt", "lambda_pos"])
    def test_replay_that_overflows_is_input_error(self, workdir, capsys, old, new):
        art = workdir / "art"
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art)]) == 0
        rec, cmds = str(art / "recording.jsonl"), art / "commands.txt"
        assert main(["retarget", rec, "--out", str(cmds)]) == 0
        cmds.write_text(cmds.read_text().replace(old, new))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(cmds), rec,
                         "--out", str(art / "sim.json")]) == 2
        assert "not all finite" in capsys.readouterr().err
        assert not (art / "sim.json").exists()

    def test_tiny_dt_retargets_without_a_warning(self, tmp_path, capsys):
        # the finite-difference start divides by dt and overflows, which the
        # clip to the bounds then absorbs
        art = straight_walk(tmp_path)
        cfg = tmp_path / "tiny.txt"
        cfg.write_text("retarget.dt = 1e-320\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["retarget", str(art / "recording.jsonl"), "--out",
                         str(art / "commands.txt"), "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_end_to_end_tracks_waypoints(self, workdir):
        art = run_pipeline(workdir)
        sim = json.loads((art / "sim.json").read_text())
        assert sim["pos_rmse"] <= 0.05
        assert sim["cost_discrepancy"] <= 1e-9

    def test_report_outputs_exist(self, workdir):
        run_pipeline(workdir, fmt="json")
        rep = workdir / "rep"
        for name in ("trajectory.svg", "phases.svg", "costs.svg",
                     "report.json"):
            assert (rep / name).exists()
        summary = json.loads((rep / "report.json").read_text())
        assert summary["segmentation_accuracy"] >= 0.95

    def test_every_json_artifact_is_strict_json(self, workdir):
        # no NaN or Infinity token, and no number such as 1e999 that reads as one
        def finite(token):
            if not np.isfinite(value := float(token)):
                raise ValueError(f"{token} is not finite")
            return value

        art = run_pipeline(workdir, fmt="json")
        paths = [*art.glob("*.json"), workdir / "rep" / "report.json"]
        assert sorted(p.name for p in paths) == [
            "phases.json", "report.json", "sim.json", "truth.json"]
        for path in paths:
            json.loads(path.read_text(), parse_constant=finite, parse_float=finite)

    def test_reruns_byte_identical(self, workdir, tmp_path):
        art1 = run_pipeline(workdir)
        d2 = tmp_path / "again"
        d2.mkdir()
        (d2 / "spec.json").write_text(json.dumps(E2E_SPEC))
        (d2 / "cfg.txt").write_text(E2E_CFG)
        art2 = run_pipeline(d2)
        for name in ("recording.jsonl", "commands.txt", "sim.json"):
            assert (art1 / name).read_bytes() == (art2 / name).read_bytes()

    def test_walk_as_processes_matches_in_process_run(self, workdir, tmp_path):
        # the five commands as a user runs them: one `python -m egonav.cli`
        # process each, through the module's __main__ path and its exit code
        art1 = run_pipeline(workdir, fmt="json")
        d = tmp_path / "procs"
        d.mkdir()
        (d / "spec.json").write_text(json.dumps(E2E_SPEC))
        (d / "cfg.txt").write_text(E2E_CFG)
        src = str(Path(egonav.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        rec, art2 = "art/recording.jsonl", d / "art"
        for argv in (["synth", "spec.json", "--out", "art"],
                     ["segment", rec, "--out", "art/phases.json"],
                     ["retarget", rec, "--out", "art/commands.txt"],
                     ["simulate", "art/commands.txt", rec, "--out", "art/sim.json"],
                     ["report", "art", "--out", "rep", "--format", "json"]):
            done = subprocess.run([sys.executable, "-m", "egonav.cli", *argv,
                                   "--config", "cfg.txt"], cwd=d, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (argv, done.stderr)
        for name in ("phases.json", "commands.txt", "sim.json"):
            assert (art2 / name).read_bytes() == (art1 / name).read_bytes(), name
        assert ((d / "rep" / "report.json").read_bytes()
                == (workdir / "rep" / "report.json").read_bytes())

    def test_default_config_straight_walk_near_max_speed(self, tmp_path):
        # default waypoint spacing (0.25 m) at a 1 m/s walk demands more
        # than v_max per step, so the solver saturates near 1 m/s
        spec = {"segments": [{"kind": "straight", "duration": 8.0,
                              "speed": 1.0}], "fps": 30.0}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        assert main(["synth", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "art")]) == 0
        out = tmp_path / "commands.txt"
        assert main(["retarget", str(tmp_path / "art" / "recording.jsonl"),
                     "--out", str(out)]) == 0
        solutions, _ = read_command_file(out)
        vs = [abs(c.v) for s in solutions for c in s.cmds]
        assert 0.9 <= np.mean(vs) <= 1.0

    def test_seed_flag_changes_synth(self, workdir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        spec = str(workdir / "spec.json")
        assert main(["synth", spec, "--out", str(a), "--seed", "1"]) == 0
        assert main(["synth", spec, "--out", str(b), "--seed", "2"]) == 0
        assert (a / "recording.jsonl").read_bytes() != \
            (b / "recording.jsonl").read_bytes()

    def test_multi_recording_fanout(self, workdir, monkeypatch, tmp_path):
        workers = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        art = workdir / "art"
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art),
                     "--config", str(workdir / "cfg.txt")]) == 0
        rec1 = art / "recording.jsonl"
        rec2 = tmp_path / "copy.jsonl"
        rec2.write_bytes(rec1.read_bytes())
        outdir = tmp_path / "cmds"
        assert main(["retarget", str(rec1), str(rec2),
                     "--out", str(outdir),
                     "--config", str(workdir / "cfg.txt")]) == 0
        a, _ = read_command_file(outdir / "recording.commands.txt")
        b, _ = read_command_file(outdir / "copy.commands.txt")
        assert [s.cmds for s in a] == [s.cmds for s in b]
        n = min(2, len(os.sched_getaffinity(0)))
        assert workers == ([n - 1] if n > 1 else [])  # the caller runs one share

    def test_parser_is_built_once_and_keeps_nothing_between_calls(
            self, monkeypatch):
        built, seen = [], []
        real = cli.build_parser

        def build():
            built.append(1)
            return real()

        def handler(args, cfg):
            seen.append((vars(args), cfg.seed))
            return 0

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", build)
        monkeypatch.setattr(cli, "cmd_segment", handler)
        monkeypatch.setattr(cli, "cmd_report", handler)
        assert main(["segment", "a", "b", "--out", "o", "--seed", "5"]) == 0
        assert main(["segment", "c", "--out", "p"]) == 0
        assert main(["report", "d", "--out", "q", "--format", "json"]) == 0
        assert main(["report", "d", "--out", "q"]) == 0
        cli._parser.cache_clear()
        assert built == [1]
        assert seen == [
            ({"command": "segment", "recording": ["a", "b"], "out": "o",
              "config": None, "seed": 5}, 5),
            ({"command": "segment", "recording": ["c"], "out": "p",
              "config": None, "seed": None}, 0),
            ({"command": "report", "artifacts": "d", "out": "q",
              "format": "json", "config": None}, 0),
            ({"command": "report", "artifacts": "d", "out": "q",
              "format": "text", "config": None}, 0)]

    @pytest.mark.parametrize("command, suffix", [("segment", ".phases.json"),
                                                 ("retarget", ".commands.txt")])
    def test_recordings_with_one_output_name_are_input_error(
            self, workdir, tmp_path, capsys, command, suffix):
        art = workdir / "art"
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art)]) == 0
        recs = [tmp_path / d / "rec.jsonl" for d in ("a", "b")]
        for rec in recs:
            rec.parent.mkdir()
            rec.write_bytes((art / "recording.jsonl").read_bytes())
        outdir = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *map(str, recs), "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert str(recs[0]) in err and str(recs[1]) in err
        assert not (outdir / ("rec" + suffix)).exists()

    @pytest.mark.parametrize("command", ["retarget", "simulate", "report"])
    def test_seed_flag_only_where_it_changes_an_output(self, tmp_path, command):
        args = [str(tmp_path / "x")] * (2 if command == "simulate" else 1)
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--out", str(tmp_path / "o"), "--seed", "1"])
        assert exc.value.code == 2

    def test_report_echoes_the_seed_that_made_the_phases(self, workdir):
        art = run_pipeline(workdir)
        assert main(["segment", str(art / "recording.jsonl"), "--out",
                     str(art / "phases.json"), "--config",
                     str(workdir / "cfg.txt"), "--seed", "9"]) == 0
        rep = workdir / "rep9"
        assert main(["report", str(art), "--out", str(rep)]) == 0
        assert "seed = 9\n" in (rep / "report.txt").read_text()
        (art / "phases.json").unlink()
        assert main(["report", str(art), "--out", str(rep)]) == 0
        assert "seed = 0\n" in (rep / "report.txt").read_text()

    def test_report_echoes_the_objective_and_phase_config_it_reports_on(
            self, workdir):
        (workdir / "cfg.txt").write_text(
            E2E_CFG + "retarget.lambda_smooth = 2\nphase.tau_pdf = 0.01\n")
        art = run_pipeline(workdir)
        assert main(["report", str(art), "--out", str(workdir / "rep0"),
                     "--format", "json"]) == 0
        params = json.loads((workdir / "rep0" / "report.json").read_text())[
            "parameters"]
        assert params["retarget.lambda_smooth"] == 2.0
        assert params["phase.tau_pdf"] == 0.01
        # no artifact records the waypoint trigger: it comes from --config
        assert params["ingest.d_thresh"] == 0.25

    def test_report_missing_artifacts_is_input_error(self, tmp_path):
        assert main(["report", str(tmp_path), "--out",
                     str(tmp_path / "rep")]) == 2


class TestArtifactReaders:
    """Malformed artifacts make report and synth exit 2, naming the file."""

    def report(self, d, capsys):
        code = main(["report", str(d / "art"), "--out", str(d / "rep2"),
                     "--config", str(d / "cfg.txt")])
        return code, capsys.readouterr().err

    def edit_json(self, path, edit):
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))

    def test_report_draws_desired_without_recording(self, workdir):
        art = run_pipeline(workdir)
        with open(art / "recording.jsonl") as fh:
            ep = parse_recording(fh, fps=50.0)
        (art / "recording.jsonl").unlink()
        assert main(["report", str(art), "--out", str(workdir / "rep2"),
                     "--config", str(workdir / "cfg.txt")]) == 0
        ing = load_config(str(workdir / "cfg.txt")).ingest
        track = extract_waypoints(ep, ing.d_thresh, ing.k_h, ing.forward_axis)
        rollout = [Pose2(*p)
                   for p in json.loads((art / "sim.json").read_text())["poses"]]
        expected = report.trajectory_svg([p for _, p in track.waypoints][1:], rollout)
        assert (workdir / "rep2" / "trajectory.svg").read_text() == expected

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.pop("poses"),
        lambda obj: obj.pop("pos_rmse"),
        lambda obj: obj["poses"].pop(),
        *[lambda obj, kv=kv: obj.update([kv]) for kv in [
            ("pos_rmse", float("nan")), ("yaw_rmse", True), ("pos_max", float("inf")),
            ("cost_discrepancy", "0.0"), ("pos_rmse", -3.0), ("pos_max", -3.0),
            ("yaw_rmse", -3.0), ("cost_discrepancy", -3.0)]],
        lambda obj: obj["poses"].append([0.0, "y", 0.0]),
        *[lambda obj, c=c: obj["poses"].__setitem__(3, [c, 0, 0])
          for c in (float("nan"), float("inf"), -float("inf"), True)],
        "[" * 100_000 + "]" * 100_000,
        None,
        # a sim.json from before the command file held the walk also carried
        # `desired` (the waypoints, shaped like the poses) and `reported_cost`
        lambda obj: obj.update(desired=obj["poses"][1:], reported_cost=1.0),
    ], ids=["missing-poses", "missing-pos-rmse", "pose-of-another-walk", "nan-pos-rmse",
            "bool-yaw-rmse", "inf-pos-max", "str-discrepancy", "negative-pos-rmse",
            "negative-pos-max", "negative-yaw-rmse", "negative-cost-discrepancy",
            "malformed-pose", "nan-coordinate", "inf-coordinate", "-inf-coordinate",
            "bool-coordinate", "nested-too-deep", "deleted", "old-walk-copy"])
    def test_report_ignores_sim_json(self, workdir, capsys, edit):
        # report replays the command file itself: no sim.json, or one
        # edited out of shape, changes none of its outputs
        run_pipeline(workdir)
        rep, sim = workdir / "rep2", workdir / "art" / "sim.json"
        capsys.readouterr()
        assert self.report(workdir, capsys) == (0, "")
        untouched = {f.name: f.read_bytes() for f in rep.iterdir()}
        shutil.rmtree(rep)
        if edit is None:
            sim.unlink()
        elif isinstance(edit, str):
            sim.write_text(edit)
        else:
            self.edit_json(sim, edit)
        assert self.report(workdir, capsys) == (0, "")
        assert {f.name: f.read_bytes() for f in rep.iterdir()} == untouched

    @pytest.mark.parametrize("label", [7, 2.7, 1.0, True, "1", -1, {"0": 1}],
                             ids=["seven", "fraction", "float-one", "bool",
                                  "string", "negative", "object"])
    def test_phase_file_label_outside_0_1(self, workdir, capsys, label):
        run_pipeline(workdir)
        phases = workdir / "art" / "phases.json"
        self.edit_json(phases, lambda obj: obj["labels"].__setitem__(5, label))
        code, err = self.report(workdir, capsys)
        assert code == 2
        assert str(phases) in err and "'labels'" in err

    @pytest.mark.parametrize("edit, words", [
        (lambda obj: obj.pop("labels"), "'labels'"),
        (lambda obj: obj.pop("config"), "'config'"),
        (lambda obj: obj.pop("seed"), "'seed'"),
        (lambda obj: obj["config"].update(not_a_knob=1), "not_a_knob"),
        (lambda obj: obj.update(seed="abc"), "abc"),
        (lambda obj: obj.update(labels={"0": 1}), "'labels'"),
        (lambda obj: obj["gmm"].update(means=[1.0]), "'gmm.means'"),
        (lambda obj: obj["gmm"].update(weights=[]), "'gmm.weights'"),
        (lambda obj: obj["gmm"]["covariances"].pop(), "'gmm.covariances'"),
        (lambda obj: obj["config"].update(tau_pdf=float("inf")), "'config.tau_pdf'"),
        (lambda obj: obj["config"].update(tau_duration=2.5), "'config.tau_duration'"),
        (lambda obj: obj.update(seed=1.5), "'seed'"),
        (lambda obj: obj.update(seed=True), "'seed'"),
        (lambda obj: obj["config"].pop("tau_pdf"), "missing key 'config.tau_pdf'"),
    ], ids=["labels", "config", "seed", "unknown-config-key", "bad-seed",
            "labels-not-a-list", "gmm-means-shape", "gmm-no-components",
            "gmm-covariances-count", "inf-config-value", "fractional-config-int",
            "fractional-seed", "bool-seed", "missing-config-key"])
    def test_phase_file_malformed(self, workdir, capsys, edit, words):
        run_pipeline(workdir)
        phases = workdir / "art" / "phases.json"
        self.edit_json(phases, edit)
        code, err = self.report(workdir, capsys)
        assert code == 2
        assert str(phases) in err and words in err

    @pytest.mark.parametrize("name", ["spec.json", "phases.json", "truth.json"])
    def test_json_nested_too_deep(self, workdir, capsys, name):
        run_pipeline(workdir)
        path = workdir / ("art" if name != "spec.json" else "") / name
        path.write_text("[" * 100_000 + "]" * 100_000)
        if name == "spec.json":
            code = main(["synth", str(path), "--out", str(workdir / "art2")])
            err = capsys.readouterr().err
        else:
            code, err = self.report(workdir, capsys)
        assert code == 2 and str(path) in err and "recursion" in err

    @pytest.mark.parametrize("name", ["phases.json", "truth.json"])
    def test_phase_file_without_labels(self, workdir, capsys, name):
        # an empty track would score a NaN accuracy, which is not JSON
        run_pipeline(workdir)
        path = workdir / "art" / name
        self.edit_json(path, lambda obj: obj.update(labels=[]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.report(workdir, capsys)
        assert code == 2
        assert str(path) in err and "'labels'" in err

    def test_report_says_why_it_leaves_out_the_accuracy(self, workdir, capsys):
        # segment drops low-confidence frames, so a shorter phase track is
        # no input error: the accuracy goes, and one stderr line says why
        run_pipeline(workdir)
        art = workdir / "art"
        n = len(json.loads((art / "phases.json").read_text())["labels"])
        self.edit_json(art / "truth.json",
                       lambda obj: obj.update(labels=obj["labels"][:100]))
        code, err = self.report(workdir, capsys)
        assert code == 0 and err.count("\n") == 1
        assert all(str(w) in err for w in (
            art / "phases.json", art / "truth.json", n, 100, "segmentation_accuracy"))
        assert "segmentation_accuracy" not in (workdir / "rep2" / "report.txt").read_text()

    @pytest.mark.parametrize("old, new, key", [
        ('{', '{"seed": 7, ', "'seed'"),
        ('"config": {', '"config": {"tau_pdf": 0.5, ', "'tau_pdf'"),
    ], ids=["seed", "config-key"])
    @pytest.mark.parametrize("name", ["phases.json", "truth.json"])
    def test_phase_file_repeated_key(self, workdir, capsys, name, old, new, key):
        run_pipeline(workdir)
        path = workdir / "art" / name
        path.write_text(path.read_text().replace(old, new, 1))
        code, err = self.report(workdir, capsys)
        assert code == 2
        assert str(path) in err and f"key {key} given twice" in err

    @pytest.mark.parametrize("text, key", [
        ('{"segments": [{"kind": "straight", "duration": 2.0}], "fps": 30.0, "fps": 10.0}',
         "'fps'"),
        ('{"segments": [{"kind": "straight", "duration": 2.0, "duration": 0.5}]}',
         "'duration'"),
    ], ids=["spec-key", "segment-key"])
    def test_synth_spec_repeated_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "s.json"
        path.write_text(text)
        assert main(["synth", str(path), "--out", str(tmp_path / "art")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"key {key} given twice" in err
        assert not (tmp_path / "art").exists()

    def test_synth_spec_int_of_too_many_digits(self, tmp_path, capsys):
        # json.dumps cannot write an int past Python's digit limit, so write text
        path = tmp_path / "s.json"
        path.write_text('{"segments": [{"kind": "straight", "duration": 1.0}], '
                        '"seed": ' + "9" * 5000 + "}")
        assert main(["synth", str(path), "--out", str(tmp_path / "art")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"egonav: {path}: ") and "digits" in err
        assert err.count("\n") == 1 and not (tmp_path / "art").exists()

    @pytest.mark.parametrize("spec, words", [
        ({"segments": [{"kind": "straight", "duration": 1e999}]}, "'duration'"),
        ({"segments": [{"kind": "straight", "duration": 1.0}], "fps": 1e999}, "'fps'"),
        ({"segments": [{"kind": "arc", "duration": 1.0, "turn_rate": 1e999}]},
         "'turn_rate'"),
        ({"segments": [{"kind": "pause-and-manipulate", "duration": 1.0}],
          "noise_std": 1e999}, "'noise_std'"),
        ({"segments": [{"kind": "straight", "duration": 1.0, "speed": 1e999}]},
         "'speed'"),
        ({"segments": [{"kind": "straight", "duration": 1.0}], "head_height": 1e999},
         "'head_height'"),
        ({"segments": [{"kind": "straight", "duration": 1.0}], "seed": 1.5}, "'seed'"),
        ({"segments": [{"kind": "straight", "duration": 1e9}]}, "MAX_FRAMES"),
        ({"segments": [{"kind": "straight", "duration": 20_000.0}] * 2}, "MAX_FRAMES"),
        ({"segments": [{"kind": "straight", "duration": 1.0, "speed": 1e308}],
          "fps": 1e-300}, "float range"),
        ({"segments": [{"kind": "arc", "duration": 1.0, "turn_rate": 1e308}],
          "fps": 1e-300}, "float range"),
        ({"segments": [{"kind": "straight", "duration": 1.0, "sped": 2.0}]}, "'sped'"),
        ([1, 2], "must be a JSON object"),
        ({"segments": {"kind": "straight"}}, "'segments' must be a list"),
        ({"segments": ["straight"]}, "'segments' must be a list"),
        ({"segments": []}, "at least one segment"),
        ({"segments": [{"kind": "straight", "duration": 1.0}], "noise_std": -0.1},
         "noise_std must be >= 0"),
    ], ids=["duration", "fps", "turn-rate", "noise-std", "speed", "head-height",
            "fractional-seed", "long", "long-in-sum", "overflowing-walk",
            "overflowing-turn", "unknown-key", "not-an-object", "segments-an-object",
            "segment-a-string", "no-segments", "negative-noise-std"])
    def test_synth_spec_out_of_range(self, tmp_path, capsys, spec, words):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        assert main(["synth", str(path), "--out", str(tmp_path / "art")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and words in err and "Traceback" not in err
        assert not (tmp_path / "art").exists()

    @pytest.mark.parametrize("segment", [
        {"kind": "straight", "duration": "abc"},
        {"kind": "straight", "duration": 1e999, "speed": "fast"},
    ], ids=["duration-str", "speed-str"])
    def test_synth_spec_bad_number(self, tmp_path, capsys, segment):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"segments": [segment]}))
        assert main(["synth", str(spec), "--out", str(tmp_path / "art")]) == 2
        assert str(spec) in capsys.readouterr().err


def test_trajectory_scale_keeps_a_circle_round_inside_the_margins():
    circle = [(math.cos(a), math.sin(a)) for a in np.linspace(0.0, 2 * math.pi, 721)]
    to_px = report._scale(circle)
    xs, ys = zip(*(to_px(p) for p in circle))
    assert max(xs) - min(xs) == pytest.approx(max(ys) - min(ys))
    assert report._MARGIN <= min(xs) and max(xs) <= report._W - report._MARGIN
    assert report._MARGIN <= min(ys) and max(ys) <= report._H - report._MARGIN
