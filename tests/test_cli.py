import io
import json

import numpy as np
import pytest

from egonav import chunks, ingest, report, segmentation
from egonav.cli import main
from egonav.config import load_config
from egonav.geometry import Pose2
from egonav.ingest import extract_waypoints, parse_recording
from egonav.retarget import read_command_file
from egonav.simulator import read_sim_file, spec_from_json, synthesize

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

    @pytest.mark.parametrize("line", [
        "retarget.window = 0",
        "retarget.max_iters = -1",
        "retarget.n_starts = 0",
        "chunk.horizon = 1",
        "chunk.nav_step = 0",
        "chunk.manip_step = 0",
        "chunk.target_len = -3",
        "chunk.target_len = 9",  # below the default horizon of 10
        "ingest.d_thresh = -1",  # every frame would become a waypoint
        "ingest.d_thresh = 0",
        "ingest.k_h = 0",
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

    def test_no_hands_is_exit_3(self, tmp_path):
        spec = {"segments": [{"kind": "straight", "duration": 5.0}],
                "fps": 30.0}
        (tmp_path / "s.json").write_text(json.dumps(spec))
        assert main(["synth", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "art")]) == 0
        assert main(["segment", str(tmp_path / "art" / "recording.jsonl"),
                     "--out", str(tmp_path / "p.json")]) == 3

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
        sim = read_sim_file(art / "sim.json")
        assert sim["poses"] == sim["desired"] == []
        assert sim["pos_rmse"] == sim["pos_max"] == sim["yaw_rmse"] == 0.0
        assert sim["cost_discrepancy"] == 0.0
        assert main(["report", str(art), "--out", str(tmp_path / "rep")]) == 0
        assert "<polyline" in (tmp_path / "rep" / "trajectory.svg").read_text()


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
        assert read_command_file(art / "commands.txt")[1] == 0.1
        assert main(["simulate", str(art / "commands.txt"), rec,
                     "--out", str(art / "sim.json")]) == 0
        assert read_sim_file(art / "sim.json")["cost_discrepancy"] == 0.0

    def test_end_to_end_tracks_waypoints(self, workdir):
        art = run_pipeline(workdir)
        sim = read_sim_file(art / "sim.json")
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

    def test_reruns_byte_identical(self, workdir, tmp_path):
        art1 = run_pipeline(workdir)
        d2 = tmp_path / "again"
        d2.mkdir()
        (d2 / "spec.json").write_text(json.dumps(E2E_SPEC))
        (d2 / "cfg.txt").write_text(E2E_CFG)
        art2 = run_pipeline(d2)
        for name in ("recording.jsonl", "commands.txt", "sim.json"):
            assert (art1 / name).read_bytes() == (art2 / name).read_bytes()

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
        monkeypatch.setenv("EMMA_RETARGET_THREADS", "2")
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

    def test_report_missing_artifacts_is_input_error(self, tmp_path):
        assert main(["report", str(tmp_path), "--out",
                     str(tmp_path / "rep")]) == 2


class TestColumnsOnly:
    """No pipeline path builds a per-frame FrameRecord."""

    @pytest.fixture
    def no_frame_records(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a FrameRecord was built")
        return lambda: monkeypatch.setattr(ingest, "FrameRecord", refuse)

    def test_segment_retarget_simulate(self, workdir, no_frame_records):
        cfg = str(workdir / "cfg.txt")
        art = workdir / "art"
        assert main(["synth", str(workdir / "spec.json"), "--out", str(art),
                     "--config", cfg]) == 0
        rec = str(art / "recording.jsonl")
        no_frame_records()
        assert main(["segment", rec, "--out", str(art / "phases.json"),
                     "--config", cfg]) == 0
        assert main(["retarget", rec, "--out", str(art / "commands.txt"),
                     "--config", cfg]) == 0
        assert main(["simulate", str(art / "commands.txt"), rec,
                     "--out", str(art / "sim.json"), "--config", cfg]) == 0

    def test_action_chunk_loop(self, no_frame_records):
        buf = io.StringIO()
        ingest.serialize_recording(synthesize(spec_from_json(E2E_SPEC))[0], buf)
        no_frame_records()
        cfg = load_config()
        ep = ingest.filter_confidence(ingest.parse_recording(
            io.StringIO(buf.getvalue()), fps=50.0))
        track, _ = segmentation.segment(ep, cfg.phase, seed=cfg.seed)
        c = cfg.chunk
        built = 0
        for t0 in range(0, len(ep.frames) - c.horizon * c.nav_step, 8):
            phase = int(track.labels[t0])
            sub = chunks.subsample(ep, t0, c.horizon, c.nav_step, track)
            chunks.modulate(chunks.upsample(sub, c.target_len), phase)
            built += 1
        assert built > 0


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
        rollout = [Pose2(*p) for p in read_sim_file(art / "sim.json")["poses"]]
        expected = report.trajectory_svg([p for _, p in track.waypoints][1:], rollout)
        assert (workdir / "rep2" / "trajectory.svg").read_text() == expected

    @pytest.mark.parametrize("key", ["poses", "pos_rmse"])
    def test_sim_file_missing_field(self, workdir, capsys, key):
        run_pipeline(workdir)
        sim = workdir / "art" / "sim.json"
        self.edit_json(sim, lambda obj: obj.pop(key))
        code, err = self.report(workdir, capsys)
        assert code == 2
        assert str(sim) in err and repr(key) in err

    def test_sim_file_without_desired_asks_to_rerun_simulate(self, workdir, capsys):
        run_pipeline(workdir)
        sim = workdir / "art" / "sim.json"
        self.edit_json(sim, lambda obj: obj.pop("desired"))
        code, err = self.report(workdir, capsys)
        assert code == 2
        assert str(sim) in err and "re-run simulate" in err

    def test_sim_file_malformed_pose(self, workdir, capsys):
        run_pipeline(workdir)
        sim = workdir / "art" / "sim.json"
        self.edit_json(sim, lambda obj: obj["poses"].append([0.0, "y", 0.0]))
        code, err = self.report(workdir, capsys)
        assert code == 2 and str(sim) in err

    @pytest.mark.parametrize("edit, words", [
        (lambda obj: obj.pop("labels"), "'labels'"),
        (lambda obj: obj.pop("config"), "'config'"),
        (lambda obj: obj.pop("seed"), "'seed'"),
        (lambda obj: obj["config"].update(not_a_knob=1), "not_a_knob"),
        (lambda obj: obj.update(seed="abc"), "abc"),
    ], ids=["labels", "config", "seed", "unknown-config-key", "bad-seed"])
    def test_phase_file_malformed(self, workdir, capsys, edit, words):
        run_pipeline(workdir)
        phases = workdir / "art" / "phases.json"
        self.edit_json(phases, edit)
        code, err = self.report(workdir, capsys)
        assert code == 2
        assert str(phases) in err and words in err

    @pytest.mark.parametrize("segment", [
        {"kind": "straight", "duration": "abc"},
        {"kind": "straight", "duration": 1e999, "speed": "fast"},
    ], ids=["duration-str", "speed-str"])
    def test_synth_spec_bad_number(self, tmp_path, capsys, segment):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"segments": [segment]}))
        assert main(["synth", str(spec), "--out", str(tmp_path / "art")]) == 2
        assert str(spec) in capsys.readouterr().err
