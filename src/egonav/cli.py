"""Command-line front end for the retargeting pipeline.

Subcommands: synth, segment, retarget, simulate, report. Exit codes form
a stable contract: 0 success, 2 input/validation error, 3 no
manipulation zones found, 4 solver numerical failure.

Set EMMA_RETARGET_THREADS to cap the worker threads used when several
recordings are processed in one segment/retarget invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import ingest, report, retarget, segmentation, simulator
from .config import load_config
from .errors import (ConfigError, EgonavError, InvalidArgumentError,
                     NoManipulationZonesError, NumericalFailureError)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_ZONES = 3
EXIT_NUMERICAL = 4


def _thread_cap(n_tasks: int) -> int:
    raw = os.environ.get("EMMA_RETARGET_THREADS")
    cap = n_tasks
    if raw:
        try:
            cap = max(1, int(raw))
        except ValueError:
            raise ConfigError(f"EMMA_RETARGET_THREADS={raw!r} is not an integer")
    return max(1, min(cap, n_tasks))


def _load_episode(path, cfg) -> ingest.Episode:
    with open(path) as fh:
        return ingest.parse_recording(fh, fps=cfg.ingest.fps)


def _waypoint_track(path, cfg) -> ingest.WaypointTrack:
    return ingest.extract_waypoints(_load_episode(path, cfg), cfg.ingest.d_thresh,
                                    cfg.ingest.k_h, cfg.ingest.forward_axis)


def _out_path(out: Path, recordings, current, suffix: str) -> Path:
    if len(recordings) == 1:
        return out
    out.mkdir(parents=True, exist_ok=True)
    return out / (Path(current).stem + suffix)


def cmd_synth(args, cfg) -> int:
    with open(args.spec) as fh:
        try:
            spec = simulator.spec_from_json(json.load(fh))
        except (InvalidArgumentError, json.JSONDecodeError) as exc:
            raise InvalidArgumentError(f"{args.spec}: {exc}") from None
    if args.seed is not None:
        spec = simulator.SynthSpec(spec.segments, spec.fps, spec.noise_std,
                                   args.seed, spec.head_height)
    ep, truth = simulator.synthesize(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "recording.jsonl", "w") as fh:
        ingest.serialize_recording(ep, fh)
    segmentation.write_phase_file(out / "truth.json", truth, None,
                                  cfg.phase, spec.seed)
    return EXIT_OK


def cmd_segment(args, cfg) -> int:
    recordings = args.recording
    out = Path(args.out)

    def run(path):
        ep = _load_episode(path, cfg)
        ep = ingest.filter_confidence(ep)
        track, model = segmentation.segment(ep, cfg.phase, seed=cfg.seed)
        segmentation.write_phase_file(
            _out_path(out, recordings, path, ".phases.json"),
            track, model, cfg.phase, cfg.seed)

    with ThreadPoolExecutor(max_workers=_thread_cap(len(recordings))) as pool:
        for f in [pool.submit(run, p) for p in recordings]:
            f.result()
    return EXIT_OK


def cmd_retarget(args, cfg) -> int:
    recordings = args.recording
    out = Path(args.out)

    def run(path):
        track = _waypoint_track(path, cfg)
        if len(track.waypoints) < 2:
            solutions = []  # stationary recording: nothing to command
        else:
            solutions = retarget.retarget_track(track, cfg.retarget)
        retarget.write_command_file(
            _out_path(out, recordings, path, ".commands.txt"),
            solutions, cfg.retarget.dt)

    with ThreadPoolExecutor(max_workers=_thread_cap(len(recordings))) as pool:
        for f in [pool.submit(run, p) for p in recordings]:
            f.result()
    return EXIT_OK


def cmd_simulate(args, cfg) -> int:
    solutions, dt = retarget.read_command_file(args.commands)
    poses = [p for _, p in _waypoint_track(args.recording, cfg).waypoints]
    result = simulator.simulate(poses[0], solutions, poses[1:], dt,
                                cfg.retarget)
    simulator.write_sim_file(args.out, result)
    return EXIT_OK


def cmd_report(args, cfg) -> int:
    art = Path(args.artifacts)
    cmd_path = art / "commands.txt"
    sim_path = art / "sim.json"
    for required in (cmd_path, sim_path):
        if not required.exists():
            raise ConfigError(f"missing artifact: {required}")

    solutions, _ = retarget.read_command_file(cmd_path)
    sim = simulator.read_sim_file(sim_path)
    desired = [simulator.Pose2(*p) for p in sim["desired"]]
    rollout = [simulator.Pose2(*p) for p in sim["poses"]]

    phases = truth = None
    if (art / "phases.json").exists():
        phases, _, _, _ = segmentation.read_phase_file(art / "phases.json")
    if (art / "truth.json").exists():
        truth, _, _, _ = segmentation.read_phase_file(art / "truth.json")
    accuracy = None
    if phases is not None and truth is not None and len(phases) == len(truth):
        accuracy = simulator.score_segmentation(phases, truth)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.svg").write_text(report.trajectory_svg(desired, rollout))
    if phases is not None:
        (out / "phases.svg").write_text(report.phase_timeline_svg(phases, truth))
    (out / "costs.svg").write_text(report.cost_bars_svg(solutions))

    summary = report.metrics_summary(cfg, sim, solutions, phases, accuracy)
    fmt = args.format
    name = "report.json" if fmt == "json" else "report.txt"
    (out / name).write_text(report.format_summary(summary, fmt))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egonav",
        description="Retarget egocentric walking recordings into "
                    "differential-drive velocity commands.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline config file")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("synth", help="generate a synthetic recording")
    p.add_argument("spec", help="synthesis spec (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("segment", help="label manipulation/navigation phases")
    p.add_argument("recording", nargs="+")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("retarget", help="solve for velocity commands")
    p.add_argument("recording", nargs="+")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_retarget)

    p = sub.add_parser("simulate", help="roll out commands and score tracking")
    p.add_argument("commands")
    p.add_argument("recording")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="write metrics summary and SVG plots")
    p.add_argument("artifacts", help="directory with pipeline outputs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="summary format: report.txt or report.json")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        return args.func(args, cfg)
    except NoManipulationZonesError as exc:
        print(f"egonav: {exc}", file=sys.stderr)
        return EXIT_NO_ZONES
    except NumericalFailureError as exc:
        print(f"egonav: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (EgonavError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"egonav: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
