"""Command-line front end for the retargeting pipeline.

Subcommands: synth, segment, retarget, simulate, report. Exit codes form
a stable contract: 0 success, 2 input/validation error, 3 no
manipulation zones found, 4 solver numerical failure.

When several recordings are given to one segment or retarget call, they
run on up to one thread per core.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import ingest, report, retarget, segmentation, simulator
from .config import load_config
from .errors import (EgonavError, InvalidArgumentError, NoManipulationZonesError,
                     NumericalFailureError)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_ZONES = 3
EXIT_NUMERICAL = 4


def _load_episode(path, cfg) -> ingest.Episode:
    with open(path) as fh:
        return ingest.parse_recording(fh, fps=cfg.ingest.fps)


def _waypoint_track(path, cfg) -> ingest.WaypointTrack:
    return ingest.extract_waypoints(_load_episode(path, cfg), cfg.ingest.d_thresh,
                                    forward_axis=cfg.ingest.forward_axis)


def _out_paths(out: Path, recordings, suffix: str) -> list[Path]:
    """Each recording's output: ``out`` for one, else ``out/<stem><suffix>``.

    Two recordings whose outputs would be one file raise
    :class:`InvalidArgumentError` before any work starts.
    """
    if len(recordings) == 1:
        return [out]
    owners: dict[Path, str] = {}
    for rec in recordings:
        path = out / (Path(rec).stem + suffix)
        if path in owners:
            raise InvalidArgumentError(
                f"recordings {owners[path]} and {rec} would both write {path}")
        owners[path] = rec
    out.mkdir(parents=True, exist_ok=True)
    return list(owners)


def _for_each(run, recordings, outs) -> None:
    """``run(recording, out)`` for each pair, on up to one thread per core."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)  # the cores this process may use
    with ThreadPoolExecutor(max_workers=min(len(recordings), cores)) as pool:
        list(pool.map(run, recordings, outs))


def cmd_synth(args, cfg) -> int:
    with open(args.spec) as fh:
        try:
            spec = simulator.spec_from_json(json.load(fh))
        except (InvalidArgumentError, json.JSONDecodeError) as exc:
            raise InvalidArgumentError(f"{args.spec}: {exc}") from None
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    ep, truth = simulator.synthesize(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "recording.jsonl", "w") as fh:
        ingest.serialize_recording(ep, fh)
    segmentation.write_phase_file(out / "truth.json", truth, None,
                                  cfg.phase, spec.seed)
    return EXIT_OK


def cmd_segment(args, cfg) -> int:
    outs = _out_paths(Path(args.out), args.recording, ".phases.json")

    def run(path, out):
        ep = ingest.filter_confidence(_load_episode(path, cfg))
        track, model = segmentation.segment(ep, cfg.phase, seed=cfg.seed)
        segmentation.write_phase_file(out, track, model, cfg.phase, cfg.seed)

    _for_each(run, args.recording, outs)
    return EXIT_OK


def cmd_retarget(args, cfg) -> int:
    outs = _out_paths(Path(args.out), args.recording, ".commands.txt")

    def run(path, out):
        track = _waypoint_track(path, cfg)
        if len(track.waypoints) < 2:
            solutions = []  # stationary recording: nothing to command
        else:
            solutions = retarget.retarget_track(track, cfg.retarget)
        retarget.write_command_file(out, solutions, cfg.retarget)

    _for_each(run, args.recording, outs)
    return EXIT_OK


def cmd_simulate(args, cfg) -> int:
    solutions, objective = retarget.read_command_file(args.commands)
    poses = [p for _, p in _waypoint_track(args.recording, cfg).waypoints]
    result = simulator.simulate(poses[0], solutions, poses[1:], objective)
    simulator.write_sim_file(args.out, result)
    return EXIT_OK


def cmd_report(args, cfg) -> int:
    art = Path(args.artifacts)  # a missing file is an OSError: exit 2
    solutions, objective = retarget.read_command_file(art / "commands.txt")
    # echo the objective, phase config and seed the artifacts record
    cfg = replace(cfg, retarget=replace(cfg.retarget, **{
        k: getattr(objective, k) for k in retarget.OBJECTIVE}))
    sim = simulator.read_sim_file(art / "sim.json")
    desired = [simulator.Pose2(*p) for p in sim["desired"]]
    rollout = [simulator.Pose2(*p) for p in sim["poses"]]

    phases = truth = None
    if (art / "phases.json").exists():
        phases, _, phase_cfg, seed = segmentation.read_phase_file(art / "phases.json")
        cfg = replace(cfg, phase=phase_cfg, seed=seed)
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

    def common(p, seed_help=None):
        p.add_argument("--config", help="pipeline config file")
        if seed_help:  # only where the seed changes an output
            p.add_argument("--seed", type=int, help=seed_help)

    p = sub.add_parser("synth", help="generate a synthetic recording")
    p.add_argument("spec", help="synthesis spec (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    common(p, "override the spec's seed and the config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("segment", help="label manipulation/navigation phases")
    p.add_argument("recording", nargs="+")
    p.add_argument("--out", required=True)
    common(p, "override the config seed, which seeds the EM fit")
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
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, seed=args.seed)
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
