"""Command-line front end for the retargeting pipeline.

Subcommands: synth, segment, retarget, simulate, report. Exit codes form
a stable contract: 0 success, and otherwise the ``exit_code`` of the
``egonav.errors`` class raised (2 input/validation error, 3 no
manipulation zones found, 4 solver numerical failure).

When several recordings are given to one segment or retarget call, they
are split into at most one share per usable core. The calling process
runs the first share and a forked worker process runs each other one, so
parsing and the solver are not serialised by one interpreter lock.
``retarget`` records in its command file the digest of the recording and
the waypoints it solved for, so ``simulate`` replays from the command
file alone: it hashes the recording it is given to check that it is that
one, and does not parse it. Its
``--config`` is loaded and checked, but it reads no key of it; it warns on
stderr, and still exits 0, when more than ``simulator.SATURATION_WARN`` of
the commands sit on a bound. ``report`` replays the command file the same
way and draws the walk and the rollout from that replay, so it never reads
``sim.json``; ``simulate`` writes that file for the user.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import ingest, report, retarget, segmentation, simulator
from .config import load_config
from .errors import (InvalidArgumentError, NoManipulationZonesError,
                     NumericalFailureError)


def _load_episode(path, cfg) -> ingest.Episode:
    with open(path) as fh:
        return ingest.parse_recording(fh, fps=cfg.ingest.fps)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


def _cores() -> int:
    """The cores this process may use."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _run_share(run, jobs) -> list:
    """``run(recording, out)`` for each pair: None, or the exception it raised.

    An error with an ``exit_code``, or an unreadable or undecodable file (as
    an :class:`InvalidArgumentError`), comes back with ``<recording>: `` before
    its message; a fault of the program comes back as it was raised.
    """
    errors = []
    for rec, out in jobs:
        try:
            run(rec, out)
            errors.append(None)
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(InvalidArgumentError(f"{rec}: {exc}"))
        except Exception as exc:
            errors.append(type(exc)(f"{rec}: {exc}") if hasattr(exc, "exit_code")
                          else exc)
    return errors


def _portable(rec, exc):
    """``exc`` if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{rec}: {type(exc).__name__}: {exc}")
    return exc


def _fork_share(run, jobs) -> tuple[int, int]:
    """Fork a child that runs ``_run_share`` and pickles its result to a pipe.

    Returns the child's pid and the pipe's read end. The child always
    leaves through ``os._exit``, so it never flushes the parent's stdio
    buffers or runs its exit hooks.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            data = pickle.dumps([_portable(rec, exc) for (rec, _), exc
                                 in zip(jobs, _run_share(run, jobs))])
            with open(w, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _wait_child(jobs, pid, r) -> list:
    """The result a ``_fork_share`` child sent through ``r``; reaps the child.

    A child that ends without reporting fails each of its recordings with a
    :class:`ChildProcessError`.
    """
    try:
        with open(r, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status == 0 and data:
        return pickle.loads(data)
    code = os.waitstatus_to_exitcode(status)
    how = f"signal {-code}" if code < 0 else f"exit code {code}"
    recs = ", ".join(str(rec) for rec, _ in jobs)
    exc = ChildProcessError(f"worker process for {recs} ended with {how} and no result")
    return [exc] * len(jobs)


def _for_each(run, recordings, outs) -> None:
    """``run(recording, out)`` for each pair, in worker processes when several.

    One recording, one usable core or no ``os.fork`` runs them in this
    process. Otherwise the pairs are split into ``n = min(recordings,
    cores)`` static shares ``jobs[i::n]``. This thread forks one child for
    each share but the first, before any thread starts, then runs
    ``jobs[0::n]`` itself while ``n - 1`` lane threads each wait on one
    child. The lanes reap every child even if this thread's share raises.
    Every recording runs even when another fails; then the exception of
    the first faulty recording in argument order is raised.
    """
    jobs = list(zip(recordings, outs))
    n = min(len(jobs), _cores())
    if n == 1 or not hasattr(os, "fork"):
        errors = _run_share(run, jobs)
    else:
        errors = [None] * len(jobs)
        children = []
        with ThreadPoolExecutor(max_workers=n - 1) as pool:
            try:  # every fork comes before the pool's first thread
                for i in range(1, n):
                    children.append(_fork_share(run, jobs[i::n]))
            finally:  # so a failed fork still reaps the children forked before it
                lanes = [pool.submit(_wait_child, jobs[i::n], *child)
                         for i, child in enumerate(children, 1)]
            errors[0::n] = _run_share(run, jobs[0::n])
            for i, lane in enumerate(lanes, 1):
                errors[i::n] = lane.result()
    for exc in errors:
        if exc is not None:
            raise exc


def cmd_synth(args, cfg) -> int:
    with open(args.spec) as fh:
        try:
            spec = simulator.spec_from_json(
                json.load(fh, object_pairs_hook=ingest.unique_keys))
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            ep, truth = simulator.synthesize(spec)
        # a bad spec, undecodable bytes, an int of too many digits, nesting too deep
        except (ValueError, RecursionError) as exc:
            raise InvalidArgumentError(f"{args.spec}: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "recording.jsonl", "w") as fh:
        ingest.serialize_recording(ep, fh)
    segmentation.write_phase_file(out / "truth.json", truth, None,
                                  cfg.phase, spec.seed)
    return 0


def cmd_segment(args, cfg) -> int:
    outs = _out_paths(Path(args.out), args.recording, ".phases.json")

    def run(path, out):
        ep = ingest.filter_confidence(_load_episode(path, cfg))
        track, model = segmentation.segment(ep, cfg.phase, seed=cfg.seed)
        segmentation.write_phase_file(out, track, model, cfg.phase, cfg.seed)

    _for_each(run, args.recording, outs)
    return 0


def cmd_retarget(args, cfg) -> int:
    outs = _out_paths(Path(args.out), args.recording, ".commands.txt")

    def run(path, out):
        track = ingest.extract_waypoints(_load_episode(path, cfg), cfg.ingest.d_thresh,
                                         forward_axis=cfg.ingest.forward_axis)
        solutions = retarget.retarget_track(track, cfg.retarget)
        walk = retarget.WalkRecord(_sha256(path), tuple(p for _, p in track.waypoints))
        retarget.write_command_file(out, solutions, cfg.retarget, walk)

    _for_each(run, args.recording, outs)
    return 0


def cmd_simulate(args, cfg) -> int:
    solutions, objective, walk = retarget.read_replay(args.commands)
    digest = _sha256(args.recording)
    if digest != walk.recording_sha256:
        raise InvalidArgumentError(
            f"recording {args.recording} has sha256 {digest}, but command file "
            f"{args.commands} was solved for {walk.recording_sha256}; "
            "re-run retarget on this recording")
    result = simulator.simulate(walk.waypoints[0], solutions, walk.waypoints[1:],
                                objective)
    simulator.write_sim_file(args.out, result)
    n_cmds = len(walk.waypoints) - 1
    saturated = sum(c.v in (objective.v_min, objective.v_max)
                    or c.omega in (objective.omega_min, objective.omega_max)
                    for sol in solutions for c in sol.cmds)
    if saturated > simulator.SATURATION_WARN * n_cmds:
        print(f"egonav: warning: {saturated} of {n_cmds} commands sit on a v or "
              f"omega bound, so they cannot track this walk (pos_rmse "
              f"{result.pos_rmse:.3g} m)", file=sys.stderr)
    return 0


def cmd_report(args, cfg) -> int:
    art = Path(args.artifacts)  # a missing file is an OSError: exit 2
    solutions, objective, walk = retarget.read_replay(art / "commands.txt")
    # echo the objective, phase config and seed the artifacts record
    cfg = replace(cfg, retarget=replace(cfg.retarget, **{
        k: getattr(objective, k) for k in retarget.OBJECTIVE}))
    sim = simulator.simulate(walk.waypoints[0], solutions, walk.waypoints[1:],
                             objective)

    phases = truth = accuracy = None
    if (art / "phases.json").exists():
        phases, phase_cfg, seed = segmentation.read_phase_file(art / "phases.json")
        cfg = replace(cfg, phase=phase_cfg, seed=seed)
    if (art / "truth.json").exists():
        truth, _, _ = segmentation.read_phase_file(art / "truth.json")
    if phases is not None and truth is not None:
        if len(phases) == len(truth):
            accuracy = simulator.score_segmentation(phases, truth)
        else:  # segment drops low-confidence frames, so this is no input error
            print(f"egonav: warning: {art / 'phases.json'} has {len(phases)} labels "
                  f"and {art / 'truth.json'} {len(truth)}, so the report leaves out "
                  "segmentation_accuracy", file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.svg").write_text(
        report.trajectory_svg(walk.waypoints[1:], sim.poses))
    if phases is not None:
        (out / "phases.svg").write_text(report.phase_timeline_svg(phases, truth))
    (out / "costs.svg").write_text(report.cost_bars_svg(solutions))

    summary = report.metrics_summary(cfg, sim, solutions, phases, accuracy)
    fmt = args.format
    name = "report.json" if fmt == "json" else "report.txt"
    (out / name).write_text(report.format_summary(summary, fmt))
    return 0


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

    p = sub.add_parser("segment", help="label manipulation/navigation phases")
    p.add_argument("recording", nargs="+")
    p.add_argument("--out", required=True)
    common(p, "override the config seed, which seeds the EM fit")

    p = sub.add_parser("retarget", help="solve for velocity commands")
    p.add_argument("recording", nargs="+")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("simulate", help="roll out commands and score tracking")
    p.add_argument("commands")
    p.add_argument("recording")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("report", help="write metrics summary and SVG plots")
    p.add_argument("artifacts", help="directory with pipeline outputs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="summary format: report.txt or report.json")
    common(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, seed=args.seed)
        # looked up per call, so a handler replaced on the module is the one run
        return globals()[f"cmd_{args.command}"](args, cfg)
    except (InvalidArgumentError, NoManipulationZonesError, NumericalFailureError,
            OSError) as exc:
        print(f"egonav: {exc}", file=sys.stderr)
        # a file that cannot be read exits as an invalid argument does
        return getattr(exc, "exit_code", InvalidArgumentError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
