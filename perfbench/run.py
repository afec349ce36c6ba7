#!/usr/bin/env python3
"""egonav benchmark: run one workload for a fixed time and check its outputs.

    python3 perfbench/run.py --workload walk_saturated --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports egonav from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
no tracing; the line before it lists every end-to-end metric of the
benchmark's README (null where a metric does not apply). With ``--trace 1``
the run alternates traced and untraced passes and reports the per-layer
metrics and the tracing overhead. Artifacts and the span file go to
``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 12  # fresh-interpreter imports behind setup_s
SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import egonav.cli; "
                 "print(time.perf_counter() - t)")
GENERATE_SNIPPET = ("import pickle, sys, workloads; "
                    "wl, root = pickle.load(sys.stdin.buffer); "
                    "pickle.dump(workloads.generate(wl, root), sys.stdout.buffer)")
# calibrate()'s time on a 2-vCPU x86-64 host at Python 3.11; frames_per_s_adj
# reads as frames/s on a host whose calibration loop takes this long
CALIB_NOMINAL_S = 0.03
SEG_ACCURACY_MIN = 0.95     # acceptance criterion 4
COST_DISCREPANCY_MAX = 1e-9
CHUNK_STRIDE = 8            # frames between action-chunk observations
THREADS_ENV = "EMMA_RETARGET_THREADS"
WALK_ARTIFACTS = ("phases.json", "commands.txt", "sim.json", "rep/report.json",
                  "rep/trajectory.svg", "rep/phases.svg", "rep/costs.svg")

# name -> (unit, better); the order in which the report line lists them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "recording_s.p50": ("s", "lower"),
    "frames_per_s": ("frames/s", "higher"),
    "frames_per_s_adj": ("frames/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "pos_rmse_m": ("m", "lower"),
    "cost_total": ("cost", "lower"),
    "cost_gap": ("ratio", "lower"),
    "seg_accuracy": ("ratio", "higher"),
    "chunks_per_s": ("chunks/s", "higher"),
}


def import_egonav():
    """Import egonav from this checkout's src/, never from elsewhere."""
    if not (SRC / "egonav" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no egonav sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import egonav
    if Path(egonav.__file__).resolve().parent != (SRC / "egonav").resolve():
        raise SystemExit(f"perfbench: imported egonav from {egonav.__file__}, "
                         f"expected {SRC / 'egonav'}")
    return egonav


def import_time() -> float:
    """Seconds a fresh interpreter takes to import egonav.cli."""
    out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def generate_inputs(wl, work: Path):
    """workloads.generate in a child process.

    Synthesising and serialising the recordings has a memory peak of its
    own; run here it would count in this process's ``peak_rss_mb``.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", GENERATE_SNIPPET],
                         input=pickle.dumps((wl, work)), env=env,
                         check=True, capture_output=True, timeout=600)
    return pickle.loads(out.stdout)


def calibrate() -> float:
    """A fixed pure-Python plus small-array numpy loop; how fast the host is now.

    It is CPU-bound like egonav's passes (interpreter work and numpy calls
    on arrays of a few dozen elements). Large-array numpy is left out:
    its speed swings with the host's memory traffic, which the passes
    barely feel.
    """
    import numpy as np
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * i) % 7
    a = np.linspace(0.0, 1.0, 32)
    b = np.linspace(1.0, 2.0, 32)
    for _ in range(3_000):
        acc += float((np.cos(a) * b + np.sin(a)).sum())
    return time.perf_counter() - t


def host_info() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "machine": platform.machine()}


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class WalkPipeline:
    """segment -> retarget -> simulate -> report through egonav.cli.main.

    Several recordings share one segment and one retarget call (the CLI's
    thread pool fans them out); simulate and report run per recording.
    """

    def __init__(self, inputs):
        from egonav import cli
        self.cli = cli
        self.inputs = inputs
        self.cfg_args = ["--config", str(inputs.config_path)]
        recs = [str(r) for r in inputs.recordings]
        if len(recs) > 1:
            out = str(inputs.root / "out")
            self.seg_argv = ["segment", *recs, "--out", out]
            self.ret_argv = ["retarget", *recs, "--out", out]
        else:
            art = inputs.art_dirs[0]
            self.seg_argv = ["segment", *recs, "--out", str(art / "phases.json")]
            self.ret_argv = ["retarget", *recs, "--out", str(art / "commands.txt")]
        self.reference_hashes = None

    def _call(self, argv) -> int:
        try:
            return self.cli.main(argv + self.cfg_args)
        except SystemExit as exc:  # argparse rejects its arguments this way
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1

    def run_once(self):
        """One timed pass over every recording.

        Returns the seconds from the first call until each recording's
        report is written, and the exit codes of each recording's calls.
        """
        n = len(self.inputs.recordings)
        start = time.perf_counter()
        rc = [self._call(self.seg_argv), self._call(self.ret_argv)]
        codes = [list(rc) for _ in range(n)]
        times = []
        for i, art in enumerate(self.inputs.art_dirs):
            codes[i].append(self._call(
                ["simulate", str(art / "commands.txt"),
                 str(self.inputs.recordings[i]), "--out", str(art / "sim.json")]))
            codes[i].append(self._call(
                ["report", str(art), "--out", str(art / "rep"),
                 "--format", "json"]))
            times.append(time.perf_counter() - start)
        return times, codes

    def check(self, codes):
        """Output checks per recording; returns (failures, quality) lists."""
        hashes, failures, quality = [], [], []
        for i, art in enumerate(self.inputs.art_dirs):
            bad = []
            if any(c != 0 for c in codes[i]):
                bad.append(f"exit codes {codes[i]}")
            digest = q = None
            try:
                digest = sha256_files(art / a for a in WALK_ARTIFACTS)
                sim = json.loads((art / "sim.json").read_text())
                rep = json.loads((art / "rep" / "report.json").read_text())
                q = {"pos_rmse": sim["pos_rmse"], "cost_total": rep["cost_total"],
                     "seg_accuracy": rep["segmentation_accuracy"]}
                if not sim["cost_discrepancy"] <= COST_DISCREPANCY_MAX:
                    bad.append(f"cost_discrepancy {sim['cost_discrepancy']}")
                if not q["seg_accuracy"] >= SEG_ACCURACY_MIN:
                    bad.append(f"seg_accuracy {q['seg_accuracy']}")
            except (OSError, KeyError, ValueError) as exc:
                bad.append(f"artifacts: {exc!r}")
            hashes.append(digest)
            failures.append(bad)
            quality.append(q)
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        for i, (h, ref) in enumerate(zip(hashes, self.reference_hashes)):
            if h is None or h != ref:
                failures[i].append("artifacts differ from the first pass")
        return failures, quality

    def reference_gap(self):
        from egonav.config import load_config
        import reference
        return reference.cost_gap(self.inputs.art_dirs,
                                  load_config(self.inputs.config_path))


class ChunkPipeline:
    """parse -> filter_confidence -> segment -> one action chunk every 8 frames.

    There is no CLI for chunks, so this calls the library in-process. The
    chunk step follows the predicted phase at the observation frame.
    """

    def __init__(self, inputs):
        from egonav.config import load_config
        self.inputs = inputs
        self.cfg = load_config(inputs.config_path)
        self.reference_hashes = None
        self.last = None

    def run_once(self):
        start = time.perf_counter()
        try:
            self.last = self._build()
        except Exception:
            traceback.print_exc()
            self.last = None
        return [time.perf_counter() - start], [[0 if self.last else 1]]

    def _build(self):
        from egonav import chunks, ingest, segmentation
        cfg = self.cfg
        c = cfg.chunk
        with open(self.inputs.recordings[0]) as fh:
            ep = ingest.parse_recording(fh, fps=cfg.ingest.fps)
        ep = ingest.filter_confidence(ep)
        track, _ = segmentation.segment(ep, cfg.phase, seed=cfg.seed)
        labels = track.labels.tolist()
        n = len(ep.frames)
        dataset, ends = [], []
        for t0 in range(0, n, CHUNK_STRIDE):
            phase = labels[t0]
            step = c.manip_step if phase == segmentation.MANIPULATION else c.nav_step
            if t0 + c.horizon * step >= n:
                continue
            sub = chunks.subsample(ep, t0, c.horizon, step, track,
                                   cfg.ingest.forward_axis)
            up = chunks.upsample(sub, c.target_len)
            dataset.append(chunks.modulate(up, phase))
            ends.append((sub.waypoints[0], sub.waypoints[-1],
                         up.waypoints[0], up.waypoints[-1]))
        return track, labels, dataset, ends

    def check(self, codes):
        import numpy as np
        from egonav import segmentation
        from egonav.simulator import score_segmentation
        if self.last is None:
            return [["the dataset build raised"]], [None]
        track, labels, dataset, ends = self.last
        self.last = None
        c = self.cfg.chunk
        n = len(labels)
        bad = []
        acc = None
        if n != len(self.inputs.truths[0]):
            bad.append(f"{n} frames kept of {len(self.inputs.truths[0])}")
        else:
            acc = score_segmentation(track, self.inputs.truths[0])
            if not acc >= SEG_ACCURACY_MIN:
                bad.append(f"seg_accuracy {acc}")
        expected = sum(
            1 for t0 in range(0, n, CHUNK_STRIDE)
            if t0 + c.horizon * (c.manip_step if labels[t0] == segmentation.MANIPULATION
                                 else c.nav_step) < n)
        if len(dataset) != expected:
            bad.append(f"{len(dataset)} chunks, expected {expected}")
        if any(len(ch.waypoints) != c.target_len for ch in dataset):
            bad.append("chunk of the wrong length")
        if any(s0 != u0 or s1 != u1 for s0, s1, u0, u1 in ends):
            bad.append("upsampled endpoints differ from the subsampled ones")
        h = hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes())
        h.update(np.array([(p.x, p.y, p.theta) for ch in dataset
                           for p in ch.waypoints]).tobytes())
        h.update(np.array([ch.phases for ch in dataset], dtype=np.int64).tobytes())
        digest = h.hexdigest()
        if self.reference_hashes is None:
            self.reference_hashes = digest
        elif digest != self.reference_hashes:
            bad.append("dataset differs from the first pass")
        return [bad], [{"seg_accuracy": acc, "chunks": len(dataset)}]

    def reference_gap(self):
        return None


class Run:
    """Bookkeeping for one benchmark invocation."""

    def __init__(self, pipeline, frames_per_pass: int):
        self.pipeline = pipeline
        self.frames_per_pass = frames_per_pass
        self.attempted = 0
        self.failed = 0
        self.quality = []
        self.calib = []

    def one_pass(self, tracer=None):
        """Run, check and calibrate once; only ``run_once`` is traced."""
        if tracer is None:
            times, codes = self.pipeline.run_once()
        else:
            tracer.install()
            try:
                times, codes = self.pipeline.run_once()
            finally:
                tracer.uninstall()
        failures, quality = self.pipeline.check(codes)
        for bad in failures:
            self.attempted += 1
            if bad:
                self.failed += 1
                print(f"perfbench: check failed: {'; '.join(bad)}", file=sys.stderr)
        self.quality = quality
        self.calib.append(calibrate())
        return times


def run_timed(run: Run, seconds: float) -> dict:
    """Untraced passes until ``seconds`` of pipeline time have been measured.

    Set-up time is sampled between passes, about evenly over the run, so
    that its samples meet the host's fast and slow phases like the passes
    do.
    """
    import_time()  # writes the .pyc files, which users pay once
    run.one_pass()  # warm-up: fills caches; its outputs are the reference
    rec_times, pass_times, setup = [], [], []
    while sum(pass_times) < seconds:
        times = run.one_pass()
        rec_times += times
        pass_times.append(times[-1])
        while (len(setup) < SETUP_REPS
               and sum(pass_times) >= len(setup) * seconds / SETUP_REPS):
            setup.append(import_time())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_REPS:
        setup.append(import_time())
    return {"rec_times": rec_times, "pass_times": pass_times,
            "peak_rss_mb": peak_kib / 1024.0, "setup": setup}


def run_traced(run: Run, tracer, seconds: float) -> dict:
    """Alternate traced and untraced passes; spans come from traced ones.

    Each traced pass is followed by an untraced one, so the pair shares
    whatever state the host is in and their difference is the overhead.
    """
    run.one_pass()  # warm-up, untraced
    traced, plain = [], []
    k = 0
    while sum(traced) + sum(plain) < seconds or len(plain) < len(traced):
        if k % 2 == 0:
            tracer.run_id = k // 2 + 1
            traced.append(run.one_pass(tracer)[-1])
        else:
            plain.append(run.one_pass()[-1])
        k += 1
    return {"traced": traced, "plain": plain}


def end_to_end(wl, run: Run, timed: dict, gap) -> dict:
    q = [x for x in run.quality if x is not None]
    walk = wl.kind == "walk"
    frames_per_s = (run.frames_per_pass * len(timed["pass_times"])
                    / sum(timed["pass_times"]))
    # A pass slows by some power between 0 and 1 of the calibration loop's
    # slowdown, depending on the workload and on what else loads the host;
    # the square root halves the worst case of either extreme (no
    # adjustment, or dividing by the loop's time outright).
    calib = statistics.median(run.calib)
    return {
        "setup_s": statistics.median(timed["setup"]),
        "recording_s.p50": statistics.median(timed["rec_times"]),
        "frames_per_s": frames_per_s,
        "frames_per_s_adj": frames_per_s * math.sqrt(calib / CALIB_NOMINAL_S),
        "peak_rss_mb": timed["peak_rss_mb"],
        "failed_frac": run.failed / run.attempted,
        "pos_rmse_m": statistics.fmean(x["pos_rmse"] for x in q) if walk and q else None,
        "cost_total": sum(x["cost_total"] for x in q) if walk and q else None,
        "cost_gap": gap["cost_gap"] if gap else None,
        "seg_accuracy": statistics.fmean(x["seg_accuracy"] for x in q)
        if q and all(x["seg_accuracy"] is not None for x in q) else None,
        "chunks_per_s": q[0]["chunks"] * len(timed["pass_times"])
        / sum(timed["pass_times"]) if not walk and q else None,
    }


def measure(wl, seed: int, seconds: float, trace: int, work: Path) -> list[dict]:
    """Run workload ``wl`` for ``seconds`` with its inputs under ``work``.

    Returns the output lines: run info, then the report line (``trace`` 0)
    or the per-layer line (``trace`` 1), then the result object.
    """
    import layers
    from spans import Tracer

    inputs = generate_inputs(wl, work)
    pipeline = WalkPipeline(inputs) if wl.kind == "walk" else ChunkPipeline(inputs)
    run = Run(pipeline, sum(inputs.frames))
    saved_env = os.environ.get(THREADS_ENV)
    # cap the CLI pool at the cores this process may use
    os.environ[THREADS_ENV] = str(len(os.sched_getaffinity(0)))
    try:
        if trace == 0:
            timed = run_timed(run, seconds)
            gap = run.pipeline.reference_gap()
            values = end_to_end(wl, run, timed, gap)
            detail = {"report": {k: {"value": values[k], "unit": u, "better": b}
                                 for k, (u, b) in END_TO_END.items()},
                      "samples": {"recordings": len(timed["rec_times"]),
                                  "passes": len(timed["pass_times"]),
                                  "setup": len(timed["setup"])},
                      "host.calib_s": statistics.median(run.calib),
                      "cost_gap_detail": gap}
            kind = "end_to_end"
        else:
            tracer = Tracer()
            timed = run_traced(run, tracer, seconds)
            tracer.write(work / "spans.jsonl")
            gap = run.pipeline.reference_gap()
            values = layers.per_layer(tracer, timed, run, inputs, gap)
            detail = {"per_layer": values}
            kind = "per_layer"
    finally:
        if saved_env is None:
            del os.environ[THREADS_ENV]
        else:
            os.environ[THREADS_ENV] = saved_env
    # after the timed passes: importing scipy here adds nothing to peak_rss_mb
    info = {"workload": wl.name, "seed": seed, "seconds": seconds,
            "trace": trace, "recordings": len(inputs.recordings),
            "frames": list(inputs.frames), "host": host_info()}
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in layers.bench_metrics(kind).items()}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return [{"info": info}, detail, result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_egonav()
    sys.path.insert(0, str(HERE))
    import workloads
    try:
        wl = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    for line in measure(wl, args.seed, args.seconds, args.trace, WORK / wl.name):
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
