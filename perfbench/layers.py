"""Per-layer metrics from a traced run, and the metric lists of BENCHMARK.json.

Times are per pass over the workload (one pass = every recording once),
as the median over traced passes; counts are per pass. A layer that a
workload never calls reads 0.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from pathlib import Path

from spans import LAYERS, self_times

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# per-layer time metric -> the span whose durations it sums
SPAN_TIMES = {
    "retarget.track_s": "retarget.retarget_track",
    "ingest.parse_s": "ingest.parse_recording",
    "ingest.filter_confidence_s": "ingest.filter_confidence",
    "ingest.extract_waypoints_s": "ingest.extract_waypoints",
    "segmentation.segment_s": "segmentation.segment",
    "segmentation.velocities_s": "segmentation.velocities",
    "segmentation.candidate_mask_s": "segmentation.candidate_mask",
    "segmentation.gmm_fit_s": "segmentation.gmm_fit",
    "segmentation.classify_s": "segmentation.classify",
    "chunks.subsample_s": "chunks.subsample",
    "chunks.upsample_s": "chunks.upsample",
    "chunks.modulate_s": "chunks.modulate",
    "simulator.simulate_s": "simulator.simulate",
}
# per-layer count metric -> the span whose calls it counts
SPAN_COUNTS = {
    "retarget.windows": "retarget.solve",
    "retarget.cost_calls": "retarget.cost",
    "retarget.gradient_calls": "retarget.gradient",
    "chunks.count": "chunks.modulate",
}
# per-layer count metric -> counter kept by a hook in spans.HOOKS
HOOK_COUNTS = ("retarget.iterations", "retarget.converged_windows",
               "ingest.frames", "ingest.bytes_read", "ingest.waypoints",
               "segmentation.em_iters", "segmentation.candidate_frames",
               "cli.pool_threads", "simulator.cost_discrepancy",
               "report.bytes_written")
CLI_SUBCOMMANDS = ("segment", "retarget", "simulate", "report")


def bench_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _pass_metrics(spans, counters) -> dict[str, float]:
    """Metrics of one traced pass."""
    by_id = {sp[0]: sp for sp in spans}
    dur = defaultdict(float)
    calls = defaultdict(int)
    for _, name, start, end, _, _ in spans:
        dur[name] += end - start
        calls[name] += 1
    out = {k: dur[v] for k, v in SPAN_TIMES.items()}
    out.update({k: calls[v] for k, v in SPAN_COUNTS.items()})
    out.update({k: counters.get(k, 0) for k in HOOK_COUNTS})
    n_cmds = counters.get("retarget.commands", 0)
    out["retarget.saturated_frac"] = (counters.get("retarget.saturated", 0) / n_cmds
                                      if n_cmds else 0.0)
    out["report.render_s"] = sum(d for n, d in dur.items() if n.startswith("report."))

    # cli.<sub>_s: the whole main() call whose handler is cmd_<sub>
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = 0.0
    for _, name, _, _, parent, _ in spans:
        if name.startswith("cli.cmd_") and parent in by_id:
            _, _, ps, pe, _, _ = by_id[parent]
            key = f"cli.{name[len('cli.cmd_'):]}_s"
            if key in out:
                out[key] += pe - ps

    selfs = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for sid, name, *_ in spans:
        out[f"{name.split('.', 1)[0]}.self_s"] += selfs[sid]
    out["trace.spans"] = len(spans)
    return out


def per_layer(tracer, timed: dict, run, inputs, gap) -> dict[str, float]:
    """Every per-layer metric of a traced run (see the README for meanings)."""
    runs = defaultdict(list)
    for sp in tracer.spans:
        runs[sp[5]].append(sp)
    passes = [_pass_metrics(runs[r], tracer.counters[r]) for r in sorted(runs)]
    out = {k: statistics.median(p[k] for p in passes) for k in passes[0]}

    windows = sorted(sp[3] - sp[2] for sp in tracer.spans
                     if sp[1] == "retarget.solve")
    if len(windows) >= 2:
        q = statistics.quantiles(windows, n=10, method="inclusive")
        out["retarget.window_s.p50"] = statistics.median(windows)
        out["retarget.window_s.p90"] = q[8]
    else:
        out["retarget.window_s.p50"] = out["retarget.window_s.p90"] = \
            windows[0] if windows else 0.0

    chunk_s = sum(out[k] for k in ("chunks.subsample_s", "chunks.upsample_s",
                                   "chunks.modulate_s"))
    out["chunks.per_s"] = out["chunks.count"] / chunk_s if chunk_s else 0.0
    q = [x for x in run.quality if x is not None]
    walk = bool(q) and "pos_rmse" in q[0]
    out["simulator.pos_rmse_m"] = (statistics.fmean(x["pos_rmse"] for x in q)
                                   if walk else 0.0)
    out["retarget.cost_total"] = sum(x["cost_total"] for x in q) if walk else 0.0
    out["retarget.cost_gap"] = gap["cost_gap"] if gap else 0.0
    out["simulator.synthesize_s"] = inputs.synthesize_s
    out["host.calib_s"] = statistics.median(run.calib)
    out["host.nproc"] = len(os.sched_getaffinity(0))
    out["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(timed["traced"], timed["plain"]))
    return out
