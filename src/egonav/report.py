"""Metrics summaries and dependency-free SVG plots.

SVG output is textual and deterministic, so reruns with the same seeds
produce byte-identical files that diff cleanly in version control.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .config import PipelineConfig, effective_parameters
from .geometry import Pose2
from .retarget import RetargetSolution
from .segmentation import MANIPULATION, PhaseTrack, runs
from .simulator import SimResult

_W, _H = 640, 480
_MARGIN = 40


def _fmt(v: float) -> str:
    return format(v, ".3f")


def _scale(points):
    xs = [p[0] for p in points] or [0.0]  # no points: an empty plot
    ys = [p[1] for p in points] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    # one scale for both axes, so a walk keeps its shape inside the margins
    s = min(_W - 2 * _MARGIN, _H - 2 * _MARGIN) / max(x1 - x0, y1 - y0, 1e-9)

    def to_px(p):
        return (_MARGIN + (p[0] - x0) * s,
                _H - _MARGIN - (p[1] - y0) * s)
    return to_px


def _polyline(points, color):
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{pts}"/>')


def _svg(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">')
    return "\n".join([head, f'<rect width="{_W}" height="{_H}" fill="white"/>',
                      *body, "</svg>"]) + "\n"


def trajectory_svg(desired: Sequence[Pose2], rollout: Sequence[Pose2]) -> str:
    """Overlay of desired waypoints (gray) and the executed rollout (blue)."""
    all_pts = [(p.x, p.y) for p in desired] + [(p.x, p.y) for p in rollout]
    to_px = _scale(all_pts)
    body = [_polyline([to_px((p.x, p.y)) for p in desired], "#999999"),
            _polyline([to_px((p.x, p.y)) for p in rollout], "#1f6fd0")]
    for p in desired:
        x, y = to_px((p.x, p.y))
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" '
                    f'fill="#999999"/>')
    body.append(f'<text x="{_MARGIN}" y="20" font-size="13">'
                f'desired waypoints (gray) vs rollout (blue)</text>')
    return _svg(body)


def phase_timeline_svg(track: PhaseTrack,
                       truth: Optional[PhaseTrack] = None) -> str:
    """Phase labels over time; manipulation dark, navigation light."""
    rows = [("predicted", track)] + ([("truth", truth)] if truth else [])
    body = []
    bar_h = 60
    for r, (name, tr) in enumerate(rows):
        y = 60 + r * (bar_h + 40)
        px_per = (_W - 2 * _MARGIN) / max(len(tr.labels), 1)
        for i, j in runs(tr.labels).tolist():
            color = "#c23b22" if tr.labels[i] == MANIPULATION else "#9fc5e8"
            x = _MARGIN + i * px_per
            w = (j - i) * px_per
            body.append(f'<rect x="{_fmt(x)}" y="{y}" width="{_fmt(w)}" '
                        f'height="{bar_h}" fill="{color}"/>')
        body.append(f'<text x="{_MARGIN}" y="{y - 8}" font-size="13">{name} '
                    f'(manipulation red, navigation blue)</text>')
    return _svg(body)


def cost_bars_svg(solutions: Sequence[RetargetSolution]) -> str:
    """Total objective value per optimization window."""
    n = len(solutions)
    peak = max((s.cost_total for s in solutions), default=1.0)
    peak = max(peak, 1e-9)
    body = []
    bw = (_W - 2 * _MARGIN) / max(n, 1)
    for i, s in enumerate(solutions):
        h = (s.cost_total / peak) * (_H - 2 * _MARGIN)
        x = _MARGIN + i * bw
        y = _H - _MARGIN - h
        body.append(f'<rect x="{_fmt(x + 2)}" y="{_fmt(y)}" '
                    f'width="{_fmt(bw - 4)}" height="{_fmt(h)}" '
                    f'fill="#1f6fd0"/>')
    body.append(f'<text x="{_MARGIN}" y="20" font-size="13">cost per window '
                f'(peak {peak!r})</text>')
    return _svg(body)


def metrics_summary(cfg: PipelineConfig, sim: SimResult,
                    solutions: Sequence[RetargetSolution],
                    track: Optional[PhaseTrack],
                    accuracy: Optional[float] = None) -> dict:
    """Flat metrics dict: the config echo, the replay's scores, costs and phases."""
    out: dict[str, object] = {"parameters": effective_parameters(cfg)}
    for key in ("pos_rmse", "pos_max", "yaw_rmse", "cost_discrepancy"):
        out[key] = getattr(sim, key)
    if solutions:
        out["windows"] = len(solutions)
        out["cost_total"] = sum(s.cost_total for s in solutions)
        out["all_converged"] = all(s.converged for s in solutions)
        vs = [abs(c.v) for s in solutions for c in s.cmds]
        out["mean_abs_v"] = sum(vs) / len(vs)
    if track is not None:
        out["frames"] = len(track)
        out["manipulation_fraction"] = float(
            (track.labels == MANIPULATION).sum() / max(len(track), 1))
        out["phase_transitions"] = track.transitions()
    if accuracy is not None:
        out["segmentation_accuracy"] = accuracy
    return out


def format_summary(summary: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(summary, indent=1, sort_keys=True) + "\n"
    lines = []
    params = summary.get("parameters", {})
    for key in sorted(params):
        lines.append(f"{key} = {params[key]!r}")
    for key in sorted(k for k in summary if k != "parameters"):
        lines.append(f"{key} = {summary[key]!r}")
    return "\n".join(lines) + "\n"
