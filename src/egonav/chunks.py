"""Action-chunk construction and phase-aware modulation.

Navigation chunks are built by subsampling ground-projected poses every
``step`` frames over a fixed horizon, expressing them in the egocentric
frame at the observation time, upsampling to a unified length (linear
x/y, atan2-blended yaw), and finally modulating waypoints with the
predicted phase to keep the base still during manipulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError
from .geometry import Pose2, project_to_ground, to_frame, wrap
from .ingest import Episode
from .segmentation import MANIPULATION, NAVIGATION, PhaseTrack

TARGET_LEN = 100  # unified interpolated chunk length


@dataclass(frozen=True)
class ActionChunk:
    """Egocentric waypoints with per-step phase labels."""

    waypoints: tuple[Pose2, ...]
    phases: tuple[int, ...]
    horizon: int
    step: int

    def __post_init__(self):
        if len(self.waypoints) != len(self.phases):
            raise InvalidArgumentError("waypoints and phases lengths differ")


def subsample(ep: Episode, t0: int, horizon: int, step: int,
              phases: PhaseTrack, forward_axis: str = "+x") -> ActionChunk:
    """Sample poses at frames t0+step, ..., t0+horizon*step.

    All poses are expressed in the frame of the ground-projected pose at
    t0 (the observation time), each carrying its frame's phase label.
    """
    if t0 + horizon * step >= len(ep.frames):
        raise InvalidArgumentError(
            f"chunk [{t0}, {t0 + horizon * step}] exceeds episode length "
            f"{len(ep.frames)}"
        )
    ref = project_to_ground(ep.frames[t0].head, forward_axis)
    waypoints = []
    labels = []
    for i in range(1, horizon + 1):
        idx = t0 + i * step
        waypoints.append(to_frame(ref, project_to_ground(ep.frames[idx].head,
                                                         forward_axis)))
        labels.append(int(phases.labels[idx]))
    return ActionChunk(tuple(waypoints), tuple(labels), horizon, step)


def blend_yaw(theta_a: float, theta_b: float, s: float) -> float:
    """Yaw interpolation via the atan2 of blended sin/cos.

    Exactly antipodal yaws are ambiguous; they resolve toward positive
    rotation from theta_a.
    """
    if s == 0.0:
        return wrap(theta_a)
    if s == 1.0:
        return wrap(theta_b)
    sy = (1.0 - s) * math.sin(theta_a) + s * math.sin(theta_b)
    cy = (1.0 - s) * math.cos(theta_a) + s * math.cos(theta_b)
    if math.hypot(sy, cy) < 1e-12:
        return wrap(theta_a + s * math.pi)
    return math.atan2(sy, cy)


def upsample(chunk: ActionChunk, target_len: int = TARGET_LEN) -> ActionChunk:
    """Interpolate a chunk to a fixed length on a uniform parameter grid.

    x and y are linear per segment; yaw uses the atan2 blend. The first
    and last outputs equal the first and last inputs; phases follow the
    nearest source index.
    """
    n = len(chunk.waypoints)
    if n < 2:
        raise InvalidArgumentError("need at least 2 waypoints to upsample")
    if target_len < n:
        raise InvalidArgumentError("target_len must be >= chunk length")
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
    return ActionChunk(tuple(out_wp), tuple(out_ph), chunk.horizon, chunk.step)


def modulate(chunk: ActionChunk, current_phase: int) -> ActionChunk:
    """Phase-aware waypoint modulation of an (upsampled) chunk.

    Manipulation phase: the base should not wander with the head, so the
    waypoints become a ramp from the null displacement up to the first
    future navigation waypoint (reached at its index, held afterwards);
    with no navigation step in the chunk everything is zeroed.

    Navigation phase: future manipulation-labeled steps are pinned to the
    most recent preceding navigation waypoint (leading ones to the null
    displacement) so the base never chases manipulation head noise.
    """
    wps = list(chunk.waypoints)
    n = len(wps)
    if current_phase == MANIPULATION:
        j = next((i for i, p in enumerate(chunk.phases) if p == NAVIGATION), None)
        if j is None:
            out = [Pose2(0.0, 0.0, 0.0)] * n
        else:
            target = wps[j]
            out = []
            for i in range(n):
                if i <= j:
                    s = (i + 1) / (j + 1)
                    out.append(Pose2(s * target.x, s * target.y,
                                     blend_yaw(0.0, target.theta, s)))
                else:
                    out.append(target)
        return ActionChunk(tuple(out), chunk.phases, chunk.horizon, chunk.step)

    # navigation phase
    out = []
    last_nav = Pose2(0.0, 0.0, 0.0)
    for i in range(n):
        if chunk.phases[i] == NAVIGATION:
            last_nav = wps[i]
            out.append(wps[i])
        else:
            out.append(last_nav)
    return ActionChunk(tuple(out), chunk.phases, chunk.horizon, chunk.step)
