"""Action-chunk construction and phase-aware modulation.

Navigation chunks are built by subsampling ground-projected poses every
``step`` frames over a fixed horizon, expressing them in the egocentric
frame at the observation time, upsampling to a unified length (linear
x/y, atan2-blended yaw), and finally modulating waypoints with the
predicted phase to keep the base still during manipulation.

:func:`upsample` takes ``math.sin``/``math.cos`` once per input waypoint,
blends x, y, sin and cos over the whole output grid as numpy arrays, and
takes each output yaw with ``math.atan2`` (``np.arctan2`` differs from it
by one ulp on some inputs). Grid points that land on a waypoint, and
blends of near-zero norm, go through :func:`blend_yaw`, which owns those
edge rules. The result is bit-identical to blending point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    if t0 < 0 or step < 1:
        raise InvalidArgumentError(
            f"chunk start {t0} must be >= 0 and step {step} >= 1")
    stop = t0 + horizon * step + 1
    if stop > len(ep.frames):
        raise InvalidArgumentError(
            f"chunk [{t0}, {stop - 1}] exceeds episode length "
            f"{len(ep.frames)}"
        )
    ref = project_to_ground(ep.frames[t0].head, forward_axis)
    waypoints = tuple([to_frame(ref, project_to_ground(f.head, forward_axis))
                       for f in ep.frames[t0 + step:stop:step]])
    labels = tuple(phases.labels[t0 + step:stop:step].tolist())
    return ActionChunk(waypoints, labels, horizon, step)


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
    wps = chunk.waypoints
    n = len(wps)
    if n < 2:
        raise InvalidArgumentError("need at least 2 waypoints to upsample")
    if target_len < n:
        raise InvalidArgumentError("target_len must be >= chunk length")
    u = np.arange(target_len) / (target_len - 1) * (n - 1)
    i = np.minimum(u.astype(np.intp), n - 2)
    s = u - i
    r = 1.0 - s
    x, y, theta = np.array(wps, dtype=float).T
    theta = theta.tolist()
    sin = np.array([math.sin(t) for t in theta])
    cos = np.array([math.cos(t) for t in theta])
    a, b = i, i + 1
    sy = r * sin[a] + s * sin[b]
    cy = r * cos[a] + s * cos[b]
    yaw = list(map(math.atan2, sy.tolist(), cy.tolist()))
    # |sy| + |cy| < 2e-12 holds for every blend whose hypot is below
    # blend_yaw's 1e-12 cut, so blend_yaw decides all of those
    edge = (s == 0.0) | (s == 1.0) | (np.abs(sy) + np.abs(cy) < 2e-12)
    for j in np.flatnonzero(edge).tolist():
        k = int(i[j])
        yaw[j] = blend_yaw(wps[k].theta, wps[k + 1].theta, float(s[j]))
    out_wp = tuple(map(Pose2, (r * x[a] + s * x[b]).tolist(),
                       (r * y[a] + s * y[b]).tolist(), yaw))
    phases = chunk.phases
    out_ph = tuple([phases[k] for k in np.rint(u).astype(np.intp).tolist()])
    return ActionChunk(out_wp, out_ph, chunk.horizon, chunk.step)


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
