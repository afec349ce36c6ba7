"""Action-chunk construction and phase-aware modulation.

Navigation chunks are built by subsampling ground-projected poses every
``step`` frames over a fixed horizon, expressing them in the egocentric
frame at the observation time, upsampling to a unified length (linear
x/y, atan2-blended yaw), and finally modulating waypoints with the
predicted phase to keep the base still during manipulation.

:func:`upsample` reads its interpolation grid (segment indices, weights,
the points that land on a waypoint and the nearest-index phase map) from
a small cache keyed by ``(n, target_len)``; the grid's arrays are
read-only. It takes ``math.sin``/``math.cos`` once per input waypoint,
blends x, y, sin and cos over the whole grid in one stacked numpy
operation, and takes each output yaw with ``math.atan2`` (``np.arctan2``
differs from it by one ulp on some inputs). Grid points that land on a
waypoint, and blends of near-zero norm, go through :func:`blend_yaw`,
which owns those edge rules. The output poses are built as ``Pose2``
tuples directly, without a Python call per point. The result is
bit-identical to blending point by point.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError
from .geometry import Pose2, ground_pose, to_frame, wrap
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
    if stop > len(ep.t):
        raise InvalidArgumentError(
            f"chunk [{t0}, {stop - 1}] exceeds episode length {len(ep.t)}")
    pos = ep.head_pos[t0:stop:step].tolist()
    quat = ep.head_quat[t0:stop:step].tolist()
    ref = ground_pose(pos[0], quat[0], forward_axis)
    waypoints = tuple([to_frame(ref, ground_pose(p, q, forward_axis))
                       for p, q in zip(pos[1:], quat[1:])])
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


class _Grid(NamedTuple):
    """The interpolation grid of one (n, target_len) pair."""

    a: np.ndarray  # (T,) read-only: segment start index of each grid point
    b: np.ndarray  # (T,) read-only: segment end index, a + 1
    r: np.ndarray  # (T,) read-only: weight of a, 1 - s
    s: np.ndarray  # (T,) read-only: weight of b
    on_waypoint: tuple[tuple[int, int, float], ...]  # (j, a, s) where s is 0 or 1
    nearest: operator.itemgetter  # picks the nearest source index's item per point


@functools.lru_cache(maxsize=16)
def _grid(n: int, target_len: int) -> _Grid:
    u = np.arange(target_len) / (target_len - 1) * (n - 1)
    a = np.minimum(u.astype(np.intp), n - 2)
    s = u - a
    on = np.flatnonzero((s == 0.0) | (s == 1.0)).tolist()
    grid = _Grid(a, a + 1, 1.0 - s, s,
                 tuple(zip(on, a[on].tolist(), s[on].tolist())),
                 operator.itemgetter(*np.rint(u).astype(np.intp).tolist()))
    for arr in (grid.a, grid.b, grid.r, grid.s):
        arr.flags.writeable = False
    return grid


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
    g = _grid(n, target_len)
    x, y, theta = zip(*chunk.waypoints)
    ch = np.array([x, y, list(map(math.sin, theta)), list(map(math.cos, theta))],
                  dtype=float)
    xs, ys, sy, cy = g.r * ch[:, g.a] + g.s * ch[:, g.b]
    yaw = list(map(math.atan2, sy.tolist(), cy.tolist()))
    for j, k, s in g.on_waypoint:
        yaw[j] = blend_yaw(theta[k], theta[k + 1], s)
    # |sy| + |cy| < 2e-12 holds for every blend whose hypot is below
    # blend_yaw's 1e-12 cut, so blend_yaw decides all of those; no grid
    # point on a waypoint is among them, as its |sy| + |cy| is >= 1
    for j in np.flatnonzero(np.abs(sy) + np.abs(cy) < 2e-12).tolist():
        k = int(g.a[j])
        yaw[j] = blend_yaw(theta[k], theta[k + 1], float(g.s[j]))
    out_wp = tuple(map(tuple.__new__, repeat(Pose2),
                       zip(xs.tolist(), ys.tolist(), yaw)))
    return ActionChunk(out_wp, g.nearest(chunk.phases), chunk.horizon, chunk.step)


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
