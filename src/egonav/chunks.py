"""Action-chunk construction and phase-aware modulation.

Navigation chunks are built by subsampling ground-projected poses every
``step`` frames over a fixed horizon, expressing them in the egocentric
frame at the observation time, upsampling to a unified length (linear
x/y, atan2-blended yaw), and finally modulating waypoints with the
predicted phase to keep the base still during manipulation.

:func:`subsample` slices the episode's ground track, which
:meth:`Episode.ground_track <egonav.ingest.Episode.ground_track>`
projects once per episode, and moves the slice into the observation
frame with :func:`~egonav.geometry.to_frame_rows`.

:func:`upsample` reads its interpolation grid (the stacked segment end
indices and their weights, the points that land on a waypoint and the
nearest-index phase map) from a small cache keyed by
``(n, target_len)``; the grid's arrays are read-only. It takes
``math.sin``/``math.cos`` once per input waypoint, blends x, y, sin and
cos over the whole grid with one gather, one product and one add, and
takes each output yaw with ``math.atan2`` (``np.arctan2`` differs from
it by one ulp on some inputs). A grid point that lands on a waypoint
takes that waypoint's wrapped yaw, as :func:`blend_yaw` does at s = 0
and s = 1, and blends of near-zero norm go through ``blend_yaw``, which
owns that edge rule. The output poses are built as ``Pose2`` tuples
directly, without a Python call per point. The result is bit-identical
to blending point by point.

:class:`ActionChunk` is a frozen dataclass of waypoints and their phase
labels; every construction, :func:`dataclasses.replace` included, checks
that the two have one length.
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
from .geometry import Pose2, require_yaw, to_frame_rows, wrap
from .ingest import Episode
from .segmentation import MANIPULATION, NAVIGATION, PhaseTrack


@dataclass(frozen=True)
class ActionChunk:
    """Egocentric waypoints with per-step phase labels."""

    waypoints: tuple[Pose2, ...]
    phases: tuple[int, ...]

    def __post_init__(self):
        if len(self.waypoints) != len(self.phases):
            raise InvalidArgumentError("waypoints and phases lengths differ")


def subsample(ep: Episode, t0: int, horizon: int, step: int,
              phases: PhaseTrack, forward_axis: str = "+x") -> ActionChunk:
    """Sample poses at frames t0+step, ..., t0+horizon*step.

    All poses are expressed in the frame of the ground-projected pose at
    t0 (the observation time), each carrying its frame's phase label.
    ``phases`` must label every frame of the episode. A frame whose yaw
    is undefined fails only the chunks that sample it.
    """
    if len(phases) != len(ep.t):
        raise InvalidArgumentError(
            f"phase track has {len(phases)} labels for an episode of "
            f"{len(ep.t)} frames")
    if t0 < 0 or step < 1:
        raise InvalidArgumentError(
            f"chunk start {t0} must be >= 0 and step {step} >= 1")
    stop = t0 + horizon * step + 1
    if stop > len(ep.t):
        raise InvalidArgumentError(
            f"chunk [{t0}, {stop - 1}] exceeds episode length {len(ep.t)}")
    poses = ep.ground_track(forward_axis)[t0:stop:step]
    require_yaw(poses)
    ref, *rest = poses.tolist()
    waypoints = to_frame_rows(ref, rest)
    labels = tuple(phases.labels[t0 + step:stop:step].tolist())
    return ActionChunk(waypoints, labels)


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

    # (2, 4, T) read-only: per grid point, the flat index into the (4, n)
    # rows x, y, sin, cos of its segment's start (0) and end (1) waypoint
    index: np.ndarray
    weights: np.ndarray  # (2, 4, T) read-only: 1 - s at the start, s at the end
    on_waypoint: tuple[tuple[int, int], ...]  # (j, k): point j lands on waypoint k
    nearest: operator.itemgetter  # picks the nearest source index's item per point


@functools.lru_cache(maxsize=16)
def _grid(n: int, target_len: int) -> _Grid:
    u = np.arange(target_len) / (target_len - 1) * (n - 1)
    a = np.minimum(u.astype(np.intp), n - 2)
    s = u - a
    on = np.flatnonzero((s == 0.0) | (s == 1.0))
    rows = n * np.arange(4)[:, None]  # where x, y, sin and cos start
    grid = _Grid(np.stack([rows + a, rows + a + 1]),
                 np.stack([1.0 - s, s])[:, None].repeat(4, axis=1),
                 tuple(zip(on.tolist(), (a[on] + s[on].astype(np.intp)).tolist())),
                 operator.itemgetter(*np.rint(u).astype(np.intp).tolist()))
    grid.index.flags.writeable = False
    grid.weights.flags.writeable = False
    return grid


def upsample(chunk: ActionChunk, target_len: int) -> ActionChunk:
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
    sin, cos = list(map(math.sin, theta)), list(map(math.cos, theta))
    ends = np.array([x, y, sin, cos], dtype=float).take(g.index)
    ends *= g.weights
    xs, ys, sy, cy = (ends[0] + ends[1]).tolist()
    yaw = list(map(math.atan2, sy, cy))
    for j, k in g.on_waypoint:
        yaw[j] = wrap(theta[k])
    # On a segment whose end yaws give unit vectors u, v with |u + v| >=
    # 1e-6, every blend is about |u + v| / 2 or more from the origin, far
    # above blend_yaw's 1e-12 cut. Otherwise |sy| + |cy| < 2e-12 holds for
    # every blend below the cut, so blend_yaw decides all of those; no
    # grid point on a waypoint is among them, as its |sy| + |cy| is >= 1
    if min(map(math.hypot, map(operator.add, sin, sin[1:]),
               map(operator.add, cos, cos[1:]))) < 1e-6:
        for j in np.flatnonzero(np.abs(sy) + np.abs(cy) < 2e-12).tolist():
            k = int(g.index[0, 0, j])
            yaw[j] = blend_yaw(theta[k], theta[k + 1], float(g.weights[1, 0, j]))
    out_wp = tuple(map(tuple.__new__, repeat(Pose2), zip(xs, ys, yaw)))
    return ActionChunk(out_wp, g.nearest(chunk.phases))


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
    wps, phases = chunk.waypoints, chunk.phases
    null = Pose2(0.0, 0.0, 0.0)
    if NAVIGATION not in phases:  # nothing to ramp to or hold, as in most of a stop
        return ActionChunk((null,) * len(wps), phases)
    if current_phase == MANIPULATION:
        j = phases.index(NAVIGATION)
        x, y, theta = target = wps[j]
        ramp = tuple(Pose2(s * x, s * y, blend_yaw(0.0, theta, s))
                     for s in (k / (j + 1) for k in range(1, j + 2)))
        return ActionChunk(ramp + (target,) * (len(wps) - j - 1), phases)
    out, last = [], null
    for wp, phase in zip(wps, phases):
        if phase == NAVIGATION:
            last = wp
        out.append(last)
    return ActionChunk(tuple(out), phases)
