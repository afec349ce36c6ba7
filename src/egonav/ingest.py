"""Recording parsing, quality filtering, waypoint extraction, normalization.

The on-disk recording format is line-delimited JSON, one frame per line:

    {"t": 0.0, "head": {"p": [x, y, z], "q": [w, x, y, z]},
     "lh": {"p": [x, y, z], "c": 1.0}, "rh": {...}}

``lh``/``rh`` (left/right hand) are optional per frame; ``c`` is the
tracking confidence. Serialization uses shortest round-trip float repr,
so serialize -> parse reproduces an episode bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, ParseError, SchemaError
from .geometry import Pose2, Pose3, project_to_ground, to_frame

DEFAULT_D_THRESH = 0.25  # meters between consecutive waypoints


@dataclass(frozen=True)
class HandSample:
    position: tuple[float, float, float]
    confidence: float


@dataclass(frozen=True)
class FrameRecord:
    """One timestamped sample of head pose and optional hand positions."""

    t: float
    head: Pose3
    left_hand: Optional[HandSample] = None
    right_hand: Optional[HandSample] = None

    def hands(self):
        return [h for h in (self.left_hand, self.right_hand) if h is not None]


@dataclass(frozen=True)
class Episode:
    frames: tuple[FrameRecord, ...]
    fps: float
    source: str = "human"  # "human" or "robot"

    def __post_init__(self):
        if not self.fps > 0:
            raise InvalidArgumentError(f"fps must be positive, got {self.fps}")
        if self.source not in ("human", "robot"):
            raise InvalidArgumentError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class WaypointTrack:
    """Displacement-triggered sparse waypoints of the base trajectory."""

    waypoints: tuple[tuple[int, Pose2], ...]  # (frame_index, pose)
    d_thresh: float
    k_h: int = 10


@dataclass(frozen=True)
class NormStats:
    """Per-dimension z-score statistics for one data source."""

    mean: np.ndarray
    std: np.ndarray
    source: str
    clamped: tuple[bool, ...] = field(default_factory=tuple)


def _entry(obj: dict, key: str, name: str, line_no: int):
    try:
        return obj[key]
    except KeyError:
        raise ParseError(f"missing field {name!r}", line_no) from None


def _object(value, name: str, line_no: int) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"field {name!r} must be a JSON object", line_no)
    return value


def _list(obj: dict, key: str, n: int, name: str, line_no: int) -> list:
    p = _entry(obj, key, name, line_no)
    if not (isinstance(p, list) and len(p) == n):
        raise ParseError(f"field {name!r} must be a {n}-element list", line_no)
    return p


def _finite(v) -> bool:
    try:
        return type(v) in (int, float) and math.isfinite(v)  # not a bool
    except OverflowError:  # an int beyond the float range
        return False


def _is_frame(obj) -> bool:
    """Whether ``obj`` is a well-formed frame, checked in aggregate.

    The shapes are checked, then one sum of all the frame's numbers: it
    fails or is not finite when a value is not a finite number (a bool
    passes as 0 or 1), and also when finite values overflow it, which
    :func:`_check_frame` lets through.
    """
    try:
        head = obj["head"]
        p, q = head["p"], head["q"]
        ok = isinstance(p, list) and len(p) == 3 and isinstance(q, list) and len(q) == 4
        total = obj["t"] + sum(p) + sum(q)
        for key in ("lh", "rh"):
            hand = obj.get(key)
            if hand is not None:
                hp = hand["p"]
                ok = ok and isinstance(hp, list) and len(hp) == 3
                total += sum(hp) + hand["c"]
        return ok and math.isfinite(total)
    except (KeyError, TypeError, AttributeError, OverflowError):
        return False


def _check_frame(obj, line_no: int) -> None:
    """Raise a ParseError naming the first malformed field of ``obj``, if any."""
    if not isinstance(obj, dict):
        raise ParseError("a frame must be a JSON object", line_no)
    t = _entry(obj, "t", "t", line_no)
    head = _object(_entry(obj, "head", "head", line_no), "head", line_no)
    fields = {"t": [t], "head.p": _list(head, "p", 3, "head.p", line_no),
              "head.q": _list(head, "q", 4, "head.q", line_no)}
    for key in ("lh", "rh"):
        if obj.get(key) is not None:
            hand = _object(obj[key], key, line_no)
            fields[key + ".p"] = _list(hand, "p", 3, key + ".p", line_no)
            fields[key + ".c"] = [_entry(hand, "c", key + ".c", line_no)]
    for name, values in fields.items():
        if not all(map(_finite, values)):
            raise ParseError(f"field {name!r} must hold finite numbers", line_no)


_raw_decode = json.JSONDecoder().raw_decode


def _decode(line: str, line_no: int):
    """The JSON value of ``line``, which carries no surrounding whitespace.

    One ``raw_decode`` call and an end-of-line check do the work of
    ``json.loads``. On any failure ``json.loads`` runs again only to name
    the error, so every message is the one ``json.loads`` gives.
    """
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except (ValueError, RecursionError):
        pass
    try:
        return json.loads(line)
    # a decode error, an integer too long to convert, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no) from None


def _hand(h: dict) -> HandSample:
    p = h["p"]
    return HandSample((float(p[0]), float(p[1]), float(p[2])), float(h["c"]))


def _parse_frame(line: str, line_no: int) -> FrameRecord:
    obj = _decode(line, line_no)
    # JSON true and false decode to bools, which sum like 1 and 0
    if "true" in line or "false" in line or not _is_frame(obj):
        _check_frame(obj, line_no)
    head = obj["head"]
    p, q = head["p"], head["q"]
    try:
        head_pose = Pose3((float(p[0]), float(p[1]), float(p[2])),
                          (float(q[0]), float(q[1]), float(q[2]), float(q[3])))
    except InvalidArgumentError as exc:
        raise ParseError(str(exc), line_no) from None
    lh, rh = obj.get("lh"), obj.get("rh")
    return FrameRecord(float(obj["t"]), head_pose,
                       None if lh is None else _hand(lh),
                       None if rh is None else _hand(rh))


def parse_recording(stream: IO[str] | Iterable[str], fps: float = 30.0,
                    source: str = "human") -> Episode:
    """Parse a line-delimited recording into an Episode.

    Raises ParseError (with line number) on a malformed line: invalid
    JSON, a missing field, a field of the wrong shape, or a value that is
    not a finite number. Raises SchemaError on non-monotone timestamps or
    empty input.
    """
    frames = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        frame = _parse_frame(line, line_no)
        if frames and frame.t <= frames[-1].t:
            raise SchemaError(
                f"line {line_no}: timestamp {frame.t} not strictly increasing "
                f"(previous {frames[-1].t})"
            )
        frames.append(frame)
    if not frames:
        raise SchemaError("recording contains no frames")
    return Episode(tuple(frames), fps=fps, source=source)


def _hand_json(h: Optional[HandSample]):
    if h is None:
        return None
    return {"p": list(h.position), "c": h.confidence}


def serialize_recording(ep: Episode, stream: IO[str]) -> None:
    """Write an episode in the recording line format (bit-exact round trip)."""
    for f in ep.frames:
        obj = {"t": f.t, "head": {"p": list(f.head.position),
                                  "q": list(f.head.orientation)}}
        if f.left_hand is not None:
            obj["lh"] = _hand_json(f.left_hand)
        if f.right_hand is not None:
            obj["rh"] = _hand_json(f.right_hand)
        stream.write(json.dumps(obj) + "\n")


def filter_confidence(ep: Episode) -> Episode:
    """Drop every frame where any present hand has confidence < 0.

    Data collectors may lift the glasses to reset a scene; those frames
    carry negative tracking confidence and are excluded.
    """
    kept = tuple(
        f for f in ep.frames
        if all(h.confidence >= 0.0 for h in f.hands())
    )
    # May be empty if every frame was excluded; callers must handle that.
    return Episode(kept, fps=ep.fps, source=ep.source)


def extract_waypoints(ep: Episode, d_thresh: float = DEFAULT_D_THRESH,
                      k_h: int = 10, forward_axis: str = "+x") -> WaypointTrack:
    """Greedy displacement-triggered waypoint extraction.

    The first frame is always a waypoint; afterwards a frame becomes one
    iff its planar distance from the most recent accepted waypoint is
    >= d_thresh. Yaw comes from ground projection of the head pose.
    """
    if not ep.frames:
        raise InvalidArgumentError("episode has no frames")
    waypoints = []
    last_xy = None
    for i, f in enumerate(ep.frames):
        x, y = f.head.position[0], f.head.position[1]
        if last_xy is None or math.hypot(x - last_xy[0], y - last_xy[1]) >= d_thresh:
            waypoints.append((i, project_to_ground(f.head, forward_axis)))
            last_xy = (x, y)
    return WaypointTrack(tuple(waypoints), d_thresh=d_thresh, k_h=k_h)


def egocentric_history(track: WaypointTrack, current: Pose2,
                       k_h: Optional[int] = None) -> list[Pose2]:
    """Last min(k_h, available) waypoints in the frame of ``current``, oldest first."""
    k = track.k_h if k_h is None else k_h
    if k < 1:
        raise InvalidArgumentError(f"k_h must be >= 1, got {k}")
    tail = track.waypoints[-k:]
    return [to_frame(current, pose) for _, pose in tail]


def fit_norm(values: Sequence[Sequence[float]], source: str = "human") -> NormStats:
    """Fit per-dimension z-score statistics (population std).

    Zero-variance dimensions get std clamped to 1 and are flagged, so
    normalization stays invertible on constant channels.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidArgumentError("cannot fit normalization on empty input")
    if arr.ndim == 1:
        arr = arr[:, None]
    mean = arr.mean(axis=0)
    std = arr.std(axis=0)
    clamped = std == 0.0
    std = np.where(clamped, 1.0, std)
    return NormStats(mean, std, source, tuple(bool(c) for c in clamped))


def normalize(x, stats: NormStats) -> np.ndarray:
    return (np.asarray(x, dtype=float) - stats.mean) / stats.std


def denormalize(x, stats: NormStats) -> np.ndarray:
    return np.asarray(x, dtype=float) * stats.std + stats.mean
