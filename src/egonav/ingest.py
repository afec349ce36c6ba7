"""Recording parsing, quality filtering, waypoint extraction, normalization.

The on-disk recording format is line-delimited JSON, one frame per line:

    {"t": 0.0, "head": {"p": [x, y, z], "q": [w, x, y, z]},
     "lh": {"p": [x, y, z], "c": 1.0}, "rh": {...}}

``lh``/``rh`` (left/right hand) are optional per frame; ``c`` is the
tracking confidence. Serialization uses shortest round-trip float repr,
so serialize -> parse reproduces an episode bit-exactly.

An :class:`Episode` holds a recording as numpy columns; the parser fills
them straight from the decoded lines, and every later stage reads them.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

import numpy as np

from .errors import InvalidArgumentError, ParseError, SchemaError
from .geometry import Pose2, Pose3, ground_pose, to_frame

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


# One frame as a row of numbers: t, head position (3), head quaternion
# (w, x, y, z), then per hand (left, right) its position (3) and confidence.
_WIDTH = 16
_NO_HAND = (math.nan,) * 4


def _hand_row(h: Optional[HandSample]) -> tuple:
    return _NO_HAND if h is None else (*h.position, h.confidence)


def _frame_record(t, p, q, hand_p, hand_c) -> FrameRecord:
    hands = [None if math.isnan(c) else HandSample(tuple(hp), c)
             for hp, c in zip(hand_p, hand_c)]
    return FrameRecord(t, Pose3(tuple(p), tuple(q)), *hands)


class Episode:
    """A recording held as columns, one row per frame.

    - ``t``: (n,) timestamps;
    - ``head_pos``: (n, 3) head positions;
    - ``head_quat``: (n, 4) head quaternions (w, x, y, z);
    - ``hand_pos``: (n, 2, 3) left and right hand positions;
    - ``hand_conf``: (n, 2) hand confidences.

    Both hand columns hold NaN where a hand is absent. The arrays are
    read-only. ``Episode(frames, fps, source)`` builds the columns from
    :class:`FrameRecord` s, and :attr:`frames` reads them back as a lazy
    view; the pipeline reads the columns and builds no ``FrameRecord``.
    Two episodes are equal when their fps, source and frames are.
    """

    __slots__ = ("t", "head_pos", "head_quat", "hand_pos", "hand_conf",
                 "fps", "source", "_rows")

    def __init__(self, frames: Iterable[FrameRecord], fps: float,
                 source: str = "human"):
        rows = [(f.t, *f.head.position, *f.head.orientation,
                 *_hand_row(f.left_hand), *_hand_row(f.right_hand))
                for f in frames]
        self._set(np.array(rows, dtype=float).reshape(-1, _WIDTH), fps, source)

    @classmethod
    def _of_rows(cls, rows: np.ndarray, fps: float, source: str) -> "Episode":
        ep = cls.__new__(cls)
        ep._set(rows, fps, source)
        return ep

    def _set(self, rows: np.ndarray, fps: float, source: str) -> None:
        if not fps > 0:
            raise InvalidArgumentError(f"fps must be positive, got {fps}")
        if source not in ("human", "robot"):
            raise InvalidArgumentError(f"unknown source {source!r}")
        rows.setflags(write=False)
        hands = rows[:, 8:].reshape(-1, 2, 4)
        self._rows = rows
        self.t = rows[:, 0]
        self.head_pos = rows[:, 1:4]
        self.head_quat = rows[:, 4:8]
        self.hand_pos = hands[:, :, :3]
        self.hand_conf = hands[:, :, 3]
        self.fps = fps
        self.source = source

    @property
    def frames(self) -> "FrameView":
        return FrameView(self)

    def __eq__(self, other):
        if not isinstance(other, Episode):
            return NotImplemented
        return (self.fps == other.fps and self.source == other.source
                and self.frames == other.frames)

    def __repr__(self):
        return (f"Episode(<{len(self.t)} frames>, fps={self.fps!r}, "
                f"source={self.source!r})")


class FrameView(Sequence):
    """An episode's frames as a read-only sequence of :class:`FrameRecord`.

    ``len`` is O(1); each item is built when it is read. The view equals
    any sequence of equal frames (a tuple, a list or another view).
    """

    __slots__ = ("_ep",)

    def __init__(self, ep: Episode):
        self._ep = ep

    def __len__(self):
        return len(self._ep.t)

    def __getitem__(self, index):
        ep = self._ep
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]
        return _frame_record(float(ep.t[i]), ep.head_pos[i].tolist(),
                             ep.head_quat[i].tolist(), ep.hand_pos[i].tolist(),
                             ep.hand_conf[i].tolist())

    def __iter__(self):
        ep = self._ep
        return map(_frame_record, ep.t.tolist(), ep.head_pos.tolist(),
                   ep.head_quat.tolist(), ep.hand_pos.tolist(),
                   ep.hand_conf.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self):
        return f"FrameView({tuple(self)!r})"


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


def _check_quaternions(rows: np.ndarray, line_nos: list[int]) -> None:
    """Raise the ParseError of the first row whose quaternion is not unit norm.

    The norm is summed in the order ``Pose3`` sums it, so the same
    quaternions pass and each message quotes the same norm.
    """
    w, x, y, z = rows[:, 4:8].T
    with np.errstate(over="ignore"):  # a norm that overflows is inf, and fails
        norm = np.sqrt(w * w + x * x + y * y + z * z)
    bad = np.flatnonzero(np.abs(norm - 1.0) > 1e-9)
    if len(bad):
        i = bad[0]
        raise ParseError(f"quaternion norm {float(norm[i])} != 1",
                         line_nos[i]) from None


def parse_recording(stream: IO[str] | Iterable[str], fps: float = 30.0,
                    source: str = "human") -> Episode:
    """Parse a line-delimited recording into an Episode.

    Raises ParseError (with line number) on a malformed line: invalid
    JSON, a missing field, a field of the wrong shape, a value that is
    not a finite number, or a quaternion that is not of unit norm. Raises
    SchemaError on non-monotone timestamps or empty input. The first
    faulty line wins.

    Each line's numbers go onto one flat list, which becomes the
    episode's columns at the end; the quaternion norms are checked there,
    over all rows at once, and also before any later line's error is
    raised, so that an earlier faulty quaternion still wins.
    """
    flat: list = []
    line_nos: list[int] = []
    last_t = -math.inf
    try:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            obj = _decode(line, line_no)
            # JSON true and false decode to bools, which sum like 1 and 0
            if "true" in line or "false" in line or not _is_frame(obj):
                _check_frame(obj, line_no)
            t = float(obj["t"])
            head = obj["head"]
            flat.append(t)
            flat += head["p"]
            flat += head["q"]
            for key in ("lh", "rh"):
                hand = obj.get(key)
                if hand is None:
                    flat += _NO_HAND
                else:
                    flat += hand["p"]
                    flat.append(hand["c"])
            # the row goes in first: a bad quaternion on this line wins
            line_nos.append(line_no)
            if t <= last_t:
                raise SchemaError(
                    f"line {line_no}: timestamp {t} not strictly increasing "
                    f"(previous {last_t})"
                )
            last_t = t
    except Exception:
        _check_quaternions(np.array(flat, dtype=float).reshape(-1, _WIDTH),
                           line_nos)
        raise
    if not line_nos:
        raise SchemaError("recording contains no frames")
    rows = np.array(flat, dtype=float).reshape(-1, _WIDTH)
    _check_quaternions(rows, line_nos)
    return Episode._of_rows(rows, fps, source)


def serialize_recording(ep: Episode, stream: IO[str]) -> None:
    """Write an episode in the recording line format (bit-exact round trip)."""
    for t, p, q, hand_p, hand_c in zip(ep.t.tolist(), ep.head_pos.tolist(),
                                       ep.head_quat.tolist(), ep.hand_pos.tolist(),
                                       ep.hand_conf.tolist()):
        obj = {"t": t, "head": {"p": p, "q": q}}
        for key, hp, c in zip(("lh", "rh"), hand_p, hand_c):
            if not math.isnan(c):
                obj[key] = {"p": hp, "c": c}
        stream.write(json.dumps(obj) + "\n")


def filter_confidence(ep: Episode) -> Episode:
    """Drop every frame where any present hand has confidence < 0.

    Data collectors may lift the glasses to reset a scene; those frames
    carry negative tracking confidence and are excluded. An absent hand's
    NaN confidence compares false, so it never drops a frame.
    """
    keep = ~(ep.hand_conf < 0.0).any(axis=1)
    if keep.all():
        return ep
    # May be empty if every frame was excluded; callers must handle that.
    return Episode._of_rows(ep._rows[keep], ep.fps, ep.source)


def extract_waypoints(ep: Episode, d_thresh: float = DEFAULT_D_THRESH,
                      k_h: int = 10, forward_axis: str = "+x") -> WaypointTrack:
    """Greedy displacement-triggered waypoint extraction.

    The first frame is always a waypoint; afterwards a frame becomes one
    iff its planar distance from the most recent accepted waypoint is
    >= d_thresh. Yaw comes from ground projection of the head pose.
    """
    if not len(ep.t):
        raise InvalidArgumentError("episode has no frames")
    xs, ys = ep.head_pos[:, 0].tolist(), ep.head_pos[:, 1].tolist()
    last_x, last_y = xs[0], ys[0]
    picked = [0]
    for i in range(1, len(xs)):
        if math.hypot(xs[i] - last_x, ys[i] - last_y) >= d_thresh:
            picked.append(i)
            last_x, last_y = xs[i], ys[i]
    pos, quat = ep.head_pos[picked].tolist(), ep.head_quat[picked].tolist()
    waypoints = tuple(zip(picked, [ground_pose(p, q, forward_axis)
                                   for p, q in zip(pos, quat)]))
    return WaypointTrack(waypoints, d_thresh=d_thresh, k_h=k_h)


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
