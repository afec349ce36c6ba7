"""Recording parsing, quality filtering and waypoint extraction.

The on-disk recording format is line-delimited JSON, one frame per line:

    {"t": 0.0, "head": {"p": [x, y, z], "q": [w, x, y, z]},
     "lh": {"p": [x, y, z], "c": 1.0}, "rh": {...}}

``lh``/``rh`` (left/right hand) are optional per frame; ``c`` is the
tracking confidence. Serialization uses shortest round-trip float repr,
so serialize -> parse reproduces an episode bit-exactly.

An :class:`Episode` holds a recording as one array of numbers, a row per
frame; the parser fills it straight from the decoded lines, and every
later stage reads its columns. The parser reads each decoded frame's
fields once: the same pass builds the row and checks it in aggregate,
and one check of all rows after the loop judges quaternion norm and time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterable

import numpy as np

from .errors import InvalidArgumentError
from .geometry import Pose2, ground_poses, require_yaw

DEFAULT_D_THRESH = 0.25  # meters between consecutive waypoints


# One frame as a row of numbers: t, head position (3), head quaternion
# (w, x, y, z), then per hand (left, right) its position (3) and confidence.
_WIDTH = 16
_NO_HAND = (math.nan,) * 4


class Episode:
    """A recording held as an (n, 16) array of rows in the layout above.

    :attr:`frames` holds the array read-only: a float64 array is made
    read-only and kept, not copied. The columns are views of it:

    - ``t``: (n,) timestamps;
    - ``head_pos``: (n, 3) head positions;
    - ``head_quat``: (n, 4) head quaternions (w, x, y, z);
    - ``hand_pos``: (n, 2, 3) left and right hand positions;
    - ``hand_conf``: (n, 2) hand confidences.

    Both hand columns hold NaN where a hand is absent. Two episodes are
    equal when their fps and frames are, NaN equal to NaN. ``fps`` is
    stored and compared only: every stage takes its times from ``t``.

    :meth:`ground_track` projects every frame onto the ground once per
    forward axis and keeps the result; the frames are read-only, so the
    kept track cannot go stale.
    """

    __slots__ = ("frames", "t", "head_pos", "head_quat", "hand_pos",
                 "hand_conf", "fps", "_ground")

    def __init__(self, frames: np.ndarray, fps: float):
        frames = np.asarray(frames, dtype=float)
        if frames.shape[1:] != (_WIDTH,):
            raise InvalidArgumentError(
                f"frames must be an (n, {_WIDTH}) array, got shape {frames.shape}")
        if not fps > 0:
            raise InvalidArgumentError(f"fps must be positive, got {fps}")
        frames.setflags(write=False)
        hands = frames[:, 8:].reshape(-1, 2, 4)
        self.frames = frames
        self.t = frames[:, 0]
        self.head_pos = frames[:, 1:4]
        self.head_quat = frames[:, 4:8]
        self.hand_pos = hands[:, :, :3]
        self.hand_conf = hands[:, :, 3]
        self.fps = fps
        self._ground = {}

    def ground_track(self, forward_axis: str = "+x") -> np.ndarray:
        """:func:`~egonav.geometry.ground_poses` of every frame, read-only (n, 3).

        Computed on the first call for an axis and kept; a frame whose
        yaw is undefined holds a NaN yaw.
        """
        track = self._ground.get(forward_axis)
        if track is None:
            track = ground_poses(self.head_pos, self.head_quat, forward_axis)
            track.setflags(write=False)
            self._ground[forward_axis] = track
        return track

    def __eq__(self, other):
        if not isinstance(other, Episode):
            return NotImplemented
        return self.fps == other.fps and np.array_equal(
            self.frames, other.frames, equal_nan=True)


@dataclass(frozen=True)
class WaypointTrack:
    """Displacement-triggered sparse waypoints of the base trajectory."""

    waypoints: tuple[tuple[int, Pose2], ...]  # (frame_index, pose)


def _entry(obj: dict, key: str, name: str, line_no: int):
    try:
        return obj[key]
    except KeyError:
        raise InvalidArgumentError(f"line {line_no}: missing field {name!r}") from None


def _object(value, name: str, line_no: int) -> dict:
    if not isinstance(value, dict):
        raise InvalidArgumentError(
            f"line {line_no}: field {name!r} must be a JSON object")
    return value


def _list(obj: dict, key: str, n: int, name: str, line_no: int) -> list:
    p = _entry(obj, key, name, line_no)
    if not (isinstance(p, list) and len(p) == n):
        raise InvalidArgumentError(
            f"line {line_no}: field {name!r} must be a {n}-element list")
    return p


def finite_number(v) -> bool:
    """Whether ``v`` is a finite int or float; a bool is not a number here."""
    try:
        return type(v) in (int, float) and math.isfinite(v)  # not a bool
    except OverflowError:  # an int beyond the float range
        return False


def unique_keys(pairs) -> dict:
    """``pairs`` as a dict; a key given twice raises :class:`InvalidArgumentError`
    (as a ``json.load`` ``object_pairs_hook``: JSON keeps a key's last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidArgumentError(f"key {key!r} given twice")
        obj[key] = value
    return obj


def _frame_row(obj) -> list | None:
    """The row of ``obj``, if it is a well-formed frame checked in aggregate.

    Each field is read once, for both the row and the check. The shapes
    are checked, then one sum of all the frame's numbers: it fails or is
    not finite when a value is not a finite number (a bool passes as 0
    or 1), and also when finite values overflow it, which
    :func:`_check_frame` lets through. Returns None when the check fails.
    """
    try:
        head = obj["head"]
        p, q = head["p"], head["q"]
        ok = isinstance(p, list) and len(p) == 3 and isinstance(q, list) and len(q) == 4
        t = obj["t"]
        total = t + sum(p) + sum(q)
        row = [t, *p, *q]
        for key in ("lh", "rh"):
            hand = obj.get(key)
            if hand is None:
                row += _NO_HAND
            else:
                hp, c = hand["p"], hand["c"]
                ok = ok and isinstance(hp, list) and len(hp) == 3
                total += sum(hp) + c
                row += hp
                row.append(c)
        return row if ok and math.isfinite(total) else None
    except (KeyError, TypeError, AttributeError, OverflowError):
        return None


def _check_frame(obj, line_no: int) -> list:
    """The row of ``obj``, or an error naming its line and first malformed field."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"line {line_no}: a frame must be a JSON object")
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
        if not all(map(finite_number, values)):
            raise InvalidArgumentError(
                f"line {line_no}: field {name!r} must hold finite numbers")
    row = [t, *fields["head.p"], *fields["head.q"]]
    for key in ("lh", "rh"):
        hand = fields.get(key + ".p")
        row += _NO_HAND if hand is None else hand + fields[key + ".c"]
    return row


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
        raise InvalidArgumentError(
            f"line {line_no}: invalid JSON: {getattr(exc, 'msg', exc)}") from None


def _check_rows(flat: list, line_nos: list[int]) -> np.ndarray:
    """The rows of ``flat``, or the error of the first row whose quaternion
    (``w*w + x*x + y*y + z*z``) is not unit norm or whose time is not after
    the row before's; on one row the quaternion wins."""
    rows = np.array(flat, dtype=float).reshape(-1, _WIDTH)
    t, (w, x, y, z) = rows[:, 0], rows[:, 4:8].T
    with np.errstate(over="ignore"):  # a norm that overflows is inf, and fails
        norm = np.sqrt(w * w + x * x + y * y + z * z)
    bad_q = np.abs(norm - 1.0) > 1e-9
    bad = np.flatnonzero(bad_q | np.append(False, t[1:] <= t[:-1]))
    if len(bad):
        i = bad[0]
        if bad_q[i]:
            msg = f"quaternion norm {float(norm[i])} != 1"
        else:
            msg = (f"timestamp {float(t[i])} not strictly increasing "
                   f"(previous {float(t[i - 1])})")
        raise InvalidArgumentError(f"line {line_nos[i]}: {msg}") from None
    return rows


def parse_recording(stream: IO[str] | Iterable[str], fps: float = 30.0) -> Episode:
    """Parse a line-delimited recording into an Episode.

    Raises :class:`InvalidArgumentError` on empty input, or, naming the line
    (``line N: ``), on a malformed one: invalid JSON, a missing field, a
    field of the wrong shape, a value that is not a finite number, a
    quaternion not of unit norm or a timestamp not after the one before.
    The first faulty line wins.

    Each line's numbers go onto one flat list, which becomes the
    episode's rows at the end. One row check judges the quaternion norms
    and the time order there, over all rows at once, and also before any
    later line's error is raised, so that an earlier faulty row still wins.
    """
    flat: list = []
    line_nos: list[int] = []
    try:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            obj = _decode(line, line_no)
            row = _frame_row(obj)
            # JSON true and false decode to bools, which sum like 1 and 0
            if row is None or "true" in line or "false" in line:
                row = _check_frame(obj, line_no)
            flat += row
            line_nos.append(line_no)
    except Exception:
        _check_rows(flat, line_nos)
        raise
    if not line_nos:
        raise InvalidArgumentError("recording contains no frames")
    return Episode(_check_rows(flat, line_nos), fps)


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
    return Episode(ep.frames[keep], ep.fps)


def extract_waypoints(ep: Episode, d_thresh: float = DEFAULT_D_THRESH,
                      k_h: int = 10, forward_axis: str = "+x") -> WaypointTrack:
    """Greedy displacement-triggered waypoint extraction.

    The first frame is always a waypoint; afterwards a frame becomes one
    iff its planar distance from the most recent accepted waypoint is
    >= d_thresh. Yaw comes from ground projection of the head pose.
    ``k_h`` is read by nothing; the slot stays for positional callers.
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
    poses = ground_poses(ep.head_pos[picked], ep.head_quat[picked], forward_axis)
    require_yaw(poses)
    return WaypointTrack(tuple(zip(picked, map(tuple.__new__, repeat(Pose2),
                                                 poses.tolist()))))
