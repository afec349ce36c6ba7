"""Closed-loop verification and synthetic episode generation.

``simulate`` replays retargeted commands through the shared Euler model
and scores tracking against the desired waypoints; ``synthesize`` builds
deterministic walking episodes (straight legs, exact circular arcs, and
pause-and-manipulate stops) with ground-truth phase labels for testing
the segmentation and retargeting stack end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError
from .geometry import Pose2, wrap, yaw_quaternion
from .ingest import Episode, finite_number
from .retarget import RetargetConfig, RetargetSolution, chain_windows
from .segmentation import MANIPULATION, NAVIGATION, PhaseTrack

HAND_FREQ = 2.0        # Hz, manipulation hand oscillation
HAND_OFFSET = 0.4      # m, hand circle center in front of the head
DEFAULT_AMPLITUDE = 0.3
OUT_OF_RANGE = ("the replay's scores are not all finite: the objective or the "
                "commands are out of float range")


@dataclass(frozen=True)
class SimResult:
    poses: tuple[Pose2, ...]
    desired: tuple[Pose2, ...]                  # the waypoints scored against
    pos_rmse: float
    pos_max: float
    yaw_rmse: float
    cost_breakdown: tuple[float, float, float]  # (pos, yaw, smooth), recomputed
    reported_cost: float                        # solver-reported total
    cost_discrepancy: float                     # |recomputed - reported|


@dataclass(frozen=True)
class SynthSegment:
    kind: str                 # "straight" | "arc" | "pause-and-manipulate"
    duration: float           # seconds
    speed: float = 1.0        # m/s (straight, arc)
    turn_rate: float = 0.0    # rad/s (arc)
    hand_amplitude: float = DEFAULT_AMPLITUDE  # m (pause-and-manipulate)

    def __post_init__(self):
        if self.kind not in ("straight", "arc", "pause-and-manipulate"):
            raise InvalidArgumentError(f"unknown segment kind {self.kind!r}")
        if not self.duration > 0:
            raise InvalidArgumentError("segment duration must be positive")
        if self.kind == "arc" and self.turn_rate == 0.0:
            raise InvalidArgumentError("arc segment needs a nonzero turn_rate")


@dataclass(frozen=True)
class SynthSpec:
    segments: tuple[SynthSegment, ...]
    fps: float = 30.0
    noise_std: float = 0.0    # m, head jitter while paused
    seed: int = 0
    head_height: float = 1.6

    def __post_init__(self):
        if not self.segments:
            raise InvalidArgumentError("spec needs at least one segment")
        if not self.fps > 0:
            raise InvalidArgumentError("fps must be positive")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")


def simulate(start: Pose2, solutions: Sequence[RetargetSolution],
             desired: Sequence[Pose2], cfg: RetargetConfig) -> SimResult:
    """Roll out retargeted commands and score them against the waypoints.

    The windows of ``solutions`` are chained as in ``retarget_track`` and
    rolled out under ``cfg``, the objective the command file records: its
    ``dt`` and weights. Each window's recomputed cost is compared with the
    solver's. No windows give an empty rollout with zero errors. A replay
    that overflows, such as under a ``dt`` of 1e308, raises
    :class:`InvalidArgumentError` instead of scoring infinities.
    """
    n_cmds = sum(len(sol.cmds) for sol in solutions)
    if n_cmds != len(desired):
        raise InvalidArgumentError(
            f"command count {n_cmds} != waypoint count {len(desired)}")
    chain = chain_windows(start, desired, [len(sol.cmds) for sol in solutions],
                          cfg, lambda i, prob: solutions[i])

    poses: list[Pose2] = []
    parts = np.zeros(3)  # pos, yaw, smooth
    reported = discrepancy = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for sol, ro in chain:
            total, *terms = ro.costs()
            if not math.isfinite(total):  # before the poses wrap an infinite heading
                raise InvalidArgumentError(OUT_OF_RANGE)
            parts += terms
            reported += sol.cost_total
            discrepancy = max(discrepancy, abs(total - sol.cost_total))
            poses.extend(ro.poses())

    errs = [math.hypot(p.x - d.x, p.y - d.y) for p, d in zip(poses, desired)]
    yaw_errs = [wrap(p.theta - d.theta) for p, d in zip(poses, desired)]
    n = max(len(errs), 1)
    result = SimResult(
        poses=tuple(poses),
        desired=tuple(desired),
        pos_rmse=math.sqrt(sum(e * e for e in errs) / n),
        pos_max=max(errs, default=0.0),
        yaw_rmse=math.sqrt(sum(e * e for e in yaw_errs) / n),
        cost_breakdown=tuple(parts.tolist()),
        reported_cost=reported,
        cost_discrepancy=discrepancy,
    )
    scores = (result.pos_rmse, result.pos_max, result.yaw_rmse, *result.cost_breakdown,
              result.reported_cost, result.cost_discrepancy)
    if not all(map(math.isfinite, scores)):
        raise InvalidArgumentError(OUT_OF_RANGE)
    return result


def synthesize(spec: SynthSpec) -> tuple[Episode, PhaseTrack]:
    """Generate a deterministic walking episode with ground-truth phases.

    Straight and arc segments use exact unicycle integration (arcs stay
    on the circle of radius v/omega to machine precision, deliberately
    distinct from the Euler model the optimizer uses). Pause segments
    jitter the head with i.i.d. Gaussian noise while the right hand
    sweeps a circle at 2 Hz, which keeps the hand speed away from zero
    so the velocity-ratio gate stays closed. Each frame is one row of the
    episode's array; the left hand is always absent, and the right hand
    is present only in pauses.
    """
    rng = np.random.default_rng(spec.seed)
    dt = 1.0 / spec.fps
    no_hand = (math.nan,) * 4
    rows: list[tuple] = []
    labels: list[int] = []
    pose = Pose2(0.0, 0.0, 0.0)
    t = 0.0
    for seg in spec.segments:
        n = max(1, round(seg.duration * spec.fps))
        for _ in range(n):
            if seg.kind == "straight":
                pose = Pose2(pose.x + seg.speed * math.cos(pose.theta) * dt,
                             pose.y + seg.speed * math.sin(pose.theta) * dt,
                             pose.theta)
                head_xy = (pose.x, pose.y)
                hand = no_hand
                labels.append(NAVIGATION)
            elif seg.kind == "arc":
                r = seg.speed / seg.turn_rate
                th_new = pose.theta + seg.turn_rate * dt
                pose = Pose2(pose.x + r * (math.sin(th_new) - math.sin(pose.theta)),
                             pose.y - r * (math.cos(th_new) - math.cos(pose.theta)),
                             wrap(th_new))
                head_xy = (pose.x, pose.y)
                hand = no_hand
                labels.append(NAVIGATION)
            else:  # pause-and-manipulate
                jitter = rng.normal(0.0, spec.noise_std, 2) if spec.noise_std > 0 \
                    else (0.0, 0.0)
                head_xy = (pose.x + jitter[0], pose.y + jitter[1])
                phase_angle = 2.0 * math.pi * HAND_FREQ * t
                a = seg.hand_amplitude
                c, s = math.cos(pose.theta), math.sin(pose.theta)
                # circular sweep (constant speed 2*pi*f*a) in front of the head
                local_x = HAND_OFFSET + a * math.cos(phase_angle)
                local_z = spec.head_height - 0.4 + a * math.sin(phase_angle)
                hand = (pose.x + c * local_x, pose.y + s * local_x, local_z, 1.0)
                labels.append(MANIPULATION)
            t += dt
            rows.append((t, head_xy[0], head_xy[1], spec.head_height,
                         *yaw_quaternion(pose.theta), *no_hand, *hand))
    ep = Episode(np.array(rows, dtype=float), fps=spec.fps)
    return ep, PhaseTrack(np.asarray(labels, dtype=np.int64))


def score_segmentation(predicted: PhaseTrack, truth: PhaseTrack) -> float:
    """Fraction of frames with matching labels."""
    if len(predicted) != len(truth):
        raise InvalidArgumentError("phase tracks have different lengths")
    return float(np.mean(predicted.labels == truth.labels))


def spec_from_json(obj: dict) -> SynthSpec:
    """Build a SynthSpec from its JSON representation."""
    try:
        segments = tuple(
            SynthSegment(
                kind=s["kind"],
                duration=float(s["duration"]),
                speed=float(s.get("speed", 1.0)),
                turn_rate=float(s.get("turn_rate", 0.0)),
                hand_amplitude=float(s.get("hand_amplitude", DEFAULT_AMPLITUDE)),
            )
            for s in obj["segments"]
        )
        return SynthSpec(
            segments=segments,
            fps=float(obj.get("fps", 30.0)),
            noise_std=float(obj.get("noise_std", 0.0)),
            seed=int(obj.get("seed", 0)),
            head_height=float(obj.get("head_height", 1.6)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"invalid synthesis spec: {exc}") from None


def write_sim_file(path, result: SimResult) -> None:
    obj = {
        "pos_rmse": result.pos_rmse,
        "pos_max": result.pos_max,
        "yaw_rmse": result.yaw_rmse,
        "cost_pos": result.cost_breakdown[0],
        "cost_yaw": result.cost_breakdown[1],
        "cost_smooth": result.cost_breakdown[2],
        "reported_cost": result.reported_cost,
        "cost_discrepancy": result.cost_discrepancy,
        "poses": [[p.x, p.y, p.theta] for p in result.poses],
        "desired": [[p.x, p.y, p.theta] for p in result.desired],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def read_sim_file(path) -> dict:
    """Read a sim file; a missing or malformed entry raises InvalidArgumentError."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"{path}: a sim file must hold a JSON object")
    if "desired" not in obj:
        raise InvalidArgumentError(
            f"{path} has no 'desired' waypoints; re-run simulate to write them")
    for key in ("pos_rmse", "pos_max", "yaw_rmse", "cost_discrepancy", "poses"):
        if key not in obj:
            raise InvalidArgumentError(f"{path}: missing field {key!r}")
    for key in ("pos_rmse", "pos_max", "yaw_rmse", "cost_discrepancy"):
        if not finite_number(obj[key]):
            raise InvalidArgumentError(f"{path}: {key!r} must be a finite number")
    for key in ("poses", "desired"):
        if not (isinstance(obj[key], list) and all(
                isinstance(p, list) and len(p) == 3 and all(map(finite_number, p))
                for p in obj[key])):
            raise InvalidArgumentError(
                f"{path}: {key!r} must be a list of [x, y, theta] finite numbers")
    return obj
