"""Metamorphic properties of the whole walk (skipped without hypothesis).

A walk restated in other coordinates asks the pipeline the same question,
so ``segment``, ``retarget`` and ``simulate`` must answer it the same way
(Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys 51(1), 2018). Each example
synthesizes a small walk, restates its recording, and runs both through
``cli.main`` in this process:

- adding a constant of 1e3 to 1e8 s to every ``t``;
- rotating every position and head orientation about the vertical axis.

Labels must be identical. Commands are fixed only as tightly as the
solver's stop rule fixes them: a start stops once its projected gradient
is at most ``eps = grad_tol * (STOP_FLOOR + f)``, f its cost. With no bound
active the projected gradient is the gradient, and the window's cost is
at least as curved as its smoothness term: the Gauss-Newton Hessian
``2 J^T J`` contains ``2 lambda_smooth D^T D``, D the K x K first
difference anchored at the command before the window, whose smallest
eigenvalue is ``4 sin^2(pi / (2 (2K + 1)))``. So each stop lies within
``eps / mu`` of the window's minimizer, with
``mu = 8 lambda_smooth sin^2(pi / (2 (2K + 1)))``, and the commands of two
restatements differ by at most ``2 eps / mu`` (with f the larger of the
two costs). A command on a bound in both runs does not move at all. Each
window also starts where the previous one ended, so an earlier window's
drift moves its start; the solver works in world coordinates, so a
rotation perturbs the problem only by rounding, and both effects stay
orders of magnitude below the bound on these walks. These walks ask for
more than ``v_max``, so their windows cost 50 to 4100 and the bound is
6e-4 to 0.18, against a measured drift of 1.2e-7 or less.

Adding a time offset moves no command at all: ``retarget`` reads no
time, since waypoints trigger on displacement and the solver spaces
them ``dt`` apart. Its property checks that, and also the bound above,
which a solver that reads frame times would still have to meet. The
window-local solve
(each window moved to its start pose before ``solve``), which would cut
the drift under large translations, is not taken: it changes the bytes
of every command file.

``pos_rmse`` in ``sim.json`` moves by no more than the poses move: step k
of a rollout moves by at most ``n dt d (1 + n dt v_max)`` for n commands
that each move by at most d, and the rmse is 1-Lipschitz in the errors.

The walks keep every decision away from a tie, so that rounding cannot
flip it: a 1 m/s walk at 30 fps moves 1/30 m per frame, and waypoints
0.25 m apart fall 7.5 frames apart; the 2 Hz hand circle and the 2 mm
head jitter of a pause give speed ratios far from ``tau_ratio``.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from egonav.cli import main
from egonav.ingest import Episode, parse_recording, serialize_recording
from egonav.retarget import STOP_FLOOR, RetargetConfig, read_replay

# deterministic across runs, no example database, no timing flakes; every
# example runs the pipeline twice, in about 0.05 s
METAMORPHIC = settings(derandomize=True, database=None, deadline=None,
                       max_examples=25)

CFG = RetargetConfig()


@st.composite
def walks(draw):
    """A synth spec of one to three pause-then-walk legs at 1 m/s, 30 fps."""
    legs = []
    for _ in range(draw(st.integers(1, 3))):
        legs.append({"kind": "pause-and-manipulate",
                     "duration": draw(st.sampled_from([2.0, 3.0, 4.0]))})
        legs.append({"kind": "straight", "duration": draw(st.sampled_from([2.0, 3.5])),
                     "speed": 1.0})
        turn = draw(st.sampled_from([0.0, 0.7, -0.9]))
        if turn:
            legs.append({"kind": "arc", "duration": 2.0, "speed": 1.0,
                         "turn_rate": turn})
    return {"segments": legs, "fps": 30.0, "noise_std": 0.002,
            "seed": draw(st.integers(0, 1000))}


def run_walk(d, recording):
    """Labels, solutions and ``pos_rmse`` of one walk run through the CLI."""
    assert main(["segment", str(recording), "--out", str(d / "phases.json")]) == 0
    assert main(["retarget", str(recording), "--out", str(d / "commands.txt")]) == 0
    assert main(["simulate", str(d / "commands.txt"), str(recording),
                 "--out", str(d / "sim.json")]) == 0
    labels = json.loads((d / "phases.json").read_text())["labels"]
    solutions, _, _ = read_replay(d / "commands.txt")
    return labels, solutions, json.loads((d / "sim.json").read_text())["pos_rmse"]


def restated(tmp_path, spec, transform):
    """The walk of ``spec`` and its restatement, each run in its own directory."""
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    art = tmp_path / "art"
    assert main(["synth", str(tmp_path / "spec.json"), "--out", str(art)]) == 0
    with open(art / "recording.jsonl") as fh:
        ep = parse_recording(fh)
    moved = tmp_path / "moved"
    moved.mkdir()
    with open(moved / "recording.jsonl", "w") as fh:
        serialize_recording(Episode(transform(ep.frames.copy()), ep.fps), fh)
    return run_walk(art, art / "recording.jsonl"), run_walk(moved, moved / "recording.jsonl")


def command_bound(a, b) -> float:
    """``2 eps / mu`` of the module docstring for one window solved twice."""
    k = len(a.cmds)
    mu = 8 * CFG.lambda_smooth * math.sin(math.pi / (2 * (2 * k + 1))) ** 2
    return 2 * CFG.grad_tol * (STOP_FLOOR + max(a.cost_total, b.cost_total)) / mu


def check_same_answer(original, moved):
    labels, sols, rmse = original
    labels2, sols2, rmse2 = moved
    assert labels2 == labels
    assert [len(s.cmds) for s in sols2] == [len(s.cmds) for s in sols]
    drift = 0.0
    for a, b in zip(sols, sols2):
        assert a.converged and b.converged  # the stop rule the bound rests on
        moved_by = float(np.max(np.abs(np.subtract(a.cmds, b.cmds))))
        assert moved_by <= command_bound(a, b)
        drift = max(drift, moved_by)
    n = sum(len(s.cmds) for s in sols)
    pose_bound = n * CFG.dt * drift * (1 + n * CFG.dt * CFG.v_max)
    assert abs(rmse2 - rmse) <= pose_bound + 1e-9 * (1 + rmse)  # plus rounding


@METAMORPHIC
@given(walks(), st.floats(1e3, 1e8))
def test_time_offset_changes_no_answer(tmp_path_factory, spec, offset):
    def shift(frames):
        frames[:, 0] += offset
        return frames

    original, moved = restated(tmp_path_factory.mktemp("walk"), spec, shift)
    check_same_answer(original, moved)
    assert moved[1] == original[1]  # retarget reads no time


@METAMORPHIC
@given(walks(), st.floats(-math.pi, math.pi))
def test_rotation_about_z_changes_no_answer(tmp_path_factory, spec, angle):
    c, s = math.cos(angle), math.sin(angle)
    half_c, half_s = math.cos(angle / 2), math.sin(angle / 2)

    def rotate(frames):
        for col in (1, 8, 12):  # head, left hand, right hand x; y follows
            x, y = frames[:, col].copy(), frames[:, col + 1].copy()
            frames[:, col], frames[:, col + 1] = c * x - s * y, s * x + c * y
        w, qx, qy, qz = frames[:, 4:8].T.copy()
        # the yaw quaternion (half_c, 0, 0, half_s) times the head's
        frames[:, 4:8] = np.stack([half_c * w - half_s * qz, half_c * qx - half_s * qy,
                                   half_c * qy + half_s * qx, half_c * qz + half_s * w],
                                  axis=1)
        return frames

    original, moved = restated(tmp_path_factory.mktemp("walk"), spec, rotate)
    check_same_answer(original, moved)
