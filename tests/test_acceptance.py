"""End-to-end acceptance checks for the full pipeline.

Each test covers one headline guarantee and prints a single
``ACCEPTANCE <n> ... PASS|FAIL`` line (visible with ``pytest -s`` or in
captured output) in addition to the usual assertions.
"""

import json
import math
import time

import numpy as np

from egonav.chunks import ActionChunk, modulate, upsample
from egonav.cli import main
from egonav.geometry import Pose2, VelocityCommand
from egonav.retarget import RetargetConfig, RetargetProblem, cost, solve
from egonav.segmentation import PhaseConfig, gmm_fit, segment
from egonav.simulator import score_segmentation, synthesize

from conftest import two_zone_spec
from oracles import brute_force, gradient, responsibilities, rollout
from test_cli import E2E_CFG, E2E_SPEC

CFG = RetargetConfig()


def verdict(n: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({label}) failed"


def random_problem(rng, k):
    desired = tuple(
        Pose2(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8)),
              float(rng.uniform(-2.5, 2.5)))
        for _ in range(k)
    )
    prev = VelocityCommand(float(rng.uniform(-0.5, 0.5)),
                           float(rng.uniform(-1.0, 1.0)))
    return RetargetProblem(Pose2(0, 0, 0), desired, CFG, prev)


def test_1_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        k = 3 if i % 2 == 0 else 10
        prob = random_problem(rng, k)
        z = rng.uniform(-0.9, 0.9, (k, 2))
        g = gradient(z, prob)
        fd = np.zeros_like(z)
        h = 1e-6
        for a in range(k):
            for b in range(2):
                zp = z.copy()
                zp[a, b] += h
                zm = z.copy()
                zm[a, b] -= h
                fd[a, b] = (cost(zp, prob)[0] - cost(zm, prob)[0]) / (2 * h)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    verdict(1, "gradient vs finite differences",
            worst <= 1e-5 and elapsed < 5.0)


def test_2_solver_dominates_brute_force_oracle():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        prob = random_problem(rng, int(rng.integers(1, 4)))
        _, oracle_cost = brute_force(prob, 9)
        sol = solve(prob)
        ok = ok and sol.cost_total <= oracle_cost + 1e-3
    elapsed = time.perf_counter() - t0
    verdict(2, "solver dominates grid oracle", ok and elapsed < 30.0)


def test_3_recovers_feasible_trajectories():
    k = 50
    t0 = time.perf_counter()
    worst = 0.0
    bounds_ok = True
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        t = np.arange(k) * CFG.dt
        # slow variation (periods well above the step length) so the
        # smoothness penalty barely shifts the optimum off the reference
        v = rng.uniform(-0.2, 0.2) + rng.uniform(0.2, 0.7) * np.sin(
            2 * math.pi * rng.uniform(0.05, 0.2) * t + rng.uniform(0, 2 * math.pi))
        w = rng.uniform(-0.2, 0.2) + rng.uniform(0.2, 0.9) * np.sin(
            2 * math.pi * rng.uniform(0.05, 0.2) * t + rng.uniform(0, 2 * math.pi))
        v = np.clip(v, CFG.v_min, CFG.v_max)
        w = np.clip(w, CFG.omega_min, CFG.omega_max)
        cmds = [VelocityCommand(float(a), float(b)) for a, b in zip(v, w)]
        desired = tuple(rollout(Pose2(0, 0, 0), cmds, CFG.dt))
        sol = solve(RetargetProblem(Pose2(0, 0, 0), desired, CFG, cmds[0]))
        poses = rollout(Pose2(0, 0, 0), list(sol.cmds), CFG.dt)
        rmse = math.sqrt(sum((a.x - b.x) ** 2 + (a.y - b.y) ** 2
                             for a, b in zip(poses, desired)) / k)
        worst = max(worst, rmse)
        bounds_ok = bounds_ok and all(
            CFG.v_min <= c.v <= CFG.v_max
            and CFG.omega_min <= c.omega <= CFG.omega_max for c in sol.cmds)
    elapsed = time.perf_counter() - t0
    verdict(3, "feasible trajectory recovery",
            worst <= 1e-2 and bounds_ok and elapsed < 20.0)


def test_4_segmentation_accuracy_on_synthetic_walks():
    ok = True
    for seed in range(20):
        ep, truth = synthesize(two_zone_spec(seed=seed))
        track, _ = segment(ep, PhaseConfig(), seed=seed)
        acc = score_segmentation(track, truth)
        ok = ok and acc >= 0.95
        ok = ok and abs(track.transitions() - truth.transitions()) <= 2
    verdict(4, "phase segmentation accuracy", ok)


def test_5_em_invariants():
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = np.concatenate([rng.normal((0, 0), 0.4, (150, 2)),
                              rng.normal((3, 1), 0.5, (150, 2))])
        a = gmm_fit(pts, PhaseConfig(), seed=seed)
        b = gmm_fit(pts, PhaseConfig(), seed=seed)
        ll = np.asarray(a.log_likelihoods)
        ok = ok and (np.diff(ll) >= -1e-9).all()
        resp = responsibilities(a, pts)
        ok = ok and np.abs(resp.sum(axis=1) - 1.0).max() <= 1e-9
        ok = ok and np.array_equal(a.weights, b.weights)
        ok = ok and np.array_equal(a.means, b.means)
        ok = ok and np.array_equal(a.covariances, b.covariances)
    verdict(5, "EM monotonicity and determinism", ok)


def test_6_chunk_interpolation_and_modulation():
    ok = True
    # endpoint exactness and midpoint yaw blend
    rng = np.random.default_rng(6)
    poses = [Pose2(*rng.uniform(-1, 1, 2), rng.uniform(-math.pi, math.pi))
             for _ in range(10)]
    chunk = ActionChunk(tuple(poses), (1,) * 10)
    up = upsample(chunk, 100)
    ok = ok and len(up.waypoints) == 100
    ok = ok and up.waypoints[0] == poses[0] and up.waypoints[-1] == poses[-1]
    mid = upsample(ActionChunk((Pose2(0, 0, 0), Pose2(1, 0, math.pi / 2)),
                               (1, 1)), 3)
    ok = ok and abs(mid.waypoints[1].theta - math.pi / 4) <= 1e-12
    # phase modulation is idempotent
    for _ in range(1000):
        n = int(rng.integers(2, 15))
        ps = tuple(Pose2(*rng.uniform(-1, 1, 2),
                         rng.uniform(-math.pi, math.pi)) for _ in range(n))
        phases = tuple(int(x) for x in rng.integers(0, 2, n))
        c = ActionChunk(ps, phases)
        phase = int(rng.integers(0, 2))
        once = modulate(c, phase)
        ok = ok and modulate(once, phase).waypoints == once.waypoints
    verdict(6, "chunk interpolation and modulation", ok)


def test_7_default_parameters_echoed_in_report(tmp_path):
    spec = {"segments": [{"kind": "straight", "duration": 8.0, "speed": 1.0}],
            "fps": 30.0}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    art = tmp_path / "art"
    assert main(["synth", str(tmp_path / "spec.json"), "--out", str(art)]) == 0
    rec = str(art / "recording.jsonl")
    assert main(["retarget", rec, "--out", str(art / "commands.txt")]) == 0
    assert main(["simulate", str(art / "commands.txt"), rec,
                 "--out", str(art / "sim.json")]) == 0
    assert main(["report", str(art), "--out", str(tmp_path / "rep"),
                 "--format", "json"]) == 0
    params = json.loads(
        (tmp_path / "rep" / "report.json").read_text())["parameters"]
    expected = {
        "retarget.lambda_pos": 32.0,
        "retarget.lambda_yaw": 2.0,
        "retarget.lambda_smooth": 1.0,
        "retarget.v_min": -1.0,
        "retarget.v_max": 1.0,
        "retarget.omega_min": -math.pi,
        "retarget.omega_max": math.pi,
        "retarget.dt": 0.16,
        "ingest.d_thresh": 0.25,
        "chunk.horizon": 10,
        "chunk.target_len": 100,
    }
    ok = all(params.get(k) == v for k, v in expected.items())
    verdict(7, "default parameter echo", ok)


def test_8_end_to_end_pipeline(tmp_path):
    t0 = time.perf_counter()
    arts = []
    for name in ("first", "second"):
        d = tmp_path / name
        d.mkdir()
        (d / "spec.json").write_text(json.dumps(E2E_SPEC))
        (d / "cfg.txt").write_text(E2E_CFG)
        cfg = str(d / "cfg.txt")
        art = d / "art"
        assert main(["synth", str(d / "spec.json"), "--out", str(art),
                     "--config", cfg]) == 0
        rec = str(art / "recording.jsonl")
        assert main(["segment", rec, "--out", str(art / "phases.json"),
                     "--config", cfg]) == 0
        assert main(["retarget", rec, "--out", str(art / "commands.txt"),
                     "--config", cfg]) == 0
        assert main(["simulate", str(art / "commands.txt"), rec,
                     "--out", str(art / "sim.json"), "--config", cfg]) == 0
        assert main(["report", str(art), "--out", str(d / "rep"),
                     "--config", cfg]) == 0
        arts.append(art)
    elapsed = time.perf_counter() - t0

    sim = json.loads((arts[0] / "sim.json").read_text())
    identical = all(
        (arts[0] / n).read_bytes() == (arts[1] / n).read_bytes()
        for n in ("recording.jsonl", "phases.json", "commands.txt", "sim.json"))
    verdict(8, "end-to-end pipeline",
            sim["pos_rmse"] <= 0.05 and identical and elapsed < 60.0)
