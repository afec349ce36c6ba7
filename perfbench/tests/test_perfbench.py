"""Tests of the benchmark itself: python -m pytest perfbench/tests -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from egonav.geometry import Pose2, VelocityCommand  # noqa: E402
from egonav.retarget import RetargetConfig, RetargetProblem, cost  # noqa: E402
from spans import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Shrunk durations; segmentation still clears the 0.95 gate at these
# (at 0.05, chunk_dataset's 2 s stops fall to 0.89).
TINY = {"walk_saturated": 0.3, "walk_feasible_batch": 0.5, "chunk_dataset": 0.1}


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    a = workloads.generate(workloads.build(name, 7, TINY[name]), tmp_path / "a")
    b = workloads.generate(workloads.build(name, 7, TINY[name]), tmp_path / "b")
    c = workloads.generate(workloads.build(name, 8, TINY[name]), tmp_path / "c")
    assert _files(a.root) == _files(b.root)
    assert a.recordings[0].read_bytes() != c.recordings[0].read_bytes()


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_passes_checks_and_prints_benchmark_metrics(name, trace, tmp_path):
    wl = workloads.build(name, 1, TINY[name])
    info, detail, result = run.measure(wl, 1, 0.01, trace, tmp_path / name)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    kind = "end_to_end" if trace == 0 else "per_layer"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if trace == 0:
        assert list(detail["report"]) == list(run.END_TO_END)
        assert detail["report"]["failed_frac"]["value"] == 0.0
        walk = wl.kind == "walk"
        assert (detail["report"]["cost_gap"]["value"] is not None) == walk
        assert (detail["report"]["chunks_per_s"]["value"] is None) == walk
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0
    else:
        assert (tmp_path / name / "spans.jsonl").stat().st_size > 0


def test_end_to_end_metrics_follow_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names
    for m in SPEC["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk_saturated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _random_window(rng, k=6):
    cfg = RetargetConfig()
    start = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3))
    desired = np.column_stack([rng.uniform(-1, 1, k), rng.uniform(-1, 1, k),
                               rng.uniform(-3, 3, k)])
    prev = (rng.uniform(-0.5, 0.5), rng.uniform(-1, 1))
    z = np.column_stack([rng.uniform(-1, 1, k), rng.uniform(-3, 3, k)]).ravel()
    return reference.WindowModel(start, desired, prev, cfg), z


def test_reference_model_is_egonavs_objective():
    rng = np.random.default_rng(0)
    for _ in range(20):
        model, z = _random_window(rng)
        prob = RetargetProblem(Pose2(*model.start),
                               tuple(Pose2(*d).normalized() for d in model.desired),
                               model.cfg, VelocityCommand(*model.prev))
        ours = model.cost(z)
        assert abs(ours - cost(z, prob)[0]) <= 1e-9 * max(1.0, ours)


def test_reference_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(5):
        model, z = _random_window(rng)
        J = model.jacobian(z)
        h = 1e-6
        fd = np.column_stack([
            (model.residuals(z + h * e) - model.residuals(z - h * e)) / (2 * h)
            for e in np.eye(len(z))])
        assert np.abs(J - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_reference_reaches_no_higher_cost_than_its_start():
    rng = np.random.default_rng(2)
    model, z = _random_window(rng)
    z = np.clip(z, np.tile([-1.0, -math.pi], 6), np.tile([1.0, math.pi], 6))
    assert model.solve([z]) <= model.cost(z)


def test_self_time_subtracts_union_of_children():
    spans = [(1, "a", 0.0, 10.0, None, 1),
             (2, "b", 1.0, 4.0, 1, 1),
             (3, "c", 2.0, 6.0, 1, 1),   # overlaps b (another thread)
             (4, "d", 8.0, 12.0, 1, 1)]  # runs past its parent
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert st[2] == pytest.approx(3.0)
