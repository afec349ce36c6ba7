"""Synthesis specs through ``synth``, and phase files through ``report``.

Every exit is a documented code, with no traceback and no warning. A
``synth`` that exits 0 wrote a recording and a truth file that read back,
and a ``report`` that exits 0 wrote a ``report.json`` of strict JSON whose
tracking scores are not negative (skipped without hypothesis).
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from egonav import ingest, segmentation, simulator
from egonav.cli import main

# deterministic across runs, no example database, no timing flakes
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

CODES = (0, 2, 3, 4)

# JSON values of every type, numbers unbounded; NaN and Infinity are
# written as the NaN and Infinity tokens that Python's json reads back
VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([10**400, 2**64, 1.5, -1, 0, True, False, None, "1", [], {}, [1.0]]),
    st.floats(), st.integers())


def _finite(token: str) -> float:
    if not math.isfinite(value := float(token)):
        raise ValueError(f"{token} is not finite")
    return value


def _strict(text: str):
    """``json.loads`` that rejects NaN, Infinity and numbers such as 1e999."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


def _run(argv) -> int:
    """``main(argv)`` with warnings as errors; the stderr must hold no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in CODES, (argv[0], code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def _mutate(draw, obj) -> None:
    """Drop, replace or add one entry of ``obj`` in place, or cut a list short.

    The entry is found by a walk down from the top that stops at a
    container below the top one time in four, so a top-level key is as
    likely as one label of thousands.
    """
    parent, key, node = None, None, obj
    while isinstance(node, (dict, list)) and node and (
            parent is None or draw(st.integers(0, 3))):
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        node = parent[key]
    if parent is None:
        return
    action = draw(st.sampled_from(["drop", "replace", "add", "cut"]))
    if action == "drop":
        del parent[key]
    elif action == "add" and isinstance(parent, dict):
        parent["bogus"] = draw(VALUES)
    elif action == "cut" and isinstance(node, list):
        parent[key] = node[:draw(st.integers(0, len(node)))]
    else:
        parent[key] = draw(VALUES)


@st.composite
def specs(draw) -> str:
    """An ordinary spec of one to three segments with one number drawn
    unbounded, then in one case of two an entry changed by
    :func:`_mutate`; or arbitrary text in one case of twenty."""
    if not draw(st.integers(0, 19)):
        return draw(st.text())
    segments = [{"kind": draw(st.sampled_from(["straight", "arc", "pause-and-manipulate"])),
                 "duration": draw(st.floats(0.01, 5.0)),
                 "speed": draw(st.floats(-5.0, 5.0)),
                 "turn_rate": draw(st.floats(-5.0, 5.0)),
                 "hand_amplitude": draw(st.floats(-1.0, 1.0))}
                for _ in range(draw(st.integers(1, 3)))]
    spec = {"segments": segments, "fps": draw(st.floats(1.0, 100.0)),
            "noise_std": draw(st.floats(0.0, 1.0)), "seed": draw(st.integers(0, 100)),
            "head_height": draw(st.floats(0.0, 3.0))}
    owner = draw(st.sampled_from([spec, *segments]))
    key = draw(st.sampled_from(sorted(set(owner) - {"kind", "segments"})))
    owner[key] = draw(st.one_of(st.floats(), st.integers(),
                                st.sampled_from([1e308, -1e308, 5e-324])))
    if draw(st.booleans()):
        _mutate(draw, spec)
    return json.dumps(spec)


@settings(FUZZ, max_examples=500)  # synth is cheap; the overflows need the draws
@given(specs())
def test_synth_specs_exit_with_a_documented_code(spec):
    # a lower cap keeps every example small; the drawn values are not bounded
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "MAX_FRAMES", 3000)
        d = Path(tmp)
        (d / "spec.json").write_text(spec)
        if _run(["synth", str(d / "spec.json"), "--out", str(d / "art")]) == 0:
            with open(d / "art" / "recording.jsonl") as fh:
                ingest.parse_recording(fh)
            segmentation.read_phase_file(d / "art" / "truth.json")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A two-stop walk's artifacts: synth, segment and retarget."""
    art = tmp_path_factory.mktemp("walk")
    spec = art / "spec.json"
    spec.write_text(json.dumps({"segments": [
        {"kind": "pause-and-manipulate", "duration": 2.0},
        {"kind": "straight", "duration": 1.5},
        {"kind": "pause-and-manipulate", "duration": 2.0}], "seed": 3}))
    rec = str(art / "recording.jsonl")
    assert main(["synth", str(spec), "--out", str(art)]) == 0
    assert main(["segment", rec, "--out", str(art / "phases.json")]) == 0
    assert main(["retarget", rec, "--out", str(art / "commands.txt")]) == 0
    return art


@st.composite
def mutated(draw, text: str) -> str:
    """``text``, a JSON file, with one to three entries changed by
    :func:`_mutate`, or arbitrary text in one case of ten."""
    if not draw(st.integers(0, 9)):
        return draw(st.text())
    obj = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, obj)
    return json.dumps(obj)


@FUZZ
@given(st.data())
def test_artifacts_through_report_exit_with_a_documented_code(artifacts, data):
    # "both" writes one mutated phase file as the phases and as the truth
    name = data.draw(st.sampled_from(["phases.json", "truth.json", "both"]))
    source = "phases.json" if name == "both" else name
    text = data.draw(mutated((artifacts / source).read_text()))
    with tempfile.TemporaryDirectory() as tmp:
        art = Path(tmp) / "art"
        shutil.copytree(artifacts, art)
        for target in ("phases.json", "truth.json") if name == "both" else (name,):
            (art / target).write_text(text)
        rep = Path(tmp) / "rep"
        if _run(["report", str(art), "--out", str(rep), "--format", "json"]) == 0:
            summary = _strict((rep / "report.json").read_text())
            for key in ("pos_rmse", "pos_max", "yaw_rmse", "cost_discrepancy"):
                assert summary[key] >= 0, (key, summary[key])
