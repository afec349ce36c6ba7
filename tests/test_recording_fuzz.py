"""Mutated recordings through two-recording segment and retarget calls.

Every exit is a documented code and no traceback reaches stderr, whether
a recording fails in a worker process or in the caller (skipped without
hypothesis).
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from egonav import cli, ingest
from egonav.cli import main
from egonav.simulator import SynthSegment, SynthSpec, synthesize

# deterministic across runs, no example database, no timing flakes
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _lines():
    ep, _ = synthesize(SynthSpec(segments=(
        SynthSegment("pause-and-manipulate", 3.0),
        SynthSegment("straight", 2.0, speed=1.0)), fps=30.0, seed=5))
    buf = io.StringIO()
    ingest.serialize_recording(ep, buf)
    return [line.encode() for line in buf.getvalue().splitlines()]


LINES = _lines()


def _paths(obj, prefix=()):
    """Every key path in a decoded line: each dict key and each list index."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


VALUES = {"nan": math.nan, "true": True, "huge": 10**400, "big": 2**64,
          "max": 1.7976931348623157e308}  # the largest finite float


@st.composite
def recordings(draw):
    """The base recording with a few lines mutated."""
    lines = list(LINES)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # half stay clean
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "utf8", *VALUES]))
        if kind == "utf8":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
            continue
        try:
            obj = json.loads(lines[i])
        except ValueError:  # an earlier mutation broke this line
            continue
        *head, last = draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for key in head:
            parent = parent[key]
        if kind == "drop":
            del parent[last]
        else:
            parent[last] = VALUES[kind]
        lines[i] = json.dumps(obj).encode()
    return b"".join(line + b"\n" for line in lines)


@FUZZ
@given(recordings(), recordings())
def test_mutated_recordings_exit_with_a_documented_code(first, second):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_cores", lambda: 2)  # the caller runs a, a worker b
        d = Path(tmp)
        recs = [d / "a.jsonl", d / "b.jsonl"]
        for rec, data in zip(recs, (first, second)):
            rec.write_bytes(data)
        for command in ("segment", "retarget"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, *map(str, recs), "--out", str(d / "out")])
            assert code in (0, 2, 3, 4), (command, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
