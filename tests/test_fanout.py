"""Several recordings in one segment or retarget call: shares, workers, faults."""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from egonav import cli, ingest
from egonav.cli import main

SPEC = {"segments": [{"kind": "pause-and-manipulate", "duration": 3.0},
                     {"kind": "straight", "duration": 2.0, "speed": 1.0}],
        "fps": 30.0}
COMMANDS = [("segment", ".phases.json"), ("retarget", ".commands.txt")]


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    """Three recordings of one walk under different noise seeds."""
    d = tmp_path_factory.mktemp("recs")
    (d / "spec.json").write_text(json.dumps(SPEC))
    recs = []
    for seed in (1, 2, 3):
        art = d / f"art{seed}"
        assert main(["synth", str(d / "spec.json"), "--out", str(art),
                     "--seed", str(seed)]) == 0
        rec = d / f"rec{seed}.jsonl"
        (art / "recording.jsonl").rename(rec)
        recs.append(rec)
    return recs


@pytest.fixture
def lanes(monkeypatch):
    """Two usable cores, whatever the host has; records each lane pool's size."""
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cli, "_cores", lambda: 2)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
    return sizes


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command, suffix", COMMANDS)
@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_uneven_shares_write_the_bytes_of_one_recording_calls(
        recordings, tmp_path, monkeypatch, lanes, command, suffix, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    out = tmp_path / "many"
    # two lanes: shares [rec1, rec3] and [rec2]
    assert main([command, *map(str, recordings), "--out", str(out)]) == 0
    assert lanes == ([2] if fork else [])
    assert_no_child_left()
    for rec in recordings:
        one = tmp_path / (rec.stem + ".one")
        assert main([command, str(rec), "--out", str(one)]) == 0
        assert (out / (rec.stem + suffix)).read_bytes() == one.read_bytes()
    assert lanes == ([2] if fork else [])  # one recording: no pool


@pytest.mark.parametrize("command, suffix", COMMANDS)
@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_first_faulty_recording_in_argument_order_is_reported(
        recordings, tmp_path, capsys, monkeypatch, lanes, command, suffix, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    bad2 = tmp_path / "bad2.jsonl"
    bad2.write_text("{not json\n")
    bad3 = tmp_path / "missing3.jsonl"
    assert main([command, str(bad2), "--out", str(tmp_path / "one")]) == 2
    alone = capsys.readouterr().err
    out = tmp_path / "many"
    # two lanes: shares [rec1, bad3] and [bad2]
    assert main([command, str(recordings[0]), str(bad2), str(bad3),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == alone
    assert (out / (recordings[0].stem + suffix)).exists()
    assert lanes == ([2] if fork else [])
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("command", ["segment", "retarget"])
def test_worker_that_ends_without_a_result_is_input_error(
        recordings, tmp_path, capsys, monkeypatch, lanes, command):
    caller = os.getpid()

    def die(*args, **kwargs):
        assert os.getpid() != caller, "the recording was parsed in the caller"
        os._exit(7)

    monkeypatch.setattr(ingest, "parse_recording", die)
    recs = [str(r) for r in recordings[:2]]
    assert main([command, *recs, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"worker process for {recs[0]} ended with exit code 7" in err
    assert_no_child_left()
