"""Several recordings in one segment or retarget call: shares, workers, faults."""

import importlib
import importlib.util
import json
import os
from pathlib import Path

import pytest

from egonav import cli, ingest
from egonav.cli import main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

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
def forks(monkeypatch):
    """Two usable cores, whatever the host has; counts this process's forks."""
    count = []
    fork = os.fork

    def counted():
        count.append(1)
        return fork()

    monkeypatch.setattr(cli, "_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", counted)
    return count


@pytest.fixture
def parsed(monkeypatch):
    """The recordings this process parses; a worker's parses are not seen."""
    paths = []
    parse = ingest.parse_recording

    def recorded(fh, **kwargs):
        paths.append(Path(fh.name))
        return parse(fh, **kwargs)

    monkeypatch.setattr(ingest, "parse_recording", recorded)
    return paths


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command, suffix", COMMANDS)
@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_uneven_shares_write_the_bytes_of_one_recording_calls(
        recordings, tmp_path, monkeypatch, forks, parsed, command, suffix, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    out = tmp_path / "many"
    # two shares: [rec1, rec3] in the caller and [rec2] in one worker
    assert main([command, *map(str, recordings), "--out", str(out)]) == 0
    assert len(forks) == (1 if fork else 0)
    assert parsed == ([recordings[0], recordings[2]] if fork else recordings)
    assert_no_child_left()
    for rec in recordings:
        one = tmp_path / (rec.stem + ".one")
        assert main([command, str(rec), "--out", str(one)]) == 0
        assert (out / (rec.stem + suffix)).read_bytes() == one.read_bytes()
    assert len(forks) == (1 if fork else 0)  # one recording: no fork


@pytest.mark.parametrize("command, suffix", COMMANDS)
@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_first_faulty_recording_in_argument_order_is_reported(
        recordings, tmp_path, capsys, monkeypatch, forks, command, suffix, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    bad2 = tmp_path / "bad2.jsonl"
    bad2.write_text("{not json\n")
    bad3 = tmp_path / "missing3.jsonl"
    assert main([command, str(bad2), "--out", str(tmp_path / "one")]) == 2
    alone = capsys.readouterr().err
    out = tmp_path / "many"
    # two shares: [rec1, bad3] in the caller and [bad2] in one worker
    assert main([command, str(recordings[0]), str(bad2), str(bad3),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == alone
    assert (out / (recordings[0].stem + suffix)).exists()
    assert len(forks) == (1 if fork else 0)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("command, suffix", COMMANDS)
@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)],
                         ids=["good-first", "missing-first"])
def test_three_cores_give_the_caller_and_two_workers_one_recording_each(
        recordings, tmp_path, capsys, monkeypatch, forks, parsed, command, suffix,
        order):
    monkeypatch.setattr(cli, "_cores", lambda: 3)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    recs = [recordings[0], bad, tmp_path / "missing.jsonl"]
    recs = [recs[i] for i in order]
    first_bad = next(rec for rec in recs if rec != recordings[0])
    assert main([command, str(first_bad), "--out", str(tmp_path / "one")]) == 2
    alone = capsys.readouterr().err
    parsed.clear()
    out = tmp_path / "many"
    assert main([command, *map(str, recs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == alone
    assert len(forks) == 2
    # a missing file fails at open, before any parse
    assert parsed == ([recordings[0]] if order[0] == 0 else [])
    assert (out / (recordings[0].stem + suffix)).exists()
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("command, suffix", COMMANDS)
def test_interrupted_caller_share_still_reaps_every_worker(
        recordings, tmp_path, monkeypatch, forks, command, suffix):
    caller = os.getpid()
    parse = ingest.parse_recording

    def interrupt(fh, **kwargs):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return parse(fh, **kwargs)

    monkeypatch.setattr(ingest, "parse_recording", interrupt)
    out = tmp_path / "many"
    with pytest.raises(KeyboardInterrupt):
        main([command, *map(str, recordings[:2]), "--out", str(out)])
    assert len(forks) == 1
    assert_no_child_left()
    # the worker ran its recording to the end before it was reaped
    assert (out / (recordings[1].stem + suffix)).exists()


@pytest.mark.parametrize("command", ["segment", "retarget"])
def test_each_recording_error_names_its_recording(recordings, tmp_path, capsys,
                                                  command):
    bad = tmp_path / "bad.jsonl"
    first = recordings[0].read_text().splitlines(keepends=True)[:3]
    bad.write_text("".join(first) + '{"t": 9.0, "head": [0, 0, 1.6]}\n')
    message = f"egonav: {bad}: line 4: field 'head' must be a JSON object\n"
    for i, recs in enumerate([[bad], [recordings[0], bad]]):
        assert main([command, *map(str, recs), "--out", str(tmp_path / f"out{i}")]) == 2
        assert capsys.readouterr().err == message
    undecodable = tmp_path / "undecodable.jsonl"
    undecodable.write_bytes(b"\xff\xfe\n")
    assert main([command, str(undecodable), "--out", str(tmp_path / "out2")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"egonav: {undecodable}: ") and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("command", ["segment", "retarget"])
def test_failed_fork_is_input_error_and_reaps_the_worker_forked_before_it(
        recordings, tmp_path, capsys, monkeypatch, forks, command):
    fork = os.fork  # the fixture's counter

    def second_fails():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(cli, "_cores", lambda: 3)
    monkeypatch.setattr(os, "fork", second_fails)
    out = tmp_path / "out"
    assert main([command, *map(str, recordings), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("egonav: [Errno 11] Resource temporarily "
                                       "unavailable\n")
    assert len(forks) == 1
    assert_no_child_left()
    # the worker forked first ran its recording to the end
    assert [p.name for p in out.iterdir()] == [recordings[1].stem
                                               + dict(COMMANDS)[command]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("command", ["segment", "retarget"])
def test_worker_that_ends_without_a_result_is_input_error(
        recordings, tmp_path, capsys, monkeypatch, forks, parsed, command):
    caller = os.getpid()
    parse = ingest.parse_recording  # the fixture's recording wrapper

    def die(fh, **kwargs):
        if os.getpid() != caller:
            os._exit(7)
        return parse(fh, **kwargs)

    monkeypatch.setattr(ingest, "parse_recording", die)
    recs = [str(r) for r in recordings[:2]]
    out = tmp_path / "out"
    assert main([command, *recs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"egonav: worker process for {recs[1]} ended with exit code 7 "
                   "and no result\n")
    assert parsed == [recordings[0]]
    assert len(list(out.iterdir())) == 1  # the caller's recording
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_perfbench_tracer_sees_the_callers_share(recordings, tmp_path, monkeypatch):
    """What perfbench/spans.py needs of cli: a patchable lane pool and its spans."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    monkeypatch.setattr(cli, "_cores", lambda: 2)
    modules = [importlib.import_module(f"egonav.{layer}") for layer in spans.LAYERS]
    before = [dict(vars(mod)) for mod in modules]
    pool = cli.ThreadPoolExecutor
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.ThreadPoolExecutor is not pool
        assert cli.main(["segment", *map(str, recordings[:2]),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    for mod, names in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in names.items()), mod.__name__
    by_id = {sp[0]: sp for sp in tracer.spans}
    parses = [sp for sp in tracer.spans if sp[1] == "ingest.parse_recording"]
    assert len(parses) == 1  # the worker's parse is in the worker's memory
    assert by_id[parses[0][4]][1] == "cli.cmd_segment"
    assert tracer.counters[0]["cli.pool_threads"] == 1
    assert_no_child_left()
