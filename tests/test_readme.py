"""The README's Quick start runs as written and writes the files it names."""

import re
import shlex
from pathlib import Path

from egonav.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> tuple[str, str]:
    """The Quick start's ``spec.json`` text and its shell block."""
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    spec, = re.findall(r"^```json\n(.*?)^```$", section, re.S | re.M)
    script, = re.findall(r"^```sh\n(.*?)^```$", section, re.S | re.M)
    return spec, script


def test_quick_start_runs_and_writes_the_files_it_names(tmp_path, monkeypatch, capsys):
    spec, script = quick_start()
    lines = script.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("egonav ")]
    assert [argv[0] for argv in commands] == ["synth", "segment", "retarget",
                                              "simulate", "report"]
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(spec)
    for argv in commands:
        assert main(argv) == 0, argv
        assert Path(argv[argv.index("--out") + 1]).exists(), argv
    assert "Traceback" not in capsys.readouterr().err
    named = sorted(set(re.findall(r"\b(?:artifacts|report)/[\w.]+", script)))
    assert len(named) == 9, named  # the recording, four artifacts, four report files
    assert [name for name in named if not Path(name).is_file()] == []
