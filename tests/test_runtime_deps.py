"""numpy is egonav's only runtime dependency; scipy and hypothesis are for tests.

``egonav.cli`` forks its own workers: the process-pool modules would add
their import time to every CLI start. Nor does it load ``egonav.chunks``,
which no CLI command uses: the ``egonav`` package imports no module of
its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import egonav


def loaded_after_import(modules, watch) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(egonav.__file__).parent.parent))
    code = ("import json, sys\n"
            f"import {', '.join(modules)}\n"
            f"print(json.dumps(sorted(m for m in {tuple(watch)!r} if m in sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def test_pipeline_modules_import_neither_scipy_nor_hypothesis():
    assert loaded_after_import(["egonav.cli", "egonav.chunks", "egonav.segmentation"],
                               ["scipy", "hypothesis"]) == []


def test_cli_imports_no_process_pool_module():
    assert loaded_after_import(["egonav.cli"], ["multiprocessing",
                                                "concurrent.futures.process",
                                                "egonav.chunks"]) == []
