"""numpy is egonav's only runtime dependency; scipy and hypothesis are for tests."""

import os
import subprocess
import sys
from pathlib import Path

import egonav


def test_pipeline_modules_import_neither_scipy_nor_hypothesis():
    env = dict(os.environ, PYTHONPATH=str(Path(egonav.__file__).parent.parent))
    code = ("import sys\n"
            "import egonav.cli, egonav.chunks, egonav.segmentation\n"
            "print(sorted(m for m in ('scipy', 'hypothesis') if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
