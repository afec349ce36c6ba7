"""Every egonav module references each name it imports.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import egonav

MODULES = sorted(p.name for p in Path(egonav.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_only_unreferenced_names():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import numpy as np\nfrom .a import b, c as d\nnp.zeros(d)\n")
    assert unused_imports(source) == ["os", "os", "b"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    path = Path(egonav.__file__).parent / module
    assert unused_imports(path.read_text()) == []
