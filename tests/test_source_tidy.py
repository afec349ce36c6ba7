"""Every egonav module references each name it imports and each of its
private module-level functions, classes and constants.

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


def unreferenced_private_names(source: str) -> list[str]:
    """The private module-level names ``source`` defines but never reads.

    A private name starts with one underscore (dunders such as
    ``__all__`` are not private); defining it by ``def``, ``class`` or
    assignment at module level does not count as reading it.
    """
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in defined if name.startswith("_")
            and not name.startswith("__") and name not in read]


def test_unreferenced_private_names_finds_only_unread_ones():
    source = ("_A = 1\n_B, C = 2, 3\n__all__ = []\n_D: int = 4\n"
              "def _f():\n    return _A\n"
              "def _g():\n    _h = 1\n    return _f() + _h\n"
              "class _K:\n    pass\nclass L(_K):\n    pass\n")
    assert unreferenced_private_names(source) == ["_B", "_D", "_g"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_private_name(module):
    path = Path(egonav.__file__).parent / module
    assert unreferenced_private_names(path.read_text()) == []
