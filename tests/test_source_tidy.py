"""Every egonav module references each name it imports and each of its
private module-level functions, classes and constants, every public
module-level function is called by the pipeline or by the benchmark,
every function reads each of its parameters, and no module but
``errors.py`` defines an exception class.

``__init__.py`` is held to the same rules: the package re-exports
nothing, so an import there is one that nothing reads.
"""

import ast
from pathlib import Path

import pytest

import egonav

SRC = Path(egonav.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    path = SRC / module
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
    path = SRC / module
    assert unreferenced_private_names(path.read_text()) == []


def referenced_names(source: str) -> set[str]:
    """The names ``source`` reads: ``Name`` ids, attribute names and the
    names of ``from ... import`` statements."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def unreached_public_functions(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function`` for each public module-level function of ``modules``
    (file name -> source) that neither those modules nor ``callers`` reference.

    ``cli.cmd_*`` is left out: the CLI dispatches its handlers by name.
    """
    used = set().union(*map(referenced_names, [*modules.values(), *callers]))
    return [f"{name[:-3]}.{node.name}" for name, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in used
            and not (name == "cli.py" and node.name.startswith("cmd_"))]


def test_unreached_public_functions_finds_only_unreferenced_ones():
    modules = {"a.py": ("def f():\n    return g()\ndef g():\n    pass\n"
                        "def h():\n    pass\ndef k():\n    pass\ndef _p():\n    pass\n"),
               "b.py": "from .a import h\n",
               "cli.py": "def cmd_go():\n    pass\ndef run():\n    pass\n"}
    assert unreached_public_functions(modules, ["a.k()\n"]) == ["a.f", "cli.run"]


def test_every_public_function_is_called_by_the_pipeline_or_the_benchmark():
    modules = {m: (SRC / m).read_text() for m in MODULES}
    callers = [p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))]
    assert callers, f"no benchmark sources under {PERFBENCH}"
    assert unreached_public_functions(modules, callers) == []


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter of a function or method in
    ``source`` that its body, nested functions included, never reads.

    ``self`` and ``cls`` are left out, and so are the ``cmd_*`` handlers:
    the CLI calls every handler with one ``(args, cfg)`` signature.
    """
    unread = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("cmd_")):
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{node.name}.{p}" for p in params
                       if p not in read and p not in ("self", "cls")]
    return unread


def test_unread_parameters_finds_only_unread_ones():
    source = ("def f(a, b, /, *rest, c, d=1, **kw):\n    return a + c\n"
              "class K:\n    def m(self, x):\n        return 1\n"
              "    @classmethod\n    def n(cls, y):\n        return y\n"
              "def g(p):\n    def h(q):\n        return p\n    return h\n"
              "def cmd_go(args, cfg):\n    return args\n")
    assert unread_parameters(source) == ["f.b", "f.d", "f.rest", "f.kw", "m.x",
                                         "h.q"]


# parameters no code reads but kept for now, each with its reason
UNREAD_ALLOWED = {
    # perfbench/reference.py passes k_h positionally: both go in one change
    "ingest.py": ["extract_waypoints.k_h"],
}


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_parameter(module):
    path = SRC / module
    assert unread_parameters(path.read_text()) == UNREAD_ALLOWED.get(module, [])


def exception_classes(source: str) -> list[str]:
    """The classes ``source`` defines that derive from an exception: a base
    named ``...Error``, ``...Exception`` or ``...Warning``, or an earlier
    exception class of ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                name.endswith(("Error", "Exception", "Warning")) or name in found
                for name in (getattr(b, "id", None) or getattr(b, "attr", "")
                             for b in node.bases)):
            found.append(node.name)
    return found


def test_exception_classes_finds_only_exception_subclasses():
    source = ("import json\nclass A(ValueError):\n    pass\nclass B(A):\n    pass\n"
              "class C(json.JSONDecodeError):\n    pass\nclass D:\n    pass\n"
              "class E(D, Exception):\n    pass\nclass F(D):\n    pass\n")
    assert exception_classes(source) == ["A", "B", "C", "E"]


# one exception class per exit code, all in errors.py (see test_cli)
@pytest.mark.parametrize("module", [m for m in MODULES if m != "errors.py"])
def test_module_defines_no_exception_class(module):
    assert exception_classes((SRC / module).read_text()) == []
