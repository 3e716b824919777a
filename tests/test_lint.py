"""Static checks on the package source, standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quadft"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "parse = None\n"
        "print(os.path.sep, dumps)\n"
    )
    assert unused_imports(source) == ["math", "parse"]


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level names with a single leading underscore that no source
    reads: no load of the name, no attribute of that name, no import of it."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(name for name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_no_unread_private_names():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unread_private_names(sources) == []


def test_detects_unread_private_names():
    sources = [
        "_LIMIT = 3\n"
        "_a, _b = 1, 2\n"
        "__all__ = ['f']\n"
        "def _dead(): return _b\n"
        "def _used(): return 0\n"
        "class _Shape: pass\n",
        "from .m import _used\n"
        "import m\n"
        "print(_used(), m._Shape)\n",
    ]
    assert unread_private_names(sources) == ["_LIMIT", "_a", "_dead"]


def unread_parameters(sources: list[str]) -> list[str]:
    """`function.parameter` for every parameter of a private module-level
    function that its body never reads.  Functions the package also uses as
    values (stored in a table, passed as a callback) keep a shared signature
    and are left out."""
    trees = [ast.parse(source) for source in sources]
    as_values = set()
    for tree in trees:
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        as_values.update(node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                         and id(node) not in called)
    unread = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__") or name in as_values:
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{name}.{p}" for p in params if p not in read]
    return sorted(unread)


def test_no_unread_parameters():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unread_parameters(sources) == []


def test_detects_unread_parameters():
    sources = [
        "def _solve(side, weights, *args, tol=0.0, **kw):\n"
        "    def inner():\n"
        "        return tol\n"
        "    return sum(weights), inner\n"
        "def _handler(args, parser): return args\n"
        "def public(unused): return 0\n"
        "def __dunder__(unused): return 0\n",
        "from .m import _handler\n"
        "TABLE = {'run': _handler}\n",
    ]
    assert unread_parameters(sources) == ["_solve.args", "_solve.kw", "_solve.side"]
