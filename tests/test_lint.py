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
    """`function.parameter` (`Class.method.parameter` for a method) for every
    parameter of a module-level function or method that its body never
    reads, `self` and `cls` aside.  Functions the package also uses as values
    (stored in a table, passed as a callback, a bound method handed on) keep
    a shared signature and are left out, as are dunder methods, whose
    signature the protocol fixes."""
    trees = [ast.parse(source) for source in sources]
    as_values = set()
    for tree in trees:
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if id(node) in called:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                as_values.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                as_values.add(node.attr)
    functions = []
    for tree in trees:
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            prefix = f"{node.name}." if is_class else ""
            functions += [(prefix + f.name, f) for f in (node.body if is_class else [node])
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unread = []
    for qualified, node in functions:
        if node.name.startswith("__") or node.name in as_values:
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{qualified}.{p}" for p in params
                   if p not in read and p not in ("self", "cls")]
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
        "def public(used, grid=2048): return used\n"
        "def __dunder__(unused): return 0\n"
        "class Shape:\n"
        "    def __eq__(self, other): return True\n"
        "    def area(self, scale): return self.side\n"
        "    def hook(self, event): return 0\n"
        "    @classmethod\n"
        "    def make(cls, side): return cls()\n",
        "from .m import _handler\n"
        "TABLE = {'run': _handler}\n"
        "register(Shape().hook)\n",
    ]
    assert unread_parameters(sources) == [
        "Shape.area.scale", "Shape.make.side",
        "_solve.args", "_solve.kw", "_solve.side", "public.grid",
    ]
