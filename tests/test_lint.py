"""Static checks on the package source, standard library only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quadft"
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


def imports_module(source: str, module: str) -> bool:
    """True if the source imports `module` or a submodule of it, at any
    level: `import module`, `import module.sub` or `from module import ...`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            return True
    return False


def test_no_module_imports_dataclasses():
    # each dataclass generates its methods at import, about 1 ms a class,
    # and `dataclasses` pulls in `inspect`: the value classes are `_Record`s
    assert [p.name for p in PACKAGE
            if imports_module(p.read_text(encoding="utf-8"), "dataclasses")] == []


def names_checks(source: str) -> bool:
    """True if the source imports `quadft.checks` (`import`, `from . import
    checks`, `from .checks import ...`) or names it in a string, as the
    `_EXPORTS` table and `importlib` do."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(name.rsplit(".", 1)[-1] == "checks" for name in names):
            return True
    return False


def test_only_the_export_table_names_checks():
    # the paper's cross-checks compile in no solver and no subcommand process
    assert [p.name for p in PACKAGE if names_checks(p.read_text(encoding="utf-8"))] == [
        "__init__.py"]


def test_detects_naming_checks():
    assert names_checks("from .checks import verify_plasticity\n")
    assert names_checks("from . import checks\n")
    assert names_checks("import quadft.checks as c\n")
    assert names_checks("_EXPORTS = {'solve': 'checks'}\n")
    assert not names_checks('"""The cross-checks."""\nfrom .fermat import checked\n')


def test_one_power_of_two_frame():
    # every frame and weight set is scaled by `geometry._exponent`
    assert [p.name for p in PACKAGE if "frexp" in p.read_text(encoding="utf-8")] == [
        "geometry.py"]


def frameless_star_calls(source: str) -> list[int]:
    """Lines of the `measure_star` calls that pass no frame, neither a third
    argument nor `frame=`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "measure_star" and len(node.args) < 3 and not any(
                    k.arg == "frame" for k in node.keywords):
                lines.append(node.lineno)
    return lines


def test_every_star_is_read_in_a_frame():
    # a median's star is measured in the frame it was solved in, the tree's
    # or the line's `_frame` (None where there is none), never at its
    # rounded point alone
    assert {p.name: frameless_star_calls(p.read_text(encoding="utf-8"))
            for p in PACKAGE} == {p.name: [] for p in PACKAGE}


def test_detects_frameless_star_calls():
    assert frameless_star_calls("d, u = measure_star(p, points)\n") == [1]
    assert frameless_star_calls("x = geometry.measure_star(\n    p, q)\n") == [1]
    assert frameless_star_calls("measure_star(p, q, tree._frame)\n"
                                "measure_star(p, q, frame=None)\n") == []


def test_detects_module_imports():
    assert imports_module("from dataclasses import dataclass\n", "dataclasses")
    assert imports_module("def f():\n    import dataclasses as dc\n", "dataclasses")
    assert not imports_module("from .dataclasses import x\nimport dataclasses_json\n",
                              "dataclasses")


def read_names(source: str) -> set[str]:
    """Every name the source reads: a load of the name, an attribute of that
    name or an import of it."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level names and methods of module-level classes with a single
    leading underscore that no source reads (`read_names`)."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(f.name for f in node.body
                               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        read |= read_names(source)
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
        "class _Shape: pass\n"
        "class Line:\n"
        "    def __init__(self): self._span = 0\n"
        "    def _ends(self): return self._span\n"
        "    def _stale(self): return 0\n"
        "    def length(self): return self._ends()\n",
        "from .m import _used\n"
        "import m\n"
        "print(_used(), m._Shape)\n",
    ]
    assert unread_private_names(sources) == ["_LIMIT", "_a", "_dead", "_stale"]


def unread_exports(package: dict[str, str], readers: list[str]) -> list[str]:
    """Names in the `_EXPORTS` table of `package["__init__"]` that no source
    reads (`read_names`) outside the module defining them.  `package` maps
    module names to sources, and the table maps each exported name to its
    defining module (`__all__` is the table's names); `__init__` itself is no
    reader, and every source of `readers`, from outside the package, is."""
    origin = {}
    for node in ast.parse(package["__init__"]).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_EXPORTS" for t in node.targets):
            origin = ast.literal_eval(node.value)
    outside = set().union(*map(read_names, readers))
    inside = {module: read_names(source) for module, source in package.items()
              if module != "__init__"}
    return sorted(name for name in origin
                  if name not in outside
                  and not any(name in read for module, read in inside.items()
                              if module != origin[name]))


# Exports with no reader outside their module, `tests/test_acceptance.py` and
# `bench/`; each must lose its entry once it gains one.
UNREAD_EXPORTS = [
    "CaseTag",                # return type: classify_case and FermatTree.case
    "PlasticityReport",       # return type: verify_plasticity
    "UniversalResult",        # return type: universal_minimum
    "UniversalSample",        # return type: universal_set and UniversalResult.samples
    "plasticity_system_new",  # pending: a recorded cross-check of `plasticity` (item 10)
    "solve_4wft_general",     # pending: a recorded cross-check of `wft-quad` (item 10)
]


def test_every_export_has_a_reader():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8")
               for p in [*sorted((ROOT / "bench").glob("*.py")),
                         ROOT / "tests" / "test_acceptance.py"]]
    # a name the list lacks has no reader; a listed name the result lacks is
    # stale: it has a reader now, or it is no longer exported
    assert unread_exports(package, readers) == UNREAD_EXPORTS


def test_detects_unread_exports():
    package = {
        "__init__": "_EXPORTS = {'Shape': 'm', 'area': 'm', 'colour': 'n', 'draw': 'm',\n"
                    "            'grow': 'm', 'lost': 'm'}\n"
                    "__all__ = sorted(_EXPORTS)\n",
        "m": "class Shape: pass\n"
             "def area(s: Shape): return 0\n"
             "def draw(): return area(Shape())\n"
             "def grow(): return _hidden\n",
        "n": "from .m import draw\n"
             "def colour(): return draw()\n",
    }
    readers = ["import pkg\npkg.grow()\n"]
    assert unread_exports(package, readers) == ["Shape", "area", "colour", "lost"]


def _checked_functions(trees) -> list[tuple[str, ast.FunctionDef]]:
    """(`function` or `Class.method`, node) for every module-level function
    and method in `trees`.  Functions the sources also use as values (stored
    in a table, passed as a callback, a bound method handed on) keep a shared
    signature and are left out, as are dunder methods, whose signature the
    protocol fixes."""
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
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not f.name.startswith("__") and f.name not in as_values]
    return functions


def unread_parameters(sources: list[str]) -> list[str]:
    """`function.parameter` (`Class.method.parameter` for a method) for every
    parameter of a function of `_checked_functions` that its body never
    reads, `self` and `cls` aside."""
    unread = []
    for qualified, node in _checked_functions([ast.parse(source) for source in sources]):
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


def unread_locals(source: str) -> list[str]:
    """`function.name` (`Class.method.name` for a method, `outer.inner.name`
    for a nested function) for every local name a function assigns and never
    reads, `_` aside.  A read in a nested function counts (a closure), and a
    name the function declares `global` or `nonlocal` is not its own."""
    def scopes(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from scopes(child, f"{prefix}{child.name}.")
            else:
                yield from scopes(child, f"{prefix}{child.name}."
                                  if isinstance(child, ast.ClassDef) else prefix)

    def own(node):  # the nodes of the function's own scope
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                      ast.Lambda)):
                yield child
                yield from own(child)

    unread = []
    for qualified, func in scopes(ast.parse(source), ""):
        stored = {n.id for n in own(func)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        declared = {name for n in ast.walk(func) if isinstance(n, (ast.Global, ast.Nonlocal))
                    for name in n.names}
        read = {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{qualified}.{name}" for name in stored - read - declared - {"_"}]
    return sorted(unread)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []


def test_detects_unread_locals():
    source = (
        "TOTAL = 0\n"
        "def solve(points):\n"
        "    global TOTAL\n"
        "    first, _, last = points\n"
        "    TOTAL = 1\n"
        "    count = 0\n"
        "    scale = 2.0\n"
        "    for i, p in enumerate(points):\n"
        "        count += 1\n"
        "    def inner():\n"
        "        unused = scale\n"
        "        return last\n"
        "    return [q for q in points], inner\n"
        "class Shape:\n"
        "    def area(self):\n"
        "        side = self.side\n"
        "        return (width := 2.0)\n"
    )
    assert unread_locals(source) == [
        "Shape.area.side", "Shape.area.width", "solve.count", "solve.first", "solve.i",
        "solve.inner.unused", "solve.p",
    ]


def unset_defaults(sources: list[str], callers: list[str]) -> list[str]:
    """`function.parameter` (`Class.method.parameter` for a method) for every
    parameter with a default, of a function of `_checked_functions` in
    `sources`, that no call in `sources` or `callers` sets.  A call names the
    function by name or attribute and sets a parameter by keyword, by passing
    enough positional arguments (after `self` or `cls`), or through a `*` or
    `**` splat."""
    trees = [ast.parse(source) for source in sources]
    setters = {}  # function name -> [(positional count, keywords, splatted)]
    for tree in trees + [ast.parse(source) for source in callers]:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            splat = (any(isinstance(a, ast.Starred) for a in call.args)
                     or any(k.arg is None for k in call.keywords))
            setters.setdefault(name, []).append(
                (len(call.args), {k.arg for k in call.keywords}, splat))
    unset = []
    for qualified, node in _checked_functions(trees):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = [(i, p) for i, p in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
        calls = setters.get(node.name, [])
        unset += [f"{qualified}.{p}" for i, p in defaulted
                  if not any(splat or p in keywords or (i is not None and count > i - skip)
                             for count, keywords, splat in calls)]
    return sorted(unset)


def test_no_unset_defaults():
    callers = [p.read_text(encoding="utf-8")
               for folder in ("tests", "bench") for p in sorted((ROOT / folder).glob("*.py"))]
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unset_defaults(sources, callers) == []


def test_detects_unset_defaults():
    sources = [
        "def solve(side, weights, tol=1e-9, max_iter=50, *, init=None, seed=0):\n"
        "    return side\n"
        "def spread(a, b=1, c=2): return a\n"
        "def _handler(args, parser=None): return args\n"
        "def __dunder__(x=0): return x\n"
        "class Shape:\n"
        "    def area(self, scale=1.0, unit='m'): return scale\n"
        "    @classmethod\n"
        "    def make(cls, side=1.0, label=''): return cls()\n"
        "TABLE = {'run': _handler}\n",
        "solve(1.0, (1, 2), 1e-6)\n"
        "m.solve(2.0, (1,), init=(0, 0))\n"
        "spread(*values)\n"
        "Shape().area(2.0)\n"
        "Shape.make(**options)\n",
    ]
    assert unset_defaults(sources[:1], sources[1:]) == [
        "Shape.area.unit", "solve.max_iter", "solve.seed",
    ]
