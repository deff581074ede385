"""Lints over the ``nckit`` sources: no unused import, and no orphaned helper.

Import lint: every module except ``__init__.py``, whose imports are the
package's public re-exports, is parsed with ``ast``.  A name bound by an import
counts as used when it is read as a name anywhere in the module, appears inside
a string annotation, or is listed in ``__all__``.

Dead-helper lint: every private (``_``-prefixed, not dunder) module-level
function, class or name bound by assignment, and every private method of a
module-level class, must be referenced somewhere in the package outside its
own definition: as a name read, an attribute or an imported name.

Broad-handler lint: no module has a bare ``except:`` or a handler that catches
``Exception`` or ``BaseException``, alone or in a tuple; each handler names the
errors it expects, so that a fault elsewhere is not reported as one of them.

Value-plumbing lint: ``object.__setattr__``, ``object.__new__`` and a ``def
__setattr__`` appear only inside the value base ``_Value``, so immutability,
the trusted constructor and the slot fill stay written once.  The one named
exception is ``Polynomial._raw``'s ``object.__new__``: the ring's hottest
constructor stays off the base.

Route-independence lint: the trees route (the module-level functions of
``cumulants.py`` reached from ``_tree_column``) reads no lattice name, and the
mobius route (reached from ``_mu_top_column``) reads no trees-route function,
so the agreement of the two columns stays a cross-check of both.

Cache-placement lint: every ``lru_cache`` or ``cache`` (by that name or
attribute) decorates a module-level ``def``.  ``clear_caches`` and the
benchmark's cold-cache guard find caches by module namespace, so a cached
nested function, lambda or method would stay warm and unseen.

Recursive-closure lint: no ``def`` directly inside a function reads its own
name.  Such a function reaches itself through a closure cell, a reference cycle
that every call of the enclosing function leaves for the cycle collector; a
walk recurses through a module-level function and takes its state as
arguments.  A method reads its own name from the module, so it is not counted.
"""

import ast
from pathlib import Path

import pytest

import nckit

PACKAGE = sorted(Path(nckit.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _annotation_names(node) -> set[str]:
    """Names read by a string annotation such as ``-> "Polynomial"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        tree = ast.parse(node.value, mode="eval")
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    """One "line: name" string per imported name the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(node.annotation)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_import_lint_catches_each_unused_name():
    bad = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from fractions import Fraction\n"
        "from .poly import Polynomial, poly_sum\n"
        "from .series import LaurentSeries\n"
        "from .ncpart import leq\n"
        "__all__ = ['leq']\n"
        "def f(x: 'Polynomial') -> 'LaurentSeries':\n"
        "    return os.sep\n"
    )
    assert unused_imports(bad) == ["3: osp", "4: Fraction", "5: poly_sum"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _references(node, inside: frozenset = frozenset()) -> set[str]:
    """Names read under node, leaving out those read inside a definition of the
    same name, so that a helper calling only itself stays unreferenced.  A name
    that is only assigned to is not read."""
    if isinstance(node, DEFINITIONS):
        inside = inside | {node.name}
    names = set()
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.alias):
        names.add(node.name)
    names -= inside
    for child in ast.iter_child_nodes(node):
        names |= _references(child, inside)
    return names


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """One "file:line: name" string per private helper the package never references."""
    helpers, used = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        used |= _references(tree)
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and _is_private(node.name):
                helpers.append((file, node.lineno, node.name, node.name))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                helpers += [
                    (file, node.lineno, t.id, t.id)
                    for t in targets
                    if isinstance(t, ast.Name) and _is_private(t.id)
                ]
            if isinstance(node, ast.ClassDef):
                helpers += [
                    (file, item.lineno, f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, DEFINITIONS) and _is_private(item.name)
                ]
    return [f"{file}:{line}: {label}" for file, line, label, name in helpers if name not in used]


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert dead_helpers(sources) == []


def test_dead_helper_lint_catches_each_orphan():
    a = (
        "_TABLE = {}\n"
        "def _used():\n"
        "    return 1\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "class _Lonely:\n"
        "    pass\n"
        "def _shared():\n"
        "    return 2\n"
        "class Box:\n"
        "    def _helper(self):\n"
        "        return 3\n"
        "    def _called(self):\n"
        "        return _used()\n"
        "    def __len__(self):\n"
        "        return self._called()\n"
        "_LIMIT: int = 3\n"
        "_ORPHAN = _LIMIT + 1\n"
    )
    b = "from .a import _shared, _TABLE\n\ndef public():\n    return _shared()\n"
    assert dead_helpers({"a.py": a, "b.py": b}) == [
        "a.py:4: _recursive", "a.py:6: _Lonely", "a.py:11: Box._helper",
        "a.py:18: _ORPHAN",
    ]


BROAD = {"Exception", "BaseException"}


def broad_handlers(source: str) -> list[str]:
    """One "line: handler" string per bare or broad exception handler."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(
            c is None or getattr(c, "id", getattr(c, "attr", None)) in BROAD
            for c in caught
        ):
            label = "except" if node.type is None else f"except {ast.unparse(node.type)}"
            found.append(f"{node.lineno}: {label}")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_broad_exception_handler(path):
    assert broad_handlers(path.read_text(encoding="utf-8")) == []


def test_broad_handler_lint_catches_each_form():
    planted = (
        "import builtins\n"
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    except:\n"
        "        pass\n"
        "    try:\n"
        "        return 2\n"
        "    except Exception as exc:\n"
        "        raise ValueError() from exc\n"
        "    try:\n"
        "        return 3\n"
        "    except (KeyError, BaseException):\n"
        "        pass\n"
        "    try:\n"
        "        return 4\n"
        "    except builtins.Exception:\n"
        "        pass\n"
        "    try:\n"
        "        return 5\n"
        "    except (KeyError, ValueError):\n"
        "        pass\n"
        "    try:\n"
        "        return 6\n"
        "    except ArithmeticError:\n"
        "        pass\n"
    )
    assert broad_handlers(planted) == [
        "5: except", "9: except Exception", "13: except (KeyError, BaseException)",
        "17: except builtins.Exception",
    ]


VALUE_BASE = "_Value"
PLUMBING_EXCEPTIONS = {("Polynomial._raw", "object.__new__")}


def value_plumbing(source: str) -> list[str]:
    """One "line: where: form" string per ``object.__setattr__``,
    ``object.__new__`` or ``def __setattr__`` outside the value base."""
    found = []

    def visit(node, path: tuple) -> None:
        form = None
        if isinstance(node, DEFINITIONS):
            path += (node.name,)
            if node.name == "__setattr__" and not isinstance(node, ast.ClassDef):
                form = "def __setattr__"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
            and node.attr in ("__setattr__", "__new__")
        ):
            form = f"object.{node.attr}"
        where = ".".join(path)
        if form and path[:1] != (VALUE_BASE,) and (where, form) not in PLUMBING_EXCEPTIONS:
            found.append(f"{node.lineno}: {where}: {form}")
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_value_plumbing_stays_in_the_base(path):
    assert value_plumbing(path.read_text(encoding="utf-8")) == []


def test_value_plumbing_lint_catches_each_form():
    planted = (
        "class _Value:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError(name)\n"
        "    def _fill(self, value):\n"
        "        object.__setattr__(self, 'a', value)\n"
        "class Polynomial:\n"
        "    def _raw(cls):\n"
        "        return object.__new__(cls)\n"
        "    def zero(cls):\n"
        "        return object.__new__(cls)\n"
        "class Box:\n"
        "    def __setattr__(self, name, value):\n"
        "        object.__setattr__(self, name, value)\n"
        "def make():\n"
        "    put = object.__setattr__\n"
        "    return object.__new__(Box)\n"
    )
    assert value_plumbing(planted) == [
        "10: Polynomial.zero: object.__new__",
        "12: Box.__setattr__: def __setattr__",
        "13: Box.__setattr__: object.__setattr__",
        "15: make: object.__setattr__",
        "16: make: object.__new__",
    ]


CACHES = {"lru_cache", "cache"}


def misplaced_caches(source: str) -> list[str]:
    """One "line: where: name" string per ``lru_cache`` or ``cache`` that is
    not (part of) a decorator of a module-level ``def``."""
    tree = ast.parse(source)
    placed = {
        id(sub)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        for sub in ast.walk(decorator)
    }
    found = []

    def visit(node, path: tuple) -> None:
        if isinstance(node, DEFINITIONS):
            path += (node.name,)
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, (ast.Name, ast.Attribute)) and name in CACHES and id(node) not in placed:
            found.append(f"{node.lineno}: {'.'.join(path) or '<module>'}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_cache_decorates_a_module_level_def(path):
    assert misplaced_caches(path.read_text(encoding="utf-8")) == []


def test_cache_placement_lint_catches_each_form():
    planted = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def table(n):\n"
        "    return n\n"
        "@functools.cache\n"
        "def column(n):\n"
        "    @lru_cache(maxsize=None)\n"
        "    def entry(k):\n"
        "        return k\n"
        "    return entry(n)\n"
        "entries = lru_cache(maxsize=None)(lambda n: table(n))\n"
        "class Box:\n"
        "    @cache\n"
        "    def size(self):\n"
        "        return 1\n"
        "def make():\n"
        "    return functools.cache(lambda n: n)\n"
    )
    assert misplaced_caches(planted) == [
        "8: column.entry: lru_cache",
        "12: <module>: lru_cache",
        "14: Box.size: cache",
        "18: make: cache",
    ]


LATTICE_NAMES = {"leq", "_coarsenings", "_zeta_keys", "_mu_top_column"}
LATTICE_PREFIXES = ("zeta", "kreweras")


def _route(defs: dict, root: str) -> set[str]:
    """The module-level functions reached from root through the names they read."""
    route, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in defs and name not in route:
            route.add(name)
            todo += _references(defs[name])
    return route


def _functions(source: str) -> dict:
    tree = ast.parse(source)
    return {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def route_crossings(source: str) -> list[str]:
    """One "line: function: name" string per lattice name the trees route reads
    and per trees-route function the mobius route reads."""
    defs = _functions(source)
    trees = _route(defs, "_tree_column")
    crossings = []
    for route, banned in (
        (trees, lambda name: name in LATTICE_NAMES or name.startswith(LATTICE_PREFIXES)),
        (_route(defs, "_mu_top_column"), trees.__contains__),
    ):
        crossings += [
            (defs[f].lineno, f, name)
            for f in route
            for name in _references(defs[f])
            if banned(name)
        ]
    return [f"{line}: {f}: {name}" for line, f, name in sorted(crossings)]


def test_the_column_routes_read_none_of_each_other():
    source = (Path(nckit.__file__).parent / "cumulants.py").read_text(encoding="utf-8")
    assert route_crossings(source) == []
    # the lint sees the whole route, not only its entry point
    assert {"mu_column_via_trees", "_subtree_sum"} <= _route(_functions(source), "_tree_column")


def test_route_lint_catches_each_crossing():
    planted = (
        "from .ncpart import leq, zeta_c, kreweras\n"
        "def _tree_column(n):\n"
        "    return [mu_column_via_trees(p) for p in enumerate_nc(n)]\n"
        "def mu_column_via_trees(p):\n"
        "    return _root_sum(p) if leq(p, p) else 0\n"
        "def _root_sum(p):\n"
        "    return kreweras(p).size\n"
        "def _mu_top_column(n):\n"
        "    return [_root_sum(p) * zeta_c(p, p) for p in enumerate_nc(n)]\n"
        "def w_rho(rho):\n"
        "    return leq(rho, rho) and _tree_column(rho.size)\n"
    )
    assert route_crossings(planted) == [
        "4: mu_column_via_trees: leq",
        "6: _root_sum: kreweras",
        "8: _mu_top_column: _root_sum",
    ]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def recursive_closures(source: str) -> list[str]:
    """One "line: where" string per ``def`` directly inside a function that reads
    its own name, itself or through a function nested in it."""
    found = []

    def visit(node, path: tuple, nested: bool) -> None:
        if isinstance(node, FUNCTIONS) and nested and any(
            isinstance(n, ast.Name) and n.id == node.name and isinstance(n.ctx, ast.Load)
            for statement in node.body
            for n in ast.walk(statement)
        ):
            found.append(f"{node.lineno}: {'.'.join(path + (node.name,))}")
        if isinstance(node, DEFINITIONS):  # a class body binds names out of its methods' reach
            path, nested = path + (node.name,), isinstance(node, FUNCTIONS)
        for child in ast.iter_child_nodes(node):
            visit(child, path, nested)

    visit(ast.parse(source), (), False)
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_nested_function_calls_itself(path):
    assert recursive_closures(path.read_text(encoding="utf-8")) == []


def test_recursive_closure_lint_catches_each_form():
    planted = (
        "def outer(t):\n"
        "    def walk(node):\n"
        "        return sum(map(walk, node))\n"
        "    def leaf(node):\n"
        "        return node\n"
        "    return walk(leaf(t))\n"
        "def top(n):\n"
        "    return top(n - 1) if n else 0\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return size(self)\n"
        "def build(a):\n"
        "    def inner(ci):\n"
        "        def walk(x):\n"
        "            return [walk(c) for c in x] + [inner(0)]\n"
        "        return walk(ci)\n"
        "    class Local:\n"
        "        def again(self):\n"
        "            return again\n"
        "    return inner(a)\n"
    )
    assert recursive_closures(planted) == [
        "2: outer.walk", "13: build.inner", "14: build.inner.walk",
    ]
