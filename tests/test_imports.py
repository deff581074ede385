"""Import lint: no module of ``nckit`` imports a name it never uses.

Every module except ``__init__.py``, whose imports are the package's public
re-exports, is parsed with ``ast``.  A name bound by an import counts as used
when it is read as a name anywhere in the module, appears inside a string
annotation, or is listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import nckit

SOURCES = sorted(
    p for p in Path(nckit.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
