"""Exactness lint: no float can enter the package source.

Every module of ``nckit`` is parsed with ``ast`` and fails on a float or
complex literal, the name ``float``, an import of ``math``, ``decimal`` or
``statistics``, or a true division whose left operand is not a
``Fraction(...)`` call (so the quotient is a Fraction, never a float).

A second lint keeps each private layout in its home module: ``_terms`` (the
packed monomials of a ``Polynomial``, the lint's first entry) in ``poly.py``,
``_rel`` and ``_masks`` (the block structure of a ``NoncrossingPartition``)
in ``ncpart.py``, and ``_partition`` (the kept partition of an
``Arrangement``) in ``trees.py``, and the key layout ``_KEYS``, ``_VARS``,
``_GUARD`` and ``_MASKS`` (the variable slots, the guard bits and the family
masks) in ``poly.py``.  Elsewhere such a name may be neither read nor written
as an attribute, nor imported with ``from ... import``.

A third lint keeps the caller's input out of ``repr`` in error messages: no
f-string ``!r`` conversion inside a ``raise``, which would escape as a bare
``RecursionError`` on input nested past the recursion limit.  Messages echo
input through ``poly._shown`` instead.
"""

import ast
from pathlib import Path

import pytest

import nckit

SOURCES = sorted(Path(nckit.__file__).parent.glob("*.py"))
INEXACT_MODULES = {"math", "decimal", "statistics"}


def _is_fraction_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
    )


def inexact_spots(source: str) -> list[str]:
    """One "line: what" string per construct that could bring in a float."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"inexact literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            what = "the name float"
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] in INEXACT_MODULES]
            what = f"import of {names[0]}" if names else None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in INEXACT_MODULES:
                what = f"import from {node.module}"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            what = None if _is_fraction_call(node.left) else "true division"
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            what = "true division"
        if what:
            found.append((node.lineno, what))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_is_exact(path):
    assert inexact_spots(path.read_text(encoding="utf-8")) == []


def test_lint_catches_each_pattern():
    bad = (
        "import math\n"
        "from decimal import Decimal\n"
        "x = 0.5\n"
        "y = 2j\n"
        "z = float(1)\n"
        "w = a / b\n"
        "w /= 3\n"
        "ok = Fraction(1) / b\n"
    )
    assert inexact_spots(bad) == [
        "1: import of math",
        "2: import from decimal",
        "3: inexact literal 0.5",
        "4: inexact literal 2j",
        "5: the name float",
        "6: true division",
        "7: true division",
    ]


# each private layout name, and the one module that may use it
PRIVATE_HOMES = {
    "_terms": "poly.py",
    "_rel": "ncpart.py",
    "_masks": "ncpart.py",
    "_partition": "trees.py",
    "_KEYS": "poly.py",
    "_VARS": "poly.py",
    "_GUARD": "poly.py",
    "_MASKS": "poly.py",
}


def private_layout_uses(source: str, module: str) -> list[str]:
    """One "line: name" string per use, in ``module``, of a private layout
    name whose home is another module: an attribute read or write, or a name
    imported with ``from ... import``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names]
    return [
        f"{line}: {name}"
        for line, name in sorted(found)
        if PRIVATE_HOMES.get(name, module) != module
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_packed_terms_stay_inside_poly(path):
    # named for the lint's first entry; it checks every entry of PRIVATE_HOMES
    assert private_layout_uses(path.read_text(encoding="utf-8"), path.name) == []


def test_term_lint_catches_each_use():
    bad = (
        "n = len(p._terms)\n"
        "p._terms = {}\n"
        "ok = p.items()\n"
        "q = getattr(p, 'terms')\n"
        "k = q._rel | q._masks[0]\n"
        "part = a._partition\n"
        "from .poly import _MASKS, variable_key\n"
        "guard = poly._GUARD\n"
    )
    key_layout = ["7: _MASKS", "8: _GUARD"]
    assert private_layout_uses(bad, "cli.py") == [
        "1: _terms",
        "2: _terms",
        "5: _masks",
        "5: _rel",
        "6: _partition",
        *key_layout,
    ]
    assert private_layout_uses(bad, "poly.py") == ["5: _masks", "5: _rel", "6: _partition"]
    assert private_layout_uses(bad, "ncpart.py") == [
        "1: _terms", "2: _terms", "6: _partition", *key_layout
    ]
    assert private_layout_uses(bad, "trees.py") == [
        "1: _terms", "2: _terms", "5: _masks", "5: _rel", *key_layout
    ]


def repr_echoes_in_raises(source: str) -> list[int]:
    """The line of each raise statement holding an f-string !r conversion."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and any(
            isinstance(f, ast.FormattedValue) and f.conversion == ord("r")
            for f in ast.walk(node)
        )
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_raises_echo_input_through_shown(path):
    assert repr_echoes_in_raises(path.read_text(encoding="utf-8")) == []


def test_repr_lint_catches_each_raise():
    bad = (
        'raise ValueError(f"bad {x!r}")\n'
        'raise ValueError(f"ok {_shown(x)} {x}")\n'
        'message = f"not raised {x!r}"\n'
        "raise TypeError(\n"
        '    f"on a later line {x!r}"\n'
        ")\n"
    )
    assert repr_echoes_in_raises(bad) == [1, 4]
