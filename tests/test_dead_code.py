"""No leftovers in src: every module-level import is used, and every private
module-level function or class is referenced in its own module.  No private
name crosses a module line: no src module imports a `_name` from, or reads a
`_name` of, another forestskein module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "forestskein"


def _names_read(tree) -> set:
    """Names read anywhere in the module, and the strings listed in __all__."""
    out = {node.id for node in ast.walk(tree)
           if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out |= {elt.value for elt in node.value.elts}
    return out


def leftovers(source: str) -> list:
    """Unused module-level imports and unreferenced private module-level defs."""
    tree = ast.parse(source)
    used = _names_read(tree)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append(f"unused import {name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__") \
                    and node.name not in used:
                out.append(f"unreferenced {node.name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_leftovers(path):
    assert leftovers(path.read_text()) == []


def test_the_scan_sees_leftovers():
    source = ("import os\nfrom .config import OracleBudget, SearchBounds\n"
              "def _chain_key():\n    pass\n"
              "class _UnresolvedChain(RuntimeError):\n    pass\n"
              "def _used():\n    return OracleBudget\n"
              "x = _used()\n")
    assert leftovers(source) == ["unused import os", "unused import SearchBounds",
                                 "unreferenced _chain_key", "unreferenced _UnresolvedChain"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def crossings(source: str) -> list:
    """The private names of other package modules that a module imports
    (`from .m import _x`) or reaches through a module name (`from . import m`,
    then `m._x`)."""
    tree = ast.parse(source)
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "forestskein")):
            for alias in node.names:
                if node.module in (None, "forestskein"):
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    out.append(f"imports {node.module}.{alias.name}")
    out += [f"reads {node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert crossings(path.read_text()) == []


def test_the_scan_sees_crossings():
    source = ("from .forest import _hanging, graft\n"
              "from . import oracle, reversing as rv\n"
              "from forestskein.oracle import _sides\n"
              "def f(p, rules):\n"
              "    rv._rules(p).codes, oracle.saturate, rv.__name__, rules._add\n"
              "    return graft(oracle._neighbours(p, rules._cut), _hanging)\n")
    assert sorted(crossings(source)) == [
        "imports forest._hanging", "imports forestskein.oracle._sides",
        "reads oracle._neighbours", "reads rv._rules"]
