"""No leftovers in src: every module-level import is used, and every private
module-level function or class is referenced in its own module."""

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
