"""No leftovers in src: every module-level import is used, and every private
module-level function or class is referenced in its own module.  No private
name crosses a module line: no src module imports a `_name` from, or reads a
`_name` of, another forestskein module.  Every public, undecorated
module-level function or class has a reader in src, tests, scripts or
perfbench."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "forestskein"


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


def reads(source: str) -> set:
    """The (module, name) pairs a file reaches through a forestskein module:
    `from .m import x` or `from forestskein.m import x`, and `m.x` or
    `fs.m.x` for a module bound by `from . import m`, `from forestskein
    import m`, `import forestskein.m as m` or `import forestskein as fs`.
    A name read off any other object, such as `json.dumps`, is not a read."""
    tree = ast.parse(source)
    modules, packages, out = {}, set(), set()       # local name -> module; names of the package
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.partition(".")[0] != "forestskein":
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                if module:
                    out.add((module, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package != "forestskein":
                    continue
                if module and alias.asname:
                    modules[alias.asname] = module
                else:
                    packages.add(alias.asname or package)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in modules:
                out.add((modules[base.id], node.attr))
            elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) \
                    and base.value.id in packages:
                out.add((base.attr, node.attr))
    return out


def unread(module: str, source: str, others: set) -> list:
    """The public, undecorated module-level functions and classes of `module`
    that no other file reads through it (`others`, from `reads`) and that its
    own module reads nowhere outside their own definitions."""
    tree = ast.parse(source)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_") and not node.decorator_list \
                and (module, node.name) not in others \
                and not any(isinstance(n, ast.Name) and n.id == node.name
                            and isinstance(n.ctx, ast.Load)
                            for stmt in tree.body if stmt is not node for n in ast.walk(stmt)):
            out.append(f"{module}.{node.name}")
    return out


def test_every_public_def_has_a_reader():
    read_by = {path: reads(path.read_text()) for d in ("src", "tests", "scripts", "perfbench")
               for path in sorted((ROOT / d).rglob("*.py"))}
    found = []
    for path in sorted(SRC.glob("*.py")):
        others = set().union(*(r for reader, r in read_by.items() if reader != path))
        found += unread(path.stem, path.read_text(), others)
    assert found == []


def test_the_scan_sees_unread_defs():
    reader = ("import json\nimport forestskein as fs\n"
              "from forestskein import fractions as fr\nfrom .oracle import descend\n"
              "json.dumps, fr.equals, fs.forest.compose, descend\n")
    module = ("import functools\n"
              "def dumps():\n    return dumps()\n"
              "def equals():\n    pass\n"
              "def local():\n    pass\n"
              "@functools.cache\ndef cached():\n    pass\n"
              "class Report:\n    pass\n"
              "x = local()\n")
    others = reads(reader)
    assert {("fractions", "equals"), ("forest", "compose"), ("oracle", "descend")} <= others
    assert unread("fractions", module, others) == ["fractions.dumps", "fractions.Report"]
