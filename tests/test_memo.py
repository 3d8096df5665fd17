"""The per-presentation memo: its bound, and that it is the only cache in src."""

import ast
from pathlib import Path

import pytest

from forestskein import corpus, oracle, reversing
from forestskein.config import OracleBudget
from forestskein.forest import LEAF, caret, parse_word, tree_from_word
from forestskein.presentation import memo, parse

SRC = Path(__file__).resolve().parent.parent / "src" / "forestskein"

# module-level caches that are allowed, with the reason each one is
ALLOWED_CACHES = {
    ("presentation", "memo"): "the one bounded per-presentation memo",
    ("forest", "trees_with_carets"):
        "a pure enumeration keyed by the colour tuple, shared by every "
        "presentation with those colours",
}


def test_memo_keeps_the_last_presentations():
    memo.cache_clear()
    maxsize = memo.cache_info().maxsize
    text = corpus.EXAMPLES["cleary"]
    fresh = [parse(text.replace("name: cleary", f"name: memo-bound-{i}"))
             for i in range(maxsize + 8)]
    verdicts = [reversing.is_complete(p) for p in fresh]
    assert memo.cache_info().currsize == maxsize
    assert memo.cache_info().misses == maxsize + 8
    again = reversing.is_complete(fresh[0])
    assert memo.cache_info().misses == maxsize + 9
    assert again == verdicts[0] and again is not verdicts[0]


def test_equal_presentations_share_one_entry():
    memo.cache_clear()
    p, q = (parse(corpus.EXAMPLES["cleary"]) for _ in range(2))
    assert p is not q
    assert hash(p) == hash(q) and p == q
    assert memo(p) is memo(q)
    assert memo.cache_info().currsize == 1


def test_refused_class_read_leaves_no_entry(cleary):
    memo.cache_clear()
    five = (tree_from_word(parse_word("a1 a1 a1 a1 a1")),)
    with pytest.raises(oracle.BudgetExceeded):
        oracle.class_members(cleary, five, OracleBudget(class_cap=300))
    assert oracle._class_memo(cleary) == {}


def test_refused_multiples_read_leaves_no_entry(cleary):
    memo.cache_clear()
    with pytest.raises(oracle.BudgetExceeded):
        oracle.multiple_classes(cleary, (caret("a"),), 9)
    assert oracle._multiples_memo(cleary) == {}


def test_multiples_read_once_until_the_memo_is_cleared(cleary):
    memo.cache_clear()
    first = oracle.multiple_classes(cleary, (LEAF,), 3)
    assert oracle.multiple_classes(cleary, (LEAF,), 3) is first
    assert oracle._multiples_memo(cleary) == {((LEAF,), 3): first}
    memo.cache_clear()
    assert oracle._multiples_memo(cleary) == {}
    again = oracle.multiple_classes(cleary, (LEAF,), 3)
    assert again == first and again is not first


def _is_cache(node) -> bool:
    """functools.cache / lru_cache, called or not, by attribute or by name."""
    if isinstance(node, ast.Call):
        return _is_cache(node.func) or any(_is_cache(a) for a in node.args)
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def _is_empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (getattr(node, "keys", None) or getattr(node, "elts", None))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args
            and not node.keywords)


def _module_caches(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if any(_is_cache(d) for d in node.decorator_list):
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _is_cache(node.value) or _is_empty_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (ast.unparse(t) for t in targets)


def test_no_module_level_cache_outside_the_memo():
    found = {(path.stem, name)
             for path in sorted(SRC.glob("*.py"))
             for name in _module_caches(ast.parse(path.read_text()))}
    assert found == set(ALLOWED_CACHES)


def test_cache_guard_sees_every_form():
    source = """
import functools
from functools import cache
@functools.cache
def a(p): pass
@functools.lru_cache(maxsize=None)
def b(p): pass
@cache
def c(p): pass
d = functools.cache(len)
e: dict = {}
f = []
g = set()
h = dict()
i = {1: 2}
def j():
    k = {}
"""
    assert list(_module_caches(ast.parse(source))) == list("abcdefgh")
