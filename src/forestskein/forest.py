"""Coloured binary trees and forests, and the raw diagram calculus on them.

A tree is either a leaf or an interior vertex carrying a colour and two
subtrees.  We encode a leaf as ``None`` and an interior vertex as the tuple
``(colour, left, right)``; a forest is a nonempty tuple of trees.  Plain
tuples give structural equality, hashing, and cheap sharing for free, which
matters because the congruence oracle enumerates strata with 10^5+ forests.

Composition stacks a forest on top of another (leaf j grafts to root j),
tensoring concatenates tree lists.  Equality at this level is structural:
no skein relations are applied here.

The word codec translates between trees and words of elementary forests.
The k-th letter of a tree word is a pair (colour, index) with index <= k,
read bottom-up: it adds one caret at the given leaf of the partial tree
built so far.  The canonical word produced by `word_from_tree` enumerates
carets layer by layer from the root, left to right inside a layer, so the
codec round-trips exactly.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Iterator, Optional

# A tree is None (leaf) or (colour, left, right); a forest is a tuple of trees.
Tree = Optional[tuple]
Forest = tuple

LEAF: Tree = None

_COLOUR_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class ForestError(ValueError):
    """Raised for malformed trees, arity mismatches, and bad literals."""


def valid_colour(name: str) -> bool:
    return bool(_COLOUR_RE.fullmatch(name))


def caret(colour: str) -> Tree:
    """The one-caret tree Y_colour."""
    return (colour, LEAF, LEAF)


def leaf_count(t: Tree) -> int:
    if t is None:
        return 1
    n, stack = 0, [t]
    while stack:
        node = stack.pop()
        if node is None:
            n += 1
        else:
            stack.append(node[1])
            stack.append(node[2])
    return n


def caret_count(t: Tree) -> int:
    return leaf_count(t) - 1


def tree_colours(t: Tree) -> set:
    out, stack = set(), [t]
    while stack:
        node = stack.pop()
        if node is not None:
            out.add(node[0])
            stack.append(node[1])
            stack.append(node[2])
    return out


def root_count(f: Forest) -> int:
    return len(f)


def forest_leaf_count(f: Forest) -> int:
    return sum(leaf_count(t) for t in f)


def forest_caret_count(f: Forest) -> int:
    return forest_leaf_count(f) - len(f)


def leaf_starts(f: Forest) -> list:
    """0-based leaf offset of each tree of f (block starts)."""
    starts, acc = [], 0
    for t in f:
        starts.append(acc)
        acc += leaf_count(t)
    return starts


def graft(t: Tree, subs: list, pos: int = 0) -> tuple:
    """Replace the leaves of t, left to right, by subs[pos:]; returns (tree, next pos)."""
    done, stack = [], [t]       # grafted subtrees; trees to graft and colours to join
    while stack:
        node = stack.pop()
        if node is None:
            done.append(subs[pos])
            pos += 1
        elif type(node) is str:     # both subtrees of a caret of this colour are done
            right = done.pop()
            done[-1] = (node, done[-1], right)
        else:
            c, left, right = node
            if left is None is right:
                done.append((c, subs[pos], subs[pos + 1]))
                pos += 2
            else:
                stack += (c, right, left)
    return done[0], pos


def compose(f: Forest, g: Forest) -> Forest:
    """Stack g on top of f: the j-th leaf of f is grafted to the j-th root of g."""
    nf = forest_leaf_count(f)
    if nf != len(g):
        raise ForestError(
            f"compose arity mismatch: {nf} leaves on the left, {len(g)} roots on the right"
        )
    subs = list(g)
    out, pos = [], 0
    for t in f:
        nt, pos = graft(t, subs, pos)
        out.append(nt)
    return tuple(out)


def tensor(f: Forest, g: Forest) -> Forest:
    return f + g


def elementary(colour: str, j: int, n: int) -> Forest:
    """The forest a_{j,n}: n roots with a single caret of the given colour at root j."""
    if not 1 <= j <= n:
        raise ForestError(f"elementary index out of range: j={j}, n={n}")
    return (LEAF,) * (j - 1) + (caret(colour),) + (LEAF,) * (n - j)


# ---------------------------------------------------------------------------
# Word codec

def _decode(letters, roots: int, index_error) -> Forest:
    """The forest of a word over `roots` roots, in one pass: each caret fills
    the open leaf slot its letter names, and the tuples are built at the end."""
    slots = list(range(roots))      # open leaf slots, left to right
    child = [-1] * roots            # slot -> the caret grafted there; -1 is a leaf
    colours: list = []
    for colour, idx in letters:
        if not 1 <= idx <= len(slots):
            raise ForestError(index_error(idx, len(slots)))
        s = len(child)              # caret m owns slots roots + 2m and roots + 2m + 1
        child[slots[idx - 1]] = len(colours)
        colours.append(colour)
        child += (-1, -1)
        slots[idx - 1:idx] = (s, s + 1)
    built = [LEAF] * (len(colours) + 1)     # built[-1] stays the leaf
    for m in range(len(colours) - 1, -1, -1):     # children come after their parents
        s = roots + 2 * m
        built[m] = (colours[m], built[child[s]], built[child[s + 1]])
    return tuple(built[c] for c in child[:roots])


def tree_from_word(letters) -> Tree:
    """Build a tree from a word of (colour, index) letters, k-th index <= k."""
    return _decode(letters, 1, lambda idx, k: f"letter {k}: index {idx} out of range 1..{k}")[0]


def word_from_tree(t: Tree) -> list:
    """Canonical word: carets stripped layer by layer from the root, left to right."""
    word, level = [], [t]
    while True:
        nxt, pos, start = [], 1, len(word)
        for tr in level:
            if tr is None:
                nxt.append(None)
                pos += 1
            else:
                c, l, r = tr
                word.append((c, pos))
                nxt.append(l)
                nxt.append(r)
                pos += 2
        if len(word) == start:      # no caret on this level: it was all leaves
            return word
        level = nxt


def forest_from_word(letters, roots: int) -> Forest:
    """Decode a monoid word over elementary generators, starting from `roots` roots."""
    if roots < 1:
        raise ForestError("a forest needs at least one root")
    return _decode(letters, roots, lambda idx, n: f"letter index {idx} out of range 1..{n}")


# ---------------------------------------------------------------------------
# Occurrences and single skein rewriting steps

class Occurrence(tuple):
    """Address of a subtree occurrence: (tree_index, path of 0/1 steps)."""

    __slots__ = ()

    def __new__(cls, tree_index: int, path: tuple):
        return tuple.__new__(cls, (tree_index, tuple(path)))

    @property
    def tree_index(self) -> int:
        return self[0]

    @property
    def path(self) -> tuple:
        return self[1]


def _matches_prefix(t: Tree, u: Tree) -> bool:
    """Does u embed at the root of t as a colour-matching rooted prefix?"""
    if u is None:
        return True
    if t is None or t[0] != u[0]:
        return False
    return _matches_prefix(t[1], u[1]) and _matches_prefix(t[2], u[2])


def _subtree_at(t: Tree, path) -> Tree:
    for step in path:
        if t is None:
            raise ForestError(f"path {path} leaves the tree")
        t = t[1] if step == 0 else t[2]
    return t


def find_occurrences(f: Forest, u: Tree) -> list:
    """All occurrences of u in f, ordered by (tree index, preorder path)."""
    if u is None:
        raise ForestError("occurrences of the trivial tree are not meaningful")
    out = []
    for i, t in enumerate(f):
        stack = [(t, ())]
        while stack:
            node, path = stack.pop()
            if node is None:
                continue
            if _matches_prefix(node, u):
                out.append(Occurrence(i, path))
            stack.append((node[2], path + (1,)))
            stack.append((node[1], path + (0,)))     # popped first: preorder
    return out


def _hanging(t: Tree, u: Tree, acc: list) -> None:
    """Collect the subtrees of t hanging at the leaves of u, in leaf order."""
    if u is None:
        acc.append(t)
        return
    _hanging(t[1], u[1], acc)
    _hanging(t[2], u[2], acc)


def _replace_at(t: Tree, path, repl: Tree) -> Tree:
    if not path:
        return repl
    c, l, r = t
    if path[0] == 0:
        return (c, _replace_at(l, path[1:], repl), r)
    return (c, l, _replace_at(r, path[1:], repl))


def rewrite_at(f: Forest, site: Occurrence, u: Tree, u2: Tree) -> Forest:
    """Replace the u-prefix at site by u2, reattaching hanging subtrees in order."""
    if leaf_count(u) != leaf_count(u2):
        raise ForestError("rewrite sides must have equal leaf counts")
    i, path = site[0], site[1]
    node = _subtree_at(f[i], path)
    if not _matches_prefix(node, u):
        raise ForestError(f"no occurrence of the given tree at {site!r}")
    subs: list = []
    _hanging(node, u, subs)
    new_node, used = graft(u2, subs, 0)
    assert used == len(subs)
    return f[:i] + (_replace_at(f[i], path, new_node),) + f[i + 1:]


def divide(f: Forest, g: Forest) -> Optional[Forest]:
    """h with compose(f, h) == g exactly, or None when f is not a rooted subforest."""
    if len(f) != len(g):
        raise ForestError("divide needs equal root counts")
    subs: list = []
    for tf, tg in zip(f, g):
        if not _matches_prefix(tg, tf):
            return None
        _hanging(tg, tf, subs)
    return tuple(subs)


def prunable_carets(t: Tree) -> list:
    """(first leaf position, colour) of carets whose children are both leaves."""
    out, start, stack = [], 1, [t]
    while stack:
        node = stack.pop()
        if node is None:
            start += 1
        elif node[1] is None and node[2] is None:
            out.append((start, node[0]))
            start += 2
        else:
            stack.append(node[2])
            stack.append(node[1])
    return out


def strip_caret(t: Tree, pos: int) -> Tree:
    """Remove the prunable caret whose leaves sit at (pos, pos+1)."""
    start, stack = 1, [(t, None)]     # (node, (parent, went right, parent's link))
    while stack:
        node, up = stack.pop()
        if node is None:
            start += 1
        elif node[1] is None and node[2] is None:
            if start == pos:
                new = LEAF
                while up is not None:
                    (c, l, r), went_right, up = up
                    new = (c, l, new) if went_right else (c, new, r)
                return new
            start += 2
        else:
            stack.append((node[2], (node, True, up)))
            stack.append((node[1], (node, False, up)))
    return t


# ---------------------------------------------------------------------------
# Text literals: trees `I` / `c(left,right)`, forests `[t, t]`, words `a1 a1`

def render_tree(t: Tree) -> str:
    out, stack = [], [t]      # pending subtrees and literal text, last first
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            stack += (")", node[2], ",", node[1], node[0] + "(")
        else:
            out.append("I" if node is None else node)
    return "".join(out)


def render_forest(f: Forest) -> str:
    return "[" + ", ".join(render_tree(t) for t in f) + "]"


def render_word(letters) -> str:
    return " ".join(f"{c}{i}" for c, i in letters)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ForestError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        m = _COLOUR_RE.match(self.text, self.pos)
        if not m:
            raise ForestError(f"expected identifier at position {self.pos} in {self.text!r}")
        self.pos = m.end()
        return m.group()


def _parse_tree(sc: _Scanner) -> Tree:
    open_carets = []          # [colour] before the comma, [colour, left] after it
    while True:
        while (name := sc.ident()) != "I":
            sc.expect("(")
            open_carets.append([name])
        t = LEAF
        while open_carets and len(open_carets[-1]) == 2:
            colour, left = open_carets.pop()
            sc.expect(")")
            t = (colour, left, t)
        if not open_carets:
            return t
        open_carets[-1].append(t)
        sc.expect(",")


def parse_tree(text: str) -> Tree:
    sc = _Scanner(text)
    t = _parse_tree(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ForestError(f"trailing input in tree literal: {text!r}")
    return t


def parse_forest(text: str) -> Forest:
    sc = _Scanner(text)
    sc.expect("[")
    trees = [_parse_tree(sc)]
    while sc.peek() == ",":
        sc.expect(",")
        trees.append(_parse_tree(sc))
    sc.expect("]")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ForestError(f"trailing input in forest literal: {text!r}")
    return tuple(trees)


_WORD_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9]*?)(\d+)$")


def parse_word(text: str) -> list:
    """Parse `a1 b2 ...` into (colour, index) letters."""
    letters = []
    for tok in text.split():
        m = _WORD_TOKEN.fullmatch(tok)
        if not m:
            raise ForestError(f"bad word letter {tok!r}")
        letters.append((m.group(1), int(m.group(2))))
    return letters


# ---------------------------------------------------------------------------
# Canonical keys and enumeration

def tree_key(t: Tree, colour_rank: dict) -> tuple:
    """Sort key: caret count, then the canonical word under the given colour order."""
    word = word_from_tree(t)
    return (len(word), tuple((colour_rank[c], i) for c, i in word))


def forest_key(f: Forest, colour_rank: dict) -> tuple:
    keys = tuple(tree_key(t, colour_rank) for t in f)
    return (sum(k[0] for k in keys), len(f), keys)


@functools.cache
def trees_with_carets(colours: tuple, k: int) -> list:
    """All coloured trees with exactly k carets (shared across calls)."""
    if k == 0:
        return [LEAF]
    out = []
    for i in range(k):
        lefts = trees_with_carets(colours, i)
        rights = trees_with_carets(colours, k - 1 - i)
        for c in colours:
            for l in lefts:
                for r in rights:
                    out.append((c, l, r))
    return out


@functools.cache
def trees_in_key_order(colours: tuple, k: int) -> list:
    """`trees_with_carets(colours, k)` sorted by `tree_key` under the order of `colours`."""
    rank = {c: i for i, c in enumerate(colours)}
    return sorted(trees_with_carets(colours, k), key=lambda t: tree_key(t, rank))


def forests_with_carets(colours, roots: int, k: int) -> Iterator[Forest]:
    """All forests with `roots` roots and exactly k carets in total."""
    if roots == 1:
        for t in trees_with_carets(colours, k):
            yield (t,)
        return
    for first in range(k + 1):
        for t in trees_with_carets(colours, first):
            for rest in forests_with_carets(colours, roots - 1, k - first):
                yield (t,) + rest


def forest_count(colours, roots: int, k: int) -> int:
    """len(forests_with_carets(colours, roots, k)) in closed form, for roots >= 1:
    (r / (2k + r)) * C(2k + r, k) * c^k, the ballot number times the colourings."""
    return roots * math.comb(2 * k + roots, k) // (2 * k + roots) * len(colours) ** k


def random_tree(rng, colours, carets: int) -> Tree:
    if carets == 0:
        return LEAF
    left = rng.randrange(carets)
    return (
        rng.choice(colours),
        random_tree(rng, colours, left),
        random_tree(rng, colours, carets - 1 - left),
    )


def random_forest(rng, colours, roots: int, carets: int) -> Forest:
    cuts = sorted(rng.randrange(carets + 1) for _ in range(roots - 1))
    sizes = []
    prev = 0
    for c in cuts:
        sizes.append(c - prev)
        prev = c
    sizes.append(carets - prev)
    return tuple(random_tree(rng, colours, s) for s in sizes)
