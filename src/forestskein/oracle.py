"""Exact bounded decision procedures on finite congruence classes.

Every skein relation has equal leaf counts on both sides, so rewriting
preserves (root count, caret count) and every congruence class is finite.

`class_members` is the only reader of one congruence class: equivalence,
class order, the spine's monochromatic representatives and `descend`
(behind both normal forms) go through it.  It searches the class from the
forest by `_neighbours`, one walk per tree that rewrites, at each vertex,
the relation sides rooted in its colour, and memoizes the sorted class as
one list shared by its members.  `multiple_classes` reads the classes of
the multiples x . g of x at one caret level, once per (x, k), for mcm,
absorption and fraction witnesses; the Ore and left-cancellativity checks
read them unsorted and compare the shared lists by identity.

`saturate` enumerates a whole stratum and joins each forest to its
`_neighbours` by a union-find.  Its tables are the ground truth of the
tests and the benchmark sweep only, against which the reversing engine and
the class search are checked.

All of them refuse a read by the closed-form size of the stratum (`_admit`),
so one budget governs a class and the stratum that holds it.

Absent/no-failure answers here are evidence up to the stated bound, never
proofs; callers must carry the bound along with the verdict.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from .config import OracleBudget
from .forest import (
    LEAF,
    Forest,
    Tree,
    caret,
    caret_count,
    _hanging,
    _matches_prefix,
    _replace_at,
    compose,
    divide,
    forest_caret_count,
    forest_count,
    forest_key,
    forest_leaf_count,
    forests_with_carets,
    graft,
    render_forest,
)
from .presentation import SkeinPresentation, per_presentation


class BudgetExceeded(RuntimeError):
    """A stratum is larger than the configured budget allows."""


@dataclass
class CongruenceTable:
    class_of: dict = field(repr=False)          # forest -> class id
    classes: list = field(repr=False)           # class id -> sorted member list

    def class_id(self, f: Forest) -> int:
        return self.class_of[f]


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


_tables_lock = threading.Lock()
_strata = per_presentation(lambda p: {})        # (roots, carets) -> CongruenceTable
_class_memo = per_presentation(lambda p: {})    # forest -> its sorted class, shared by all members
_multiples_memo = per_presentation(lambda p: {})    # (x, k) -> multiple_classes(p, x, k)
# root colour -> the rewrites (u, u2), both directions, whose side u is rooted in it
_sides = per_presentation(lambda p: {
    c: [(u, u2) for l, r in p.relations for u, u2 in ((l, r), (r, l)) if u[0] == c]
    for c in p.colours})


def _admit(p: SkeinPresentation, roots: int, carets: int, budget: OracleBudget) -> None:
    """Refuse the stratum (roots, <= carets) over budget; its size is known in
    closed form, so nothing is enumerated or cached first."""
    if carets > budget.caret_cap:
        raise BudgetExceeded(
            f"caret bound {carets} exceeds the oracle budget {budget.caret_cap}")
    if sum(forest_count(p.colours, roots, k) for k in range(carets + 1)) > budget.class_cap:
        raise BudgetExceeded(
            f"stratum ({roots} roots, <= {carets} carets) exceeds "
            f"{budget.class_cap} forests")


def _neighbours(p: SkeinPresentation, f: Forest):
    """The forests one rewrite from f, in one walk over its trees: at each
    vertex, every side rooted in its colour that matches there is rewritten."""
    sides = _sides(p)
    for i, t in enumerate(f):
        stack = [(t, ())]
        while stack:
            node, path = stack.pop()
            if node is None:
                continue
            for u, u2 in sides.get(node[0], ()):
                if _matches_prefix(node, u):
                    subs: list = []
                    _hanging(node, u, subs)
                    yield f[:i] + (_replace_at(t, path, graft(u2, subs)[0]),) + f[i + 1:]
            stack += ((node[2], path + (1,)), (node[1], path + (0,)))


def saturate(p: SkeinPresentation, roots: int, carets: int,
             budget: OracleBudget | None = None) -> CongruenceTable:
    """Congruence table for the stratum (roots, <= carets).  Memoized, thread-safe."""
    _admit(p, roots, carets, budget or OracleBudget())
    with _tables_lock:
        tables = _strata(p)
        table = tables.get((roots, carets))
        if table is None:
            table = tables[roots, carets] = _build(p, roots, carets)
        return table


def _build(p: SkeinPresentation, roots: int, carets: int) -> CongruenceTable:
    all_forests = [f for k in range(carets + 1)
                   for f in forests_with_carets(p.colours, roots, k)]
    index = {f: i for i, f in enumerate(all_forests)}
    uf = _UnionFind(len(all_forests))
    for f in all_forests:
        i = index[f]
        for g in _neighbours(p, f):
            uf.union(i, index[g])
    rank = p.colour_rank
    groups: dict = {}
    for f in all_forests:
        groups.setdefault(uf.find(index[f]), []).append(f)
    members = sorted(
        (sorted(g, key=lambda x: forest_key(x, rank)) for g in groups.values()),
        key=lambda g: forest_key(g[0], rank),
    )
    class_of = {f: cid for cid, g in enumerate(members) for f in g}
    return CongruenceTable(class_of=class_of, classes=members)


def equivalent(p: SkeinPresentation, f: Forest, g: Forest) -> bool:
    if len(f) != len(g) or forest_leaf_count(f) != forest_leaf_count(g):
        return False
    return f == g or g in class_members(p, f)


def class_members(p: SkeinPresentation, f: Forest,
                  budget: OracleBudget | None = None) -> list:
    """The members of f's congruence class, canonical member first; may raise BudgetExceeded.

    Admitted like the stratum that holds the class, then searched from f
    itself: the relations rewrite in both directions, so the search closes
    the class exactly, and `forest_key` (injective) orders it as the table does.
    """
    _admit(p, len(f), forest_caret_count(f), budget or OracleBudget())
    return _search_class(p, f)


def _search_class(p: SkeinPresentation, f: Forest) -> list:
    memo = _class_memo(p)
    cached = memo.get(f)
    if cached is not None:
        return cached
    seen, stack = {f}, [f]
    while stack:
        for h in _neighbours(p, stack.pop()):
            if h not in seen:
                seen.add(h)
                stack.append(h)
    rank = p.colour_rank
    members = sorted(seen, key=lambda x: forest_key(x, rank))
    for member in members:
        memo[member] = members
    return members


def multiple_classes(p: SkeinPresentation, x: Forest, k: int) -> list:
    """The classes with exactly k carets that x divides, in table order; may raise BudgetExceeded.

    Admitted like the stratum (len(x), <= k), then read once per (x, k)."""
    _admit(p, len(x), k, OracleBudget())
    memo = _multiples_memo(p)
    if (x, k) not in memo:
        memo[x, k] = sorted(_multiples(p, x, k), key=lambda c: forest_key(c[0], p.colour_rank))
    return memo[x, k]


def _multiples(p: SkeinPresentation, x: Forest, k: int) -> list:
    """The classes of `multiple_classes`, unordered and read afresh.  A member
    x . g has g among the forests with x's leaves as roots and the remaining
    carets, so the class of each x . g is read and no stratum is built."""
    classes, seen = [], set()
    for g in forests_with_carets(p.colours, forest_leaf_count(x), k - forest_caret_count(x)):
        xg = compose(x, g)
        if xg not in seen:
            members = _search_class(p, xg)
            seen.update(members)
            classes.append(members)
    return classes


def divide_class(f: Forest, members) -> Forest | None:
    """A forest h with compose(f, h) among `members` (first in order), or None."""
    for member in members:
        h = divide(f, member)
        if h is not None:
            return h
    return None


def class_leq(p: SkeinPresentation, f: Forest, g: Forest):
    """A forest h with compose(f, h) ~ g, or None.  Requires equal root counts."""
    if len(f) != len(g) or forest_caret_count(f) > forest_caret_count(g):
        return None
    return divide_class(f, class_members(p, g))


def descend(p: SkeinPresentation, start: tuple, key, prune,
            budget: OracleBudget | None = None) -> tuple:
    """The least state by `key` reachable from `start` by pruning and in-class rewriting.

    A state is (trees, tag): rewriting replaces the trees by any combination
    of their class members and keeps the tag; `prune(state)` yields the
    caret-stripping moves.  A state shares its combinations with each of them,
    so the first popped expands them all, and each is keyed and pruned once.
    Over budget, only pruning moves are taken and the result may miss
    representatives behind a rewrite.  Without relations, one prune chain is
    followed: its end is the least state when `key` starts with the caret
    count and pruning is confluent, as in both callers (distinct prunable
    carets are disjoint and commute, and a strip the distinguished leaf forbids
    stays forbidden after any other strip).
    """
    if not p.relations:
        while (nxt := next(prune(start), None)) is not None:
            start = nxt
        return start
    expanded, frontier = set(), [start]
    while frontier:
        state = frontier.pop()
        if state in expanded:
            continue
        trees, tag = state
        try:
            variants = [(combo, tag) for combo in itertools.product(
                *([m[0] for m in class_members(p, (t,), budget)] for t in trees))]
        except BudgetExceeded:
            variants = [state]
        expanded.update(variants)
        for variant in variants:
            frontier.extend(prune(variant))
    return min(expanded, key=key)


@dataclass(frozen=True)
class LcCounterexample:
    f: Forest
    g: Forest
    h: Forest

    def render(self) -> dict:
        return {
            "f": render_forest(self.f),
            "g": render_forest(self.g),
            "h": render_forest(self.h),
        }


def refute_left_cancellative(p: SkeinPresentation, caret_bound: int):
    """Search for Y_c . g ~ Y_c . h with g !~ h; None means none at this bound.

    Left multiplication by single carets suffices: a category is
    left-cancellative iff every 2-leaf tree multiplies injectively.
    """
    for k in range(2, caret_bound + 1):
        try:
            _admit(p, 1, k, OracleBudget())
            two_root = multiple_classes(p, (LEAF, LEAF), k - 1)
        except BudgetExceeded:
            return None
        for c in p.colours:
            yc = (caret(c),)
            composed: dict = {}
            for g in (cls[0] for cls in two_root):
                other = composed.setdefault(id(_search_class(p, compose(yc, g))), g)
                if other is not g:
                    return LcCounterexample(yc, other, g)
    return None


@dataclass
class OreReport:
    pair_bound: int
    search_bound: int
    failures: list                     # pairs of tree representatives with no common bound
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "bounds": {"pair_bound": self.pair_bound,
                       "search_bound": self.search_bound},
            "pairs_checked": self.pairs_checked,
            "failures": [list(pair) for pair in self.failures],
            "verdict": "no-failures-at-bound" if self.ok else "failures",
        }


def check_ore_bounded(p: SkeinPresentation, pair_bound: int, search_bound: int) -> OreReport:
    """Look for a common upper bound for every pair of small trees.

    Each small class representative gets the set of classes up to the search
    bound that it divides; a pair fails when those sets are disjoint.
    """
    if pair_bound > search_bound:
        raise ValueError("pair_bound must be <= search_bound")
    _admit(p, 1, search_bound, OracleBudget())
    reps = [cls[0] for k in range(1, pair_bound + 1)
            for cls in multiple_classes(p, (LEAF,), k)]
    above = [{id(cls) for k in range(forest_caret_count(x), search_bound + 1)
              for cls in _multiples(p, x, k)} for x in reps]
    pairs = list(itertools.combinations(range(len(reps)), 2))
    failures = [(render_forest(reps[i]), render_forest(reps[j]))
                for i, j in pairs if not above[i] & above[j]]
    return OreReport(pair_bound, search_bound, failures, len(pairs))


def mcm_bounded(p: SkeinPresentation, x: Tree, y: Tree, bound: int) -> list:
    """Minimal common upper-bound classes of two trees, within the caret bound.

    Returns canonical representatives, pairwise incomparable.  Minimality is
    absolute for anything at or below the bound; multiples beyond it are
    invisible.
    """
    if equivalent(p, (x,), (y,)):
        raise ValueError("mcm is defined for distinct classes")
    _admit(p, 1, bound, OracleBudget())
    a, b = (x, y) if caret_count(x) >= caret_count(y) else (y, x)
    commons = [cls[0] for k in range(caret_count(a), bound + 1)
               for cls in multiple_classes(p, (a,), k) if divide_class((b,), cls) is not None]
    return [z for z in commons
            if not any(w != z and class_leq(p, w, z) is not None for w in commons)]
