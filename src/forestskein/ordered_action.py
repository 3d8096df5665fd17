"""The canonical totally ordered set of tree-with-leaf classes and its action.

A point is a class [t, j] of a tree with a distinguished leaf, modulo
growth: (t, j) ~ (t . f, j^f) where j^f is the first leaf of the j-th block
of f.  Points are stored in normal form: on complemented complete
presentations the least point-equal representative, found by pruning carets
away from the distinguished leaf and an exact scan; elsewhere the least one
reachable by pruning and rewriting inside the congruence class.  Comparison
grows two points onto a common tree and compares leaf indices; the result
is growth-invariant.

Group elements with a permutation layer act on points.  Permutations are
stored bottom-to-top: perm[i] is the strand position above slot i+1.  The
defining case is act((s, pi, t), [t, j]) = [s, pi(j)]; the general case
grows the triple by f along t, to (s . f^tau, (tau^f)^-1, t . f) with
tau = pi^-1 and the block exchange `zappa_szep`, and composes only the
trees it reads.  Products compose the permutation parts as functions,
making `act` a left action.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .config import FRACTION_BOUND, OracleBudget
from .forest import (
    LEAF,
    Forest,
    Tree,
    caret_count,
    compose,
    leaf_count,
    leaf_starts,
    prunable_carets,
    prune_ends_in_key_order,
    random_tree,
    render_tree,
    strip_caret,
    tree_key,
)
from .presentation import SkeinPresentation, per_presentation
from . import fractions, oracle

Perm = tuple


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def rotation(n: int, k: int) -> Perm:
    """i -> i + k (mod n), as a bottom-to-top strand map."""
    return tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))


def is_rotation(perm: Perm) -> bool:
    n = len(perm)
    k = perm[0] - 1
    return all(perm[i] == (i + k) % n + 1 for i in range(n))


def compose_perms(alpha: Perm, beta: Perm) -> Perm:
    """(alpha . beta)(i) = alpha(beta(i)) — apply beta first."""
    return tuple(alpha[b - 1] for b in beta)


def invert_perm(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for i, v in enumerate(perm, start=1):
        out[v - 1] = i
    return tuple(out)


def leaf_image(f: Forest, j: int) -> int:
    """j^f: the first leaf of the j-th block after growing by f."""
    starts = leaf_starts(f)
    return starts[j - 1] + 1


def zappa_szep(perm: Perm, f: Forest) -> tuple:
    """(f^tau, tau^f) with tau . f = f^tau . tau^f as diagrams.

    f^tau lists the trees of f in permuted order, (f^tau)_i = f_{tau(i)};
    tau^f is the induced block bijection sending the leaves of (f^tau)_i
    order-preservingly onto the leaves of block tau(i) of f.
    """
    n = len(f)
    if len(perm) != n:
        raise ValueError(f"permutation on {len(perm)} strands against {n} roots")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("not a bijection")
    bounds, out = list(itertools.accumulate(map(leaf_count, f), initial=0)), []
    for b in perm:      # the leaves of block b of f, in the order of f^tau
        out.extend(range(bounds[b - 1] + 1, bounds[b] + 1))
    return tuple(f[b - 1] for b in perm), tuple(out)


# ---------------------------------------------------------------------------
# Points

@dataclass(frozen=True)
class OrderedPoint:
    tree: Tree
    leaf: int
    presentation: SkeinPresentation

    def render(self) -> str:
        return f"{render_tree(self.tree)}:{self.leaf}"


def raw_points_equal(p: SkeinPresentation, a: tuple, b: tuple,
                     bound: int | None = None) -> Optional[bool]:
    """Equality of raw (tree, leaf) pairs as points: `compare` on the pairs.

    On complemented complete presentations the witness is the minimal
    common multiple and growth maps are injective on leaf indices, so index
    agreement there decides equality exactly.  It takes raw pairs for callers
    that hold no normalized points, such as the forced-point gate of
    perfbench's query workload.
    """
    c = compare(OrderedPoint(*a, p), OrderedPoint(*b, p), bound)
    return None if c is None else c == "EQ"


_EXACT_SCAN_CAP = 6
_POINT_SET_DRAWS = 5000      # draws in a row without a new point before `random_point_set` gives up


def prune_point(t: Tree, j: int) -> tuple:
    """The end (tree, leaf) of every prune chain from (t, j), in one walk.

    A prune strips a caret of two leaves unless its right leaf is j.  At the
    end every subtree off the path to leaf j is a leaf, a path caret that
    goes left shrinks when its left subtree did, and one that goes right
    stays, so the leaf is 1 + the right turns.  The end is unique, because
    distinct strips commute (see `oracle.descend`).
    """
    start, stack = 1, [(t, None)]     # (node, (colour, went right, parent's link))
    while stack:
        node, up = stack.pop()
        if node is not None:
            stack.append((node[2], (node[0], True, up)))
            stack.append((node[1], (node[0], False, up)))
        elif start == j:
            break
        else:
            start += 1
    else:
        raise ValueError(f"leaf {j} out of range 1..{start - 1}")
    tree, leaf = LEAF, 1
    while up is not None:
        colour, went_right, up = up
        if went_right:
            tree, leaf = (colour, LEAF, tree), leaf + 1
        elif tree is not LEAF:
            tree = (colour, tree, LEAF)
    return tree, leaf


def normalize_point(p: SkeinPresentation, t: Tree, j: int,
                    oracle_budget: OracleBudget | None = None) -> OrderedPoint:
    """The least (canonical word, leaf) representative of the class.

    On complemented complete presentations the point is pruned in one walk
    (`prune_point`), and no congruence class is read.  Without relations
    growth is free, so equal points share their prune end and it is
    returned.  With relations a prune end of at most `_EXACT_SCAN_CAP`
    carets is made canonical by the exact scan (`_least_equal_point`); a
    larger one descends from (t, j) instead, and the scan follows when the
    descent ends within the cap.  So the normal form is canonical there up
    to the cap of 6 carets after pruning; above it, with relations, it is
    the descent's end, which is not always the least equal pair, and
    equality should be checked with `compare`.

    On other presentations pruning and in-class rewriting (`oracle.descend`,
    under `oracle_budget`) shrink the pair and the result is returned:
    descents can miss representatives reachable only through a detour, so
    it is canonical only up to that caveat.
    """
    if not 1 <= j <= leaf_count(t):
        raise ValueError(f"leaf {j} out of range 1..{leaf_count(t)}")
    exact = fractions.route(p) is not None
    if exact:
        pruned, leaf = prune_point(t, j)
        if not p.relations:
            return OrderedPoint(pruned, leaf, p)
        if caret_count(pruned) <= _EXACT_SCAN_CAP:
            return _least_equal_point(p, pruned, leaf)
    rank = p.colour_rank

    def key(state):
        (tree,), leaf = state
        return tree_key(tree, rank), leaf

    def prune(state):
        (tree,), leaf = state
        for pos, _colour in prunable_carets(tree):
            if leaf == pos + 1:
                continue          # the distinguished leaf is the right leaf
            yield (strip_caret(tree, pos),), (leaf if leaf <= pos else leaf - 1)

    (best_t,), best_j = oracle.descend(p, ((t,), j), key, prune, oracle_budget)
    if not exact or caret_count(best_t) > _EXACT_SCAN_CAP:
        return OrderedPoint(best_t, best_j, p)
    return _least_equal_point(p, best_t, best_j)


_points = per_presentation(lambda p: {})     # prune end (tree, leaf) -> its normal form


def _least_equal_point(p: SkeinPresentation, best_t: Tree, best_j: int) -> OrderedPoint:
    """The first pair point-equal to the prune end (best_t, best_j) in
    (carets, key) order, scanned once per presentation and kept in `_points`.

    The least equal pair is a prune end, since pruning keeps the point and
    lowers the caret count, so only the path-shaped candidates of
    `prune_ends_in_key_order` are tested, each at its own leaf.  The
    reversing join decides point equality exactly: each candidate costs one
    reversal, read as the block starts of the Ore witness (f, f2) with
    cand . f ~ best . f2 (`fractions.witness_starts`), and (cand, j') is
    equal when j'^f == best_j^f2.  A candidate whose reversal blocks or runs
    over budget is skipped.
    """
    table = _points(p)
    if (known := table.get((best_t, best_j))) is not None:
        return known
    point = OrderedPoint(best_t, best_j, p)
    for cand, leaf in itertools.chain.from_iterable(
            prune_ends_in_key_order(p.colours, carets)
            for carets in range(caret_count(best_t) + 1)):
        if cand == best_t:
            break
        try:
            starts, best_starts = fractions.witness_starts(p, cand, best_t)
        except fractions.Unresolved:
            continue
        if starts[leaf - 1] == best_starts[best_j - 1]:
            point = OrderedPoint(cand, leaf, p)
            break
    return table.setdefault((best_t, best_j), point)


def random_point(p: SkeinPresentation, rng, max_carets: int) -> OrderedPoint:
    """The point of a random tree with 1..max_carets carets at a random leaf."""
    t = random_tree(rng, p.colours, rng.randrange(1, max_carets + 1))
    return normalize_point(p, t, rng.randrange(1, leaf_count(t) + 1))


def random_point_set(p: SkeinPresentation, rng, k: int, max_carets: int = 4) -> list:
    """k random points, each kept only when it is provably distinct from the others.

    After `_POINT_SET_DRAWS` draws in a row that add no point, on the
    reversing route with max_carets <= `_EXACT_SCAN_CAP` the missing points
    are taken in a seeded order from every point of at most max_carets
    carets (`_all_points`); elsewhere, or when fewer than k points exist,
    it raises ValueError."""
    pts, misses = [], 0
    while len(pts) < k:
        if misses == _POINT_SET_DRAWS:
            if fractions.route(p) is None or max_carets > _EXACT_SCAN_CAP:
                raise ValueError(f"found {len(pts)} of k={k} distinct points with <= {max_carets} "
                                 f"carets; {misses} draws in a row added none")
            every = _all_points(p, max_carets)
            if len(every) < k:
                raise ValueError(f"{p.name or 'the presentation'} has {len(every)} distinct "
                                 f"points with <= {max_carets} carets, fewer than k={k}")
            held = set(pts)
            return pts + rng.sample([x for x in every if x not in held], k - len(pts))
        x = random_point(p, rng, max_carets)
        if all(compare(x, y) in ("LT", "GT") for y in pts):
            pts.append(x)
            misses = 0
        else:
            misses += 1
    return pts


def _all_points(p: SkeinPresentation, max_carets: int) -> list:
    """The distinct points of at most max_carets carets, in the key order of
    the prune ends that first reach them.  Every point prunes to one of
    these prune ends, and the exact scan makes equal points equal pairs, so
    this holds on the reversing route up to `_EXACT_SCAN_CAP` only."""
    return list(dict.fromkeys(
        normalize_point(p, t, j) for carets in range(max_carets + 1)
        for t, j in prune_ends_in_key_order(p.colours, carets)))


def grow_point(p: SkeinPresentation, x: OrderedPoint, f: Forest) -> tuple:
    """Raw grown representative (tree, leaf) of x under f; not normalized."""
    if len(f) != leaf_count(x.tree):
        raise ValueError("growth forest root count must match the leaf count")
    return compose((x.tree,), f)[0], leaf_image(f, x.leaf)


def compare(x: OrderedPoint, y: OrderedPoint, bound: int | None = None) -> Optional[str]:
    """'LT' | 'EQ' | 'GT', or None when no common growth is found in bound.

    The leaf images of x and y on the common tree are read off the block
    starts of the Ore witness (`fractions.witness_starts`)."""
    if x.presentation != y.presentation:
        raise ValueError("points live over different presentations")
    try:
        f, f2 = fractions.witness_starts(x.presentation, x.tree, y.tree, bound)
    except fractions.Unresolved:
        return None
    a, b = f[x.leaf - 1], f2[y.leaf - 1]
    return "LT" if a < b else "GT" if a > b else "EQ"


# ---------------------------------------------------------------------------
# Elements with a permutation layer

@dataclass(frozen=True)
class PermutationElement:
    numerator: Tree
    perm: Perm
    denominator: Tree
    presentation: SkeinPresentation

    def __post_init__(self):
        n = leaf_count(self.numerator)
        if leaf_count(self.denominator) != n or len(self.perm) != n:
            raise ValueError("leaf counts and permutation width must agree")
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("not a bijection")

    @property
    def flavour(self) -> str:
        if self.perm == identity_perm(len(self.perm)):
            return "F"
        return "T" if is_rotation(self.perm) else "V"

    def render(self) -> str:
        return (f"[{render_tree(self.numerator)} ; "
                f"({','.join(map(str, self.perm))}) ; "
                f"{render_tree(self.denominator)}]")


def from_fraction(g: fractions.GroupElement) -> PermutationElement:
    return PermutationElement(
        g.numerator, identity_perm(leaf_count(g.numerator)),
        g.denominator, g.presentation)


def perm_invert(g: PermutationElement) -> PermutationElement:
    return PermutationElement(g.denominator, invert_perm(g.perm),
                              g.numerator, g.presentation)


def perm_multiply(g: PermutationElement, h: PermutationElement,
                  bound: int | None = None) -> PermutationElement:
    """g . h, applying h first; permutation parts compose as functions.  Only
    g's grown numerator and h's grown denominator are composed."""
    if g.presentation != h.presentation:
        raise ValueError("elements live over different presentations")
    p, q = fractions.common_multiple_witness(
        g.presentation, g.denominator, h.numerator, bound)
    shuffled, g_map = zappa_szep(invert_perm(g.perm), p)
    # grow h's numerator by q: pick f with its shuffle equal to q
    f = tuple(q[h.perm[j] - 1] for j in range(len(q)))
    _, h_map = zappa_szep(invert_perm(h.perm), f)
    return PermutationElement(
        compose((g.numerator,), shuffled)[0],
        compose_perms(invert_perm(g_map), invert_perm(h_map)),
        compose((h.denominator,), f)[0],
        g.presentation,
    )


def act(g: PermutationElement, x: OrderedPoint,
        bound: int | None = None) -> OrderedPoint:
    """Left action on points: act((s, pi, t), [t, j]) = [s, pi(j)], extended
    by growing the triple along an Ore witness; only the grown numerator is
    composed.  Raises Unresolved when no witness fits the bound."""
    if g.presentation != x.presentation:
        raise ValueError("element and point live over different presentations")
    p, p2 = fractions.common_multiple_witness(
        g.presentation, x.tree, g.denominator, bound)
    shuffled, block_map = zappa_szep(invert_perm(g.perm), p2)
    numerator_leaf = block_map.index(leaf_image(p, x.leaf)) + 1
    return normalize_point(g.presentation, compose((g.numerator,), shuffled)[0], numerator_leaf)


# ---------------------------------------------------------------------------
# Flavour evidence

@dataclass
class FlavourReport:
    exact: str
    samples: int
    order_violations: list       # sampled chains whose image order broke
    cyclic_violations: list      # sampled chains broken even up to rotation
    unresolved: int

    @property
    def violations(self) -> list:
        """Chains contradicting the exact flavour's guarantee."""
        if self.exact == "F":
            return self.order_violations
        if self.exact == "T":
            return self.cyclic_violations
        return []


def flavour_check(g: PermutationElement, rng, sample_bound: int = 20,
                  bound: int | None = None) -> FlavourReport:
    """Exact flavour from the permutation, plus sampled chain evidence.

    Samples ordered chains of points and records which chains break order
    preservation and which break it even up to a cyclic rotation; a chain in
    `violations` refutes the exact flavour's guarantee.
    """
    exact = g.flavour
    order_violations = []
    cyclic_violations = []
    unresolved = 0
    samples = 0
    for _ in range(sample_bound):
        pts = [random_point(g.presentation, rng, 3) for _ in range(3)]
        order = _chain_order(pts, bound)
        if order is None:
            unresolved += 1
            continue
        pts = [pts[i] for i in order]
        try:
            images = [act(g, x, bound) for x in pts]
        except fractions.Unresolved:
            unresolved += 1
            continue
        samples += 1
        order = _chain_order(images, bound)
        if order is None:
            unresolved += 1
            continue
        if order != sorted(order):
            order_violations.append([x.render() for x in pts])
            if not is_rotation(tuple(i + 1 for i in order)):     # not a cyclic shift
                cyclic_violations.append([x.render() for x in pts])
    return FlavourReport(exact, samples, order_violations,
                         cyclic_violations, unresolved)


def _chain_order(pts, bound):
    """Rank order of the points; None when a comparison is unresolved.

    Each pair is compared once; the order is antisymmetric, so the reverse
    comparison is the negated one.
    """
    sign = {"LT": -1, "EQ": 0, "GT": 1}
    table = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            c = compare(pts[i], pts[j], bound)
            if c is None:
                return None
            table[i, j], table[j, i] = sign[c], -sign[c]
    return sorted(range(len(pts)), key=functools.cmp_to_key(
        lambda a, b: table.get((a, b), 0)))


# ---------------------------------------------------------------------------
# Transitivity and stabilizers

def co_represent(pts, bound: int | None = None) -> tuple:
    """Grow a list of distinct points onto one tree: (tree, marks)."""
    p = pts[0].presentation
    z, marks = pts[0].tree, [pts[0].leaf]
    for x in pts[1:]:
        f, f2 = fractions.common_multiple_witness(p, z, x.tree, bound)
        starts = leaf_starts(f)
        marks = [starts[m - 1] + 1 for m in marks]
        z = compose((z,), f)[0]
        marks.append(leaf_image(f2, x.leaf))
    if len(set(marks)) != len(marks):
        raise ValueError("points are not pairwise distinct")
    return z, marks


def _pad_at(p, z: Tree, marks: list, slot: int, extra_leaves: int) -> tuple:
    """Grow z by a vine at leaf `slot`, shifting marks past it."""
    vine = fractions.right_vine(p, p.colours[0], extra_leaves + 1)
    f = tuple(vine if i == slot - 1 else None for i in range(leaf_count(z)))
    new_marks = [m if m <= slot else m + extra_leaves for m in marks]
    return compose((z,), f)[0], new_marks


def transitivity_witness(A, B, bound: int | None = None):
    """A cyclic-flavour element g with g . A = B, verified by act, or None.

    Both sets are co-represented, rotated so their least points sit on leaf
    one, and padded with vines in one pass, mark by mark and then at the
    last leaf, until the mark patterns agree; `bound` or more pads give None.
    The witness is the composite of the two rotations around the middle
    fraction.
    """
    bound = FRACTION_BOUND if bound is None else bound
    if len(A) != len(B) or not A:
        raise ValueError("need equal-size nonempty point sets")
    p = A[0].presentation
    try:
        zA, marksA = co_represent(A, bound)
        zB, marksB = co_represent(B, bound)
        marksA.sort()
        marksB.sort()
        nA, nB = leaf_count(zA), leaf_count(zB)
        rA, rB = rotation(nA, 1 - marksA[0]), rotation(nB, 1 - marksB[0])
        cA, cB = PermutationElement(zA, rA, zA, p), PermutationElement(zB, rB, zB, p)
        marksA = sorted(rA[m - 1] for m in marksA)
        marksB = sorted(rB[m - 1] for m in marksB)
        pads = 0        # a pad at mark q leaves the marks before q in place
        for q in range(1, len(marksA)):
            delta = marksB[q] - marksA[q]
            if delta > 0:
                zA, marksA = _pad_at(p, zA, marksA, marksA[q] - 1, delta)
            elif delta < 0:
                zB, marksB = _pad_at(p, zB, marksB, marksB[q] - 1, -delta)
            pads += delta != 0
        nA, nB = leaf_count(zA), leaf_count(zB)
        if nA < nB:
            zA, marksA = _pad_at(p, zA, marksA, nA, nB - nA)
        elif nB < nA:
            zB, marksB = _pad_at(p, zB, marksB, nB, nA - nB)
        if pads + (nA != nB) >= bound:
            return None
        middle = PermutationElement(zB, identity_perm(leaf_count(zA)), zA, p)
        g = perm_multiply(perm_invert(cB), perm_multiply(middle, cA, bound), bound)
    except fractions.Unresolved:
        return None
    image = set()
    for x in A:
        y = act(g, x, bound)
        image.add((y.tree, y.leaf))
    if image != {(y.tree, y.leaf) for y in B}:
        return None
    return g


@dataclass
class StabilizerDescription:
    tree: Tree
    k: int
    cyclic: PermutationElement
    presentation: SkeinPresentation

    def points(self) -> list:
        return [normalize_point(self.presentation, self.tree, j)
                for j in range(1, self.k + 1)]


def stabilizer_generators(p: SkeinPresentation, t: Tree) -> StabilizerDescription:
    """Stabilizer data for the point set {[t, 1], ..., [t, k]}, k = leaves of t.

    Fixing elements are t.f.(t.h)^-1 with the leaf profiles of f and h equal
    slot by slot; the cyclic part is t . rho . t^-1 with rho the rotation by
    one.  Use `sample_fixer` for verified random fixing elements.
    """
    k = leaf_count(t)
    cyclic = PermutationElement(t, rotation(k, 1), t, p)
    return StabilizerDescription(t, k, cyclic, p)


def make_fixer(p: SkeinPresentation, t: Tree, f: Forest, h: Forest) -> PermutationElement:
    """t.f.(t.h)^-1 as a plain element; rejects mismatched leaf profiles."""
    if len(f) != leaf_count(t) or len(h) != leaf_count(t):
        raise ValueError("forests must have one tree per leaf of t")
    profile_f = [leaf_count(x) for x in f]
    profile_h = [leaf_count(x) for x in h]
    if profile_f != profile_h:
        raise ValueError(f"leaf profiles differ: {profile_f} vs {profile_h}")
    return from_fraction(fractions.GroupElement(
        compose((t,), f)[0], compose((t,), h)[0], p))


def sample_fixer(p: SkeinPresentation, t: Tree, rng,
                 max_carets: int = 2) -> PermutationElement:
    k = leaf_count(t)
    f, h = [], []
    for _ in range(k):
        leaves = rng.randrange(1, max_carets + 2)
        f.append(random_tree(rng, p.colours, leaves - 1))
        h.append(random_tree(rng, p.colours, leaves - 1))
    return make_fixer(p, t, tuple(f), tuple(h))
