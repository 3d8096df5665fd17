"""Test-side references that share no code with the routines they check.

`stratum` is the ground truth for congruence classes: a union-find over
`forests_with_carets`, joined by `find_occurrences` and `rewrite_at` for each
relation in both directions.  The oracle's class search and `saturate` walk
`forest.neighbours` instead, so a fault in that walk shows against it.

The rest serve the tests only: the class order and bounded minimal common
multiples over the oracle's class reads, signed-word helpers for reversing,
the cube word of the completeness check, the iterates of a tree, and the
tree path of fraction identity and equality on reversing presentations
(`vine_word_trees`, `trees_equal`, `fractions_equal`), which builds and
composes trees and compares their words with `reversing.words_equal`, and
the action by whole grown triples (`grow_triple`, `perm_multiply`, `act`),
which grows and validates both sides of every triple it touches.
"""

import functools
from dataclasses import dataclass

from forestskein import fractions, oracle, ordered_action as oa, reversing
from forestskein.forest import (
    caret_count,
    compose,
    find_occurrences,
    forest_caret_count,
    forest_from_word,
    forest_key,
    forests_with_carets,
    leaf_count,
    leaf_starts,
    parse_word,
    rewrite_at,
    tree_from_word,
    word_from_tree,
)


@dataclass(frozen=True)
class Stratum:
    class_of: dict          # forest -> class id
    classes: list           # class id -> members by forest_key, classes by first member

    def class_id(self, f) -> int:
        return self.class_of[f]


@functools.lru_cache(maxsize=64)
def stratum(p, roots: int, carets: int) -> Stratum:
    """The congruence classes of the forests with `roots` roots and <= `carets` carets."""
    forests = [f for k in range(carets + 1) for f in forests_with_carets(p.colours, roots, k)]
    index = {f: i for i, f in enumerate(forests)}
    parent = list(range(len(forests)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rewrites = [(u, u2) for lhs, rhs in p.relations for u, u2 in ((lhs, rhs), (rhs, lhs))]
    for i, f in enumerate(forests):
        for u, u2 in rewrites:
            for occ in find_occurrences(f, u):
                parent[find(index[rewrite_at(f, occ, u, u2)])] = find(i)
    groups: dict = {}
    for i, f in enumerate(forests):
        groups.setdefault(find(i), []).append(f)
    rank = p.colour_rank
    classes = sorted((sorted(g, key=lambda f: forest_key(f, rank)) for g in groups.values()),
                     key=lambda g: forest_key(g[0], rank))
    return Stratum({f: cid for cid, g in enumerate(classes) for f in g}, classes)


def class_leq(p, f, g):
    """A forest h with compose(f, h) ~ g, or None.  Requires equal root counts."""
    if len(f) != len(g) or forest_caret_count(f) > forest_caret_count(g):
        return None
    return oracle.divide_class(f, oracle.class_members(p, g))


def mcm_bounded(p, x, y, bound: int) -> list:
    """Minimal common upper-bound classes of two trees, within the caret bound.

    Returns canonical representatives, pairwise incomparable.  Minimality is
    absolute for anything at or below the bound; multiples beyond it are
    invisible.
    """
    if oracle.equivalent(p, (x,), (y,)):
        raise ValueError("mcm is defined for distinct classes")
    a, b = (x, y) if caret_count(x) >= caret_count(y) else (y, x)
    commons = [cls[0] for k in range(caret_count(a), bound + 1)
               for cls in oracle.multiple_classes(p, (a,), k)
               if oracle.divide_class((b,), cls) is not None]
    return [z for z in commons
            if not any(w != z and class_leq(p, w, z) is not None for w in commons)]


def parse_signed_word(text: str) -> tuple:
    """Parse `a1 b2^-1 a3` into a signed word."""
    out = []
    for tok in text.split():
        sign = 1
        if tok.endswith("^-1"):
            sign, tok = -1, tok[:-3]
        (c, i), = parse_word(tok)
        out.append((c, i, sign))
    return tuple(out)


def inverse_word(w: tuple) -> tuple:
    return tuple((c, i, -s) for c, i, s in reversed(w))


def complemented_cube_word(p, x: str, y: str, z: str):
    """The word [(x1\\y1)\\(x1\\z1)] \\ [(y1\\x1)\\(y1\\z1)], or None when undefined."""
    u, v = reversing.cube_sides(p, x, y, z)
    if u is None or v is None:
        return None
    res = reversing.complement(p, u, v)
    return None if res is None else res[0]


def iterate_tree(t, depth: int):
    """t_1 = t, t_{k+1} = t_k with a copy of t attached at every leaf."""
    out = t
    for _ in range(depth - 1):
        out = compose((out,), (t,) * leaf_count(out))[0]
    return out


# ---------------------------------------------------------------------------
# The tree path of fraction identity and equality on reversing presentations

def vine_word_trees(p, letters, base: str) -> tuple:
    """The numerator and denominator trees of a word of (colour, index, hatted,
    sign) vine-generator letters: b_j = [t_{j+1} b_{j,j+1}, t_{j+2}] and
    b^_j = [t_j b_{j,j}, t_{j+1}] for the base-colour vines t_n.  Each letter
    costs one reversal of D^-1 n, D the denominator so far, whose complements
    extend the numerator and d; raise `fractions.Unresolved` when it does not
    terminate."""
    rules = reversing.rules_of(p)
    num, den = [], []
    for colour, index, hatted, sign in letters:
        d = [(base, k) for k in range(1, index + (1 if hatted else 2))]
        n = rules.codes(d[:-1] + [(colour, index)])
        d = rules.codes(d)
        if sign < 0:
            n, d = d, n
        status, left, right = reversing.complement_codes(rules, den, n)
        if left is None:
            raise fractions.Unresolved(status)
        num, den = num + left, d + right
    return tuple(tree_from_word(rules.decode(w)) for w in (num, den))


def trees_equal(p, t, s):
    """t ~ s by `reversing.words_equal` on their canonical words; None when
    the reversing budget runs out."""
    if leaf_count(t) != leaf_count(s):
        return False
    ans = reversing.words_equal(p, word_from_tree(t), word_from_tree(s))
    return None if ans == "unknown" else ans == "yes"


def fractions_equal(g, h):
    """[t, s] = [t', s'] by growing both numerators with the complement of the
    denominators and composing; None when a reversal does not settle."""
    p = g.presentation
    rules = reversing.rules_of(p)
    u, v = (rules.codes(word_from_tree(x.denominator)) for x in (g, h))
    _status, left, right = reversing.complement_codes(rules, u, v)
    if left is None:
        return None
    f = forest_from_word(rules.decode(left), leaf_count(g.denominator))
    f2 = forest_from_word(rules.decode(right), leaf_count(h.denominator))
    return trees_equal(p, compose((g.numerator,), f)[0], compose((h.numerator,), f2)[0])


# ---------------------------------------------------------------------------
# The action by whole grown triples

def zappa_szep(perm, f) -> tuple:
    """(f^tau, tau^f) with tau . f = f^tau . tau^f, from the block starts of f."""
    starts, out = leaf_starts(f), []
    for b in perm:
        out.extend(range(starts[b - 1] + 1, starts[b - 1] + leaf_count(f[b - 1]) + 1))
    return tuple(f[b - 1] for b in perm), tuple(out)


def grow_triple(g, f):
    """Grow the denominator by f, shuffling f onto the numerator side."""
    shuffled, block_map = zappa_szep(oa.invert_perm(g.perm), f)
    return oa.PermutationElement(
        compose((g.numerator,), shuffled)[0],
        oa.invert_perm(block_map),
        compose((g.denominator,), f)[0],
        g.presentation,
    )


def perm_multiply(g, h, bound=None):
    """g . h, applying h first, by growing both triples whole."""
    if g.presentation != h.presentation:
        raise ValueError("elements live over different presentations")
    p, q = fractions.common_multiple_witness(
        g.presentation, g.denominator, h.numerator, bound)
    g2 = grow_triple(g, p)
    # grow h's numerator by q: pick f with its shuffle equal to q
    f = tuple(q[h.perm[j] - 1] for j in range(len(q)))
    h2 = grow_triple(h, f)
    return oa.PermutationElement(
        g2.numerator,
        oa.compose_perms(g2.perm, h2.perm),
        h2.denominator,
        g.presentation,
    )


def act(g, x, bound=None):
    """[s, pi(j)] after growing the triple (s, pi, t) whole onto x's tree."""
    if g.presentation != x.presentation:
        raise ValueError("element and point live over different presentations")
    p, p2 = fractions.common_multiple_witness(
        g.presentation, x.tree, g.denominator, bound)
    grown = grow_triple(g, p2)
    j = leaf_starts(p)[x.leaf - 1] + 1
    return oa.normalize_point(g.presentation, grown.numerator, grown.perm[j - 1])
