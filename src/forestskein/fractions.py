"""Fraction-group arithmetic: pairs [t, s] of equal-arity trees modulo common growth.

Multiplication needs Ore witnesses: forests p, p' growing two trees into a
common congruence class, from one of two strategies, picked by `route(p)`:

  * reversing, when the presentation is complemented and complete — the
    complement (s\\s', s'\\s) is a witness pair and equality of trees is
    decided by reversing a quotient word to the empty word;
  * the congruence oracle, by reading the classes of the extensions of one
    tree, level by level, until the other tree divides one.  Exact but
    bounded; the two strategies are cross-checked in the test suite.

Witness searches are semidecidable, so a bound exhaustion surfaces as the
`Unresolved` exception rather than a false answer.

On the reversing route every witness is the complement pair of one
reversal (`reversing.complement_codes`), kept as code words: the two
witness forests are decoded from codes, and `witness_starts` reads their
block starts without building them.  Words in the vine generators
b_j, b^_j keep the numerator and denominator as code words (`_word_codes`),
one reversal per letter.  The identity of such a word (`word_is_identity`,
behind relator evaluation) and `equals` compare canonical code words
(`rules.canonical`, `reversing.codes_equal`) and build no tree.  On the
oracle route each letter is multiplied in as a pair of trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import FRACTION_BOUND, OracleBudget
from .forest import (
    LEAF,
    Tree,
    caret_count,
    compose,
    forest_from_word,
    leaf_count,
    leaf_starts,
    prunable_carets,
    render_tree,
    strip_caret,
    tree_from_word,
    tree_key,
    word_from_tree,
)
from .presentation import SkeinPresentation, is_complemented, per_presentation
from . import oracle, reversing


class Unresolved(RuntimeError):
    """A witness search exhausted its bound; not a mathematical verdict."""


@dataclass(frozen=True)
class GroupElement:
    numerator: Tree
    denominator: Tree
    presentation: SkeinPresentation

    def __post_init__(self):
        if leaf_count(self.numerator) != leaf_count(self.denominator):
            raise ValueError("fraction sides must have equal leaf counts")

    def render(self) -> str:
        return f"[{render_tree(self.numerator)} ; {render_tree(self.denominator)}]"

    @property
    def carets(self) -> int:
        return caret_count(self.numerator)


def identity(p: SkeinPresentation) -> GroupElement:
    return GroupElement(LEAF, LEAF, p)


def invert(g: GroupElement) -> GroupElement:
    return GroupElement(g.denominator, g.numerator, g.presentation)


@per_presentation
def route(p: SkeinPresentation):
    """The reversing rules of p when it is complemented and complete, else None (oracle)."""
    complete = is_complemented(p) and reversing.is_complete(p).verdict == "complete"
    return reversing.rules_of(p) if complete else None


def trees_equivalent(p: SkeinPresentation, t: Tree, s: Tree,
                     bound: int | None = None) -> bool:
    """Whether t ~ s, or raise Unresolved when the budget or the bound runs out."""
    if leaf_count(t) != leaf_count(s):
        return False
    u, v = word_from_tree(t), word_from_tree(s)    # iterative, unlike tuple ==
    if u == v:
        return True
    rules = route(p)
    if rules is not None:
        return _codes_equivalent(rules, rules.codes(u), rules.codes(v))
    bound = FRACTION_BOUND if bound is None else bound
    if caret_count(t) > bound:
        raise Unresolved(f"trees with {caret_count(t)} carets exceed the oracle bound {bound}")
    try:
        return oracle.equivalent(p, (t,), (s,))
    except oracle.BudgetExceeded as e:
        raise Unresolved(f"tree equivalence check exceeded the oracle budget: {e}")


def _codes_equivalent(rules, u, v) -> bool:
    """Whether the trees of canonical code words u, v are congruent, or raise
    Unresolved."""
    ans = reversing.codes_equal(rules, u, v)
    if ans == "unknown":
        raise Unresolved("tree equivalence check exceeded the reversing budget")
    return ans == "yes"


def _tree_codes(rules, t: Tree) -> list:
    """The code word of the canonical word of t."""
    return rules.codes(word_from_tree(t))


def _witness_codes(rules, u, v) -> tuple:
    """(u\\v, v\\u) for code words u, v from the one reversal of u^-1 v, or
    raise Unresolved."""
    status, left, right = reversing.complement_codes(rules, u, v)
    if left is not None:
        return left, right
    if status == "blocked":
        raise Unresolved("no common multiple: reversal blocked (Ore fails here)")
    raise Unresolved("witness reversal exceeded its budget")


def common_multiple_witness(p: SkeinPresentation, t: Tree, s: Tree,
                            bound: int | None = None) -> tuple:
    """Forests (f, f') with t . f ~ s . f', or raise Unresolved."""
    rules = route(p)
    if rules is not None:
        u, v = _witness_codes(rules, _tree_codes(rules, t), _tree_codes(rules, s))
        return (forest_from_word(rules.decode(u), leaf_count(t)),
                forest_from_word(rules.decode(v), leaf_count(s)))
    bound = FRACTION_BOUND if bound is None else bound
    a, b = (t, s) if caret_count(t) >= caret_count(s) else (s, t)
    for k in range(caret_count(a), bound + 1):
        try:
            classes = oracle.multiple_classes(p, (a,), k)
        except oracle.BudgetExceeded:
            break
        for cls in classes:
            if oracle.divide_class((b,), cls) is not None:
                return oracle.divide_class((t,), cls), oracle.divide_class((s,), cls)
    raise Unresolved(f"no common multiple of {render_tree(t)} and {render_tree(s)} "
                     f"within caret bound {bound}")


def witness_starts(p: SkeinPresentation, t: Tree, s: Tree,
                   bound: int | None = None) -> tuple:
    """`leaf_starts` of both forests of `common_multiple_witness(p, t, s, bound)`,
    or raise Unresolved.  On the reversing route they are read off the
    complement code words of the trees' codes (`rules.trees`), and no forest
    is built."""
    rules = route(p)
    if rules is not None:
        u, v = rules.trees[t], rules.trees[s]
        left, right = _witness_codes(rules, u, v)
        return rules.block_starts(left, len(u) + 1), rules.block_starts(right, len(v) + 1)
    return tuple(map(leaf_starts, common_multiple_witness(p, t, s, bound)))


def multiply(g: GroupElement, h: GroupElement, bound: int | None = None) -> GroupElement:
    if g.presentation is not h.presentation and g.presentation != h.presentation:
        raise ValueError("elements live over different presentations")
    f, f2 = common_multiple_witness(g.presentation, g.denominator, h.numerator, bound)
    return GroupElement(
        compose((g.numerator,), f)[0],
        compose((h.denominator,), f2)[0],
        g.presentation,
    )


def equals(g: GroupElement, h: GroupElement, bound: int | None = None):
    """True / False / None(unknown) under fraction equivalence: both numerators
    grown by the witness of the denominators compare equal.  With reversing, a
    grown numerator is its tree's code word followed by a complement, and no
    forest is decoded or composed."""
    if g.presentation != h.presentation:
        raise ValueError("elements live over different presentations")
    p = g.presentation
    rules = route(p)
    try:
        if rules is not None:
            left, right = _witness_codes(rules, _tree_codes(rules, g.denominator),
                                         _tree_codes(rules, h.denominator))
            return _codes_equivalent(rules, rules.canonical(_tree_codes(rules, g.numerator) + left),
                                     rules.canonical(_tree_codes(rules, h.numerator) + right))
        f, f2 = common_multiple_witness(p, g.denominator, h.denominator, bound)
        num_g = compose((g.numerator,), f)[0]
        num_h = compose((h.numerator,), f2)[0]
        return trees_equivalent(p, num_g, num_h, bound)
    except Unresolved:
        return None


def is_identity(g: GroupElement, bound: int | None = None):
    try:
        return trees_equivalent(g.presentation, g.numerator, g.denominator, bound)
    except Unresolved:
        return None


# ---------------------------------------------------------------------------
# Normal form: the least pair reachable by stripping common carets and
# rewriting either side inside its congruence class.

def normal_form(g: GroupElement, bound: int | None = None,
                oracle_budget: OracleBudget | None = None) -> GroupElement:
    """Minimal-caret representative pair; ties broken by canonical word order.

    The least (carets, numerator word, denominator word) pair found by
    `oracle.descend`.  Classes in strata over the oracle budget fall back to
    structural stripping only, in which case the result may not be globally
    minimal.
    `bound` is not read; it is kept so that positional calls keep working.
    """
    p = g.presentation
    rank = p.colour_rank

    def key(state):
        (t, s), _ = state
        return tree_key(t, rank), tree_key(s, rank)

    def prune(state):
        (t, s), _ = state
        strip_t = dict(prunable_carets(t))
        for pos, colour in prunable_carets(s):
            if strip_t.get(pos) == colour:
                yield (strip_caret(t, pos), strip_caret(s, pos)), None

    (t, s), _ = oracle.descend(p, ((g.numerator, g.denominator), None), key, prune,
                               oracle_budget)
    return GroupElement(t, s, p)


# ---------------------------------------------------------------------------
# The vine-based evaluation of group-presentation words.

def right_vine(p: SkeinPresentation, colour: str, leaves: int) -> Tree:
    """t_n = a_{1,1} a_{2,2} ... a_{n-1,n-1}, the right vine with `leaves` leaves."""
    return tree_from_word([(colour, n) for n in range(1, leaves)])


def _generator_words(base_colour: str, colour: str, index: int, hatted: bool) -> tuple:
    """Tree words of `generator_element`: the denominator is the vine t_top, the
    numerator t_{top-1} with a `colour` caret at leaf j (top = j + 1 when hatted)."""
    den = tuple((base_colour, n) for n in range(1, index + (1 if hatted else 2)))
    return den[:-1] + ((colour, index),), den


def generator_element(p: SkeinPresentation, base_colour: str, colour: str,
                      index: int, hatted: bool) -> GroupElement:
    """b_j -> [t_{j+1} b_{j,j+1}, t_{j+2}];  b^_j -> [t_j b_{j,j}, t_{j+1}]."""
    num, den = _generator_words(base_colour, colour, index, hatted)
    return GroupElement(tree_from_word(num), tree_from_word(den), p)


def _word_codes(rules, letters, base_colour: str) -> tuple:
    """The numerator and denominator code words of a signed vine-generator word.

    A letter [n, d] costs one reversal of D^-1 n, D the denominator so far,
    whose complements extend the numerator and d.  Each generator is coded
    once per call; raise Unresolved at the first letter whose reversal does
    not terminate.
    """
    gens, num, den = {}, [], []
    for colour, index, hatted, sign in letters:
        pair = gens.get((colour, index, hatted))
        if pair is None:
            if colour not in rules.rank:
                raise ValueError(f"unknown colour {colour!r}")
            pair = gens[colour, index, hatted] = tuple(
                map(rules.codes, _generator_words(base_colour, colour, index, hatted)))
        n, d = pair[::-1] if sign < 0 else pair
        left, right = _witness_codes(rules, den, n)
        num, den = num + left, d + right
    return num, den


def word_to_element(letters, base_colour: str, p: SkeinPresentation,
                    bound: int | None = None) -> GroupElement:
    """Evaluate a signed word of (colour, index, hatted, sign) letters in G.

    With reversing, both trees are decoded from the code words of
    `_word_codes`.  Otherwise each letter is multiplied in as a pair of trees.
    """
    rules = route(p)
    if rules is not None:
        return GroupElement(*(tree_from_word(rules.decode(w))
                              for w in _word_codes(rules, letters, base_colour)), p)
    out = identity(p)
    for colour, index, hatted, sign in letters:
        if colour not in p.colours:
            raise ValueError(f"unknown colour {colour!r}")
        e = generator_element(p, base_colour, colour, index, hatted)
        out = multiply(out, invert(e) if sign < 0 else e, bound)
    return out


def word_is_identity(letters, base_colour: str, p: SkeinPresentation,
                     bound: int | None = None):
    """`is_identity(word_to_element(letters, base_colour, p, bound), bound)`:
    True, False, or None when the comparison is unresolved; a letter whose
    witness is unresolved raises Unresolved.  With reversing, the canonical
    code words of the numerator and the denominator are compared, and no tree
    is built."""
    rules = route(p)
    if rules is None:
        return is_identity(word_to_element(letters, base_colour, p, bound), bound)
    num, den = _word_codes(rules, letters, base_colour)
    try:
        return _codes_equivalent(rules, rules.canonical(num), rules.canonical(den))
    except Unresolved:
        return None
