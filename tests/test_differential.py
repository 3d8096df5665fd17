"""Differential checks between independent engines on generated presentations.

Seeded small presentations (2-3 colours, 1-2 relations of 1-3 carets), the
two partial-cube examples and the corpus are each checked three ways against
the test-side stratum reference (`reference.stratum`), which shares no code
with the oracle:

  * the LC refutation, which reads classes, finds the counterexample that
    the stratum-based refutation below finds;
  * the absorption check reads the classes of the stratum (1, <= bound);
  * reversing never calls inequivalent trees equal, and on a presentation
    certified complete it calls equivalent trees equal.

The bounded Ore check, which compares classes by identity, also gives the
report of a reference that compares canonical members of sorted class reads.
A left-cancellativity "yes" meets no counterexample at the refutation bound,
and vine words evaluate to equal fractions on the reversing and the oracle
route.  On the reversing route, fraction identity and equality on code words
answer as the tree path of `reference` does, `None` and `Unresolved` included.
The action and the product of elements with a permutation layer answer as
the reference's whole grown triples do, on both fraction routes.
"""

import collections
import functools
import itertools
import random

import pytest

from forestskein import (
    corpus, fractions, group_presentation, oracle, ordered_action as oa, ore_spine, reversing,
)
from forestskein.config import (
    ABSORPTION_BOUND,
    LC_REFUTE_BOUND,
    ORE_PAIR_BOUND,
    ORE_SEARCH_BOUND,
)
from forestskein.forest import (
    LEAF,
    caret,
    compose,
    forest_caret_count,
    leaf_count,
    random_forest,
    random_tree,
    render_forest,
    word_from_tree,
)
from forestskein.presentation import SkeinPresentation, parse
import reference
from reference import fractions_equal, stratum, trees_equal, vine_word_trees

PARTIAL_CUBES = {
    "rand33": "colors: a, b, c\nrel: a1 b2 = b1 b1\nrel: a1 = c1\n",
    "rand73": "colors: a, b, c\nrel: a1 c1 b2 = b1 b2 b3\nrel: c1 = b1\n",
}


def _generated(seed: int = 14, count: int = 40) -> dict:
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        colours = ("a", "b", "c")[:rng.choice((2, 3))]
        relations, wanted = [], rng.choice((1, 2))
        while len(relations) < wanted:
            k = rng.randint(1, 3)
            lhs, rhs = (random_tree(rng, colours, k) for _ in range(2))
            if lhs != rhs and {(lhs, rhs), (rhs, lhs)}.isdisjoint(relations):
                relations.append((lhs, rhs))
        name = f"gen{len(out)}"
        out[name] = SkeinPresentation(colours, tuple(relations), name)
    return out


CASES = _generated() | {name: parse(text) for name, text in PARTIAL_CUBES.items()} \
    | {name: corpus.load(name) for name in corpus.names()}


def _reference_refute(p, caret_bound):
    """Bounded LC refutation over whole strata, as it ran before class reads
    (every stratum here is far inside the oracle budget)."""
    for k in range(2, caret_bound + 1):
        two_root, one_root = stratum(p, 2, k - 1), stratum(p, 1, k)
        for c in p.colours:
            yc = (caret(c),)
            composed: dict = {}
            for g in (cls[0] for cls in two_root.classes
                      if forest_caret_count(cls[0]) == k - 1):
                cid = one_root.class_id(compose(yc, g))
                if cid in composed:
                    other = composed[cid]
                    if two_root.class_id(g) != two_root.class_id(other):
                        return oracle.LcCounterexample(yc, other, g)
                else:
                    composed[cid] = g
    return None


@functools.cache
def _refutation(name):
    return oracle.refute_left_cancellative(CASES[name], LC_REFUTE_BOUND)


@pytest.mark.parametrize("name", sorted(CASES))
def test_engines_agree(name):
    p = CASES[name]
    assert _refutation(name) == _reference_refute(p, LC_REFUTE_BOUND)
    small = stratum(p, 1, ABSORPTION_BOUND)
    assert ore_spine._absorption_representatives(p, ABSORPTION_BOUND) == \
        [cls[0][0] for cls in small.classes[1:]]

    complete = reversing.is_complete(p).verdict == "complete"
    rng = random.Random(name)
    pairs = [pair for cls in small.classes for pair in itertools.combinations(cls[:6], 2)]
    pairs += [(rng.choice(level), rng.choice(level)) for level in (
        [f for f in small.class_of if forest_caret_count(f) == k]
        for k in range(1, ABSORPTION_BOUND + 1)) for _ in range(12)]
    for (t,), (s,) in pairs:
        ans = reversing.words_equal(p, word_from_tree(t), word_from_tree(s))
        same = small.class_id((t,)) == small.class_id((s,))
        assert ans != "yes" or same, (t, s)
        if complete:
            assert ans == ("yes" if same else "no"), (t, s)


def _reference_ore(p, pair_bound, search_bound) -> oracle.OreReport:
    """The bounded Ore check on sets of canonical members of sorted class reads,
    as it ran before classes were compared by identity."""
    reps = [cls[0] for k in range(1, pair_bound + 1)
            for cls in oracle.multiple_classes(p, (LEAF,), k)]
    above = [{cls[0] for k in range(forest_caret_count(x), search_bound + 1)
              for cls in oracle.multiple_classes(p, x, k)} for x in reps]
    pairs = list(itertools.combinations(range(len(reps)), 2))
    failures = [(render_forest(reps[i]), render_forest(reps[j]))
                for i, j in pairs if not above[i] & above[j]]
    return oracle.OreReport(pair_bound, search_bound, failures, len(pairs))


# every case at (2, 4) carets, and the corpus at the bounds of `fsk check`
ORE_RUNS = [(name, 2, 4) for name in sorted(CASES)] + \
    [(name, ORE_PAIR_BOUND, ORE_SEARCH_BOUND) for name in corpus.names()]


@pytest.mark.parametrize("name, pair_bound, search_bound", ORE_RUNS)
def test_ore_check_matches_the_canonical_member_reference(name, pair_bound, search_bound):
    p = CASES[name]
    try:
        got = oracle.check_ore_bounded(p, pair_bound, search_bound)
    except oracle.BudgetExceeded:
        got = "over budget"
    try:
        want = _reference_ore(p, pair_bound, search_bound)
    except oracle.BudgetExceeded:
        want = "over budget"
    assert got == want


def test_generated_presentations_include_counterexamples():
    # the mix exercises both answers of the refutation
    refuted = [name for name in CASES if name.startswith("gen") and _refutation(name)]
    assert 5 <= len(refuted) < 40


def test_lc_yes_meets_no_counterexample():
    from test_ore_spine import _families

    presentations = [corpus.load(name) for name in corpus.names()] + _families()
    yes = [p for p in presentations if reversing.decide_left_cancellative(p).verdict == "yes"]
    assert len(yes) > 20
    for p in yes:
        assert oracle.refute_left_cancellative(p, LC_REFUTE_BOUND) is None, p.name


@pytest.mark.parametrize("name", ["cleary", "ternary"])
def test_word_routes_give_equal_fractions(name, monkeypatch):
    # each word on the reversing route and, with `route` read as None, on the
    # oracle route; `equals` on the reversing route compares the two results
    p = corpus.load(name)
    rng = random.Random(name)
    words = [[(rng.choice(p.colours), rng.randint(1, 3), rng.random() < 0.3, rng.choice((1, -1)))
              for _ in range(rng.randint(1, 4))] for _ in range(200)]
    by_reversing = [fractions.word_to_element(w, p.colours[0], p) for w in words]
    by_oracle = []
    with monkeypatch.context() as m:
        m.setattr(fractions, "route", lambda p: None)
        for w in words:
            try:
                by_oracle.append(fractions.word_to_element(w, p.colours[0], p))
            except fractions.Unresolved:
                by_oracle.append(None)
    answers = [fractions.equals(g, h) for g, h in zip(by_reversing, by_oracle) if h is not None]
    assert False not in answers
    assert answers.count(True) >= 0.9 * len(words)


def _reversing_route_presentations() -> list:
    """Every corpus entry on the reversing route and four seeded f_tau families."""
    out = [p for p in map(corpus.load, corpus.names()) if fractions.route(p) is not None]
    rng, families = random.Random(39), []
    while len(families) < 4:
        n, leaves = rng.choice((2, 3)), rng.choice((3, 4))
        tau = {c: random_tree(rng, ("x",), leaves - 1) for c in "abc"[:n]}
        q = ore_spine.build_f_tau(tau, name=f"fam{len(families)}").presentation
        if fractions.route(q) is not None:
            families.append(q)
    return out + families


def _answer(fn, *args):
    try:
        return fn(*args)
    except fractions.Unresolved:
        return "Unresolved"


def _vine_words(rng, p, count) -> list:
    """Seeded signed vine words, hatted letters among them; one letter in ten
    has an index up to 70, past the reversing index ceiling."""
    return [[(rng.choice(p.colours), rng.randint(1, 70) if rng.random() < 0.1 else rng.randint(1, 4),
              rng.random() < 0.3, rng.choice((1, -1))) for _ in range(rng.randint(1, 8))]
            for _ in range(count)]


def test_code_word_identity_is_the_tree_path():
    # every relator of the finite presentations at every base colour, and
    # seeded words: `word_is_identity` and `word_to_element` against the
    # reference's trees, built and compared by their words
    rng = random.Random(40)
    seen = collections.Counter()
    for p in _reversing_route_presentations():
        words = [(base, group_presentation.relator_letters(r)) for base in p.colours
                 for r in group_presentation.finite_presentation(p, base).relators]
        words += [(p.colours[0], w) for w in _vine_words(rng, p, 60)]
        for base, w in words:
            trees = _answer(vine_word_trees, p, w, base)
            want = trees if trees == "Unresolved" else trees_equal(p, *trees)
            got = _answer(fractions.word_is_identity, w, base, p)
            assert got == want, (p.name, base, w)
            g = _answer(fractions.word_to_element, w, base, p)
            assert (g == "Unresolved") if trees == "Unresolved" else \
                (g.numerator, g.denominator) == trees, (p.name, base, w)
            seen[got] += 1
    assert all(seen[k] > 0 for k in (True, False, None, "Unresolved")), seen


def test_code_word_equality_is_the_tree_path():
    # `equals` against growing both numerators by composing, on pairs of
    # evaluated vine words: a word against itself grown by a forest, and
    # against another word
    rng = random.Random(41)
    seen = collections.Counter()
    for p in _reversing_route_presentations():
        elements = [g for g in (_answer(fractions.word_to_element, w, p.colours[0], p)
                                for w in _vine_words(rng, p, 40)) if g != "Unresolved"]
        for g in elements:
            n = leaf_count(g.numerator)
            f = random_forest(rng, p.colours, n, rng.randint(0, 3))
            grown = fractions.GroupElement(compose((g.numerator,), f)[0],
                                           compose((g.denominator,), f)[0], p)
            for h in (grown, rng.choice(elements)):
                got = fractions.equals(g, h)
                assert got == fractions_equal(g, h), (p.name, g.render(), h.render())
                seen[got] += 1
    assert all(seen[k] > 0 for k in (True, False, None)), seen


def _random_element(rng, p):
    """A triple of 0-3 carets with the identity, a rotation or a shuffle."""
    carets = rng.randint(0, 3)
    n = carets + 1
    perm = rng.choice((oa.identity_perm(n), oa.rotation(n, rng.randrange(n)),
                       tuple(rng.sample(range(1, n + 1), n))))
    return oa.PermutationElement(random_tree(rng, p.colours, carets), perm,
                                 random_tree(rng, p.colours, carets), p)


def test_action_is_the_grown_triple():
    # `perm_multiply`, `act` and the action of the product against the
    # reference's whole grown triples, on points of 0-4 carets, at three
    # bounds on two presentations of each fraction route
    rng, seen = random.Random(40), collections.Counter()
    for p in map(corpus.load, ("cleary", "ternary", "rebel", "notlc")):
        for bound in (None, 2, 4):
            for _ in range(30):
                g, h = _random_element(rng, p), _random_element(rng, p)
                t = random_tree(rng, p.colours, rng.randint(0, 4))
                x = oa.OrderedPoint(t, rng.randint(1, leaf_count(t)), p)
                gh = _answer(oa.perm_multiply, g, h, bound)
                cases = [(gh, reference.perm_multiply, (g, h, bound)),
                         (_answer(oa.act, g, x, bound), reference.act, (g, x, bound))]
                if isinstance(gh, oa.PermutationElement):
                    cases.append((_answer(oa.act, gh, x, bound), reference.act, (gh, x, bound)))
                for got, theirs, args in cases:
                    assert got == _answer(theirs, *args), (p.name, bound, theirs.__name__, args)
                    seen["Unresolved" if got == "Unresolved" else theirs.__name__] += 1
    assert all(seen[k] > 0 for k in ("perm_multiply", "act", "Unresolved")), seen
