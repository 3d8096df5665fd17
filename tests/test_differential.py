"""Differential checks between independent engines on generated presentations.

Seeded small presentations (2-3 colours, 1-2 relations of 1-3 carets), the
two partial-cube examples and the corpus are each checked three ways against
saturated strata, the oracle's ground truth:

  * the LC refutation, which reads classes, finds the counterexample that
    the saturation-based reference below finds;
  * the absorption check reads the classes of the stratum (1, <= bound);
  * reversing never calls inequivalent trees equal, and on a presentation
    certified complete it calls equivalent trees equal.

The bounded Ore check, which compares classes by identity, also gives the
report of a reference that compares canonical members of sorted class reads.
"""

import functools
import itertools
import random

import pytest

from forestskein import corpus, oracle, ore_spine, reversing
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
    random_tree,
    render_forest,
    word_from_tree,
)
from forestskein.presentation import SkeinPresentation, parse

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
    """Bounded LC refutation over saturated strata, as it ran before class reads."""
    for k in range(2, caret_bound + 1):
        try:
            two_root = oracle.saturate(p, 2, k - 1)
            one_root = oracle.saturate(p, 1, k)
        except oracle.BudgetExceeded:
            return None
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
    small = oracle.saturate(p, 1, ABSORPTION_BOUND)
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


def _reference_ore(p, pair_bound, search_bound) -> dict:
    """The bounded Ore check on sets of canonical members of sorted class reads,
    as it ran before classes were compared by identity."""
    reps = [cls[0] for k in range(1, pair_bound + 1)
            for cls in oracle.multiple_classes(p, (LEAF,), k)]
    above = [{cls[0] for k in range(forest_caret_count(x), search_bound + 1)
              for cls in oracle.multiple_classes(p, x, k)} for x in reps]
    pairs = list(itertools.combinations(range(len(reps)), 2))
    failures = [(render_forest(reps[i]), render_forest(reps[j]))
                for i, j in pairs if not above[i] & above[j]]
    return oracle.OreReport(pair_bound, search_bound, failures, len(pairs)).to_json()


# every case at (2, 4) carets, and the corpus at the bounds of `fsk check`
ORE_RUNS = [(name, 2, 4) for name in sorted(CASES)] + \
    [(name, ORE_PAIR_BOUND, ORE_SEARCH_BOUND) for name in corpus.names()]


@pytest.mark.parametrize("name, pair_bound, search_bound", ORE_RUNS)
def test_ore_check_matches_the_canonical_member_reference(name, pair_bound, search_bound):
    p = CASES[name]
    try:
        got = oracle.check_ore_bounded(p, pair_bound, search_bound).to_json()
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
