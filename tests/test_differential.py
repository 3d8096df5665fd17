"""Differential checks between independent engines on generated presentations.

Seeded small presentations (2-3 colours, 1-2 relations of 1-3 carets), the
two partial-cube examples and the corpus are each checked three ways against
saturated strata, the oracle's ground truth:

  * the LC refutation, which reads classes, finds the counterexample that
    the saturation-based reference below finds;
  * the absorption check reads the classes of the stratum (1, <= bound);
  * reversing never calls inequivalent trees equal, and on a presentation
    certified complete it calls equivalent trees equal.
"""

import functools
import itertools
import random

import pytest

from forestskein import corpus, oracle, ore_spine, reversing
from forestskein.config import ABSORPTION_BOUND, LC_REFUTE_BOUND
from forestskein.forest import (
    caret,
    compose,
    forest_caret_count,
    random_tree,
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


def test_generated_presentations_include_counterexamples():
    # the mix exercises both answers of the refutation
    refuted = [name for name in CASES if name.startswith("gen") and _refutation(name)]
    assert 5 <= len(refuted) < 40
