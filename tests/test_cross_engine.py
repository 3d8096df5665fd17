"""Cross-engine regression: reversing equality against the stratum reference.

The complemented presentations exercise the deterministic reversal; rebel
(two relations on one colour pair, complete) exercises the branching
search, and notlc (incomplete) checks that yes-answers stay sound even
where completeness fails.
"""

import itertools

import pytest

from forestskein import corpus, reversing as rv
from forestskein.forest import leaf_count, random_tree, trees_with_carets, word_from_tree
from forestskein import fractions as fr, ordered_action as oa
from reference import stratum


def _sweep(p, max_carets):
    mismatches = 0
    for k in range(1, max_carets + 1):
        trees = trees_with_carets(p.colours, k)
        table = stratum(p, 1, k)
        cls = [table.class_id((t,)) for t in trees]
        words = [tuple(word_from_tree(t)) for t in trees]
        for i, j in itertools.combinations(range(len(trees)), 2):
            got = rv.words_equal(p, words[i], words[j]) == "yes"
            mismatches += got != (cls[i] == cls[j])
    return mismatches


def test_rebel_branching_agreement(rebel):
    assert _sweep(rebel, 4) == 0


@pytest.mark.parametrize("name", ["dv2", "nocgp1", "nocgp2"])
def test_single_relation_agreement(name):
    assert _sweep(corpus.load(name), 3) == 0


def test_notlc_soundness_only(notlc):
    for k in (2, 3):
        trees = trees_with_carets(notlc.colours, k)
        table = stratum(notlc, 1, k)
        words = [tuple(word_from_tree(t)) for t in trees]
        for i, j in itertools.combinations(range(len(trees)), 2):
            if rv.words_equal(notlc, words[i], words[j]) == "yes":
                assert table.class_id((trees[i],)) == table.class_id((trees[j],))


def test_ternary_qspace_laws(ternary, rng):
    # the order and action laws on the second Ore presentation of the corpus
    def rand_point():
        t = random_tree(rng, ternary.colours, rng.randrange(1, 4))
        return oa.normalize_point(ternary, t, rng.randrange(1, leaf_count(t) + 1))

    for _ in range(150):
        x, y, z = rand_point(), rand_point(), rand_point()
        cxy, cyz, cxz = (oa.compare(a, b, 14) for a, b in ((x, y), (y, z), (x, z)))
        assert None not in (cxy, cyz, cxz)
        if cxy == "LT" and cyz == "LT":
            assert cxz == "LT"
    trees = [t for k in (1, 2) for t in trees_with_carets(ternary.colours, k)]
    for _ in range(25):
        t = rng.choice(trees)
        s = rng.choice([u for u in trees if leaf_count(u) == leaf_count(t)])
        g = oa.from_fraction(fr.GroupElement(t, s, ternary))
        x, y = rand_point(), rand_point()
        assert oa.compare(oa.act(g, x, 14), oa.act(g, y, 14), 14) == oa.compare(x, y, 14)


def test_ternary_grow_normalize_round_trip(ternary, rng):
    from forestskein.forest import random_forest
    for _ in range(200):
        t = random_tree(rng, ternary.colours, rng.randrange(1, 4))
        seed = oa.normalize_point(ternary, t, rng.randrange(1, leaf_count(t) + 1))
        g = random_forest(rng, ternary.colours, leaf_count(seed.tree),
                          rng.randrange(0, 4))
        gt, gj = oa.grow_point(ternary, seed, g)
        assert oa.normalize_point(ternary, gt, gj) == seed
