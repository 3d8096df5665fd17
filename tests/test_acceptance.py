"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here.  Exhaustive sweeps run at the stated sizes
except the reversing/oracle agreement sweep, whose literal all-pairs run at
six carets costs tens of minutes; it runs exhaustively through four carets,
exhaustively on the completeness direction (all same-class pairs) through
six, and on large random cross-class samples.  Set FSK_ACCEPT_EXHAUSTIVE=1
for the full quadratic sweep.
"""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from forestskein import corpus, fractions as fr, group_presentation as gp
from forestskein import oracle, ordered_action as oa, ore_spine as osp, reversing as rv
from forestskein.forest import (
    LEAF,
    caret,
    compose,
    elementary,
    forest_caret_count,
    forest_leaf_count,
    forests_with_carets,
    leaf_count,
    parse_word,
    random_forest,
    tensor,
    tree_from_word,
    trees_with_carets,
    word_from_tree,
)
from forestskein.presentation import is_complemented
from reference import stratum

EXHAUSTIVE = os.environ.get("FSK_ACCEPT_EXHAUSTIVE") == "1"


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def tw(text):
    return tree_from_word(parse_word(text))


def test_criterion_1_cleary_pipeline():
    import json
    from click.testing import CliRunner
    from forestskein.cli import main

    start = time.monotonic()
    res = CliRunner().invoke(main, ["check", "cleary", "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    verdicts = {v["property"]: v for v in doc["verdicts"]}
    assert verdicts["complemented"]["verdict"] == "yes"
    assert verdicts["complete"]["verdict"] == "complete"
    assert verdicts["complete"]["confidence"] == "proved"
    assert verdicts["lc"]["verdict"] == "yes"
    assert verdicts["lc"]["confidence"] == "proved"
    assert verdicts["ore"]["verdict"] == "yes"
    assert verdicts["ore"]["confidence"] == "proved"
    res = CliRunner().invoke(main, ["spine", "cleary", "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["stabilized"] is True
    assert doc["spine_size"] == 3
    finf = {v["property"]: v for v in doc["verdicts"]}["f_infinity"]
    assert finf["verdict"] == "proved"
    assert finf["certificate"]["witness"]["spine_size"] == 3
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"
    report(1, f"cleary check: complemented/complete/lc/ore all proved; spine "
              f"reports 3 classes and the F-infinity certificate; {elapsed:.2f}s < 5s")


def test_criterion_2_abelianization_goldens():
    expected = {"cleary": (2, (2,))}
    for n in (2, 3, 4, 5):
        expected[f"gn{n}"] = (2, (n,))
    for n in (2, 3, 4):
        expected[f"hn{n}"] = (2, (n, n))
    for name, want in expected.items():
        pres = gp.finite_presentation(corpus.load(name), "a")
        inv = gp.abelianization(pres)
        assert (inv.free_rank, inv.torsion) == want, name
    report(2, "abelianizations exact: cleary Z^2+Z/2, gn_n Z^2+Z/n (n=2..5), "
              "hn_n Z^2+(Z/n)^2 (n=2..4)")


def test_criterion_3_presentation_counts():
    for name in ("cleary", "ternary", "dv2"):
        p = corpus.load(name)
        pres = gp.finite_presentation(p, "a")
        S, R = len(p.colours), len(p.relations)
        assert pres.generator_count == 4 * S - 2, name
        assert pres.relator_count == 4 * R + 8 * S * S - 4 * S + 2, name
    built = osp.build_f_tau({"a": tw("x1 x1 x3"), "b": tw("x1 x1 x3")})
    pres = gp.finite_presentation(built.presentation, "a", kind="f_tau_optimized")
    assert pres.generator_count == 6
    assert pres.relator_count == 28
    report(3, "finite presentation counts 4|S|-2 / 4|R|+8|S|^2-4|S|+2 on "
              "cleary, ternary, dv2; 2-colour f_tau optimized: 6 generators, 28 relations")


def test_criterion_4_relator_soundness():
    checked = 0
    for name in ("cleary", "ternary", "gn2", "gn3"):
        p = corpus.load(name)
        for pres in (gp.infinite_presentation(p, "a", 3),
                     gp.finite_presentation(p, "a")):
            for rel in pres.relators:
                verdict = gp.evaluate_relator(pres, rel, 14)
                assert verdict is True, (name, pres.kind, rel.render(), verdict)
                checked += 1
    report(4, f"{checked} relators of the infinite (max index 3) and finite "
              f"presentations evaluate to the identity at bound 14, none unresolved")


def test_criterion_5_negative_controls():
    notlc = corpus.load("notlc")
    ce = oracle.refute_left_cancellative(notlc, 3)
    assert ce is not None
    assert oracle.equivalent(notlc, compose(ce.f, ce.g), compose(ce.f, ce.h))
    assert not oracle.equivalent(notlc, ce.g, ce.h)
    assert rv.decide_left_cancellative(notlc).verdict == "no"

    free2 = corpus.load("free2")
    ore = osp.cofinal_search(free2)
    assert ore.verdict == "refuted"
    assert ("[a(I,I)]", "[b(I,I)]") in ore.failures

    rebel = corpus.load("rebel")
    sp = osp.spine(rebel, caret_bound=16, stage_bound=8)
    assert not sp.stabilized
    assert all(stage for stage in sp.stages)
    assert osp.f_infinity_certificate(rebel, sp) is None
    report(5, "notlc refuted with a verified counterexample at caret bound 3; "
              "free2 Ore refuted on (Y_a, Y_b); rebel spine unstabilized at "
              "stages<=8, carets<=16, no F-infinity certificate")


def _agreement_sweep(p, max_exhaustive, max_class, cross_samples, rng):
    disagreements = 0
    pairs = 0
    for k in range(1, max_class + 1):
        trees = trees_with_carets(p.colours, k)
        words = {t: tuple(word_from_tree(t)) for t in trees}
        table = stratum(p, 1, k)
        cls = {t: table.class_id((t,)) for t in trees}
        if k <= max_exhaustive:
            for t, s in itertools.combinations(trees, 2):
                got = rv.words_equal(p, words[t], words[s]) == "yes"
                disagreements += got != (cls[t] == cls[s])
                pairs += 1
        else:
            by_class = {}
            for t in trees:
                by_class.setdefault(cls[t], []).append(t)
            for members in by_class.values():
                for t, s in itertools.combinations(members, 2):
                    got = rv.words_equal(p, words[t], words[s]) == "yes"
                    disagreements += got != True
                    pairs += 1
            for _ in range(cross_samples):
                t, s = rng.choice(trees), rng.choice(trees)
                if cls[t] == cls[s]:
                    continue
                got = rv.words_equal(p, words[t], words[s]) == "yes"
                disagreements += got
                pairs += 1
    return pairs, disagreements


def test_criterion_6_reversing_oracle_agreement():
    rng = random.Random(6)
    ftau3 = osp.build_f_tau(
        {"a": tw("x1 x1 x3"), "b": tw("x1 x1 x3"), "c": tw("x1 x1 x3")}).presentation
    plan = [
        (corpus.load("cleary"), 6 if EXHAUSTIVE else 4, 6, 15000),
        (corpus.load("ternary"), 6 if EXHAUSTIVE else 4, 6, 15000),
        (ftau3, 5 if EXHAUSTIVE else 4, 5, 8000),
    ]
    total = 0
    for p, max_exh, max_cls, samples in plan:
        pairs, bad = _agreement_sweep(p, max_exh, max_cls, samples, rng)
        assert bad == 0, (p.name, bad)
        total += pairs
    report(6, f"reversing equality agrees with the congruence oracle on "
              f"{total} tree pairs across cleary, ternary, and a 3-colour "
              f"f_tau (exhaustive to {'6' if EXHAUSTIVE else '4'} carets, "
              f"all same-class pairs and sampled cross pairs to 6)")


def test_criterion_7_ternary_relabeling():
    p = corpus.load("ternary")

    def z(n):
        # z_{2k} = b_k, z_{2k-1} = a_k
        return ("b", n // 2, False, 1) if n % 2 == 0 else ("a", (n + 1) // 2, False, 1)

    failures = 0
    checked = 0
    for q in range(2, 7):
        for j in range(1, q):
            lhs = fr.word_to_element([z(q), z(j)], "a", p, 14)
            rhs = fr.word_to_element([z(j), z(q + 2)], "a", p, 14)
            ok = fr.equals(lhs, rhs, 14)
            checked += 1
            if ok is not True:
                failures += 1
    assert failures == 0
    report(7, f"ternary relabeling z_q z_j = z_j z_(q+2) holds for all "
              f"{checked} pairs with 1 <= j < q <= 6 under fraction equality")


def _leaf_addresses(t, prefix=()):
    if t is None:
        return [prefix]
    return _leaf_addresses(t[1], prefix + (0,)) + _leaf_addresses(t[2], prefix + (1,))


def _dyadic(t, j):
    bits = _leaf_addresses(t)[j - 1]
    return sum(Fraction(b, 2 ** i) for i, b in enumerate(bits, start=1))


def test_criterion_8_classical_order_oracle():
    p = corpus.load("free1")
    pts = []
    for k in range(7):
        for t in trees_with_carets(("a",), k):
            for j in range(1, leaf_count(t) + 1):
                x = oa.normalize_point(p, t, j)
                if (x.tree, x.leaf) == (t, j):
                    pts.append((x, _dyadic(t, j)))
    values = [v for _, v in pts]
    assert len(set(values)) == len(values)
    checked = 0
    for (x, vx), (y, vy) in itertools.combinations(pts, 2):
        want = "LT" if vx < vy else "GT"
        assert oa.compare(x, y, 20) == want
        checked += 1
    report(8, f"dyadic map is an order isomorphism on all {len(pts)} "
              f"normalized points with <= 6 carets ({checked} comparisons, 0 violations)")


def test_criterion_9_qspace_properties():
    p = corpus.load("cleary")
    rng = random.Random(9)
    resolved = unresolved = violations = 0

    # trichotomy and transitivity on random triples
    for _ in range(1000):
        x, y, z = (oa.random_point(p, rng, 4) for _ in range(3))
        cxy, cyz, cxz = (oa.compare(a, b, 14) for a, b in ((x, y), (y, z), (x, z)))
        if None in (cxy, cyz, cxz):
            unresolved += 1
            continue
        resolved += 1
        if cxy == "LT" and cyz == "LT" and cxz != "LT":
            violations += 1
        if cxy == "GT" and cyz == "GT" and cxz != "GT":
            violations += 1
        if oa.compare(y, x, 14) != {"LT": "GT", "GT": "LT", "EQ": "EQ"}[cxy]:
            violations += 1

    # order equivariance for plain elements
    trees = [t for k in (1, 2) for t in trees_with_carets(p.colours, k)]
    for _ in range(100):
        t = rng.choice(trees)
        s = rng.choice([u for u in trees if leaf_count(u) == leaf_count(t)])
        g = oa.from_fraction(fr.GroupElement(t, s, p))
        x, y = oa.random_point(p, rng, 4), oa.random_point(p, rng, 4)
        try:
            before = oa.compare(x, y, 14)
            after = oa.compare(oa.act(g, x, 14), oa.act(g, y, 14), 14)
        except fr.Unresolved:
            unresolved += 1
            continue
        resolved += 1
        if before != after:
            violations += 1

    # transitivity witnesses, verified by the action
    for _ in range(20):
        k = rng.choice([1, 2, 3])
        A = oa.random_point_set(p, rng, k)
        B = oa.random_point_set(p, rng, k)
        g = oa.transitivity_witness(A, B, 14)
        if g is None:
            unresolved += 1
            continue
        resolved += 1
        if {oa.act(g, x, 14) for x in A} != set(B):
            violations += 1

    # stabilizer samples fix the marked points
    t = tw("a1 a2")
    pts = oa.stabilizer_generators(p, t).points()
    for _ in range(25):
        fx = oa.sample_fixer(p, t, rng)
        resolved += 1
        if not all(oa.act(fx, x, 14) == x for x in pts):
            violations += 1

    total = resolved + unresolved
    assert violations == 0
    assert unresolved / total < 0.05, f"unresolved rate {unresolved}/{total}"
    report(9, f"q-space on cleary: 0 violations across {resolved} resolved "
              f"checks (triples, equivariance, transitivity, stabilizers); "
              f"unresolved rate {unresolved}/{total} < 5%")


def test_criterion_10_category_axiom_suite():
    colours = ("a", "b")
    # associativity, exhaustive at <= 4 carets over compatible small forests
    pool = [f for roots in (1, 2) for k in range(3)
            for f in forests_with_carets(colours, roots, k)]
    by_roots = {}
    for f in pool:
        by_roots.setdefault(len(f), []).append(f)
    assoc = 0
    for f in pool:
        for g in by_roots.get(forest_leaf_count(f), []):
            for h in by_roots.get(forest_leaf_count(g), []):
                if forest_caret_count(f) + forest_caret_count(g) + \
                        forest_caret_count(h) > 4:
                    continue
                assert compose(compose(f, g), h) == compose(f, compose(g, h))
                assoc += 1
    # randomized beyond
    rng = random.Random(10)
    for _ in range(300):
        f = random_forest(rng, colours, rng.randrange(1, 4), rng.randrange(0, 6))
        g = random_forest(rng, colours, forest_leaf_count(f), rng.randrange(0, 6))
        h = random_forest(rng, colours, forest_leaf_count(g), rng.randrange(0, 6))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        k = random_forest(rng, colours, rng.randrange(1, 3), rng.randrange(0, 4))
        m = random_forest(rng, colours, forest_leaf_count(k), rng.randrange(0, 4))
        assert compose(tensor(f, k), tensor(g, m)) == \
            tensor(compose(f, g), compose(k, m))

    # Thompson-like identities on raw diagrams
    thompson = 0
    for n in range(1, 7):
        for q in range(2, n + 1):
            for j in range(1, q):
                for cb, ca in itertools.product(colours, repeat=2):
                    assert compose(elementary(cb, q, n), elementary(ca, j, n + 1)) \
                        == compose(elementary(ca, j, n), elementary(cb, q + 1, n + 1))
                    thompson += 1

    # rewriting preserves the stratum
    p = corpus.load("cleary")
    lhs, rhs = p.relations[0]
    from forestskein.forest import find_occurrences, rewrite_at
    for _ in range(200):
        f = random_forest(rng, colours, rng.randrange(1, 3), rng.randrange(2, 7))
        for u, u2 in ((lhs, rhs), (rhs, lhs)):
            for occ in find_occurrences(f, u):
                g2 = rewrite_at(f, occ, u, u2)
                assert len(g2) == len(f)
                assert forest_leaf_count(g2) == forest_leaf_count(f)

    # codec round-trips
    codec = 0
    for k in range(8):
        for t in trees_with_carets(("a",), k):
            assert tree_from_word(word_from_tree(t)) == t
            codec += 1
    for k in range(7):
        for t in trees_with_carets(colours, k):
            assert tree_from_word(word_from_tree(t)) == t
            codec += 1
    report(10, f"category axioms: {assoc} exhaustive + 300 random associativity/"
               f"interchange checks, {thompson} Thompson-like identities (n<=6), "
               f"200 stratum-preserving rewrites, {codec} codec round-trips "
               f"(<=7 carets monochromatic, <=6 bicoloured)")


def test_criterion_11_good_list_commutation():
    for name in ("cleary", "ternary"):
        rep = gp.good_generator_list(corpus.load(name), bound=12)
        assert rep.failures == 0
        assert rep.unresolved == 0
        assert len(rep.commuting) == 9
    report(11, "good generator lists for cleary and ternary: all consecutive "
               "pairs commute under fraction equality at bound 12")
