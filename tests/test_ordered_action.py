import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from forestskein import corpus, fractions as fr, oracle, ordered_action as oa
from forestskein.config import OracleBudget
from forestskein.presentation import memo
from forestskein.forest import (
    LEAF,
    caret,
    caret_count,
    leaf_count,
    parse_tree,
    parse_word,
    prunable_carets,
    prune_ends_in_key_order,
    random_forest,
    random_tree,
    strip_caret,
    tree_from_word,
    tree_key,
    trees_with_carets,
    word_from_tree,
)


def tw(text):
    return tree_from_word(parse_word(text))


# ---------------------------------------------------------------------------
# Dyadic oracle for the free monochromatic case

def leaf_addresses(t, prefix=()):
    if t is None:
        return [prefix]
    return leaf_addresses(t[1], prefix + (0,)) + leaf_addresses(t[2], prefix + (1,))


def dyadic_value(t, j) -> Fraction:
    bits = leaf_addresses(t)[j - 1]
    return sum(Fraction(b, 2 ** i) for i, b in enumerate(bits, start=1))


def classical_action(num, den, value: Fraction) -> Fraction:
    """The piecewise-dyadic map sending the den-partition onto the num one."""
    src = leaf_addresses(den)
    dst = leaf_addresses(num)
    for s_bits, d_bits in zip(src, dst):
        lo = sum(Fraction(b, 2 ** i) for i, b in enumerate(s_bits, start=1))
        width = Fraction(1, 2 ** len(s_bits))
        if lo <= value < lo + width:
            lo2 = sum(Fraction(b, 2 ** i) for i, b in enumerate(d_bits, start=1))
            width2 = Fraction(1, 2 ** len(d_bits))
            return lo2 + (value - lo) * width2 / width
    raise AssertionError("value outside [0,1)")


# ---------------------------------------------------------------------------
# Points and normal forms

def test_normalize_examples(free1, cleary):
    t = tw("a1 a1")
    assert oa.normalize_point(free1, t, 1) == oa.OrderedPoint(LEAF, 1, free1)
    x = oa.normalize_point(free1, caret("a"), 1)
    y = oa.normalize_point(free1, caret("a"), 2)
    assert x != y
    with pytest.raises(ValueError):
        oa.normalize_point(free1, t, 5)


def test_normalize_class_invariance(cleary):
    # growing never changes the class
    x = oa.normalize_point(cleary, tw("b1 a2"), 3)
    growth = tuple(caret("b") if i % 2 else LEAF
                   for i in range(leaf_count(x.tree)))
    grown_t, grown_j = oa.grow_point(cleary, x, growth)
    assert oa.normalize_point(cleary, grown_t, grown_j) == x


def test_normalize_over_budget_fallback(cleary):
    # Above 4 carets the cleary stratum exceeds 300 forests, so the descent
    # strips carets before it can read a class; the exact scan then finishes.
    budget = OracleBudget(class_cap=300)
    cases = [
        ("a(a(I,I),b(a(I,I),b(I,I)))", 5, "a(I,b(I,I))", 3),
        ("b(I,a(I,b(a(I,I),a(I,b(I,I)))))", 6, "a(I,a(I,a(I,I)))", 4),
        ("a(a(b(I,I),a(a(I,I),a(I,I))),I)", 3, "b(I,I)", 2),
        ("b(b(I,I),b(a(b(I,I),a(I,I)),I))", 1, "I", 1),
    ]
    for t, j, nt, nj in cases:
        x = oa.normalize_point(cleary, parse_tree(t), j, budget)
        assert x == oa.OrderedPoint(parse_tree(nt), nj, cleary)
        assert oa.raw_points_equal(cleary, (x.tree, x.leaf), (parse_tree(t), j)) is True


def _prune_chain(t, j):
    """One prune at a time (any caret of two leaves whose right leaf is not
    j), until none is left."""
    while True:
        for pos, _colour in prunable_carets(t):
            if j != pos + 1:
                t, j = strip_caret(t, pos), j if j <= pos else j - 1
                break
        else:
            return t, j


def test_prune_point_is_the_end_of_every_prune_chain():
    rng = random.Random(29)
    for colours in ("a", "ab", "abc"):
        for _ in range(300):
            t = random_tree(rng, colours, rng.randint(0, 12))
            for j in range(1, leaf_count(t) + 1):
                assert oa.prune_point(t, j) == _prune_chain(t, j)
    vine = LEAF
    for _ in range(5000):
        vine = ("a", LEAF, vine)
    tree, leaf = oa.prune_point(vine, 5001)       # tuple == recurses; words do not
    assert (word_from_tree(tree), leaf) == (word_from_tree(vine), 5001)
    assert oa.prune_point(vine, 1) == (LEAF, 1)
    with pytest.raises(ValueError):
        oa.prune_point(caret("a"), 3)


def test_reversing_route_normalize_reads_no_class(monkeypatch):
    rng = random.Random(37)
    cases = []
    for name in ("cleary", "ternary", "gn3", "free1", "free2"):
        p, found = corpus.load(name), 0
        while found < 12:
            t = random_tree(rng, p.colours, rng.randint(0, 8))
            j = rng.randint(1, leaf_count(t))
            if caret_count(_prune_chain(t, j)[0]) <= 6:
                cases.append((p, t, j, oa.normalize_point(p, t, j)))
                found += 1

    def refuse(*args, **kwargs):
        raise AssertionError("a congruence class was read")

    monkeypatch.setattr(oracle, "class_members", refuse)
    monkeypatch.setattr(oracle, "descend", refuse)
    for p, t, j, want in cases:
        assert oa.normalize_point(p, t, j) == want


def test_exact_scan_includes_its_cap(cleary, monkeypatch):
    # a point that prunes to exactly the cap's caret count is scanned, not descended
    cap, rng = oa._EXACT_SCAN_CAP, random.Random(41)
    while True:
        t = random_tree(rng, cleary.colours, rng.randint(cap, cap + 4))
        j = rng.randint(1, leaf_count(t))
        if caret_count(oa.prune_point(t, j)[0]) == cap:
            break
    want = oa.normalize_point(cleary, t, j)
    memo.cache_clear()      # so the second call scans again instead of reading the table

    def refuse(*args, **kwargs):
        raise AssertionError("the point descended")

    monkeypatch.setattr(oracle, "descend", refuse)
    assert oa.normalize_point(cleary, t, j) == want


def test_grow_then_normalize_round_trip(cleary, rng):
    for _ in range(500):
        t = random_tree(rng, cleary.colours, rng.randrange(1, 4))
        j = rng.randrange(1, leaf_count(t) + 1)
        seed = oa.normalize_point(cleary, t, j)
        g = random_forest(rng, cleary.colours, leaf_count(seed.tree),
                          rng.randrange(0, 4))
        gt, gj = oa.grow_point(cleary, seed, g)
        assert oa.normalize_point(cleary, gt, gj) == seed


# Normal forms of seeded points, recorded before the exact scan computed one
# Ore witness per candidate tree.  cleary, free1, ternary and gn3 end in the
# exact scan; rebel and notlc are not complemented and complete, so they stop
# after the descent.  Any change in a normal form changes the digest.
PINNED_POINTS = "1ac866d792612842d4bbc7d93d672eb67d425fc238199405100cdd9c543473e1"


def test_normalize_point_pinned():
    rng = random.Random(10)
    out = []
    for name in ("cleary", "free1", "ternary", "gn3", "rebel", "notlc"):
        p = corpus.load(name)
        for _ in range(150):
            t = random_tree(rng, p.colours, rng.randint(0, 6))
            out.append(oa.normalize_point(p, t, rng.randint(1, leaf_count(t))).render())
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == PINNED_POINTS


def test_scan_matches_the_least_equal_point():
    # the reference: every (tree, leaf) with at most carets(t) carets that
    # `compare` finds equal to [t, j], least by (tree key, leaf)
    rng = random.Random(25)
    for name in ("cleary", "ternary", "gn3"):
        p = corpus.load(name)
        rank = p.colour_rank
        for _ in range(20):
            t = random_tree(rng, p.colours, rng.randint(0, 4))
            x = oa.OrderedPoint(t, rng.randint(1, leaf_count(t)), p)
            equal = [(tree_key(s, rank), i, s)
                     for k in range(caret_count(t) + 1) for s in trees_with_carets(p.colours, k)
                     for i in range(1, leaf_count(s) + 1)
                     if oa.compare(oa.OrderedPoint(s, i, p), x) == "EQ"]
            _key, i, s = min(equal)
            assert oa.normalize_point(p, x.tree, x.leaf) == oa.OrderedPoint(s, i, p)


def test_scan_computes_one_witness_per_candidate(cleary, rng, monkeypatch):
    # one reversal per candidate tree, read at `fractions.witness_starts`
    starts, calls = fr.witness_starts, []

    def counting(*args):
        calls.append(args)
        return starts(*args)

    monkeypatch.setattr(fr, "witness_starts", counting)
    monkeypatch.setattr(fr, "common_multiple_witness", None)    # the scan builds no witness
    memo.cache_clear()      # no point is read back from an earlier test's table
    scanned = 0
    for _ in range(30):
        t = random_tree(rng, cleary.colours, rng.randrange(2, 6))
        x = oa.normalize_point(cleary, t, rng.randrange(1, leaf_count(t) + 1))
        # the scan visits prune ends in (carets, key) order and stops at x
        order = [pair for k in range(leaf_count(x.tree))
                 for pair in prune_ends_in_key_order(cleary.colours, k)]
        scanned += order.index((x.tree, x.leaf)) + 1
    assert 0 < len(calls) <= scanned


def test_a_point_is_scanned_once_per_presentation(cleary, monkeypatch):
    memo.cache_clear()
    rng = random.Random(43)
    while True:
        t = random_tree(rng, cleary.colours, 6)
        j = rng.randint(1, leaf_count(t))
        if caret_count(oa.prune_point(t, j)[0]) >= 3:
            break
    x = oa.normalize_point(cleary, t, j)
    assert oa._points(cleary) == {oa.prune_point(t, j): x}
    f = random_forest(rng, cleary.colours, leaf_count(t), 4)
    grown = oa.grow_point(cleary, oa.OrderedPoint(t, j, cleary), f)

    def refuse(*args, **kwargs):
        raise AssertionError("a point was scanned again")

    monkeypatch.setattr(fr, "witness_starts", refuse)
    assert oa.normalize_point(cleary, t, j) == x
    assert oa.normalize_point(cleary, *grown) == x
    memo.cache_clear()
    assert oa._points(cleary) == {}


def test_scan_skips_an_unresolved_candidate(cleary, monkeypatch):
    # a cleary point whose normal form lies below its prune end
    rng = random.Random(47)
    while True:
        t = random_tree(rng, cleary.colours, rng.randint(2, 5))
        j = rng.randint(1, leaf_count(t))
        end = oa.prune_point(t, j)
        memo.cache_clear()
        x = oa.normalize_point(cleary, t, j)
        if (x.tree, x.leaf) != end:
            break
    starts, calls = fr.witness_starts, []

    def unresolved(p, cand, best_t, bound=None):
        calls.append(cand)
        raise fr.Unresolved("blocked")

    def unresolved_at_x(p, cand, best_t, bound=None):
        if cand == x.tree:
            raise fr.Unresolved("blocked")
        return starts(p, cand, best_t, bound)

    try:
        # every candidate is skipped: the prune end stands
        memo.cache_clear()
        monkeypatch.setattr(fr, "witness_starts", unresolved)
        assert oa.normalize_point(cleary, t, j) == oa.OrderedPoint(*end, cleary)
        assert x.tree in calls
        # the least candidate is skipped: a later one equal to the point is found
        memo.cache_clear()
        monkeypatch.setattr(fr, "witness_starts", unresolved_at_x)
        y = oa.normalize_point(cleary, t, j)
        monkeypatch.setattr(fr, "witness_starts", starts)
        assert y != x and oa.compare(y, oa.OrderedPoint(t, j, cleary)) == "EQ"
    finally:
        memo.cache_clear()      # no later test reads a point normalized here


def test_point_counts_up_to_four_carets():
    counts = {name: len(oa._all_points(corpus.load(name), 4))
              for name in ("cleary", "free1", "ternary", "gn3")}
    assert counts == {"cleary": 41, "free1": 16, "ternary": 81, "gn3": 60}


def test_point_set_falls_back_to_every_point(cleary, monkeypatch):
    # the draws give up quickly; the missing points come from the enumeration
    monkeypatch.setattr(oa, "_POINT_SET_DRAWS", 30)
    pts = oa.random_point_set(cleary, random.Random(5), 41)
    assert len(pts) == 41 and set(pts) == set(oa._all_points(cleary, 4))
    assert oa.random_point_set(cleary, random.Random(5), 41) == pts
    with pytest.raises(ValueError, match="cleary has 41 distinct points"):
        oa.random_point_set(cleary, random.Random(5), 42)
    # the oracle route has no enumeration
    with pytest.raises(ValueError, match="draws in a row added none"):
        oa.random_point_set(corpus.load("rebel"), random.Random(5), 200)


def test_compare_builds_no_forest(cleary, rng, monkeypatch):
    pts = [oa.random_point(cleary, rng, 4) for _ in range(20)]
    want = [oa.compare(x, y) for x in pts for y in pts]

    def refuse(*args):
        raise AssertionError("compare decoded a witness forest")

    monkeypatch.setattr(fr, "common_multiple_witness", refuse)
    assert [oa.compare(x, y) for x in pts for y in pts] == want
    assert {"LT", "EQ", "GT"} <= set(want)


def test_compare_same_tree(free1):
    t = tw("a1 a1")
    x1 = oa.normalize_point(free1, t, 1)
    x2 = oa.normalize_point(free1, t, 2)
    assert oa.compare(x1, x2) == "LT"
    assert oa.compare(x2, x1) == "GT"
    assert oa.compare(x1, x1) == "EQ"


def test_dyadic_order_isomorphism(free1):
    # [Y,1] is 0 and [Y,2] is 1/2
    assert dyadic_value(caret("a"), 1) == 0
    assert dyadic_value(caret("a"), 2) == Fraction(1, 2)
    pts = []
    for k in range(5):
        for t in trees_with_carets(("a",), k):
            for j in range(1, leaf_count(t) + 1):
                x = oa.normalize_point(free1, t, j)
                if (x.tree, x.leaf) == (t, j):
                    pts.append((x, dyadic_value(t, j)))
    for (x, vx), (y, vy) in itertools.combinations(pts, 2):
        want = "LT" if vx < vy else "GT" if vx > vy else "EQ"
        assert oa.compare(x, y) == want


def test_compare_growth_invariance(free1, rng):
    for _ in range(50):
        t = random_tree(rng, ("a",), rng.randrange(1, 4))
        x = oa.normalize_point(free1, t, rng.randrange(1, leaf_count(t) + 1))
        y = oa.normalize_point(free1, t, rng.randrange(1, leaf_count(t) + 1))
        base = oa.compare(x, y)
        gt, gj = oa.grow_point(free1, x, random_forest(rng, ("a",), leaf_count(x.tree), 2))
        grown = oa.OrderedPoint(gt, gj, free1)   # un-normalized representative
        assert oa.compare(grown, y) == base


# ---------------------------------------------------------------------------
# Zappa-Szep exchange

def test_zappa_swap_example():
    f = (caret("a"), LEAF)
    f_tau, tau_f = oa.zappa_szep((2, 1), f)
    assert f_tau == (LEAF, caret("a"))
    assert tau_f == (3, 1, 2)


def test_zappa_trivial_cases():
    f = (caret("a"), LEAF)
    assert oa.zappa_szep((1, 2), f) == (f, (1, 2, 3))
    triv = (LEAF, LEAF, LEAF)
    assert oa.zappa_szep((2, 3, 1), triv) == (triv, (2, 3, 1))


def test_zappa_cyclic_stays_cyclic(rng):
    for _ in range(50):
        n = rng.randrange(2, 5)
        f = random_forest(rng, ("a", "b"), n, rng.randrange(0, 4))
        tau = oa.rotation(n, rng.randrange(1, n))
        _, tau_f = oa.zappa_szep(tau, f)
        assert oa.is_rotation(tau_f)


def test_zappa_arity_mismatch():
    with pytest.raises(ValueError):
        oa.zappa_szep((1, 2, 3), (LEAF, LEAF))


# ---------------------------------------------------------------------------
# The action

def test_act_identity(cleary, rng):
    e = oa.from_fraction(fr.identity(cleary))
    for _ in range(20):
        t = random_tree(rng, cleary.colours, rng.randrange(1, 4))
        x = oa.normalize_point(cleary, t, rng.randrange(1, leaf_count(t) + 1))
        assert oa.act(e, x) == x


def test_act_matched_denominator(free1):
    t, s = tw("a1 a1"), tw("a1 a2")
    g = oa.PermutationElement(s, oa.identity_perm(3), t, free1)
    x = oa.normalize_point(free1, t, 2)
    assert oa.act(g, x) == oa.normalize_point(free1, s, 2)


def test_act_cyclic(free1):
    t = tw("a1 a1")
    g = oa.PermutationElement(t, oa.rotation(3, 1), t, free1)
    x = oa.normalize_point(free1, t, 1)
    assert oa.act(g, x) == oa.normalize_point(free1, t, 2)


def test_action_compatibility(cleary, rng):
    trees = [t for k in (1, 2) for t in trees_with_carets(cleary.colours, k)]
    for _ in range(30):
        t = rng.choice(trees)
        s = rng.choice([u for u in trees if leaf_count(u) == leaf_count(t)])
        n = leaf_count(t)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        g = oa.PermutationElement(t, tuple(perm), s, cleary)
        u = rng.choice(trees)
        v = rng.choice([w for w in trees if leaf_count(w) == leaf_count(u)])
        h = oa.PermutationElement(u, oa.rotation(leaf_count(u), 1), v, cleary)
        t2 = random_tree(rng, cleary.colours, rng.randrange(1, 4))
        x = oa.normalize_point(cleary, t2, rng.randrange(1, leaf_count(t2) + 1))
        assert oa.act(oa.perm_multiply(g, h), x) == oa.act(g, oa.act(h, x))


def test_act_matches_classical_dyadic(free1, rng):
    trees = [t for k in (1, 2, 3) for t in trees_with_carets(("a",), k)]
    for _ in range(60):
        num = rng.choice(trees)
        den = rng.choice([u for u in trees if leaf_count(u) == leaf_count(num)])
        g = oa.from_fraction(fr.GroupElement(num, den, free1))
        t = random_tree(rng, ("a",), rng.randrange(1, 4))
        j = rng.randrange(1, leaf_count(t) + 1)
        x = oa.normalize_point(free1, t, j)
        y = oa.act(g, x)
        assert dyadic_value(y.tree, y.leaf) == \
            classical_action(num, den, dyadic_value(x.tree, x.leaf))


# ---------------------------------------------------------------------------
# Flavours

def test_flavour_exact(free1):
    t = tw("a1 a1")
    assert oa.PermutationElement(t, (1, 2, 3), t, free1).flavour == "F"
    assert oa.PermutationElement(t, (2, 3, 1), t, free1).flavour == "T"
    assert oa.PermutationElement(t, (1, 3, 2), t, free1).flavour == "V"


def test_flavour_reports(free1, rng):
    t = tw("a1 a1")
    plain = oa.PermutationElement(t, (1, 2, 3), t, free1)
    rep = oa.flavour_check(plain, rng, sample_bound=12)
    assert rep.exact == "F" and not rep.violations
    cyc = oa.PermutationElement(t, oa.rotation(3, 1), t, free1)
    rep = oa.flavour_check(cyc, rng, sample_bound=12)
    assert rep.exact == "T" and not rep.violations
    swap = oa.PermutationElement(t, (1, 3, 2), t, free1)
    rep = oa.flavour_check(swap, rng, sample_bound=25)
    assert rep.exact == "V"
    assert rep.cyclic_violations, "a transposition must break some sampled chain"


def test_order_equivariance_f_flavour(cleary, rng):
    trees = [t for k in (1, 2) for t in trees_with_carets(cleary.colours, k)]
    for _ in range(30):
        t = rng.choice(trees)
        s = rng.choice([u for u in trees if leaf_count(u) == leaf_count(t)])
        g = oa.from_fraction(fr.GroupElement(t, s, cleary))
        t2 = random_tree(rng, cleary.colours, rng.randrange(1, 4))
        x = oa.normalize_point(cleary, t2, rng.randrange(1, leaf_count(t2) + 1))
        t3 = random_tree(rng, cleary.colours, rng.randrange(1, 4))
        y = oa.normalize_point(cleary, t3, rng.randrange(1, leaf_count(t3) + 1))
        before = oa.compare(x, y)
        after = oa.compare(oa.act(g, x), oa.act(g, y))
        assert before == after


# ---------------------------------------------------------------------------
# Transitivity and stabilizers

def test_transitivity_identity_case(free1):
    A = [oa.normalize_point(free1, caret("a"), 1)]
    g = oa.transitivity_witness(A, A)
    assert g is not None
    assert oa.act(g, A[0]) == A[0]


def test_transitivity_k1_free(free1):
    A = [oa.normalize_point(free1, caret("a"), 1)]
    B = [oa.normalize_point(free1, caret("a"), 2)]
    g = oa.transitivity_witness(A, B)
    assert g is not None
    assert g.flavour in ("T", "F")
    assert oa.act(g, A[0]) == B[0]


def test_transitivity_cleary_sets(cleary, rng):
    for k in (1, 2, 3):
        for _ in range(4):
            A = oa.random_point_set(cleary, rng, k)
            B = oa.random_point_set(cleary, rng, k)
            g = oa.transitivity_witness(A, B)
            assert g is not None
            assert {oa.act(g, x) for x in A} == set(B)


def test_stabilizer(free1, rng):
    t = tw("a1 a2")
    stab = oa.stabilizer_generators(free1, t)
    pts = stab.points()
    # the cyclic element rotates the marked points
    images = [oa.act(stab.cyclic, x) for x in pts]
    assert images == pts[1:] + pts[:1]
    for _ in range(10):
        fx = oa.sample_fixer(free1, t, rng)
        assert all(oa.act(fx, x) == x for x in pts)
    with pytest.raises(ValueError):
        oa.make_fixer(free1, t, (caret("a"), LEAF, LEAF), (LEAF, LEAF, LEAF))


def test_order_laws_sampled(cleary, rng):
    pts = [oa.random_point_set(cleary, rng, 1)[0] for _ in range(12)]
    for x, y, z in itertools.combinations(pts, 3):
        cxy, cyz, cxz = oa.compare(x, y), oa.compare(y, z), oa.compare(x, z)
        assert None not in (cxy, cyz, cxz)
        if cxy == "LT" and cyz == "LT":
            assert cxz == "LT"
        if cxy == "EQ":
            assert oa.compare(y, x) == "EQ"
    for x, y in itertools.combinations(pts, 2):
        a, b = oa.compare(x, y), oa.compare(y, x)
        assert {a, b} in ({"LT", "GT"}, {"EQ"})


# sha256 of seeded flavour reports and raw point equalities, recorded while
# `flavour_check` sorted its chains with its own comparison key and
# `raw_points_equal` built its own Ore witness.  notlc and rebel take the
# oracle route, where the small bounds leave some chains and some answers
# unresolved; the other presentations take the reversing route.
PINNED_FLAVOURS = "376cbac26345e9a46212697db82395ec12753b4b8495809646cfdeac7159f0f6"


def _pinned_flavours():
    t, s = tw("a1 a1"), tw("a1 a2")
    for name, bound in (("cleary", None), ("ternary", None), ("free1", None),
                        ("dv2", None), ("notlc", 2), ("rebel", 3)):
        p = corpus.load(name)
        for perm in ((1, 2, 3), oa.rotation(3, 1), (1, 3, 2)):
            for seed in range(4):
                rep = oa.flavour_check(oa.PermutationElement(t, perm, s, p),
                                       random.Random(seed), 6, bound)
                yield repr((rep.exact, rep.samples, rep.order_violations,
                            rep.cyclic_violations, rep.unresolved))
    rng = random.Random(18)
    for name in ("cleary", "ternary", "notlc", "rebel"):
        p = corpus.load(name)
        for _ in range(40):
            t = random_tree(rng, p.colours, rng.randrange(0, 4))
            j = rng.randrange(1, leaf_count(t) + 1)
            if rng.random() < 0.5:
                u, i = oa.grow_point(p, oa.OrderedPoint(t, j, p),
                                     random_forest(rng, p.colours, leaf_count(t),
                                                   rng.randrange(0, 3)))
            else:
                u = random_tree(rng, p.colours, rng.randrange(0, 4))
                i = rng.randrange(1, leaf_count(u) + 1)
            yield repr(oa.raw_points_equal(p, (t, j), (u, i), rng.choice((None, 2, 4))))


def test_flavours_and_point_equalities_pinned():
    out = list(_pinned_flavours())
    assert {"True", "False", "None"} <= set(out)
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == PINNED_FLAVOURS


# Witness renders (or None) of seeded point sets, recorded while
# `transitivity_witness` restarted its padding loop after every pad.  On
# cleary, free1 and ternary the bound reaches only the pad count, so a None
# there at a small bound is the pad cut-off; rebel takes the oracle route,
# where a small bound also leaves witnesses unresolved.
PINNED_TRANSITIVITY = "e7b19cd06034c66f8222a44c4e171789e8201e69342338d4645050f5f86a515a"


def _transitivity_renders():
    for name in ("cleary", "free1", "ternary", "rebel"):
        p = corpus.load(name)
        for k in (1, 2, 3, 4):
            rng = random.Random(100 * k + len(name))
            for _ in range(3):
                A, B = oa.random_point_set(p, rng, k), oa.random_point_set(p, rng, k)
                for bound in (2, 3, 4, 14):
                    g = oa.transitivity_witness(A, B, bound)
                    yield name, bound, None if g is None else g.render()


def test_transitivity_witnesses_pinned():
    out = list(_transitivity_renders())
    # the pad cut-off answers None where bound 14 (the fourth of each set) finds one
    assert any(name != "rebel" and r is None and out[i - i % 4 + 3][2] is not None
               for i, (name, _bound, r) in enumerate(out))
    text = "\n".join(repr(r) for _name, _bound, r in out)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TRANSITIVITY
