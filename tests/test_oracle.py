import random

import pytest

from forestskein import corpus, fractions, oracle
from forestskein.forest import (
    caret,
    compose,
    find_occurrences,
    forest_caret_count,
    forests_with_carets,
    parse_word,
    random_forest,
    random_tree,
    render_forest,
    rewrite_at,
    tensor,
    tree_from_word,
    trees_with_carets,
)
from forestskein.ordered_action import normalize_point
from forestskein.presentation import memo, parse


def tw(text):
    return tree_from_word(parse_word(text))


def test_free_presentation_singletons(free2):
    table = oracle.saturate(free2, 1, 3)
    assert all(len(cls) == 1 for cls in table.classes)


def test_cleary_two_caret_classes(cleary):
    table = oracle.saturate(cleary, 1, 2)
    two = [cls for cls in table.classes if forest_caret_count(cls[0]) == 2]
    assert len(two) == 7                       # 8 trees, one identified pair
    sizes = sorted(len(cls) for cls in two)
    assert sizes == [1, 1, 1, 1, 1, 1, 2]
    assert oracle.equivalent(cleary, (tw("a1 a1"),), (tw("b1 b2"),))


def test_class_count_relabel_symmetry():
    p = parse("colors: a, b\nrel: a1 a1 = b1 b2\n")
    q = parse("colors: b, a\nrel: b1 b1 = a1 a2\n")   # colours renamed a<->b
    for k in (2, 3):
        assert len(oracle.saturate(p, 1, k).classes) == len(oracle.saturate(q, 1, k).classes)


def test_equivalent_examples(cleary, notlc):
    t = tw("a1 a1")
    assert oracle.equivalent(cleary, (t,), (t,))
    assert oracle.equivalent(cleary, (t,), (tw("b1 b2"),))
    # mixed tensors stay distinct in the two-relation example
    ya, yb = caret("a"), caret("b")
    assert not oracle.equivalent(notlc, tensor((ya,), (yb,)), tensor((yb,), (ya,)))


def test_class_leq(cleary, free2):
    t = tw("a1 a1")
    assert oracle.class_leq(cleary, (t,), (t,)) == (None, None, None)
    h = oracle.class_leq(cleary, (caret("a"),), (tw("b1 b2"),))
    assert h == (caret("a"), None)             # elementary(a,1,2)
    assert oracle.class_leq(free2, (caret("a"),), (tw("b1 b2"),)) is None


def test_class_members(cleary):
    table = oracle.saturate(cleary, 1, 3)
    for cls in table.classes:
        for f in cls:
            assert oracle.class_members(cleary, f) == cls
    assert oracle.class_members(cleary, (tw("b1 b2"),)) == [(tw("a1 a1"),), (tw("b1 b2"),)]
    five = (tw("a1 a1 a1 a1 a1"),)
    with pytest.raises(oracle.BudgetExceeded):
        oracle.class_members(cleary, five, oracle.OracleBudget(caret_cap=4))
    with pytest.raises(oracle.BudgetExceeded):
        oracle.class_members(cleary, five, oracle.OracleBudget(class_cap=300))


def test_class_search_matches_the_table():
    # the search from one forest gives the table's class: same list, same order
    memo.cache_clear()
    rng = random.Random(8)
    for name in corpus.names():
        p = corpus.load(name)
        fewer = 1 if len(p.colours) >= 4 else 0
        for roots, carets in ((1, 4 - fewer), (2, 3 - fewer)):
            table = oracle.saturate(p, roots, carets)
            for k in range(carets + 1):
                for f in forests_with_carets(p.colours, roots, k):
                    assert oracle.class_members(p, f) == table.classes[table.class_id(f)]
    for _ in range(200):
        p = corpus.load(rng.choice(corpus.names()))
        k = rng.randrange(1, 4)
        table = oracle.saturate(p, 1, k)
        f = random_forest(rng, p.colours, 1, k)
        g = rng.choice(table.classes[table.class_id(f)] + [random_forest(rng, p.colours, 1, k)])
        assert oracle.equivalent(p, f, g) == (table.class_id(f) == table.class_id(g))


def test_neighbours_are_the_single_rewrites():
    # the one walk gives each rewrite that occurrence search and rewrite_at give
    rng = random.Random(24)
    for name in corpus.names():
        p = corpus.load(name)
        for _ in range(60):
            f = random_forest(rng, p.colours, rng.randint(1, 3), rng.randint(0, 7))
            want = [rewrite_at(f, occ, u, u2) for lhs, rhs in p.relations
                    for u, u2 in ((lhs, rhs), (rhs, lhs)) for occ in find_occurrences(f, u)]
            assert sorted(map(render_forest, oracle._neighbours(p, f))) == \
                sorted(map(render_forest, want))


def test_single_class_reads_build_no_stratum(cleary, notlc):
    memo.cache_clear()
    rng = random.Random(88)
    t = random_tree(rng, cleary.colours, 8)
    normalize_point(cleary, t, rng.randrange(1, 10))
    s, u = (random_tree(rng, notlc.colours, 5) for _ in range(2))
    fractions.trees_equivalent(notlc, s, u, 14)
    assert oracle._strata(cleary) == {} and oracle._strata(notlc) == {}
    five = (tw("a1 a1 a1 a1 a1"),)
    with pytest.raises(oracle.BudgetExceeded):
        oracle.class_members(cleary, five, oracle.OracleBudget(class_cap=300))
    assert five not in oracle._class_memo(cleary)
    # a class already read at the default budget is still refused under a tight one
    assert five in oracle.class_members(cleary, five)
    with pytest.raises(oracle.BudgetExceeded):
        oracle.class_members(cleary, five, oracle.OracleBudget(class_cap=300))


def test_multiple_classes_match_the_table(cleary, free2, notlc, rebel):
    # the classes read from the extensions of x are the table's classes at
    # level k that x divides, in table order
    for p in (cleary, free2, notlc, rebel):
        table = oracle.saturate(p, 1, 5)
        for k in range(6):
            level = [cls for cls in table.classes if forest_caret_count(cls[0]) == k]
            for x in (t for j in range(4) for t in trees_with_carets(p.colours, j)):
                want = [cls for cls in level if oracle.divide_class((x,), cls) is not None]
                assert oracle.multiple_classes(p, (x,), k) == want


def test_multiple_classes_refused_like_the_stratum(cleary, monkeypatch):
    requests = []
    real = oracle.forests_with_carets

    def recording(colours, roots, k):
        requests.append(k)
        return real(colours, roots, k)

    monkeypatch.setattr(oracle, "forests_with_carets", recording)
    with pytest.raises(oracle.BudgetExceeded, match=r"<= 9 carets\) exceeds 1000000 forests"):
        oracle.multiple_classes(cleary, (caret("a"),), 9)
    with pytest.raises(oracle.BudgetExceeded, match=r"<= 9 carets\) exceeds 1000000 forests"):
        oracle.check_ore_bounded(cleary, 1, 9)
    assert requests == []


def test_refute_left_cancellative(cleary, notlc, free2):
    ce = oracle.refute_left_cancellative(notlc, 3)
    assert ce is not None
    # the witness is replayable against the tables
    assert oracle.equivalent(notlc, compose(ce.f, ce.g), compose(ce.f, ce.h))
    assert not oracle.equivalent(notlc, ce.g, ce.h)
    assert oracle.refute_left_cancellative(cleary, 6) is None
    assert oracle.refute_left_cancellative(free2, 4) is None


def test_check_ore_bounded(cleary, free2, free1):
    rep = oracle.check_ore_bounded(free2, 1, 4)
    assert ("[a(I,I)]", "[b(I,I)]") in rep.failures
    rep = oracle.check_ore_bounded(cleary, 2, 5)
    assert rep.failures == []
    assert rep.pairs_checked > 0
    rep = oracle.check_ore_bounded(free1, 2, 5)
    assert rep.failures == []


def test_mcm_examples(cleary, free2):
    got = oracle.mcm_bounded(cleary, caret("a"), caret("b"), 4)
    assert [render_forest(z) for z in got] == ["[a(a(I,I),I)]"]
    assert oracle.mcm_bounded(free2, caret("a"), caret("b"), 4) == []
    with pytest.raises(ValueError):
        oracle.mcm_bounded(cleary, caret("a"), caret("a"), 3)


def test_mcm_f_tau():
    from forestskein.ore_spine import build_f_tau
    comp = tw("a1 a1 a3")
    p = build_f_tau({"a": comp, "b": comp}).presentation
    got = oracle.mcm_bounded(p, caret("a"), caret("b"), 5)
    assert len(got) == 1
    assert oracle.equivalent(p, got[0], (tw("a1 a1 a3"),))


def test_saturation_idempotent(cleary):
    t1 = oracle._build(cleary, 1, 3)
    t2 = oracle._build(cleary, 1, 3)
    assert t1.class_of == t2.class_of
    assert t1.classes == t2.classes


def test_classes_respect_rewrites(cleary, rng):
    lhs, rhs = cleary.relations[0]
    for _ in range(100):
        k = rng.randrange(2, 6)
        t = rng.choice(trees_with_carets(cleary.colours, k))
        for occ in find_occurrences((t,), lhs):
            assert oracle.equivalent(cleary, (t,), rewrite_at((t,), occ, lhs, rhs))


def test_stratum_preservation(cleary):
    table = oracle.saturate(cleary, 2, 3)
    for cls in table.classes:
        counts = {forest_caret_count(f) for f in cls}
        assert len(counts) == 1


def test_class_leq_partial_order(cleary, rng):
    trees = [t for k in range(4) for t in trees_with_carets(cleary.colours, k)]
    sample = rng.sample(trees, 25)
    for t in sample:
        assert oracle.class_leq(cleary, (t,), (t,)) is not None
    for _ in range(150):
        x, y, z = (rng.choice(sample) for _ in range(3))
        xy = oracle.class_leq(cleary, (x,), (y,))
        yz = oracle.class_leq(cleary, (y,), (z,))
        if xy is not None and yz is not None:
            assert oracle.class_leq(cleary, (x,), (z,)) is not None
        yx = oracle.class_leq(cleary, (y,), (x,))
        if xy is not None and yx is not None:
            assert oracle.equivalent(cleary, (x,), (y,))


def test_budget_cap():
    p = parse("colors: a, b\n")
    with pytest.raises(oracle.BudgetExceeded):
        oracle.saturate(p, 1, 13)


def test_over_budget_stratum_is_refused_before_enumeration(cleary, monkeypatch):
    # cleary has 2,920,403 forests with <= 9 carets, above the default cap
    requests = []
    real = oracle.forests_with_carets

    def recording(colours, roots, k):
        requests.append(k)
        return real(colours, roots, k)

    monkeypatch.setattr(oracle, "forests_with_carets", recording)
    with pytest.raises(oracle.BudgetExceeded, match=r"<= 9 carets\) exceeds 1000000 forests"):
        oracle.saturate(cleary, 1, 9)
    assert requests == []


def test_cached_stratum_keeps_the_budget(cleary):
    # a table built under the default budget is refused to a tighter one
    assert len(oracle.saturate(cleary, 1, 6).class_of) == 10_067
    with pytest.raises(oracle.BudgetExceeded, match=r"<= 6 carets\) exceeds 300 forests"):
        oracle.saturate(cleary, 1, 6, oracle.OracleBudget(class_cap=300))


def test_concurrent_saturation(cleary):
    import sys
    import threading
    memo.cache_clear()
    results = []

    def work():
        results.append(oracle.saturate(cleary, 1, 4))

    # more threads than cores, switching often, on a cold memo: a table built
    # twice or stored in a lost memo entry shows as two distinct results
    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    assert all(r is results[0] for r in results)


def test_ore_report_json(free2):
    rep = oracle.check_ore_bounded(free2, 1, 3)
    doc = rep.to_json()
    assert doc["verdict"] == "failures"
    assert ["[a(I,I)]", "[b(I,I)]"] in doc["failures"]
    assert doc["bounds"] == {"pair_bound": 1, "search_bound": 3}


def _descend_calls(monkeypatch):
    """The (p, start, key, prune) of every descent that both normal forms run
    on seeded inputs, with the callers' own key and prune functions."""
    calls, real = [], oracle.descend

    def capture(p, start, key, prune, budget=None):
        calls.append((p, start, key, prune))
        return real(p, start, key, prune, budget)

    monkeypatch.setattr(oracle, "descend", capture)
    rng = random.Random(33)
    for name in ("cleary", "ternary", "gn3", "free1", "free2", "rebel", "notlc"):
        p = corpus.load(name)
        for _ in range(12):
            k = rng.randint(1, 3)
            t, s = (random_tree(rng, p.colours, k) for _ in range(2))
            f = random_forest(rng, p.colours, k + 1, rng.randint(0, 2))
            num = rng.choice(oracle.class_members(p, compose((t,), f)))[0]
            normalize_point(p, num, rng.randint(1, k + 1 + forest_caret_count(f)))
            fractions.normal_form(fractions.GroupElement(num, compose((s,), f)[0], p))
    monkeypatch.setattr(oracle, "descend", real)
    return calls


def _exhaustive_descend(p, start, key, prune):
    """Every state reached by single relation rewrites (both directions, any
    tree) and prune moves, closed up; the least one by key."""
    seen, stack = {start}, [start]
    while stack:
        state = stack.pop()
        trees, tag = state
        moves = list(prune(state))
        for i, t in enumerate(trees):
            for lhs, rhs in p.relations:
                for u, u2 in ((lhs, rhs), (rhs, lhs)):
                    for occ in find_occurrences((t,), u):
                        new = rewrite_at((t,), occ, u, u2)[0]
                        moves.append((trees[:i] + (new,) + trees[i + 1:], tag))
        for nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return min(seen, key=key)


def test_descend_matches_exhaustive_search(monkeypatch):
    calls = _descend_calls(monkeypatch)
    assert len(calls) == 2 * 7 * 12
    for p, start, key, prune in calls:
        assert oracle.descend(p, start, key, prune) == _exhaustive_descend(p, start, key, prune)


def test_descend_prunes_each_state_once(monkeypatch):
    for p, start, key, prune in _descend_calls(monkeypatch):
        pruned = []

        def counting(state):
            pruned.append(state)
            return prune(state)

        oracle.descend(p, start, key, counting)
        assert len(pruned) == len(set(pruned)), p.name
