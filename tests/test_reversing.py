import collections
import hashlib
import itertools
import random
import time

import pytest

from forestskein import corpus, fractions, oracle, ore_spine, reversing as rv
from forestskein.config import ReversingBudget
from forestskein.forest import (
    forest_from_word,
    compose,
    leaf_starts,
    parse_word,
    random_tree,
    render_word,
    tree_from_word,
    trees_with_carets,
    word_from_tree,
)
from forestskein.ore_spine import build_f_tau
from forestskein.presentation import is_complemented, memo, parse, skein_relation_words
from reference import complemented_cube_word, inverse_word, parse_signed_word, stratum


def sw(text):
    return parse_signed_word(text)


def test_thompson_shift_reversal(cleary):
    out = rv.reverse(cleary, sw("a2^-1 b1"))
    assert out.status == "terminated"
    assert out.result == ((("b", 1),), (("a", 3),))


def test_deletion(cleary):
    out = rv.reverse(cleary, sw("a1^-1 b2^-1 b2 a1"))
    assert out.status == "empty"


def test_cleary_skein_reversal(cleary):
    out = rv.reverse(cleary, sw("a1^-1 b1"))
    assert out.result == ((("a", 1),), (("b", 2),))


def test_complement_examples(cleary):
    v = parse_word("b1 b2")
    assert rv.complement(cleary, (), v) == (tuple(v), ())
    assert rv.complement(cleary, v, ()) == ((), tuple(v))
    assert rv.complement(cleary, parse_word("a1"), parse_word("b1")) == \
        ((("a", 1),), (("b", 2),))


def test_complement_requires_complemented(notlc):
    with pytest.raises(ValueError):
        rv.complement(notlc, parse_word("a1"), parse_word("b1"))


def test_complement_blocked(free2):
    assert rv.complement(free2, parse_word("a1"), parse_word("b1")) is None


def test_mixed_identity_tree_words(cleary, rng):
    # (a_j \ w_q) = w_{q+1} for j < q and w a word of a tree at slot q
    for _ in range(25):
        t = rng.choice(trees_with_carets(cleary.colours, rng.randrange(1, 4)))
        w = word_from_tree(t)
        q = rng.randrange(2, 5)
        j = rng.randrange(1, q)
        wq = tuple((c, i + q - 1) for c, i in w)
        wq1 = tuple((c, i + q) for c, i in w)
        left, right = rv.complement(cleary, (("a", j),), wq)
        assert left == wq1
        assert right == (("a", j),)


def test_scc_trivial(cleary):
    u = parse_word("a1 b2")
    assert rv.scc_at(cleary, u, u, u) == "satisfied"


def test_scc_not_all_distinct_complemented(ternary):
    u, v = parse_word("a1"), parse_word("b1")
    assert rv.scc_at(ternary, u, u, v) == "satisfied"
    assert rv.scc_at(ternary, u, v, v) == "satisfied"


def test_scc_violated_three_colours():
    # search a family of complemented 3-colour presentations for a cube
    # violation, then confirm scc_at reports it
    vines = ["x1 x1", "x1 x2"]
    found = None
    for ab in vines:
        for ac in vines:
            for bc in vines:
                text = ("colors: a, b, c\n"
                        f"rel: {ab.replace('x', 'a')} = {ab.replace('x', 'b')}\n"
                        f"rel: {ac.replace('x', 'a')} = {ac.replace('x', 'c')}\n"
                        f"rel: {bc.replace('x', 'b')} = {bc.replace('x', 'c')}\n")
                p = parse(text)
                e = complemented_cube_word(p, "a", "b", "c")
                if e:
                    found = (p, e)
                    break
            if found:
                break
        if found:
            break
    assert found is not None, "no violating presentation in the family"
    p, word = found
    assert rv.scc_at(p, parse_word("a1"), parse_word("b1"), parse_word("c1")) \
        == "violated"
    assert rv.is_complete(p).verdict == "incomplete"


def test_is_complete_examples(cleary, ternary, notlc, rebel):
    assert rv.is_complete(cleary).verdict == "complete"
    assert rv.is_complete(ternary).verdict == "complete"
    assert rv.is_complete(notlc).verdict == "incomplete"
    assert rv.is_complete(rebel).verdict == "complete"


def test_is_complete_f_tau_three_colours():
    comp = tree_from_word(parse_word("x1 x1 x3"))
    p = build_f_tau({"a": comp, "b": comp, "c": comp}).presentation
    assert rv.is_complete(p).verdict == "complete"


def test_is_complete_three_pairwise_monochromatic_relations():
    # all three pairwise relations between one-colour copies of a tree: the
    # cube expression is defined everywhere and collapses to the empty word
    text = ("colors: a, b, c\n"
            "rel: a1 a1 a3 = b1 b1 b3\n"
            "rel: a1 a1 a3 = c1 c1 c3\n"
            "rel: b1 b1 b3 = c1 c1 c3\n")
    p = parse(text)
    for x, y, z in (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")):
        assert complemented_cube_word(p, x, y, z) == ()
    assert rv.is_complete(p).verdict == "complete"


def test_is_complete_unknown_shape():
    p = parse("colors: a, b\nrel: a1 a1 = a1 b2\n")
    assert rv.is_complete(p).verdict == "unknown"


def test_decide_lc(cleary, notlc, free1):
    assert rv.decide_left_cancellative(cleary).verdict == "yes"
    assert rv.decide_left_cancellative(free1).verdict == "yes"
    cert = rv.decide_left_cancellative(notlc)
    assert cert.verdict == "no"
    assert "counterexample" in cert.detail


def test_ore_via_closed_family(cleary, ternary, free2):
    assert rv.ore_via_closed_family(ternary).verdict == "yes"
    assert rv.ore_via_closed_family(cleary).verdict == "yes"
    gn3 = parse("colors: a, b\nrel: a1 a1 a1 = b1 b2 b3\n")
    assert rv.ore_via_closed_family(gn3).verdict == "unknown"
    assert rv.ore_via_closed_family(free2).verdict == "unknown"
    assert rv.ore_via_closed_family(parse("colors: a\n")).verdict == "yes"


def test_reversing_soundness_against_oracle(cleary, rng):
    # every terminating reversal of u^-1 v satisfies u v' ~ v u'
    trees = [t for k in range(1, 5) for t in trees_with_carets(cleary.colours, k)]
    for _ in range(300):
        t, s = rng.choice(trees), rng.choice(trees)
        wt, ws = word_from_tree(t), word_from_tree(s)
        out = rv.reverse(cleary, rv.inverse_product(wt, ws))
        assert out.terminated
        left = compose((t,), forest_from_word(out.result[0], len(wt) + 1))
        right = compose((s,), forest_from_word(out.result[1], len(ws) + 1))
        assert oracle.equivalent(cleary, left, right)


def test_determinism(cleary):
    w = sw("a2^-1 b1 b1^-1 a1 a1^-1 b2")
    first = rv.reverse(cleary, w)
    second = rv.reverse(cleary, w)
    assert first == second
    assert first.result == second.result


def test_agreement_small(cleary, ternary):
    for p in (cleary, ternary):
        table = stratum(p, 1, 3)
        trees = [t for k in range(1, 4) for t in trees_with_carets(p.colours, k)]
        for i, t in enumerate(trees):
            for s in trees[i + 1:]:
                want = table.class_id((t,)) == table.class_id((s,))
                got = rv.words_equal(p, word_from_tree(t), word_from_tree(s))
                assert (got == "yes") == want


def test_budget_monotonicity(cleary):
    w = sw("a2^-1 b1")
    small = rv.reverse(cleary, w, ReversingBudget(steps=5))
    big = rv.reverse(cleary, w, ReversingBudget(steps=5000))
    assert small.terminated and big.terminated
    assert small.result == big.result


def test_budget_exhaustion_is_a_status(cleary):
    out = rv.reverse(cleary, sw("a1^-1 b1"), ReversingBudget(steps=0))
    assert out.status == "budget_exhausted"


def test_index_ceiling(cleary):
    out = rv.reverse(cleary, sw("a64^-1 b1"), ReversingBudget(index_ceiling=64))
    assert out.status == "budget_exhausted"
    out = rv.reverse(cleary, sw("a64^-1 b1"), ReversingBudget(index_ceiling=65))
    assert out.status == "terminated"
    assert out.result == ((("b", 1),), (("a", 65),))
    # the shift that grows the positive letter
    out = rv.reverse(cleary, sw("a1^-1 b64"), ReversingBudget(index_ceiling=64))
    assert (out.status, out.steps) == ("budget_exhausted", 0)
    out = rv.reverse(cleary, sw("a1^-1 b64"), ReversingBudget(index_ceiling=65))
    assert out.result == ((("b", 65),), (("a", 1),))


def test_index_ceiling_branching(rebel):
    # the branching engine counts the refused move as a step
    out = rv.reverse(rebel, sw("a64^-1 b1"), ReversingBudget(index_ceiling=64))
    assert (out.status, out.terminals, out.steps) == ("budget_exhausted", (), 1)
    out = rv.reverse(rebel, sw("a64^-1 b1"), ReversingBudget(index_ceiling=65))
    assert (out.status, out.terminals, out.steps) == \
        ("terminated", (((("b", 1),), (("a", 65),)),), 1)


def test_index_ceiling_skein_move(cleary, notlc):
    # a_i^-1 b_i -> a_i b_{i+1}^-1 on cleary: b_{i+1} must fit under the ceiling
    at = ReversingBudget(index_ceiling=64)
    out = rv.reverse(cleary, sw("a63^-1 b63"), at)
    assert out.result == ((("a", 63),), (("b", 64),))
    out = rv.reverse(cleary, sw("a64^-1 b64"), at)
    assert (out.status, out.steps) == ("budget_exhausted", 0)
    out = rv.reverse(cleary, sw("a64^-1 b64"), ReversingBudget(index_ceiling=65))
    assert out.result == ((("a", 64),), (("b", 65),))
    # notlc has two moves at equal index; only the one that grows is refused
    out = rv.reverse(notlc, sw("a64^-1 b64"), at)
    assert (out.status, out.terminals, out.steps) == \
        ("budget_exhausted", (((("b", 64),), (("a", 64),)),), 2)
    out = rv.reverse(notlc, sw("a64^-1 b64"), ReversingBudget(index_ceiling=65))
    assert (out.status, out.terminals, out.steps) == \
        ("branching", (((("a", 65),), (("b", 65),)), ((("b", 64),), (("a", 64),))), 2)


def test_input_letters_above_the_ceiling_may_be_deleted(cleary, rebel):
    # input letters are not checked against the ceiling; only grown ones are
    at = ReversingBudget(index_ceiling=64)
    for p in (cleary, rebel):
        out = rv.reverse(p, sw("a100^-1 a100"), at)
        assert (out.status, out.terminals, out.steps) == ("empty", (((), ()),), 1)
    out = rv.reverse(cleary, sw("b1 a100^-1 a100 a2"), at)
    assert (out.status, out.result, out.steps) == \
        ("terminated", ((("b", 1), ("a", 2)), ()), 1)


def test_branching_status(notlc):
    out = rv.reverse(notlc, sw("a1^-1 b1"))
    assert out.status == "branching"
    assert len(out.terminals) >= 2


def test_branching_budget_exhaustion_keeps_terminals(rebel):
    w = sw("a1^-1 a1^-1 b1 b1")
    full = rv.reverse(rebel, w)
    assert full.status == "branching"
    cut = rv.reverse(rebel, w, ReversingBudget(steps=4))
    assert cut.status == "budget_exhausted"
    assert cut.result is None
    assert cut.terminals == (((), ()),)
    assert set(cut.terminals) < set(full.terminals)
    # a terminal reached before the budget ran out still decides
    assert rv.reverses_to_empty(rebel, w, ReversingBudget(steps=4)) == "yes"


# Outcomes of seeded reversals, recorded before the letter coding of the
# reversing engine changed from tuples to signed ints.  Any change in a
# status, a terminal, its order or a step count changes the digest.
PINNED_OUTCOMES = "87a0fe54ea6f0629d83862157df7a203a8b61938b2be707a87f045ca2e5d0614"


def _pinned_reversals():
    rng = random.Random(9)
    tree = tree_from_word(parse_word("x1 x1 x3"))
    ftau3 = build_f_tau({"a": tree, "b": tree, "c": tree}).presentation
    presentations = [corpus.load(n) for n in corpus.names()] + [ftau3]
    budgets = (ReversingBudget(), ReversingBudget(steps=30),
               ReversingBudget(index_ceiling=6), ReversingBudget(branch_cap=20))

    def word(p, n):
        return tuple((rng.choice(p.colours), rng.randint(1, 4)) for _ in range(n))

    for p in presentations:
        for budget in budgets:
            for k in range(30):
                u, v = word(p, rng.randint(1, 5)), word(p, rng.randint(1, 5))
                if k % 3 == 0:
                    w = inverse_word(rv.positive_word(u)) + rv.positive_word(v)
                elif k % 3 == 1:
                    w = rv.positive_word(u) + inverse_word(rv.positive_word(v))
                else:
                    w = tuple((c, i, rng.choice((1, -1)))
                              for c, i in word(p, rng.randint(2, 8)))
                yield rv.reverse(p, w, budget)


def test_reversal_outcomes_pinned():
    text = "\n".join(repr((out.status, out.terminals, out.steps))
                     for out in _pinned_reversals())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_OUTCOMES


def test_block_starts_match_the_decoded_forest(ternary):
    rng = random.Random(8)
    rules = rv.rules_of(ternary)
    for _ in range(2000):
        roots = rng.randint(1, 5)
        word = [(rng.choice(ternary.colours), rng.randint(1, roots + n))
                for n in range(rng.randint(0, 12))]
        codes = rules.encode(rv.positive_word(word))
        assert rules.block_starts(codes, roots) == leaf_starts(forest_from_word(word, roots))


# The answers of `reverses_to_empty`, `words_equal` and `left_divides` as
# they were read from decoded terminals before those calls answered on code
# words.

def _decoded_answer(p, w, budget, divides=False):
    out = rv.reverse(p, w, budget)
    if any((not right) if divides else (left, right) == ((), ())
           for left, right in out.terminals):
        return "yes"
    return "unknown" if out.status == "budget_exhausted" else "no"


def _decoded_words_equal(p, u, v, budget):
    if len(u) != len(v):
        return "no"
    if tuple(u) == tuple(v):
        return "yes"
    return _decoded_answer(p, rv.inverse_product(u, v), budget)


RAND33 = "colors: a, b, c\nrel: a1 b2 = b1 b1\nrel: a1 = c1\n"
RAND73 = "colors: a, b, c\nrel: a1 c1 b2 = b1 b2 b3\nrel: c1 = b1\n"


def _exactness_cases():
    """(presentation, budget, u, v, signed word) over the corpus, f_tau3 and rand33."""
    rng = random.Random(16)
    tree = tree_from_word(parse_word("x1 x1 x3"))
    ftau3 = build_f_tau({"a": tree, "b": tree, "c": tree}).presentation
    presentations = [corpus.load(n) for n in corpus.names()] + [ftau3, parse(RAND33)]
    budgets = (ReversingBudget(), ReversingBudget(steps=30),
               ReversingBudget(index_ceiling=6), ReversingBudget(branch_cap=20))

    def word(p, n):
        return tuple((rng.choice(p.colours), rng.randint(1, 4)) for _ in range(n))

    def shifted(w, k):
        return tuple((c, i + k) for c, i in w)

    for p in presentations:
        relations = list(skein_relation_words(p))
        for budget in budgets:
            for k in range(24):
                u = word(p, rng.randint(1, 5))
                if k % 4 == 0 or not relations:
                    v = word(p, len(u) if k % 8 < 4 else rng.randint(1, 5))
                elif k % 4 == 1:            # equal: one relation applied inside
                    lw, rw = rng.choice(relations)
                    x, y, at = word(p, rng.randint(0, 2)), word(p, rng.randint(0, 2)), \
                        rng.randint(0, 2)
                    u, v = x + shifted(lw, at) + y, x + shifted(rw, at) + y
                elif k % 4 == 2:            # u divides v
                    v = u + word(p, rng.randint(0, 3))
                else:
                    v = word(p, rng.randint(1, 5))
                mixed = tuple((c, i, rng.choice((1, -1))) for c, i in word(p, rng.randint(2, 8)))
                yield p, budget, u, v, mixed


def test_code_word_answers_match_the_decoded_rule():
    counts = {"yes": 0, "no": 0, "unknown": 0}
    for p, budget, u, v, mixed in _exactness_cases():
        quotient = rv.inverse_product(u, v)
        for got, want in (
                (rv.words_equal(p, u, v, budget), _decoded_words_equal(p, u, v, budget)),
                (rv.left_divides(p, u, v, budget),
                 _decoded_answer(p, quotient, budget, divides=True)),
                (rv.reverses_to_empty(p, quotient, budget), _decoded_answer(p, quotient, budget)),
                (rv.reverses_to_empty(p, mixed, budget), _decoded_answer(p, mixed, budget))):
            assert got == want, (p.name, budget, u, v, mixed)
            counts[got] += 1
    assert min(counts.values()) > 0, counts


def test_complement_codes_match_reverse():
    # the code-level complement against the decoded one reversal of u^-1 v,
    # on every complemented presentation at hand, under tight budgets too
    rng = random.Random(19)
    tree = tree_from_word(parse_word("x1 x1 x3"))
    ftau3 = build_f_tau({"a": tree, "b": tree, "c": tree}).presentation
    presentations = [p for p in map(corpus.load, corpus.names()) if is_complemented(p)]
    presentations += [ftau3, parse(RAND33), parse(RAND73)]
    budgets = (ReversingBudget(), ReversingBudget(steps=30), ReversingBudget(index_ceiling=6))
    seen = collections.Counter()
    for p in presentations:
        rules = rv.rules_of(p)
        for budget in budgets:
            for _ in range(40):
                u, v = (tuple((rng.choice(p.colours), rng.randint(1, 4))
                              for _ in range(rng.randint(0, 6))) for _ in range(2))
                status, left, right = rv.complement_codes(
                    rules, rules.codes(u), rules.codes(v), budget)
                out = rv.reverse(p, rv.inverse_product(u, v), budget)
                decoded = None if left is None else (rules.decode(left), rules.decode(right))
                assert (status, decoded) == (out.status, out.result), (p.name, budget, u, v)
                seen[status, budget] += 1
    for status in ("terminated", "empty", "blocked"):
        assert seen[status, budgets[0]] > 0
    assert seen["budget_exhausted", budgets[1]] > 0
    assert seen["budget_exhausted", budgets[2]] > 0


@pytest.mark.parametrize("colours", ["a", "ab", "abc", "abcd"])
def test_canonical_is_the_code_of_the_built_tree(colours):
    # seeded tree words, each letter at any open leaf, against the code word
    # of the canonical word of the tree that the word builds
    p = parse(f"name: canon{len(colours)}\ncolors: {', '.join(colours)}\n")
    rules = rv.rules_of(p)
    rng = random.Random(colours)
    words = [[]] + [[(rng.choice(colours), rng.randint(1, k)) for k in range(1, n + 1)]
                    for n in (rng.randint(1, 12) for _ in range(300))]
    for word in words:
        codes = rules.codes(word)
        want = rules.codes(word_from_tree(tree_from_word(rules.decode(codes))))
        assert rules.canonical(codes) == want, word
    assert rules.canonical([]) == []


def test_canonical_on_a_long_vine(cleary):
    # 20,000 levels, far past the recursion limit; the right vine's word is
    # canonical already, and the pass over it is linear (about 15 ms, 2 vCPU)
    rules = rv.rules_of(cleary)
    vine = rules.codes([("b", k) for k in range(1, 20_001)])
    t0 = time.perf_counter()
    assert rules.canonical(vine) == vine
    assert time.perf_counter() - t0 < 1.0
    # a left vine with a right leg: caret k + 1 at leaf 1, then the leg
    word = [("a", 1)] * 10_000 + [("b", k) for k in range(2, 10_002)]
    codes = rules.codes(word)
    assert rules.canonical(codes) == rules.codes(word_from_tree(tree_from_word(word)))


def test_codes_equal_is_words_equal():
    # on the code words of positive words, under tight budgets too
    rng = random.Random(23)
    presentations = [corpus.load(n) for n in ("cleary", "ternary", "rebel", "notlc", "dv2")]
    budgets = (ReversingBudget(), ReversingBudget(steps=20))
    seen = collections.Counter()
    for p in presentations:
        rules = rv.rules_of(p)
        for budget in budgets:
            for _ in range(60):
                t = random_tree(rng, p.colours, rng.randint(0, 5))
                u = word_from_tree(t)
                members = oracle.class_members(p, (t,))
                v = word_from_tree(rng.choice(members)[0]) if rng.random() < 0.5 else \
                    word_from_tree(random_tree(rng, p.colours, len(u)))
                got = rv.codes_equal(rules, rules.codes(u), rules.codes(v), budget)
                assert got == rv.words_equal(p, u, v, budget), (p.name, u, v)
                seen[got] += 1
    assert set(seen) == {"yes", "no", "unknown"}, seen


def test_code_word_answers_do_not_decode(monkeypatch, cleary, rebel):
    def refuse(*args, **kwargs):
        raise AssertionError("decoded")

    monkeypatch.setattr(rv, "reverse", refuse)
    monkeypatch.setattr(rv._Rules, "split", refuse)
    for p in (cleary, rebel):
        u, v = parse_word("a1 a1"), parse_word("b1 b1" if p is rebel else "b1 b2")
        assert rv.words_equal(p, u, v) == "yes"
        assert rv.left_divides(p, u[:1], v) == "yes"
        assert rv.reverses_to_empty(p, rv.inverse_product(u, v)) == "yes"


def test_complements_do_not_decode_terminals(monkeypatch, cleary):
    def refuse(*args, **kwargs):
        raise AssertionError("decoded")

    tree = tree_from_word(parse_word("x1 x1 x3"))
    ftau3 = build_f_tau({"a": tree, "b": tree, "c": tree}).presentation
    memo.cache_clear()
    monkeypatch.setattr(rv, "reverse", refuse)
    monkeypatch.setattr(rv._Rules, "split", refuse)
    assert rv.is_complete(ftau3).verdict == "complete"
    assert fractions.route(ftau3) is not None
    t, s = tree_from_word(parse_word("a1 b2")), tree_from_word(parse_word("b1 a1"))
    for p in (cleary, ftau3):
        f, f2 = fractions.common_multiple_witness(p, t, s)
        assert rv.words_equal(p, word_from_tree(compose((t,), f)[0]),
                              word_from_tree(compose((s,), f2)[0])) == "yes"
        g = fractions.word_to_element([("b", 1, False, 1), ("a", 2, True, -1)], "a", p)
        assert fractions.is_identity(g) is False
        assert ore_spine._monochromatic_candidate(p)[0] is not None
    assert rv.complement(cleary, parse_word("a1"), parse_word("b1")) is not None


def test_branching_search_stops_at_its_first_witness(monkeypatch, rebel):
    calls = []
    engine = rv._reverse_branching

    def counted(*args):
        out = engine(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(rv, "_reverse_branching", counted)
    u, v = parse_word("a1 b1 a1"), parse_word("b1 a1 a1")
    assert rv.words_equal(rebel, u, v) == "yes"
    (status, words, steps), = calls
    assert (status, words) == ("witness", [()])
    full = rv.reverse(rebel, rv.inverse_product(u, v))
    assert ((), ()) in full.terminals
    assert steps < full.steps


def test_cube_defined_on_one_side_is_unknown():
    p = parse(RAND33)
    # (a1\b1)\(a1\c1) is empty; (b1\a1)\(b1\c1) is undefined: no b, c relation
    assert rv.cube_sides(p, "a", "b", "c") == ((), None)
    assert rv.is_complete(p) == rv.Certificate(
        "unknown", "complemented-cube-partial", {"triple": ["a", "b", "c"]})
    assert fractions.route(p) is None
    assert rv.decide_left_cancellative(p).verdict != "yes"


# Completeness certificates and cube expressions, recorded before the cube
# expressions went back to letter words through `complement`.  Any change in
# a verdict, a criterion, its detail, a cube side or a cube word changes the
# digest; a side that raises contributes its exception.
PINNED_CERTIFICATES = "95bbddaa349ca735632dd524f8b35b2e3b94494471ce6f986dd2a5b26b748934"


def _cube_or_error(fn, p, x, y, z):
    try:
        return fn(p, x, y, z)
    except (ValueError, oracle.BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)


def test_completeness_certificates_pinned():
    from test_differential import _generated

    families = ({c: tree_from_word(parse_word("x1 x1 x3")) for c in "abc"},
                {"a": tree_from_word(parse_word("x1 x2")),
                 "b": tree_from_word(parse_word("x1 x1")),
                 "c": tree_from_word(parse_word("x1 x2"))},
                {"a": tree_from_word(parse_word("x1 x2 x3")),
                 "b": tree_from_word(parse_word("x1 x1 x1")),
                 "c": tree_from_word(parse_word("x1 x1 x3")),
                 "d": tree_from_word(parse_word("x1 x2 x2"))})
    presentations = [corpus.load(n) for n in corpus.names()] + list(_generated().values())
    presentations += [parse(RAND33), parse(RAND73)]
    presentations += [build_f_tau(tau).presentation for tau in families]
    for ab, ac, bc in itertools.product(("x1 x1", "x1 x2"), repeat=3):     # six incomplete
        presentations.append(parse("colors: a, b, c\n" + "".join(
            f"rel: {w.replace('x', x)} = {w.replace('x', y)}\n"
            for w, x, y in ((ab, "a", "b"), (ac, "a", "c"), (bc, "b", "c")))))
    memo.cache_clear()
    out = []
    for p in presentations:
        out.append(repr(rv.is_complete(p).to_json()))
        for x, y, z in itertools.permutations(p.colours, 3):
            out.append(repr((_cube_or_error(rv.cube_sides, p, x, y, z),
                             _cube_or_error(complemented_cube_word, p, x, y, z))))
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == PINNED_CERTIFICATES
