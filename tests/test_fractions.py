import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from forestskein import (
    corpus,
    fractions as fr,
    group_presentation as gp,
    oracle,
    ore_spine,
    reversing,
)
from forestskein.cli import main
from forestskein.config import OracleBudget
from forestskein.forest import (
    caret,
    caret_count,
    compose,
    leaf_count,
    leaf_starts,
    parse_tree,
    parse_word,
    random_forest,
    random_tree,
    render_forest,
    render_tree,
    tree_from_word,
    trees_with_carets,
)
from forestskein.presentation import memo, parse
from reference import class_leq, mcm_bounded, stratum


def tw(text):
    return tree_from_word(parse_word(text))


def elem(p, num, den):
    return fr.GroupElement(num, den, p)


def test_leaf_count_guard(cleary):
    with pytest.raises(ValueError):
        fr.GroupElement(caret("a"), tw("a1 a1"), cleary)


def test_invert(cleary):
    g = elem(cleary, caret("a"), caret("b"))
    assert fr.invert(g) == elem(cleary, caret("b"), caret("a"))
    assert fr.invert(fr.invert(g)) == g
    assert fr.invert(fr.identity(cleary)) == fr.identity(cleary)


def test_identity_laws(cleary):
    g = elem(cleary, tw("a1 a1"), tw("b1 a2"))
    assert fr.equals(fr.multiply(fr.identity(cleary), g), g) is True
    assert fr.equals(fr.multiply(g, fr.identity(cleary)), g) is True
    assert fr.is_identity(fr.multiply(g, fr.invert(g))) is True


def test_equals_common_factor(cleary, rng):
    for _ in range(50):
        t = random_tree(rng, cleary.colours, rng.randrange(1, 4))
        s = random_tree(rng, cleary.colours, caret_count(t))
        n = leaf_count(t)
        f = tuple(random_tree(rng, cleary.colours, rng.randrange(0, 2)) for _ in range(n))
        g = elem(cleary, t, s)
        grown = elem(cleary, compose((t,), f)[0], compose((s,), f)[0])
        assert fr.equals(grown, g) is True


def test_equals_refutes(cleary):
    assert fr.equals(fr.identity(cleary), elem(cleary, caret("a"), caret("b")), 6) is False
    g = elem(cleary, caret("a"), caret("a"))
    assert fr.equals(g, g) is True


def test_free_mono_relation_as_fractions(free1, rng):
    # x_q x_j = x_j x_{q+1} holds under fraction equality
    for _ in range(10):
        q = rng.randrange(2, 5)
        j = rng.randrange(1, q)
        lhs = fr.word_to_element(
            [("a", q, False, 1), ("a", j, False, 1)], "a", free1)
        rhs = fr.word_to_element(
            [("a", j, False, 1), ("a", q + 1, False, 1)], "a", free1)
        assert fr.equals(lhs, rhs) is True


def test_group_axioms_random(cleary, rng):
    trees = [t for k in range(1, 4) for t in trees_with_carets(cleary.colours, k)]

    def rand_elem():
        t = rng.choice(trees)
        s = rng.choice([u for u in trees if leaf_count(u) == leaf_count(t)])
        return elem(cleary, t, s)

    for _ in range(25):
        g, h, k = rand_elem(), rand_elem(), rand_elem()
        assert fr.equals(fr.multiply(fr.multiply(g, h), k),
                         fr.multiply(g, fr.multiply(h, k))) is True


def test_normal_form(cleary, rng):
    t, s = tw("a1 a1"), tw("b1 a2")
    f = (caret("b"), None, None)
    g = elem(cleary, compose((t,), f)[0], compose((s,), f)[0])
    nf = fr.normal_form(g)
    assert nf.carets <= g.carets - 1
    assert fr.equals(nf, g) is True
    assert fr.normal_form(nf) == nf
    assert fr.normal_form(elem(cleary, caret("a"), caret("a"))) == fr.identity(cleary)


def test_normal_form_idempotent_random(cleary, rng):
    for _ in range(100):
        t = random_tree(rng, cleary.colours, rng.randrange(1, 4))
        s = random_tree(rng, cleary.colours, caret_count(t))
        nf = fr.normal_form(elem(cleary, t, s))
        assert fr.normal_form(nf) == nf


def test_normal_form_over_budget_fallback(cleary):
    # Above 4 carets the cleary stratum exceeds 300 forests, so classes are
    # read only once stripping gets there; the first result is therefore not
    # the unbudgeted [a(I,b(b(a(I,I),I),I)) ; a(I,a(b(I,I),b(I,I)))].
    budget = OracleBudget(class_cap=300)
    cases = [
        ("a(a(I,b(I,I)),b(b(a(I,I),I),I))", "b(I,b(b(I,I),a(b(I,I),b(I,I))))",
         "a(a(I,I),b(b(a(I,I),I),I))", "b(I,b(I,a(b(I,I),b(I,I))))"),
        ("b(I,a(a(I,b(I,a(I,I))),a(I,I)))", "a(I,a(b(I,a(a(I,a(I,I)),I)),I))",
         "b(I,a(a(I,b(I,I)),a(I,I)))", "a(I,a(b(I,a(a(I,I),I)),I))"),
        ("a(a(a(I,I),a(I,a(I,I))),b(I,I))", "b(a(I,I),a(a(I,a(I,I)),b(I,I)))",
         "a(a(I,I),I)", "b(I,a(I,I))"),
    ]
    for t, s, nt, ns in cases:
        g = elem(cleary, parse_tree(t), parse_tree(s))
        nf = fr.normal_form(g, oracle_budget=budget)
        assert nf == elem(cleary, parse_tree(nt), parse_tree(ns))
        assert fr.equals(nf, g) is True


def test_word_to_element_examples(cleary):
    assert fr.word_to_element([], "a", cleary) == fr.identity(cleary)
    for n in (1, 2, 3):
        ah = fr.word_to_element([("a", n, True, 1)], "a", cleary)
        assert fr.is_identity(ah) is True
    bh1 = fr.word_to_element([("b", 1, True, 1)], "a", cleary)
    assert fr.equals(bh1, elem(cleary, caret("b"), caret("a"))) is True


def test_unresolved_is_first_class(free2):
    g = elem(free2, caret("a"), caret("b"))
    with pytest.raises(fr.Unresolved):
        fr.multiply(g, g)
    assert fr.equals(elem(free2, caret("a"), caret("a")),
                     elem(free2, caret("b"), caret("b"))) is None


def test_equality_strategies_agree(cleary, rng):
    # reversing fast path against an oracle-style search over strata
    assert fr.route(cleary) is not None
    trees = [t for k in range(1, 4) for t in trees_with_carets(cleary.colours, k)]

    def oracle_equals(g, h, bound=7):
        base = max(caret_count(g.denominator), caret_count(h.denominator))
        for k in range(base, bound + 1):
            table = stratum(cleary, 1, k)
            for cls in table.classes:
                z = cls[0]
                f = class_leq(cleary, (g.denominator,), z)
                f2 = class_leq(cleary, (h.denominator,), z)
                if f is not None and f2 is not None:
                    return oracle.equivalent(
                        cleary,
                        compose((g.numerator,), f),
                        compose((h.numerator,), f2))
        return None

    for _ in range(60):
        t = rng.choice(trees)
        s = rng.choice([u for u in trees if leaf_count(u) == leaf_count(t)])
        t2 = rng.choice(trees)
        s2 = rng.choice([u for u in trees if leaf_count(u) == leaf_count(t2)])
        g, h = elem(cleary, t, s), elem(cleary, t2, s2)
        assert fr.equals(g, h) is oracle_equals(g, h)


def test_colouring_injective_small(cleary):
    # distinct reduced monochromatic fractions map to distinct elements
    from forestskein.ore_spine import recolour
    mono = [t for k in range(3) for t in trees_with_carets(("x",), k)]
    pairs = []
    for t in mono:
        for s in mono:
            if leaf_count(t) == leaf_count(s):
                pairs.append((recolour(t, "a"), recolour(s, "a")))
    reduced = []
    for t, s in pairs:
        g = fr.GroupElement(t, s, cleary)
        if fr.normal_form(g) == g:
            reduced.append(g)
    for i, g in enumerate(reduced):
        for h in reduced[i + 1:]:
            assert fr.equals(g, h) is False, (g.render(), h.render())


# sha256 of the oracle-route witnesses below, recorded when the route still
# scanned saturated strata; reading classes of extensions must not move them
PINNED_WITNESSES = "4653d70400e65b2780be52b332abf0d0da0929a8e13462981bc8255a98ff2fcc"


def _pinned_witnesses():
    rng = random.Random(2011)
    out = []
    for name in ("notlc", "rebel"):
        p = corpus.load(name)
        assert fr.route(p) is None
        for _ in range(75):
            t, s = (random_tree(rng, p.colours, rng.randrange(5)) for _ in range(2))
            bound = max(caret_count(t), caret_count(s)) + rng.randrange(3)
            try:
                f, f2 = fr.common_multiple_witness(p, t, s, bound)
                out.append(f"{render_forest(f)} {render_forest(f2)}")
            except fr.Unresolved:
                out.append("Unresolved")
    return out


def test_oracle_witnesses_pinned():
    out = _pinned_witnesses()
    assert 0 < out.count("Unresolved") < len(out)
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == PINNED_WITNESSES


def test_witness_starts_match_the_witness(cleary, ternary, free2, notlc, rebel):
    # cleary, ternary and free2 read the starts off code words; notlc and
    # rebel take the oracle route
    rng, answers = random.Random(9), set()
    for p, carets, bound in ((cleary, 7, 14), (ternary, 7, 14), (free2, 7, 14),
                             (notlc, 4, 4), (rebel, 4, 4)):
        for _ in range(300 if bound == 14 else 60):
            t, s = (random_tree(rng, p.colours, rng.randrange(carets)) for _ in range(2))
            try:
                expected = tuple(map(leaf_starts, fr.common_multiple_witness(p, t, s, bound)))
            except fr.Unresolved:
                expected = None
            try:
                got = fr.witness_starts(p, t, s, bound)
            except fr.Unresolved:
                got = None
            assert got == expected
            answers.add((fr.route(p) is None, got is None))
    assert len(answers) == 4        # both routes resolve some pairs and not others


# sha256 of `fsk check --json` and `fsk spine --json` (exit code, then the
# report without wall_time_ms) on every corpus entry, recorded while the
# absorption check and the LC refutation still saturated strata
PINNED_CORPUS_REPORTS = "ee78deced8211fcfa7c45a5b90ec051c1987957a80e26d09a17e0b0bbdcc69f7"


def test_oracle_witness_and_ore_check_build_no_stratum(cleary, ternary, notlc, rebel,
                                                        monkeypatch):
    memo.cache_clear()

    def refuse(*args):
        raise AssertionError("a stratum was built")

    monkeypatch.setattr(oracle, "saturate", refuse)
    rng = random.Random(5)
    for p in (notlc, rebel):
        for _ in range(20):
            t, s = (random_tree(rng, p.colours, rng.randrange(4)) for _ in range(2))
            try:
                fr.common_multiple_witness(p, t, s, 6)
            except fr.Unresolved:
                pass
        oracle.check_ore_bounded(p, 2, 5)
    mcm_bounded(notlc, caret("a"), caret("b"), 5)
    lc = reversing.decide_left_cancellative(notlc)
    assert (lc.verdict, lc.detail["counterexample"]) == (
        "no", {"f": "[a(I,I)]", "g": "[a(I,I), a(I,I)]", "h": "[b(I,I), b(I,I)]"})
    for p in (cleary, ternary):
        assert ore_spine.cofinal_search(p).verdict == "proved"
    reports = []
    for name in corpus.names():
        for command in ("check", "spine"):
            res = CliRunner().invoke(main, [command, name, "--json"])
            doc = json.loads(res.output)
            doc.pop("wall_time_ms")
            reports.append(f"{res.exit_code} " + json.dumps(doc, sort_keys=True))
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == PINNED_CORPUS_REPORTS
    for p in (cleary, ternary, notlc, rebel):
        assert oracle._strata(p) == {}


# sha256 of the normal forms below, recorded before `oracle.descend` expanded
# each state once and followed a single prune chain on relation-free
# presentations.  Each element grows a smaller pair by a common forest and
# rewrites its numerator inside its class, so the descent has to prune and
# rewrite; the second budget refuses cleary classes above 4 carets, so some
# forms come from the pruning-only fallback and differ.
PINNED_NORMAL_FORMS = "47e22ae4fa7fcc95fb9ae6bcc49c2807d11eca432d25637d032aaa03e62eb93d"


def _pinned_normal_forms():
    rng = random.Random(14)
    budgets = (None, OracleBudget(class_cap=300))
    out = []
    for name in ("cleary", "ternary", "gn3", "free1", "free2", "rebel", "notlc"):
        p = corpus.load(name)
        for _ in range(30):
            k = rng.randint(1, 3)
            t, s = (random_tree(rng, p.colours, k) for _ in range(2))
            f = random_forest(rng, p.colours, k + 1, rng.randint(1, 3))
            num = rng.choice(oracle.class_members(p, compose((t,), f)))[0]
            g = elem(p, num, compose((s,), f)[0])
            out.append(tuple(fr.normal_form(g, oracle_budget=b).render() for b in budgets))
    return out


def test_normal_form_pinned():
    out = _pinned_normal_forms()
    assert sum(full != fallback for full, fallback in out) >= 4
    text = "\n".join(" ".join(pair) for pair in out)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_NORMAL_FORMS


# sha256 of `word_to_element` on the words below, recorded while every letter
# was still multiplied in as a pair of trees: each corpus entry's
# finite-presentation relators plus seeded random words, on both routes
PINNED_WORD_ELEMENTS = "61cec69dd3d7dbf5e7b1e1e7b9b024ea788af28ed5014a9204e8a2d6459687dc"


def _pinned_word_elements():
    rng = random.Random(15)
    out = []
    for name in corpus.names():
        p = corpus.load(name)
        base = p.colours[0]
        words = [gp.relator_letters(r) for r in gp.finite_presentation(p, base).relators]
        for _ in range(60):
            words.append([(rng.choice(p.colours), rng.randint(1, 3), rng.random() < 0.3,
                           rng.choice((1, -1))) for _ in range(rng.randint(1, 8))])
        for letters in words:
            try:
                g = fr.word_to_element(letters, base, p)
                out.append(f"{render_tree(g.numerator)} {render_tree(g.denominator)}")
            except fr.Unresolved as e:
                out.append(f"Unresolved: {e}")
    return out


def test_word_to_element_pinned():
    out = _pinned_word_elements()
    assert 0 < sum(o.startswith("Unresolved") for o in out) < len(out)
    text = "\n".join(out)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_WORD_ELEMENTS


def test_word_route_reverses_once_per_letter(cleary, ternary, monkeypatch):
    assert fr.route(cleary) is not None and fr.route(ternary) is not None
    reversals = []
    engine = reversing._reverse_det

    def counted(*args):
        reversals.append(args)
        return engine(*args)

    def refuse(*args):
        raise AssertionError("a pair of trees was multiplied")

    monkeypatch.setattr(reversing, "_reverse_det", counted)
    monkeypatch.setattr(fr, "multiply", refuse)
    monkeypatch.setattr(fr, "common_multiple_witness", refuse)
    rng = random.Random(8)
    for p in (cleary, ternary):
        words = [gp.relator_letters(r) for r in gp.finite_presentation(p, "a").relators]
        words += [[(rng.choice(p.colours), rng.randint(1, 4), rng.random() < 0.3,
                    rng.choice((1, -1))) for _ in range(rng.randint(1, 8))]
                  for _ in range(30)]
        for letters in words:
            reversals.clear()
            fr.word_to_element(letters, "a", p)
            assert len(reversals) == len(letters)


def test_deep_right_vine(free1):
    t = fr.right_vine(free1, "a", 1501)
    assert render_tree(t) == "a(I," * 1500 + "I" + ")" * 1500
    g = fr.generator_element(free1, "a", "a", 1499, False)
    assert leaf_count(g.numerator) == leaf_count(g.denominator) == 1501
