import functools
import hashlib
import random

import pytest

from forestskein import corpus, oracle, ore_spine as osp, reversing
from forestskein.config import ReversingBudget
from forestskein.corpus import load
from forestskein.forest import (
    caret,
    forest_from_word,
    leaf_count,
    parse_word,
    random_tree,
    render_tree,
    tree_from_word,
    trees_with_carets,
    word_from_tree,
)
from forestskein.presentation import PresentationError, memo
from reference import class_leq, iterate_tree, mcm_bounded


def tw(text):
    return tree_from_word(parse_word(text))


def test_cofinal_cleary(cleary):
    s = osp.cofinal_search(cleary)
    assert s.verdict == "proved"
    assert s.certificate.kind == "closed_family"


def test_cofinal_monochromatic_kind():
    gn3 = load("gn3")
    s = osp.cofinal_search(gn3)
    assert s.verdict == "proved"
    assert s.certificate.kind == "cofinal_monochromatic"
    data = s.certificate.data
    assert set(data["monochromatic_representatives"]) == {"a", "b"}
    assert data["absorption_replay"] == "ok"


def test_cofinal_free2(free2):
    s = osp.cofinal_search(free2)
    assert s.verdict == "refuted"
    assert s.certificate is None
    assert ("[a(I,I)]", "[b(I,I)]") in s.failures


def test_cofinal_ternary(ternary):
    s = osp.cofinal_search(ternary)
    assert s.verdict == "proved"
    assert s.certificate.kind == "closed_family"


def test_cofinal_evidence_only():
    for name in ("dv2", "nocgp1"):
        s = osp.cofinal_search(load(name))
        assert s.verdict == "evidence"
        assert s.certificate.confidence == "evidence"


def test_iterate_tree():
    t = tw("a1 a1")
    t2 = iterate_tree(t, 2)
    assert leaf_count(t2) == 9                # each of 3 leaves grows 3 leaves


def test_spine_free_mono(free1):
    rep = osp.spine(free1)
    assert rep.stabilized
    assert [len(s) for s in rep.stages] == [1]
    assert render_tree(rep.stages[0][0]) == "a(I,I)"


def test_spine_cleary(cleary):
    rep = osp.spine(cleary)
    assert rep.stabilized
    classes = osp.spine_classes_deduped(cleary, rep)
    assert len(classes) == 3
    rendered = {render_tree(t) for t in classes}
    assert rendered == {"a(I,I)", "b(I,I)", "a(a(I,I),I)"}


def test_spine_rebel(rebel):
    rep = osp.spine(rebel)
    assert not rep.stabilized
    assert all(stage for stage in rep.stages)
    assert len(rep.stages) >= rep.stage_bound


def test_spine_over_the_caret_bound_is_not_stabilized(cleary, rebel):
    # every join of the two colour carets has 2 carets: a bound of 1 cuts the
    # spine there, and a cut spine is not a stabilized one
    for p in (cleary, rebel):
        rep = osp.spine(p, caret_bound=1)
        assert rep.stabilized is False and rep.bound_hit is True, p.name
        assert osp.f_infinity_certificate(p, rep) is None


def test_spine_stages_verified_against_oracle(cleary):
    rep = osp.spine(cleary)
    got = {render_tree(z[0]) for z in
           mcm_bounded(cleary, caret("a"), caret("b"), 6)}
    assert got == {render_tree(t) for t in rep.stages[1]}
    # every later-stage member is a verified common multiple of a stage-0 pair
    for t in rep.stages[1]:
        assert class_leq(cleary, (caret("a"),), (t,)) is not None
        assert class_leq(cleary, (caret("b"),), (t,)) is not None


def test_spine_warns_without_lc(notlc):
    rep = osp.spine(notlc)
    assert rep.lc_warning is not None


def test_f_infinity(cleary, rebel, free1):
    cert = osp.f_infinity_certificate(cleary)
    assert cert is not None and cert.spine_size == 3
    doc = cert.to_json()
    assert doc["verdict"] == "proved"
    assert doc["covers"] == ["F", "T", "V", "BV"]
    assert osp.f_infinity_certificate(rebel) is None
    assert osp.f_infinity_certificate(free1) is not None


def test_certificate_replay(cleary):
    first = osp.cofinal_search(cleary)
    second = osp.cofinal_search(cleary)
    assert first.verdict == second.verdict
    assert first.certificate.to_json() == second.certificate.to_json()


def test_build_f_tau_cleary_shape():
    res = osp.build_f_tau({"a": tw("x1 x1"), "b": tw("x1 x2")})
    lhs, rhs = res.presentation.relations[0]
    assert render_tree(lhs) == "a(a(I,I),I)"
    assert render_tree(rhs) == "b(I,b(I,I))"
    assert res.lc.verdict == "yes"
    assert res.ore.verdict == "proved"
    assert res.f_infinity is not None


def test_build_f_tau_nocgp2_presentation():
    comp = tw("x1 x1 x3")
    res = osp.build_f_tau({"a": comp, "b": comp})
    lhs, rhs = res.presentation.relations[0]
    assert render_tree(lhs) == "a(a(I,I),a(I,I))"
    assert render_tree(rhs) == "b(b(I,I),b(I,I))"
    assert res.ore.verdict == "proved"


def test_build_f_tau_single_colour():
    res = osp.build_f_tau({"a": tw("x1 x1")})
    assert res.presentation.relations == ()
    assert osp.spine_classes_deduped(res.presentation, res.spine_report) is not None
    assert res.spine_report.size == 1


def test_build_f_tau_spine_sizes():
    comp = tw("x1 x1 x3")
    for colours in (("a", "b"), ("a", "b", "c")):
        res = osp.build_f_tau({c: comp for c in colours})
        classes = osp.spine_classes_deduped(res.presentation, res.spine_report)
        assert len(classes) == len(colours) + 1
    # two-leaf shapes collapse to the free monochromatic category
    res = osp.build_f_tau({"a": caret("x"), "b": caret("x")})
    classes = osp.spine_classes_deduped(res.presentation, res.spine_report)
    assert len(classes) == 1


def test_build_f_tau_validation():
    with pytest.raises(PresentationError):
        osp.build_f_tau({"a": tw("x1 x1"), "b": tw("x1 x2 x3")})
    with pytest.raises(PresentationError):
        osp.build_f_tau({"a": None})
    with pytest.raises(PresentationError):
        osp.build_f_tau({})
    with pytest.raises(PresentationError):
        osp.build_f_tau({"a": ("x", ("y", None, None), None)})


def test_mcm_trees_is_the_join_on_complemented_presentations(cleary, ternary):
    # one reversal terminal per pair: the minimal common multiple is the
    # tree of the join word u(u\v)
    comp = tw("x1 x1 x3")
    f_tau = osp.build_f_tau({c: comp for c in ("a", "b", "c")}).presentation
    for p in (cleary, ternary, f_tau):
        trees = [t for k in (1, 2) for t in trees_with_carets(p.colours, k)]
        for x in trees:
            for y in trees:
                wx = word_from_tree(x)
                left, _right = reversing.complement(p, wx, word_from_tree(y))
                want = [forest_from_word(tuple(wx) + left, 1)[0]]
                assert osp._mcm_trees(p, x, y) == want


def test_recolour_deep_vine():
    # one level per letter: a recursive recolour ends in RecursionError here
    vine = tree_from_word([("ab"[k % 2], 1) for k in range(5000)])
    assert word_from_tree(osp.recolour(vine, "c")) == [("c", 1)] * 5000
    assert osp.recolour(None, "c") is None


def _families(seed=21, count=20):
    """Seeded build_f_tau presentations: 2-4 colours, shapes of 3-5 leaves."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, leaves = rng.choice((2, 3, 4)), rng.choice((3, 4, 5))
        tau = {c: random_tree(rng, ("x",), leaves - 1) for c in "abcd"[:n]}
        out.append(osp.build_f_tau(tau, name=f"fam{i}").presentation)
    return out


def _digest_set():
    """The corpus, the differential presentations (rand33 and rand73 among
    them) and the seeded families."""
    from test_differential import CASES
    return list(CASES.values()) + _families()


# sha256 of `cofinal_search` (verdict, certificate, bounds, failures) at the
# default absorption bound and at 2 and 4, recorded while absorption still
# left-divided into the iterate words.  The search reaches the absorption
# check only where completeness reads "complete", so the digest covers those
# presentations; on the others it is the bounded Ore check alone, which
# costs most of the time (about 25 s per bound over the whole set, 2 vCPU).
PINNED_COFINAL = "32cb7e9ae37c412595b42d8ccf33c340ae977f97fd243bd6d70ea12f3112228f"


def test_cofinal_certificates_pinned(monkeypatch):
    presentations = [p for p in _digest_set() if reversing.is_complete(p).verdict == "complete"]
    # bound 4 repeats the default's pair bound: run each bounded Ore check once
    monkeypatch.setattr(oracle, "check_ore_bounded", functools.cache(oracle.check_ore_bounded))
    memo.cache_clear()
    out = []
    for p in presentations:
        for bound in (None, 2, 4):
            s = osp.cofinal_search(p, bound)
            cert = s.certificate and s.certificate.to_json()
            out.append(repr((p.name, bound, s.verdict, cert, s.bounds, s.failures)))
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == PINNED_COFINAL


def _absorption_by_iterates(p, t, bound, depth):
    """The absorption check as it ran before complements: left division of
    each representative into the words of the iterates t_1..t_depth."""
    iterates = [word_from_tree(iterate_tree(t, d)) for d in range(1, depth + 1)]
    top = max(i for w in iterates for _, i in w)
    base = ReversingBudget()
    wide = ReversingBudget(steps=max(base.steps, 50 * len(iterates[-1])),
                           index_ceiling=max(base.index_ceiling, 2 * top + 8),
                           branch_cap=base.branch_cap)
    tested = 0
    for s in osp._absorption_representatives(p, bound):
        ws = word_from_tree(s)
        if not any(reversing.left_divides(p, ws, it, wide) == "yes"
                   for it in iterates if len(it) >= len(ws)):
            return False, tested
        tested += 1
    return True, tested


def _vine_families():
    """Two-colour build_f_tau presentations on k-letter vines, k = 3..10."""
    return [corpus.f_tau_from_words({"a": " ".join("1" * k), "b": " ".join("1" * k)},
                                    name=f"vine{k}").presentation for k in range(3, 11)]


def test_absorption_by_complements_matches_the_iterates():
    # cofinal_search runs the check only where completeness reads "complete";
    # elsewhere a branching reversal has no unique complement, and the check
    # may answer "does not divide" where a division into an iterate succeeds
    checked = 0
    for p in _digest_set() + _vine_families():
        t = osp._monochromatic_candidate(p)[0]
        if t is None or reversing.is_complete(p).verdict != "complete":
            continue
        checked += 1
        for depth in (1, 2, 3):
            for bound in (1, 2, 3):
                assert osp._absorption_check(p, t, bound, depth) == \
                    _absorption_by_iterates(p, t, bound, depth), (p.name, depth, bound)
    assert checked >= 40
