import hashlib

import pytest

from forestskein import corpus, fractions as fr, group_presentation as gp
from forestskein.corpus import load
from forestskein.ore_spine import build_f_tau
from forestskein.forest import parse_word, tree_from_word
from forestskein.presentation import parse


def test_finite_counts(cleary, ternary):
    dv2 = load("dv2")
    for p in (cleary, ternary, dv2):
        pres = gp.finite_presentation(p, "a")
        S, R = len(p.colours), len(p.relations)
        assert pres.generator_count == 4 * S - 2
        assert pres.relator_count == 4 * R + 8 * S * S - 4 * S + 2


def test_f_tau_optimized_counts():
    comp = tree_from_word(parse_word("x1 x1 x3"))
    for colours in (("a", "b"), ("a", "b", "c")):
        built = build_f_tau({c: comp for c in colours})
        pres = gp.finite_presentation(built.presentation, "a", kind="f_tau_optimized")
        n = len(colours)
        assert pres.generator_count == 4 * n - 2
        assert pres.relator_count == 8 * n * n - 4


def test_infinite_presentation_cleary(cleary):
    pres = gp.infinite_presentation(cleary, "a", 3)
    rendered = [r.render() for r in pres.relators]
    assert "a1 a1 b2^-1 b1^-1" in rendered
    assert "a2 a2 b3^-1 b2^-1" in rendered
    assert sum(1 for r in pres.relators if r.label == "hatted-base") == 3


def test_monoid_h_free_mono(free1):
    pres = gp.infinite_presentation(free1, "a", 3, kind="monoid_H")
    assert all(not g.hatted for g in pres.generators)
    assert {r.label for r in pres.relators} == {"shift-commutation"}
    assert [r.render() for r in pres.relators] == ["a2 a1 a3^-1 a1^-1"]


def test_monoid_h_drops_hatted(cleary):
    pres = gp.infinite_presentation(cleary, "a", 4, kind="monoid_H")
    labels = {r.label for r in pres.relators}
    assert "hatted-base" not in labels
    assert not any(l.startswith("hatted") for l in labels)


def test_abelianization_goldens(cleary):
    inv = gp.abelianization(gp.finite_presentation(cleary, "a"))
    assert (inv.free_rank, inv.torsion) == (2, (2,))
    for n in (2, 3, 4, 5):
        inv = gp.abelianization(gp.finite_presentation(load(f"gn{n}"), "a"))
        assert (inv.free_rank, inv.torsion) == (2, (n,))
    for n in (2, 3, 4):
        inv = gp.abelianization(gp.finite_presentation(load(f"hn{n}"), "a"))
        assert (inv.free_rank, inv.torsion) == (2, (n, n))


def test_abelianization_reorder_invariant(cleary):
    pres = gp.finite_presentation(cleary, "a")
    base = gp.abelianization(pres)
    import dataclasses
    shuffled = dataclasses.replace(pres)
    shuffled.generators = list(reversed(pres.generators))
    assert gp.abelianization(shuffled) == base


def test_relator_soundness_small(cleary):
    pres = gp.infinite_presentation(cleary, "a", 3)
    for rel in pres.relators:
        assert gp.evaluate_relator(pres, rel, 14) is True


def test_relator_soundness_base_colour_b(cleary):
    pres = gp.finite_presentation(cleary, "b")
    for rel in pres.relators:
        assert gp.evaluate_relator(pres, rel, 14) is True


def test_cgp(cleary, ternary):
    rep = gp.check_cgp(cleary, "b")
    assert rep.verdict == "yes"
    assert set(rep.witnesses) == {"ah1", "ah2"}
    rep = gp.check_cgp(ternary, "b")
    assert rep.verdict == "yes"
    colour, rep = gp.check_cgp_any(cleary)
    assert (colour, rep.verdict) == ("b", "yes")


def test_cgp_witnesses_verified(cleary):
    rep = gp.check_cgp(cleary, "b")
    for label, word in rep.witnesses.items():
        colour, idx = label[0], int(label[-1])
        target = fr.generator_element(cleary, "b", colour, idx, True)
        letters = []
        for tok in word.split():
            sign = 1
            if tok.endswith("^-1"):
                sign, tok = -1, tok[:-3]
            letters.append((tok[0], int(tok[1:]), False, sign))
        assert fr.equals(fr.word_to_element(letters, "b", cleary), target) is True


def test_cgp_gn_hn_families():
    # the vine families satisfy the property, with witnesses a_j^(1-n)
    # (gn, at base b) and short a/b words (hn, at base a)
    for name, colour in (("gn2", "b"), ("gn3", "b"), ("hn2", "a"), ("hn3", "a")):
        rep = gp.check_cgp(load(name), colour, max_word_length=4)
        assert rep.verdict == "yes", name
    assert gp.check_cgp(load("gn3"), "b").witnesses["ah1"] == "a1^-1 a1^-1"


def test_cgp_unknown(free2):
    for name in ("nocgp1", "nocgp2"):
        got = gp.check_cgp_any(load(name), max_word_length=2)
        assert got[1].verdict == "unknown"


def test_good_lists(free1, cleary, ternary):
    rep = gp.good_generator_list(free1, bound=12)
    assert len(rep.commuting) == 4
    assert rep.failures == 0 and rep.unresolved == 0
    for p in (cleary, ternary):
        rep = gp.good_generator_list(p, bound=12)
        assert len(rep.commuting) == 9
        assert rep.failures == 0 and rep.unresolved == 0


def test_good_list_rejects_unknown_colours(cleary):
    with pytest.raises(ValueError):
        gp.good_generator_list(cleary, colour_order=("a", "z"))


def test_render_formats(cleary):
    pres = gp.finite_presentation(cleary, "a")
    text = gp.render_text(pres)
    assert "gens: " in text and "rels:" in text
    cas = gp.render_cas(pres)
    assert cas.startswith("F := FreeGroup(")
    assert "G := F / rels;;" in cas


# sha256 of the text and CAS renders below, recorded before the skein
# relators of the finite and infinite presentations came from one loop: every
# corpus entry at every base colour, finite, infinite at four truncations and
# monoid_H, plus one f_tau-optimized build.  Any change in a generator, a
# relator, its label or its order changes the digest.
PINNED_PRESENTATIONS = "9893e08a63644a7cdb277f589dcc16747cd0fedff3d75925469e6922bcf50d9d"


def _pinned_presentations():
    built = build_f_tau({c: tree_from_word(parse_word("x1 x1 x3")) for c in "abc"})
    yield gp.finite_presentation(built.presentation, "a", kind="f_tau_optimized")
    for name in corpus.names():
        p = corpus.load(name)
        for base in p.colours:
            yield gp.finite_presentation(p, base)
            for m in (2, 3, 4, 6):
                yield gp.infinite_presentation(p, base, m)
            for m in (2, 4):
                yield gp.infinite_presentation(p, base, m, kind="monoid_H")


def test_presentations_pinned():
    text = "".join(gp.render_text(pres) + gp.render_cas(pres)
                   for pres in _pinned_presentations())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PRESENTATIONS
