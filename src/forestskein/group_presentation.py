"""Group presentations of fraction groups, read off a skein presentation.

A fixed base colour `a` and its right vines turn every forest into a group
element; the generators that survive reduction are b_j ("plain", one caret
at slot j of a (j+1)-root forest) and bh_j ("hatted", slot j of j roots),
for each colour b and small j.  Relators come in four families: index-shift
commutations for plain and hatted generators, triviality of the hatted base
colour, and the skein relations rewritten at slots 1 and 2.

The finite presentation keeps indices 1 and 2 only, rewriting any letter of
index k > 2 as an a1-conjugate of the index-2 generator, and eliminates the
hatted base-colour generators.  Relators that mention an eliminated
generator are kept as words with the letter dropped (they reduce freely to
nothing) so the relator count matches the closed formula
4|R| + 8|S|^2 - 4|S| + 2; the f_tau-optimized kind drops the two
base-colour relators as well, giving 8n^2 - 4 relators on n colours.

Abelianization reduces the relator exponent matrix to invariant factors by
exact integer elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import FRACTION_BOUND
from .presentation import SkeinPresentation, skein_relation_words
from .snf import cokernel_invariants
from . import fractions

_CGP_INDEX_CAP = 3      # CGP witness letters are generators of index 1.._CGP_INDEX_CAP


@dataclass(frozen=True, order=True)
class GenSym:
    colour: str
    index: int
    hatted: bool = False

    @property
    def label(self) -> str:
        return f"{self.colour}h{self.index}" if self.hatted else f"{self.colour}{self.index}"


@dataclass(frozen=True)
class Relator:
    word: tuple                  # ((GenSym, exponent), ...)
    label: str

    def render(self) -> str:
        if not self.word:
            return "e"
        return " ".join(f"{g.label}" + ("^-1" if e < 0 else "") for g, e in self.word)


@dataclass
class GroupPresentation:
    kind: str                    # infinite_truncated | finite_reduced | f_tau_optimized | monoid_H
    base_colour: str
    generators: list
    relators: list
    presentation: SkeinPresentation
    max_index: int | None = None

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    @property
    def relator_count(self) -> int:
        return len(self.relators)


def _inv(word) -> tuple:
    return tuple((g, -e) for g, e in reversed(word))


def _relator(lhs, rhs, label) -> Relator:
    return Relator(tuple(lhs) + _inv(rhs), label)


def _slot_word(tree_word, slot: int, roots: int, base_colour: str, finite: bool) -> list:
    """Translate a tree word placed at `slot` of a `roots`-root forest into
    generators; the finite presentation drops the hatted base colour."""
    out = []
    for k, (colour, i_k) in enumerate(tree_word, start=1):
        j = i_k + slot - 1
        n = k + roots - 1
        hatted = j == n
        if hatted and finite and colour == base_colour:
            continue
        if finite and j > 2:
            conj = GenSym(base_colour, 1, False)
            out.extend([(conj, -1)] * (j - 2))
            out.append((GenSym(colour, 2, hatted), 1))
            out.extend([(conj, 1)] * (j - 2))
        else:
            out.append((GenSym(colour, j, hatted), 1))
    return out


def infinite_presentation(p: SkeinPresentation, base_colour: str, max_index: int,
                          kind: str = "infinite_truncated") -> GroupPresentation:
    """Truncation of the infinite presentation to generator indices <= max_index.

    kind "monoid_H" drops the hatted generators and every relator family
    mentioning them, leaving the presentation of the monoid fraction group.
    """
    if base_colour not in p.colours:
        raise ValueError(f"unknown base colour {base_colour!r}")
    if kind not in ("infinite_truncated", "monoid_H"):
        raise ValueError(f"bad kind {kind!r}")
    hats = (False, True) if kind == "infinite_truncated" else (False,)
    indices = range(1, max_index + 1)
    gens = [GenSym(c, j, hat) for hat in hats for c in p.colours for j in indices]
    rels = []
    for hat in hats:
        for x, y in itertools.product(p.colours, repeat=2):
            for q in range(2, max_index):
                for j in range(1, q):
                    lhs = [(GenSym(x, q, hat), 1), (GenSym(y, j, False), 1)]
                    rhs = [(GenSym(y, j, False), 1), (GenSym(x, q + 1, hat), 1)]
                    rels.append(_relator(lhs, rhs, f"{'hatted-' if hat else ''}shift-commutation"))
    if True in hats:
        rels += [Relator(((GenSym(base_colour, n, True), 1),), "hatted-base") for n in indices]
    rels += [rel for rel in _skein_relators(p, base_colour, False, hats)
             if max((g.index for g, _ in rel.word), default=0) <= max_index]
    return GroupPresentation(kind, base_colour, gens, rels, p, max_index)


def _skein_relators(p: SkeinPresentation, base_colour: str, finite: bool, hats: tuple):
    """The skein relations rewritten at slots 1 and 2: at each slot the plain
    relator on i + 1 roots, then (when hats has True) the hatted one on i roots."""
    for rel_id, (lw, rw) in enumerate(skein_relation_words(p)):
        for i in (1, 2):
            for hat in hats:
                roots = i if hat else i + 1
                lhs = _slot_word(lw, i, roots, base_colour, finite)
                rhs = _slot_word(rw, i, roots, base_colour, finite)
                yield _relator(lhs, rhs, f"{'hatted-' if hat else ''}skein:{rel_id}:{i}")


def finite_presentation(p: SkeinPresentation, base_colour: str,
                        kind: str = "finite_reduced") -> GroupPresentation:
    """4|S|-2 generators; relator count 4|R| + 8|S|^2 - 4|S| + 2 (finite_reduced)
    or 8|S|^2 - 4 when |R| = |S|-1 (f_tau_optimized, which omits the two
    base-colour relators)."""
    if base_colour not in p.colours:
        raise ValueError(f"unknown base colour {base_colour!r}")
    if kind not in ("finite_reduced", "f_tau_optimized"):
        raise ValueError(f"bad kind {kind!r}")
    a = base_colour
    gens = [GenSym(c, j, False) for c in p.colours for j in (1, 2)]
    gens += [GenSym(c, j, True) for c in p.colours for j in (1, 2) if c != a]
    a1 = GenSym(a, 1, False)
    rels = []

    def conjugated_hat(y: str, j: int) -> list:
        middle = [] if y == a else [(GenSym(y, 2, True), 1)]
        return [(a1, -1)] * j + middle + [(a1, 1)] * j

    def conjugated_plain(y: str, j: int) -> list:
        return [(a1, -1)] * j + [(GenSym(y, 2, False), 1)] + [(a1, 1)] * j

    # first commutator factor is x_i a1^-1 (the Cannon-Floyd-Parry shape,
    # verified against Thompson's F; the reversed order does not hold)
    for hatted in (True, False):
        for x, i in itertools.product(p.colours, (1, 2)):
            if (x, i) == (a, 1):
                continue
            for y, j in itertools.product(p.colours, (1, 2)):
                g = [(GenSym(x, i, False), 1), (a1, -1)]
                h = conjugated_hat(y, j) if hatted else conjugated_plain(y, j)
                word = _inv(g) + _inv(h) + tuple(g) + tuple(h)
                label = "hatted-commutator" if hatted else "commutator"
                rels.append(Relator(word, label))
    if kind == "finite_reduced":
        # the two hatted base-colour relators survive as empty words once
        # the generators themselves are eliminated
        rels.append(Relator((), "hatted-base:1"))
        rels.append(Relator((), "hatted-base:2"))
    rels += _skein_relators(p, a, True, (False, True))
    return GroupPresentation(kind, base_colour, gens, rels, p)


# ---------------------------------------------------------------------------
# Abelianization

@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple              # invariant factors > 1, in divisibility order

    def render(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def abelianization(pres: GroupPresentation) -> AbelianInvariants:
    index = {g: k for k, g in enumerate(pres.generators)}
    rows = []
    for rel in pres.relators:
        row = [0] * len(pres.generators)
        for g, e in rel.word:
            row[index[g]] += e
        if any(row):
            rows.append(row)
    free_rank, torsion = cokernel_invariants(rows, len(pres.generators))
    return AbelianInvariants(free_rank, tuple(torsion))


# ---------------------------------------------------------------------------
# Evaluation bridges and CGP

def relator_letters(rel: Relator) -> list:
    """Relator as (colour, index, hatted, sign) letters for fraction evaluation."""
    return [(g.colour, g.index, g.hatted, e) for g, e in rel.word]


def evaluate_relator(pres: GroupPresentation, rel: Relator, bound: int | None = None):
    """True when the relator is the identity of the fraction group, False when
    it is not, None when the comparison is unresolved; a letter whose witness
    is unresolved raises `fractions.Unresolved`."""
    return fractions.word_is_identity(relator_letters(rel), pres.base_colour,
                                      pres.presentation, bound)


@dataclass
class CgpReport:
    verdict: str                             # yes | unknown
    witnesses: dict = field(default_factory=dict)
    bound: int = 0
    word_length: int = 0


def check_cgp(p: SkeinPresentation, base_colour: str, max_word_length: int = 3) -> CgpReport:
    """Try to express each hatted generator as a word in plain generators.

    Witnesses are verified by fraction equality; failure to find one within
    the search bound is reported as unknown, never as a refutation.  Whether
    witnesses exist can depend on the base colour: the vine construction has
    a chirality, so a presentation may have the property at one colour only.
    """
    bound, a = FRACTION_BOUND, base_colour
    targets = {(b, j): fractions.generator_element(p, a, b, j, True)
               for b in p.colours if b != a for j in (1, 2)}
    if not targets:
        return CgpReport("yes", {}, bound, 0)
    alphabet = [(c, k, s) for c in p.colours for k in range(1, _CGP_INDEX_CAP + 1)
                for s in (1, -1)]

    def step(elem, letter):
        c, k, s = letter
        g = fractions.generator_element(p, a, c, k, False)
        if s < 0:
            g = fractions.invert(g)
        return fractions.multiply(elem, g, bound)

    witnesses: dict = {}
    layer = {(): fractions.identity(p)}
    for _ in range(max_word_length):
        nxt: dict = {}
        for w, elem in layer.items():
            for letter in alphabet:
                if w and w[-1][:2] == letter[:2] and w[-1][2] == -letter[2]:
                    continue            # freely reducible
                word = w + (letter,)
                try:
                    nxt[word] = cand = step(elem, letter)
                except fractions.Unresolved:
                    continue
                for key in list(targets):
                    if key in witnesses:
                        continue
                    if fractions.equals(cand, targets[key], bound) is True:
                        witnesses[key] = " ".join(
                            f"{c}{k}" + ("^-1" if s < 0 else "")
                            for c, k, s in word)
                if len(witnesses) == len(targets):
                    return CgpReport("yes", _render_witnesses(witnesses),
                                     bound, len(word))
        layer = nxt
    return CgpReport("unknown", _render_witnesses(witnesses), bound, max_word_length)


def check_cgp_any(p: SkeinPresentation, max_word_length: int = 3):
    """CGP at whichever colour admits witnesses first; (colour, report)."""
    best = None
    for colour in p.colours:
        rep = check_cgp(p, colour, max_word_length)
        if rep.verdict == "yes":
            return colour, rep
        if best is None:
            best = (colour, rep)
    return best


def _render_witnesses(witnesses: dict) -> dict:
    return {f"{b}h{j}": w for (b, j), w in witnesses.items()}


# ---------------------------------------------------------------------------
# Good generator lists

@dataclass
class GoodListReport:
    elements: list                # (label, GroupElement)
    commuting: list               # (label_i, label_j, verdict)
    failures: int
    unresolved: int


def good_generator_list(p: SkeinPresentation, colour_order=None,
                        bound: int | None = None) -> GoodListReport:
    """Concatenated per-colour lists whose consecutive members commute.

    Each colour x contributes (x3 x4^-1, x1 x2^-1, x4 x5^-1, x2 x3^-1, x5);
    commutation of consecutive pairs is verified by fraction equality.
    """
    colours = tuple(colour_order) if colour_order else p.colours
    if any(c not in p.colours for c in colours):
        raise ValueError("colour order mentions unknown colours")
    base = p.colours[0]
    pattern = [((3, 1), (4, -1)), ((1, 1), (2, -1)), ((4, 1), (5, -1)),
               ((2, 1), (3, -1)), ((5, 1),)]
    elements = []
    for x in colours:
        for shape in pattern:
            letters = [(x, k, False, s) for k, s in shape]
            label = " ".join(f"{x}{k}" + ("^-1" if s < 0 else "") for k, s in shape)
            elements.append((label, fractions.word_to_element(letters, base, p, bound)))
    commuting = []
    failures = unresolved = 0
    for (la, ga), (lb, gb) in zip(elements, elements[1:]):
        try:
            ab = fractions.multiply(ga, gb, bound)
            ba = fractions.multiply(gb, ga, bound)
            verdict = fractions.equals(ab, ba, bound)
        except fractions.Unresolved:
            verdict = None
        if verdict is None:
            unresolved += 1
        elif verdict is False:
            failures += 1
        commuting.append((la, lb, verdict))
    return GoodListReport(elements, commuting, failures, unresolved)


# ---------------------------------------------------------------------------
# Export formats

def render_text(pres: GroupPresentation) -> str:
    lines = [f"kind: {pres.kind}", f"base colour: {pres.base_colour}",
             "gens: " + ", ".join(g.label for g in pres.generators),
             "rels:"]
    for rel in pres.relators:
        lines.append(f"  {rel.render()}    # {rel.label}")
    return "\n".join(lines) + "\n"


def render_cas(pres: GroupPresentation) -> str:
    names = ", ".join(f'"{g.label}"' for g in pres.generators)
    lines = [f"F := FreeGroup({names});;",
             "AssignGeneratorVariables(F);;",
             "rels := ["]
    rendered = []
    for rel in pres.relators:
        if not rel.word:
            rendered.append("One(F)")
        else:
            rendered.append("*".join(
                f"{g.label}" + (f"^{e}" if e != 1 else "") for g, e in rel.word))
    lines.append("  " + ",\n  ".join(rendered))
    lines.append("];;")
    lines.append("G := F / rels;;")
    return "\n".join(lines) + "\n"
