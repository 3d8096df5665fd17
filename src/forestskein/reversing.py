"""Right-reversing on the elementary-generator presentation of a forest-skein monoid.

A signed word is a sequence of letters (colour, index, sign).  Reversing
repeatedly rewrites the leftmost negative-positive pattern x_i^-1 y_j:

  * equal letters are deleted;
  * i < j gives the index-shift exchange   x_i^-1 y_j  ->  y_{j+1} x_i^-1
  * i > j gives                            x_i^-1 y_j  ->  y_j x_{i+1}^-1
  * i = j consumes a skein relation rooted at the colours (x, y), replacing
    the pattern by (x-side tail) (y-side tail)^-1 shifted to base i.

Relations at arbitrary indices are generated on demand by shifting, under a
hard index ceiling so divergence surfaces as an explicit budget status.  On
complemented presentations there is at most one move per pattern and the
procedure is deterministic; otherwise every move is explored exhaustively.

The strong cube condition, completeness, left-cancellativity and the
closed-family Ore criterion are all expressed over this engine.  Positive
answers from the completeness-based criteria are proofs; the refutation
route for left-cancellativity delegates to the congruence oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .config import ReversingBudget, SearchBounds
from .forest import parse_word, render_word
from .presentation import SkeinPresentation, is_complemented, skein_relation_words
from . import oracle

# Signed letters are (colour, index, sign) with sign +1/-1.
SignedWord = tuple


def positive_word(letters) -> SignedWord:
    return tuple((c, i, 1) for c, i in letters)


def inverse_word(w: SignedWord) -> SignedWord:
    return tuple((c, i, -s) for c, i, s in reversed(w))


def unsigned(w: SignedWord) -> tuple:
    return tuple((c, i) for c, i, _ in w)


def parse_signed_word(text: str) -> SignedWord:
    """Parse `a1 b2^-1 a3` into a signed word."""
    out = []
    for tok in text.split():
        sign = 1
        if tok.endswith("^-1"):
            sign, tok = -1, tok[:-3]
        (c, i), = parse_word(tok)
        out.append((c, i, sign))
    return tuple(out)


def render_signed_word(w: SignedWord) -> str:
    return " ".join(f"{c}{i}" + ("^-1" if s < 0 else "") for c, i, s in w)


@dataclass(frozen=True)
class ReversalOutcome:
    status: str         # terminated | empty | blocked | budget_exhausted | branching
    terminals: tuple    # distinct (positive left part, positive right part) pairs reached
    steps: int          # rewriting steps taken

    @property
    def terminated(self) -> bool:
        return self.status in ("terminated", "empty")

    @property
    def result(self) -> tuple | None:
        """The unique terminal pair when the reversal terminated, else None."""
        return self.terminals[0] if self.terminated else None


class _Rules:
    """Per-presentation relation tables for the reversing loop.

    Two relations sharing a side imply a relation between their other sides;
    when adding those derived pairs keeps the set complemented (one relation
    per colour pair, distinct roots) they are included, so that reversing
    finds the common multiples they witness.  This matters for the
    monochromatic-pair family, whose emitted presentations pair a reference
    colour with every other colour only.

    `by_pair` maps a colour pair (x, y) to the replacement words of the
    pattern x_1^-1 y_1 with indices lowered by one, so that the pattern at
    index i is replaced by the template shifted by i.
    """

    def __init__(self, p: SkeinPresentation):
        words = list(skein_relation_words(p))
        self.deterministic = is_complemented(p)
        if self.deterministic:
            words.extend(_derived_pairs(words))
        self.by_pair: dict = {}
        self.same_root: list = []
        for lw, rw in words:
            x, y = lw[0][0], rw[0][0]
            tail_l, tail_r = lw[1:], rw[1:]
            if x == y:
                self.same_root.append((tail_l, tail_r))
                self._add(x, x, tail_l, tail_r)
                if tail_l != tail_r:
                    self._add(x, x, tail_r, tail_l)
            else:
                self._add(x, y, tail_l, tail_r)
                self._add(y, x, tail_r, tail_l)

    def _add(self, x, y, tail_x, tail_y):
        template = tuple((c, k - 1, 1) for c, k in tail_x) + \
            tuple((c, k - 1, -1) for c, k in reversed(tail_y))
        self.by_pair.setdefault((x, y), []).append(template)

    def moves(self, neg, pos) -> list:
        """All replacement words for the pattern neg^-1 pos, in exploration order."""
        x, i, _ = neg
        y, j, _ = pos
        if i < j:
            return [((y, j + 1, 1), (x, i, -1))]
        if i > j:
            return [((y, j, 1), (x, i + 1, -1))]
        out = [()] if x == y else []
        out.extend(tuple((c, k + i, s) for c, k, s in template)
                   for template in self.by_pair.get((x, y), ()))
        return out


def _derived_pairs(words) -> list:
    """Relations implied by shared sides, as long as the set stays complemented."""
    pairs = {frozenset((lw[0][0], rw[0][0])) for lw, rw in words}
    sides: dict = {}
    for lw, rw in words:
        sides.setdefault(lw, []).append(rw)
        sides.setdefault(rw, []).append(lw)
    derived = []
    for _shared, others in sides.items():
        for i, u in enumerate(others):
            for v in others[i + 1:]:
                a, b = u[0][0], v[0][0]
                key = frozenset((a, b))
                if a == b or key in pairs:
                    return []        # enrichment would break complementedness
                pairs.add(key)
                derived.append((u, v))
    return derived


@functools.cache
def _rules(p: SkeinPresentation) -> _Rules:
    return _Rules(p)


def _find_pattern(w: list, start: int = 0) -> int:
    for k in range(max(start, 0), len(w) - 1):
        if w[k][2] < 0 and w[k + 1][2] > 0:
            return k
    return -1


def _split(w) -> tuple:
    """Split a pattern-free word into (positive prefix, positive suffix word)."""
    cut = len(w)
    for k, (_, _, s) in enumerate(w):
        if s < 0:
            cut = k
            break
    return unsigned(w[:cut]), unsigned(inverse_word(w[cut:]))


def reverse(p: SkeinPresentation, w: SignedWord,
            budget: ReversingBudget | None = None) -> ReversalOutcome:
    """Reverse w, deterministically on complemented presentations and by
    exhaustive search over every move otherwise."""
    budget = budget or ReversingBudget()
    rules = _rules(p)
    if rules.deterministic:
        return _reverse_det(rules, w, budget)
    return _reverse_branching(rules, w, budget)


def _reverse_det(rules: _Rules, w: SignedWord, budget: ReversingBudget) -> ReversalOutcome:
    word = list(w)
    steps = 0
    hint = 0
    while True:
        k = _find_pattern(word, hint - 1)
        if k < 0:
            status = "empty" if not word else "terminated"
            return ReversalOutcome(status, (_split(word),), steps)
        if steps >= budget.steps:
            return ReversalOutcome("budget_exhausted", (), steps)
        moves = rules.moves(word[k], word[k + 1])
        if not moves:
            return ReversalOutcome("blocked", (), steps)
        repl = moves[0]
        if any(i > budget.index_ceiling for _, i, _ in repl):
            return ReversalOutcome("budget_exhausted", (), steps)
        word[k:k + 2] = repl
        steps += 1
        hint = k


def _reverse_branching(rules: _Rules, w: SignedWord, budget: ReversingBudget) -> ReversalOutcome:
    seen = {tuple(w)}
    frontier = [tuple(w)]
    terminals: list = []
    blocked = False
    exhausted = False
    steps = 0
    while frontier:
        cur = frontier.pop()
        k = _find_pattern(cur)
        if k < 0:
            res = _split(cur)
            if res not in terminals:
                terminals.append(res)
            continue
        moves = rules.moves(cur[k], cur[k + 1])
        if not moves:
            blocked = True
            continue
        for repl in moves:
            steps += 1
            if steps > budget.steps or len(seen) > budget.branch_cap:
                exhausted = True
                frontier = []
                break
            if any(i > budget.index_ceiling for _, i, _ in repl):
                exhausted = True
                continue
            nxt = cur[:k] + repl + cur[k + 2:]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if exhausted:
        status = "budget_exhausted"
    elif len(terminals) == 1 and not blocked:
        status = "empty" if terminals[0] == ((), ()) else "terminated"
    else:
        status = "branching" if terminals else "blocked"
    return ReversalOutcome(status, tuple(terminals), steps)


def reverses_to_empty(p: SkeinPresentation, w: SignedWord,
                      budget: ReversingBudget | None = None) -> str:
    """'yes' when some reversal run of w reaches the empty word, 'no', or 'unknown'."""
    out = reverse(p, w, budget)
    if ((), ()) in out.terminals:
        return "yes"
    return "unknown" if out.status == "budget_exhausted" else "no"


# ---------------------------------------------------------------------------
# Complements

def complement(p: SkeinPresentation, u, v):
    """(u\\v, v\\u) for positive words u, v, or None when reversal blocks.

    Only meaningful on complemented presentations, where the reversal is
    deterministic and the complement unique.
    """
    if not is_complemented(p):
        raise ValueError("complement is defined for complemented presentations only")
    w = inverse_word(positive_word(u)) + positive_word(v)
    out = reverse(p, w)
    if out.terminated:
        return out.result
    if out.status == "blocked":
        return None
    raise oracle.BudgetExceeded("complement computation exceeded the reversing budget")


def left_divides(p: SkeinPresentation, u, v,
                 budget: ReversingBudget | None = None) -> str:
    """Does u left-divide v in the monoid: u w = v for some positive w?

    Via reversing: u^-1 v must reverse to a purely positive word.  "yes" is
    sound always; "no" is conclusive only for complete presentations.
    """
    out = reverse(p, inverse_word(positive_word(u)) + positive_word(v), budget)
    if any(not right for _, right in out.terminals):
        return "yes"
    return "unknown" if out.status == "budget_exhausted" else "no"


def words_equal(p: SkeinPresentation, u, v,
                budget: ReversingBudget | None = None) -> str:
    """Equality of positive words in the monoid, decided by reversing.

    Sound in the "yes" direction for every presentation; complete (hence
    conclusive on "no") when the presentation is complete.
    """
    if len(u) != len(v):
        return "no"
    if tuple(u) == tuple(v):
        return "yes"
    w = inverse_word(positive_word(u)) + positive_word(v)
    return reverses_to_empty(p, w, budget)


# ---------------------------------------------------------------------------
# Strong cube condition and completeness

def scc_at(p: SkeinPresentation, u, v, w) -> str:
    """satisfied / violated / unknown for the cube condition at positive words (u, v, w)."""
    quad = (inverse_word(positive_word(u)) + positive_word(w)
            + inverse_word(positive_word(w)) + positive_word(v))
    out = reverse(p, quad)
    if out.status == "budget_exhausted":
        return "unknown"
    verdict = "satisfied"
    for vp, up in out.terminals:
        check = (inverse_word(positive_word(tuple(u) + tuple(vp)))
                 + positive_word(tuple(v) + tuple(up)))
        ans = reverses_to_empty(p, check)
        if ans == "no":
            return "violated"
        if ans == "unknown":
            verdict = "unknown"
    return verdict


@dataclass
class Certificate:
    """A replayable verdict: criterion name plus the data to re-run it."""
    verdict: str                 # yes/no/unknown or complete/incomplete/unknown
    criterion: str
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "criterion": self.criterion,
                "detail": self.detail}


def _letters(colour: str) -> tuple:
    return ((colour, 1),)


def complemented_cube_word(p: SkeinPresentation, x: str, y: str, z: str):
    """The word [(x1\\y1)\\(x1\\z1)] \\ [(y1\\x1)\\(y1\\z1)], or None when undefined."""
    def comp(uw, vw):
        if uw is None or vw is None:
            return None
        res = complement(p, uw, vw)
        return None if res is None else res[0]

    xy = comp(_letters(x), _letters(y))
    xz = comp(_letters(x), _letters(z))
    yx = comp(_letters(y), _letters(x))
    yz = comp(_letters(y), _letters(z))
    left = comp(xy, xz)
    right = comp(yx, yz)
    return comp(left, right)


@functools.cache
def is_complete(p: SkeinPresentation) -> Certificate:
    """Tri-state completeness of the elementary-generator presentation.

    Complemented presentations are checked through the cube expression at
    colour triples; presentations whose relations all have distinct root
    colours through the cube condition at (x1, y1, z1).  Anything else is
    reported unknown rather than guessed.
    """
    if is_complemented(p):
        if len(p.colours) <= 2:
            return Certificate("complete", "complemented-small",
                               {"colours": len(p.colours)})
        for x in p.colours:
            for y in p.colours:
                for z in p.colours:
                    if len({x, y, z}) != 3:
                        continue
                    try:
                        e = complemented_cube_word(p, x, y, z)
                    except oracle.BudgetExceeded:
                        return Certificate("unknown", "complemented-cube-budget",
                                           {"triple": [x, y, z]})
                    if e:
                        return Certificate(
                            "incomplete", "complemented-cube",
                            {"triple": [x, y, z], "word": render_word(e)})
        return Certificate("complete", "complemented-cube", {})
    if all(lhs[0] != rhs[0] for lhs, rhs in p.relations):
        unknown = None
        for x in p.colours:
            for y in p.colours:
                for z in p.colours:
                    if z == x or z == y:
                        continue
                    ans = scc_at(p, _letters(x), _letters(y), _letters(z))
                    if ans == "violated":
                        return Certificate("incomplete", "scc-at-generators",
                                           {"triple": [x, y, z]})
                    if ans == "unknown":
                        unknown = [x, y, z]
        if unknown:
            return Certificate("unknown", "scc-budget", {"triple": unknown})
        return Certificate("complete", "scc-at-generators", {})
    return Certificate("unknown", "unsupported-shape",
                       {"reason": "relations with equal root colours"})


@functools.cache
def decide_left_cancellative(p: SkeinPresentation) -> Certificate:
    """yes / no / unknown with a certificate naming the deciding branch."""
    refute_bound = SearchBounds().lc_refute_bound
    comp = is_complete(p)
    if comp.verdict == "complete":
        ok = True
        for tail_l, tail_r in _rules(p).same_root:
            ans = words_equal(p, tail_l, tail_r)
            if ans != "yes":
                ok = False
                break
        if ok:
            return Certificate("yes", "complete-no-shared-head",
                              {"completeness": comp.criterion})
    ce = oracle.refute_left_cancellative(p, refute_bound)
    if ce is not None:
        return Certificate("no", "oracle-counterexample",
                           {"counterexample": ce.render(), "bound": refute_bound})
    return Certificate("unknown", "no-criterion-applies",
                       {"completeness": comp.verdict, "refute_bound": refute_bound})


def ore_via_closed_family(p: SkeinPresentation) -> Certificate:
    """Ore's property via a generator family closed under reversing.

    Applies when every pair of distinct colours shares exactly one relation
    and all relation words have length two; completeness is then checked on
    colour triples.  Single-colour presentations are directed outright.
    """
    if len(p.colours) == 1:
        return Certificate("yes", "monochromatic-directed", {})
    pairs = {}
    for lhs, rhs in p.relations:
        a, b = lhs[0], rhs[0]
        if a == b:
            return Certificate("unknown", "shape-mismatch",
                               {"reason": "relation with equal root colours"})
        pairs.setdefault(frozenset((a, b)), []).append((lhs, rhs))
    for a_i, a in enumerate(p.colours):
        for b in p.colours[a_i + 1:]:
            rels = pairs.get(frozenset((a, b)), [])
            if len(rels) != 1:
                return Certificate("unknown", "shape-mismatch",
                                   {"reason": f"{len(rels)} relations for pair ({a},{b})"})
    for lw, rw in skein_relation_words(p):
        if len(lw) != 2 or len(rw) != 2:
            return Certificate("unknown", "shape-mismatch",
                               {"reason": "relation words longer than two letters"})
    comp = is_complete(p)
    if comp.verdict != "complete":
        return Certificate("unknown", "completeness-not-established",
                           {"completeness": comp.verdict})
    return Certificate("yes", "closed-family", {"relation_length": 2})
