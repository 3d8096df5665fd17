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
`_run` is the one place that picks the engine.  Words are letter tuples at
the interface and signed ints inside the loops, with the equal-index moves
read from a per-presentation table (`_Rules`, read through `rules_of`).

Of the calls that read every terminal, only `reverse` decodes them into
pairs of positive words (`scc_at`, the spine's mcm trees).  The code-word
seam for other modules is `rules_of(p)` with `complement_codes(rules, u, v)`,
the unique complement pair of two positive code words, cut at the sign
boundary of the one terminal and not decoded: the Ore witnesses, their leaf
starts (`fractions.witness_starts`, through `block_starts`), vine-word
evaluation and the cofinal Ore search keep complements as code words and
decode (`rules.decode`) at most the words they return; the cube expressions
of `is_complete` read `complement`, which decodes its pair.  Fraction
identity and equality reach `codes_equal`, `words_equal` on code words,
with the canonical code word of each tree (`rules.canonical`), which is
read off a tree code word without building the tree.
`reverses_to_empty`, `words_equal` and `left_divides` ask only whether some
terminal meets a goal (the empty word, or a word with no negative letter),
so they answer on the code words without decoding, and the branching search
stops at its first witness.

The strong cube condition, completeness, left-cancellativity and the
closed-family Ore criterion are all expressed over this engine.  Positive
answers from the completeness-based criteria are proofs; the refutation
route for left-cancellativity delegates to the congruence oracle.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field

from .config import LC_REFUTE_BOUND, ReversingBudget
from .forest import render_word, word_from_tree
from .presentation import SkeinPresentation, is_complemented, per_presentation, skein_relation_words
from . import oracle

# Signed letters are (colour, index, sign) with sign +1/-1.
SignedWord = tuple


def positive_word(letters) -> SignedWord:
    return tuple((c, i, 1) for c, i in letters)


def inverse_product(u, v) -> SignedWord:
    """The signed word u^-1 v of two positive words."""
    return tuple((c, i, -1) for c, i in reversed(u)) + positive_word(v)


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


class _Table(dict):
    """A dict that computes a missing entry with `fill` and keeps it."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


class _Rules:
    """Per-presentation relation tables for the reversing loop.

    Two relations sharing a side imply a relation between their other sides;
    when adding those derived pairs keeps the set complemented (one relation
    per colour pair, distinct roots) they are included, so that reversing
    finds the common multiples they witness.  This matters for the
    monochromatic-pair family, whose emitted presentations pair a reference
    colour with every other colour only.

    With C colours the letter x_i is coded (i + 1)·C + rank(x) and x_i^-1
    as its negation, so an index shift adds C and the ceiling test compares
    one magnitude.  `templates` maps two colour ranks to the coded
    replacement words of their pattern at index 0.  `skein` maps the codes
    (a, b) of an equal-index pattern a^-1 b to its moves in exploration
    order (the deletion first when a = b), each a code tuple with its largest
    magnitude; filled on first use, it holds at most C² entries per index
    reached.  `letters` decodes a signed code, `codes` and `decode` translate
    positive words, and `block_starts` reads the leaf starts of a coded
    forest.  `trees` codes the canonical word of each tree whose witness
    starts were read (`fractions.witness_starts`): the point scan's
    candidates and the trees of compared points.
    """

    def __init__(self, p: SkeinPresentation):
        self.colours, self.rank, self.C = p.colours, p.colour_rank, len(p.colours)
        words = list(skein_relation_words(p))
        self.deterministic = is_complemented(p)
        if self.deterministic:
            words.extend(_derived_pairs(words))
        self.templates = {}
        self.skein = _Table(self._skein_moves)
        self.letters = _Table(lambda a: (self.colours[abs(a) % self.C], abs(a) // self.C - 1))
        self.trees = _Table(lambda t: tuple(self.codes(word_from_tree(t))))
        for lw, rw in words:
            x, y = lw[0][0], rw[0][0]
            tail_l, tail_r = lw[1:], rw[1:]
            if x == y:
                self._add(x, x, tail_l, tail_r)
                if tail_l != tail_r:
                    self._add(x, x, tail_r, tail_l)
            else:
                self._add(x, y, tail_l, tail_r)
                self._add(y, x, tail_r, tail_l)

    def _add(self, x, y, tail_x, tail_y):
        # the tail letter (c, k) of a relation rooted at index 1 lies at index
        # k - 1 of the pattern at index 0, with code k·C + rank(c)
        C, rank = self.C, self.rank
        template = tuple(k * C + rank[c] for c, k in tail_x) + \
            tuple(-(k * C + rank[c]) for c, k in reversed(tail_y))
        self.templates.setdefault((rank[x], rank[y]), []).append(template)

    def _skein_moves(self, pattern) -> tuple:
        (a, b), C = pattern, self.C
        shift = a - a % C - C           # i·C for the pattern at index i
        repls = [()] if a == b else []
        repls += [tuple(c + shift if c > 0 else c - shift for c in template)
                  for template in self.templates.get((a % C, b % C), ())]
        return tuple((repl, max(map(abs, repl), default=0)) for repl in repls)

    def encode(self, w: SignedWord) -> tuple:
        C, rank = self.C, self.rank
        return tuple(s * ((i + 1) * C + rank[c]) for c, i, s in w)

    def codes(self, word) -> list:
        """The code word of a positive word."""
        C, rank = self.C, self.rank
        return [(i + 1) * C + rank[c] for c, i in word]

    def decode(self, codes) -> tuple:
        """The positive word of a code word."""
        return tuple(map(self.letters.__getitem__, codes))

    def canonical(self, codes) -> list:
        """`codes(word_from_tree(tree_from_word(decode(codes))))` for the code
        word of a tree, in one pass over ints: the carets are placed as
        `forest._decode` places them, then read level by level as
        `word_from_tree` reads them."""
        C = self.C
        slots, child = [0], [-1]    # open leaf slots; slot -> the caret there, -1 a leaf
        for m, a in enumerate(codes):   # caret m owns slots 2m + 1 and 2m + 2
            i = a // C - 2
            child[slots[i]] = m
            child += (-1, -1)
            slots[i:i + 1] = (2 * m + 1, 2 * m + 2)
        word, level = [], [(0, 1)] if codes else []
        while level:
            nxt = []
            for shift, (m, pos) in enumerate(level):
                pos += shift
                word.append((pos + 1) * C + codes[m] % C)
                left, right = child[2 * m + 1], child[2 * m + 2]
                if left >= 0:
                    nxt.append((left, pos))
                if right >= 0:
                    nxt.append((right, pos + 1))
            level = nxt
        return word

    def split(self, word) -> tuple:
        """Decode a pattern-free word into (positive prefix, positive suffix word)."""
        return tuple(map(self.decode, _cut(word)))

    def block_starts(self, codes, roots: int) -> list:
        """`leaf_starts(forest_from_word(self.decode(codes), roots))`."""
        starts, C = list(range(roots)), self.C
        for a in codes:     # the letter splits leaf a // C - 2: later blocks move right
            for b in range(bisect.bisect_right(starts, a // C - 2), roots):
                starts[b] += 1
        return starts


def _cut(word) -> tuple:
    """(u', v') as code words for a pattern-free code word u' v'^-1."""
    cut = bisect.bisect(word, False, key=(0).__gt__)    # positives come first
    return word[:cut], list(map(operator.neg, reversed(word[cut:])))


def _quotient(u, v) -> tuple:
    """The code word of u^-1 v for code words u, v of positive words."""
    return (*map(operator.neg, reversed(u)), *v)


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


rules_of = per_presentation(_Rules)     # p -> its _Rules, built once per presentation
_DEFAULT_BUDGET = ReversingBudget()


def reverse(p: SkeinPresentation, w: SignedWord,
            budget: ReversingBudget | None = None) -> ReversalOutcome:
    """Reverse w: deterministically when p is complemented, else by exhaustive search."""
    rules = rules_of(p)
    status, words, steps = _run(rules, rules.encode(w), budget)
    return ReversalOutcome(status, tuple(map(rules.split, words)), steps)


def _run(rules: _Rules, w: tuple, budget: ReversingBudget | None = None, goal=None) -> tuple:
    """(status, terminal code words, steps) of reversing w: the one engine choice.
    With a goal, the branching search stops at its first witness."""
    budget = budget or _DEFAULT_BUDGET
    if rules.deterministic:
        return _reverse_det(rules, w, budget)
    return _reverse_branching(rules, w, budget, goal)


def _reverse_det(rules: _Rules, w: tuple, budget: ReversingBudget) -> tuple:
    """(status, terminal code words, steps) of the one reversal run of w."""
    C, skein, max_steps = rules.C, rules.skein, budget.steps
    limit = (budget.index_ceiling + 2) * C      # the least code above the ceiling
    word = list(w)
    steps, k, end = 0, 0, len(word) - 1
    while True:                     # the prefix before k holds no pattern
        while k < end and not word[k] < 0 < word[k + 1]:
            k += 1
        if k >= end:
            return "terminated" if word else "empty", (word,), steps
        if steps >= max_steps:
            return "budget_exhausted", (), steps
        a, b = -word[k], word[k + 1]
        i, j = a // C, b // C
        if i < j:                   # only the grown letter can cross the ceiling
            if b + C >= limit:
                return "budget_exhausted", (), steps
            word[k], word[k + 1] = b + C, -a
        elif i > j:
            if a + C >= limit:
                return "budget_exhausted", (), steps
            word[k], word[k + 1] = b, -a - C
        else:
            moves = skein[a, b]
            if not moves:
                return "blocked", (), steps
            if moves[0][1] >= limit:
                return "budget_exhausted", (), steps
            word[k:k + 2] = moves[0][0]
            end = len(word) - 1
        steps += 1
        if k:
            k -= 1


def _reverse_branching(rules: _Rules, w: tuple, budget: ReversingBudget,
                       goal=None) -> tuple:
    """(status, terminal code words, steps) of the exhaustive search from w.

    With a goal (a predicate on terminal code words) the search returns
    ("witness", [word], steps) at the first terminal that meets it; up to
    there it pops and pushes exactly as the full search does.
    """
    C, skein, max_steps, cap = rules.C, rules.skein, budget.steps, budget.branch_cap
    limit = (budget.index_ceiling + 2) * C
    seen, full = {w}, cap < 1        # full: more words seen than the branch cap
    frontier = [(w, 0)]     # (word, index before which it holds no pattern)
    terminals: list = []    # each word is pushed once, so these are distinct
    blocked = exhausted = False
    steps = 0
    while frontier:
        cur, k = frontier.pop()
        end = len(cur) - 1
        while k < end and not cur[k] < 0 < cur[k + 1]:
            k += 1
        if k >= end:
            if goal is not None and goal(cur):
                return "witness", [cur], steps
            terminals.append(cur)
            continue
        a, b = -cur[k], cur[k + 1]
        i, j = a // C, b // C
        if i < j:
            moves = (((b + C, -a), b + C),)
        elif i > j:
            moves = (((b, -a - C), a + C),)
        else:
            moves = skein[a, b]
            if not moves:
                blocked = True
                continue
        head, tail, back = cur[:k], cur[k + 2:], k - 1 if k else 0
        for repl, top in moves:
            steps += 1
            if steps > max_steps or full:
                exhausted = True
                frontier.clear()
                break
            if top >= limit:
                exhausted = True
                continue
            nxt = head + repl + tail
            if nxt not in seen:
                seen.add(nxt)
                full = len(seen) > cap
                frontier.append((nxt, back))
    if exhausted:
        status = "budget_exhausted"
    elif len(terminals) == 1 and not blocked:
        status = "empty" if not terminals[0] else "terminated"
    else:
        status = "branching" if terminals else "blocked"
    return status, terminals, steps


def _empty(word) -> bool:
    return not word


def _positive(word) -> bool:
    """No negative letter: a pattern-free word keeps its negatives at the end."""
    return not word or word[-1] > 0


def _decide(rules: _Rules, w: tuple, budget: ReversingBudget | None, goal) -> str:
    """'yes' when some terminal code word of w meets goal, else 'unknown' when
    the budget ran out, else 'no'.  Nothing is decoded."""
    status, words, _steps = _run(rules, w, budget, goal)
    if any(map(goal, words)):
        return "yes"
    return "unknown" if status == "budget_exhausted" else "no"


def reverses_to_empty(p: SkeinPresentation, w: SignedWord,
                      budget: ReversingBudget | None = None) -> str:
    """'yes' when some reversal run of w reaches the empty word, 'no', or 'unknown'."""
    rules = rules_of(p)
    return _decide(rules, rules.encode(w), budget, _empty)


def complement_codes(rules: _Rules, u, v, budget: ReversingBudget | None = None) -> tuple:
    """(status, u\\v, v\\u) for code words u, v of positive words.

    The complements are the one terminal of the reversal of u^-1 v, cut at
    its sign boundary, as code words; both are None unless the reversal
    terminated.  Nothing is decoded.
    """
    status, words, _steps = _run(rules, _quotient(u, v), budget)
    if status in ("terminated", "empty"):
        return (status, *_cut(words[0]))
    return status, None, None


# ---------------------------------------------------------------------------
# Complements

def complement(p: SkeinPresentation, u, v):
    """(u\\v, v\\u) for positive words u, v, or None when reversal blocks.

    Only meaningful on complemented presentations, where the reversal is
    deterministic and the complement unique.
    """
    rules = rules_of(p)
    if not rules.deterministic:
        raise ValueError("complement is defined for complemented presentations only")
    status, left, right = complement_codes(rules, rules.codes(u), rules.codes(v))
    if left is not None:
        return rules.decode(left), rules.decode(right)
    if status == "blocked":
        return None
    raise oracle.BudgetExceeded("complement computation exceeded the reversing budget")


def left_divides(p: SkeinPresentation, u, v,
                 budget: ReversingBudget | None = None) -> str:
    """Does u left-divide v in the monoid: u w = v for some positive w?

    Via reversing: u^-1 v must reverse to a purely positive word.  "yes" is
    sound always; "no" is conclusive only for complete presentations.
    """
    rules = rules_of(p)
    return _decide(rules, _quotient(rules.codes(u), rules.codes(v)), budget, _positive)


def codes_equal(rules: _Rules, u, v, budget: ReversingBudget | None = None) -> str:
    """`words_equal` on code words u, v of positive words."""
    if len(u) != len(v):
        return "no"
    if u == v:
        return "yes"
    return _decide(rules, _quotient(u, v), budget, _empty)


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
    rules = rules_of(p)
    return _decide(rules, _quotient(rules.codes(u), rules.codes(v)), budget, _empty)


# ---------------------------------------------------------------------------
# Strong cube condition and completeness

def scc_at(p: SkeinPresentation, u, v, w) -> str:
    """satisfied / violated / unknown for the cube condition at positive words (u, v, w)."""
    out = reverse(p, inverse_product(u, w) + inverse_product(w, v))
    if out.status == "budget_exhausted":
        return "unknown"
    verdict = "satisfied"
    for vp, up in out.terminals:
        ans = reverses_to_empty(p, inverse_product(tuple(u) + vp, tuple(v) + up))
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

    @property
    def confidence(self) -> str:
        """The report's confidence: a decided verdict is proved, `no` is refuted,
        and any other word, new ones included, reads unknown."""
        return {"yes": "proved", "complete": "proved", "incomplete": "proved",
                "no": "refuted"}.get(self.verdict, "unknown")

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "criterion": self.criterion,
                "detail": self.detail}


def _left_complement(p: SkeinPresentation, u, v):
    """u\\v, or None when either word or the complement is undefined."""
    if u is None or v is None:
        return None
    res = complement(p, u, v)
    return None if res is None else res[0]


def cube_sides(p: SkeinPresentation, x: str, y: str, z: str) -> tuple:
    """The two sides (x1\\y1)\\(x1\\z1) and (y1\\x1)\\(y1\\z1), each None when undefined."""
    x1, y1, z1 = (((c, 1),) for c in (x, y, z))
    return (_left_complement(p, _left_complement(p, x1, y1), _left_complement(p, x1, z1)),
            _left_complement(p, _left_complement(p, y1, x1), _left_complement(p, y1, z1)))


@per_presentation
def is_complete(p: SkeinPresentation) -> Certificate:
    """Tri-state completeness of the elementary-generator presentation.

    Complemented presentations are checked through the cube expression at
    colour triples: it passes when both sides are undefined or both reduce
    to a common multiple with an empty complement; a cube defined on one
    side only, or with sides that have no common multiple, is unknown.
    Presentations whose relations all have distinct root colours are
    checked through the cube condition at (x1, y1, z1).  Anything else is
    reported unknown rather than guessed.
    """
    if is_complemented(p):
        if len(p.colours) <= 2:
            return Certificate("complete", "complemented-small",
                               {"colours": len(p.colours)})
        for x, y, z in itertools.permutations(p.colours, 3):
            try:
                sides = cube_sides(p, x, y, z)
                e = _left_complement(p, *sides)
            except oracle.BudgetExceeded:
                return Certificate("unknown", "complemented-cube-budget",
                                   {"triple": [x, y, z]})
            if e is None and sides != (None, None):
                # one side undefined, or two sides without a common multiple
                return Certificate("unknown", "complemented-cube-partial",
                                   {"triple": [x, y, z]})
            if e:
                return Certificate("incomplete", "complemented-cube",
                                   {"triple": [x, y, z], "word": render_word(e)})
        return Certificate("complete", "complemented-cube", {})
    if all(lhs[0] != rhs[0] for lhs, rhs in p.relations):
        unknown = None
        for x, y, z in itertools.product(p.colours, repeat=3):
            if z == x or z == y:
                continue
            ans = scc_at(p, ((x, 1),), ((y, 1),), ((z, 1),))
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


@per_presentation
def decide_left_cancellative(p: SkeinPresentation) -> Certificate:
    """yes / no / unknown with a certificate naming the deciding branch."""
    comp = is_complete(p)
    if comp.verdict == "complete":
        return Certificate("yes", "complete-no-shared-head",
                           {"completeness": comp.criterion})
    ce = oracle.refute_left_cancellative(p, LC_REFUTE_BOUND)
    if ce is not None:
        return Certificate("no", "oracle-counterexample",
                           {"counterexample": ce.render(), "bound": LC_REFUTE_BOUND})
    return Certificate("unknown", "no-criterion-applies",
                       {"completeness": comp.verdict, "refute_bound": LC_REFUTE_BOUND})


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
    for a, b in itertools.combinations(p.colours, 2):
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
