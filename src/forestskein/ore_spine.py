"""Ore certification, spine computation, F-infinity certificates, and the
monochromatic-pair family of presentations.

Ore's property is certified three ways, in decreasing strength:

  * closed generator family: every pair of distinct colours shares one
    length-two relation, so the elementary generators are closed under
    reversing and common multiples always exist;
  * cofinal monochromatic tree: a tree t whose class contains an
    all-one-colour representative for every colour absorbs every tree into
    its iterates (attach a copy of t at each leaf, repeatedly), giving a
    cofinal sequence; a bounded absorption check replays the argument with
    complements, as s divides t·F exactly when t\\s divides F;
  * bounded evidence: every small pair of trees gets a common upper bound
    within a search bound.  Never reported as proved.

The spine starts from the one-caret classes and repeatedly takes minimal
common multiples of distinct members.  A finite spine combined with
left-cancellativity and Ore's property yields the F-infinity certificate,
which covers the plain, cyclic, symmetric, and braided fraction groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import (
    ABSORPTION_BOUND,
    ITERATE_DEPTH,
    ORE_PAIR_BOUND,
    ORE_SEARCH_BOUND,
    SPINE_CARET_BOUND,
    SPINE_STAGE_BOUND,
    ReversingBudget,
)
from .forest import (
    LEAF,
    Tree,
    caret,
    caret_count,
    forest_from_word,
    leaf_count,
    render_tree,
    tree_colours,
    tree_from_word,
    tree_key,
    word_from_tree,
)
from .presentation import PresentationError, SkeinPresentation
from . import fractions, oracle, reversing


@dataclass
class OreCertificate:
    kind: str                    # closed_family | cofinal_monochromatic | bounded_evidence
    confidence: str              # proved | evidence
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "confidence": self.confidence, "data": self.data}


@dataclass
class OreSearch:
    verdict: str                 # a confidence level: proved | evidence | refuted | unknown
    certificate: OreCertificate | None
    failures: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)


def _monochromatic_candidate(p: SkeinPresentation):
    """A tree whose class contains an all-c representative for each colour c.

    Built as the iterated join u(u\\v) of the colour carets; checked against
    its congruence class, which also yields the per-colour representatives.
    """
    rules = reversing.rules_of(p)
    word = rules.codes([(p.colours[0], 1)])
    for c in p.colours[1:]:
        left = reversing.complement_codes(rules, word, rules.codes([(c, 1)]))[1]
        if left is None:
            return None, {}
        word += left
    t = forest_from_word(rules.decode(word), 1)[0]
    try:
        members = oracle.class_members(p, (t,))
    except oracle.BudgetExceeded:
        return t, {}
    mono = {}
    for member in members:
        cols = tree_colours(member[0])
        if len(cols) == 1:
            mono.setdefault(next(iter(cols)), member[0])
    return t, mono


def cofinal_search(p: SkeinPresentation, bound: int | None = None) -> OreSearch:
    bound = ABSORPTION_BOUND if bound is None else bound
    bounds = {"absorption_bound": bound, "iterate_depth": ITERATE_DEPTH}

    closed = reversing.ore_via_closed_family(p)
    if closed.verdict == "yes":
        return OreSearch("proved",
                         OreCertificate("closed_family", "proved",
                                        closed.detail | {"criterion": closed.criterion}),
                         bounds=bounds)

    if reversing.is_complete(p).verdict == "complete":
        t, mono = _monochromatic_candidate(p)
        if t is not None:
            # t is a common multiple of every colour caret; with monochromatic
            # representatives in every colour its iterates are cofinal: Ore
            absorbed, tested = _absorption_check(p, t, bound, ITERATE_DEPTH)
            data = {
                "base_tree": render_tree(t),
                "monochromatic_representatives":
                    {c: render_tree(m) for c, m in mono.items()},
                "trees_absorbed": tested,
                "absorption_replay": "ok" if absorbed else "bound exhausted",
            }
            proved = set(mono) == set(p.colours)
            if proved or absorbed:
                level = "proved" if proved else "evidence"
                return OreSearch(level, OreCertificate("cofinal_monochromatic", level, data),
                                 bounds=bounds)

    try:
        report = oracle.check_ore_bounded(p, min(ORE_PAIR_BOUND, bound), ORE_SEARCH_BOUND)
    except oracle.BudgetExceeded:
        return OreSearch("unknown", None, bounds=bounds)
    bounds |= {"pair_bound": report.pair_bound, "search_bound": report.search_bound}
    if report.failures:
        # bounded failure is a genuine refutation only in the free case,
        # where classes are singletons and divisibility is structural
        verdict = "refuted" if not p.relations else "unknown"
        return OreSearch(verdict, None, failures=report.failures, bounds=bounds)
    return OreSearch("evidence",
                     OreCertificate("bounded_evidence", "evidence",
                                    {"pairs_checked": report.pairs_checked}),
                     failures=[], bounds=bounds)


def _absorption_check(p, t, bound, depth):
    """Every class representative with <= bound carets divides the iterate t_depth.

    t_d = t·(t_{d-1}, ..., t_{d-1}), and t·(t\\s) = s·(s\\t) is the least
    common multiple on a complete complemented presentation (Dehornoy 2003),
    so s divides t_d exactly when each tree of the forest t\\s divides
    t_{d-1}: one reversal against t per level.  "Divides" is sound on every
    presentation; a reversal that does not terminate reads "does not divide".
    """
    rules, n = reversing.rules_of(p), leaf_count(t)
    wt = rules.codes(word_from_tree(t))
    # complements carry leaf indices of t, which pass the default ceiling
    wide = ReversingBudget(index_ceiling=max(ReversingBudget.index_ceiling, 2 * n + 8))

    def divides(s, d):
        left = reversing.complement_codes(rules, wt, rules.codes(word_from_tree(s)), wide)[1]
        return left is not None and (not left or d > 1 and all(
            u is None or divides(u, d - 1) for u in forest_from_word(rules.decode(left), n)))

    reps = _absorption_representatives(p, bound)
    tested = next((i for i, s in enumerate(reps) if not divides(s, depth)), len(reps))
    return tested == len(reps), tested


def _absorption_representatives(p, bound) -> list:
    """Canonical trees of the classes with 1..bound carets; the carets over budget."""
    try:
        return [cls[0][0] for k in range(1, bound + 1)
                for cls in oracle.multiple_classes(p, (LEAF,), k)]
    except oracle.BudgetExceeded:
        return [caret(c) for c in p.colours]


# ---------------------------------------------------------------------------
# Spine

@dataclass
class SpineReport:
    stages: list                  # lists of tree representatives
    stabilized: bool
    caret_bound: int
    stage_bound: int
    strategy: str                 # exact | reversing-evidence
    lc_warning: str | None = None
    bound_hit: bool = False

    @property
    def classes(self) -> list:
        out: list = []
        for stage in self.stages:
            out.extend(stage)
        return out

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def confidence(self) -> str:
        # no bounded search proves a spine infinite: a cut run is evidence at its bounds
        return "proved" if self.stabilized and self.strategy == "exact" else "evidence"


def _mcm_trees(p: SkeinPresentation, x: Tree, y: Tree) -> list:
    """Minimal common multiples of two tree classes, as tree representatives."""
    wx, wy = word_from_tree(x), word_from_tree(y)
    # every terminal of the reversal is a common multiple (exactly one on a
    # complemented presentation); minimality is filtered by divisibility
    out = reversing.reverse(p, reversing.inverse_product(wx, wy))
    joins = [tuple(wx) + left for left, _ in out.terminals]
    candidates = _dedupe(p, [forest_from_word(w, 1)[0] for w in joins])
    words = [word_from_tree(z) for z in candidates]
    return [z for z, wz in zip(candidates, words)
            if not any(len(wo) < len(wz) and reversing.left_divides(p, wo, wz) == "yes"
                       for wo in words)]


def _dedupe(p, trees) -> list:
    out: list = []
    for t in trees:
        if not any(leaf_count(t) == leaf_count(u)
                   and reversing.words_equal(p, word_from_tree(t), word_from_tree(u)) == "yes"
                   for u in out):
            out.append(t)
    rank = p.colour_rank
    out.sort(key=lambda t: tree_key(t, rank))
    return out


def _same_stage(p, a, b) -> bool:
    if len(a) != len(b):
        return False
    if sorted(map(caret_count, a)) != sorted(map(caret_count, b)):
        return False
    return all(any(reversing.words_equal(p, word_from_tree(x), word_from_tree(y)) == "yes"
                   for y in b) for x in a)


def spine(p: SkeinPresentation,
          caret_bound: int | None = None,
          stage_bound: int | None = None) -> SpineReport:
    caret_bound = SPINE_CARET_BOUND if caret_bound is None else caret_bound
    stage_bound = SPINE_STAGE_BOUND if stage_bound is None else stage_bound

    lc = reversing.decide_left_cancellative(p)
    warning = None if lc.verdict == "yes" else \
        f"left-cancellativity is {lc.verdict}; spine classes may be unreliable"
    strategy = "exact" if fractions.route(p) is not None else "reversing-evidence"

    stage = _dedupe(p, [caret(c) for c in p.colours])
    stages = [stage]
    stabilized = False
    bound_hit = False
    for _ in range(stage_bound):
        nxt: list = []
        cur = stages[-1]
        for i, x in enumerate(cur):
            for y in cur[i + 1:]:
                nxt.extend(_mcm_trees(p, x, y))
        nxt = _dedupe(p, nxt)
        if not nxt:
            stabilized = True
            break
        if any(_same_stage(p, nxt, old) for old in stages):
            stabilized = True
            break
        if max(caret_count(t) for t in nxt) >= caret_bound:
            bound_hit = True
            stages.append(nxt)
            break
        stages.append(nxt)
    report = SpineReport(stages, stabilized, caret_bound, stage_bound,
                         strategy, warning, bound_hit)
    return report


def spine_classes_deduped(p: SkeinPresentation, report: SpineReport) -> list:
    return _dedupe(p, report.classes)


# ---------------------------------------------------------------------------
# F-infinity

FINITE_SPINE_FACT = (
    "a left-cancellative forest category with directed tree order and finite "
    "spine has fraction groups of type F-infinity, in the plain, cyclic, "
    "symmetric, and braided versions alike"
)


@dataclass
class FInfinityCertificate:
    spine_size: int
    spine_classes: list
    lc_criterion: str
    ore_kind: str
    covers: tuple = ("F", "T", "V", "BV")
    theorem_citation: str = FINITE_SPINE_FACT

    def to_json(self) -> dict:
        return {
            "property": "type F-infinity",
            "verdict": "proved",
            "kind": "finite-spine",
            "witness": {
                "spine_size": self.spine_size,
                "spine": [render_tree(t) for t in self.spine_classes],
                "lc_criterion": self.lc_criterion,
                "ore_kind": self.ore_kind,
            },
            "covers": list(self.covers),
            "theorem_citation": self.theorem_citation,
        }


def f_infinity_certificate(p: SkeinPresentation,
                           spine_report: SpineReport | None = None,
                           ore: OreSearch | None = None):
    """Certificate that the fraction groups are of type F-infinity, or None.

    Needs left-cancellativity, an Ore certificate stronger than bounded
    evidence, and a stabilized finite spine.
    """
    lc = reversing.decide_left_cancellative(p)
    if lc.verdict != "yes":
        return None
    ore = ore or cofinal_search(p)
    if ore.verdict != "proved" or ore.certificate is None:
        return None
    spine_report = spine_report or spine(p)
    if not spine_report.stabilized:
        return None
    classes = spine_classes_deduped(p, spine_report)
    return FInfinityCertificate(
        spine_size=len(classes),
        spine_classes=classes,
        lc_criterion=lc.criterion,
        ore_kind=ore.certificate.kind,
    )


# ---------------------------------------------------------------------------
# The monochromatic-pair construction

def recolour(t: Tree, colour: str) -> Tree:
    return tree_from_word([(colour, i) for _c, i in word_from_tree(t)])


@dataclass
class FTauResult:
    presentation: SkeinPresentation
    lc: reversing.Certificate
    ore: OreSearch
    spine_report: SpineReport
    f_infinity: FInfinityCertificate | None


def build_f_tau(tau: dict, name: str = "") -> FTauResult:
    """Presentation with relations (recoloured tau_ref = recoloured tau_b).

    tau maps colour names to monochromatic tree shapes, all with the same
    leaf count; the reference colour is the first key.  The construction is
    always left-cancellative and Ore with spine inside {colours} + one tree;
    the returned certificates replay those facts with bounded checks.
    """
    if not tau:
        raise PresentationError("tau needs at least one colour")
    shapes = list(tau.items())
    for colour, shape in shapes:
        if shape is None:
            raise PresentationError(f"tau[{colour}] must be a nontrivial tree")
        if len(tree_colours(shape)) > 1:
            raise PresentationError(f"tau[{colour}] must be monochromatic")
    leaves = {leaf_count(shape) for _, shape in shapes}
    if len(leaves) != 1:
        raise PresentationError(f"tau trees must share a leaf count, got {sorted(leaves)}")
    colours = tuple(c for c, _ in shapes)
    ref_colour, ref_shape = shapes[0]
    if leaf_count(ref_shape) == 2:
        # two-leaf shapes identify all colours with the reference caret;
        # the category is the free monochromatic one
        relations = tuple((caret(ref_colour), caret(b)) for b, _ in shapes[1:])
    else:
        lhs = recolour(ref_shape, ref_colour)
        relations = tuple((lhs, recolour(shape, b)) for b, shape in shapes[1:])
    p = SkeinPresentation(colours, relations, name or "f_tau")
    lc = reversing.decide_left_cancellative(p)
    ore = cofinal_search(p)
    report = spine(p)
    cert = f_infinity_certificate(p, report, ore)
    return FTauResult(p, lc, ore, report, cert)
