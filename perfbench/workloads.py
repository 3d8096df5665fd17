"""The three benchmark workloads, their correctness gates and input records.

Every workload is a closed loop with one client: one single-threaded
process issues the next operation only after the previous one returned.
Inputs come only from the workload seed; the program sees the generated
inputs and nothing else.  An operation fails when it raises ``Unresolved``
or lets ``BudgetExceeded`` escape, answers ``unknown`` or ``None``, or (for
a CLI command) exits non-zero.  A wrong answer is not a failure: it trips
the workload's correctness gate and makes the run invalid.

Why each workload exists, and which end-to-end metric each per-layer
metric should move, is kept next to the code in WHY and LAYER_MAP.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
from collections import Counter
from fractions import Fraction
from pathlib import Path

WHY = {
    "sweep": (
        "Batch word equality, the tier-1 criterion-6 workload.  Reversing "
        "does almost all of the timed work: per caret size, a call takes "
        "25-220 us on average on the deterministic path and 90-1,100 us on "
        "rebel's branching path (2 vCPU).  The "
        "oracle only builds the ground truth during set-up, so an oracle or "
        "ordered-set change should leave sweep's timed metrics unchanged."),
    "query": (
        "Interactive qspace/eval queries on cleary plus a free1 share, "
        "covering criteria 8 and 9 and the one-shot CLI user.  A cold oracle "
        "dominates time and memory: every run forces the <=8-caret cleary "
        "stratum (431,059 forests) and one 9-caret point over the oracle "
        "budget, which today is refused only after the stratum is built.  "
        "The candidate scan of normalize_point dominates the free1 part; "
        "reversing only supplies witnesses.  One presentation's caches are "
        "hit thousands of times."),
    "census": (
        "Certify many presentations: the 16 corpus entries and seeded "
        "build_f_tau families through the fsk entry point.  Every "
        "presentation is new, so every per-presentation cache misses: this "
        "is the fill side, where query is the hit side.  It exercises the "
        "repeated decide_left_cancellative of build_f_tau, many small "
        "strata, ore_spine, the oracle route of fraction witnesses on notlc "
        "and rebel, group_presentation with the SNF, and the cli/reports "
        "layer."),
}

# layer -> [(per-layer metric family, end-to-end metric it should move, workload)]
LAYER_MAP = {
    "reversing": [("reversing.*", "ops_per_s, op_p50_ms", "sweep"),
                  ("reversing.decide_lc.repeat", "ops_per_s", "census"),
                  ("reversing.* (witnesses)", "op_p50_ms", "query")],
    "oracle": [("oracle.*", "ops_per_s, peak_rss_mb", "query"),
               ("oracle.*", "ops_per_s", "census"),
               ("oracle.*", "setup_s only", "sweep")],
    "forest": [("forest.*", "moves with oracle", "query, census")],
    "fractions": [("fractions.*", "op_p50_ms", "query"),
                  ("fractions.*", "ops_per_s, fail_ratio", "census")],
    "ordered_action": [("ordered_action.*", "ops_per_s, op_p50_ms", "query")],
    "ore_spine": [("ore_spine.*", "ops_per_s", "census")],
    "group_presentation": [("group_presentation.self_s", "ops_per_s", "census")],
    "snf": [("snf.*", "op_tail_ms", "census")],
    "cli": [("cli.* (includes reports)", "setup_s, op_p50_ms", "census")],
}

# Abelianizations of the finite presentations fixed by tier-1 criterion 2.
CRITERION_2 = {"cleary": [2, [2]], "gn2": [2, [2]], "gn3": [2, [3]], "gn4": [2, [4]],
               "gn5": [2, [5]], "hn2": [2, [2, 2]], "hn3": [2, [3, 3]],
               "hn4": [2, [4, 4]]}

GOLDENS = Path(__file__).with_name("census_goldens.json")
FAILED = object()
_WALL = re.compile(r'"wall_time_ms": [0-9.eE+-]+')


class Context:
    """Per-run state shared by a workload's set-up, loop and gates."""

    def __init__(self, fs, seed, seconds, tiny, plant, clock, root, tracer=None):
        self.fs = fs                  # namespace of forestskein modules
        self.seconds = seconds        # sizes the plan of the timed section
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.plant = plant
        self.plant_reached = False
        self.clock = clock
        self.root = root
        self.tracer = tracer
        self.latencies: list = []
        self.kinds: list = []
        self.failed = 0
        self.fail_kinds: Counter = Counter()
        self.errors: list = []
        self.inputs: dict = {}
        self.failures = (fs.fractions.Unresolved, fs.oracle.BudgetExceeded)

    def call(self, kind, fn, *args):
        """Run one timed operation; a failure returns FAILED."""
        if self.tracer is not None:
            self.tracer.op(len(self.latencies))
        t0 = self.clock()
        try:
            value = fn(*args)
        except self.failures:
            value = FAILED
        self.latencies.append(self.clock() - t0)
        self.kinds.append(kind)
        if value is FAILED or value is None or value == "unknown":
            self.failed += 1
            self.fail_kinds[kind] += 1
            return FAILED
        return value

    def planted(self, gate) -> bool:
        """True once, at the first check of the gate named by --plant."""
        if self.plant == gate and not self.plant_reached:
            self.plant_reached = True
            return True
        return False

    def error(self, gate, message):
        if len(self.errors) < 50:
            self.errors.append(f"{gate}: {message}")


# ---------------------------------------------------------------------------
# sweep

class Sweep:
    """Batch word equality against the oracle class table.

    Every pair is distinct; the plan holds OPS_PER_SECOND pairs per second
    of --seconds, which the commit that added the benchmark runs in about
    that time on 2 vCPU.  The pairs cycle through the presentations, caret
    sizes and same-class/cross-class in a fixed pattern, so the mix is the
    same for every seed.
    """

    GATES = ("sweep",)
    OPS_PER_SECOND = 6000

    def setup(self, ctx):
        fs = ctx.fs
        big = 5 if ctx.tiny else 6
        plans = [
            ("cleary", fs.corpus.load("cleary"), range(3, big + 1)),
            ("ternary", fs.corpus.load("ternary"), range(3, big + 1)),
            ("f_tau3", fs.corpus.f_tau_from_words(
                {"a": "1 1 3", "b": "1 1 3", "c": "1 1 3"}, name="f_tau3").presentation,
             range(3, big)),
            ("rebel", fs.corpus.load("rebel"), range(3, big + 1)),
        ]
        # The default budget answers "unknown" on about 1 in 3,000 cross-class
        # f_tau3 5-caret pairs (index ceiling 64) and rebel 6-caret pairs
        # (branch cap); with this one every pair resolves, so those pairs
        # are timed instead of failed.
        self.budget = fs.config.ReversingBudget(
            steps=100_000, index_ceiling=1_000, branch_cap=20_000)
        rng = ctx.rng
        tables, multi = {}, {}
        for name, p, sizes in plans:
            table = fs.oracle.saturate(p, 1, max(sizes))
            tables[name] = table
            for k in sizes:
                multi[name, k] = [
                    [m[0] for m in cls] for cls in table.classes
                    if len(cls) > 1 and fs.forest.forest_caret_count(cls[0]) == k]
        self.pairs = []
        hist: Counter = Counter()
        same_count = branching = 0
        for i in range(round(self.OPS_PER_SECOND * ctx.seconds)):
            name, p, sizes = plans[i % len(plans)]
            m = i // len(plans)
            k = sizes[m % len(sizes)]
            same = (m // len(sizes)) % 2 == 0
            table = tables[name]
            if same:
                t, s = rng.sample(rng.choice(multi[name, k]), 2)
            else:
                while True:
                    t = fs.forest.random_tree(rng, p.colours, k)
                    s = fs.forest.random_tree(rng, p.colours, k)
                    if table.class_id((t,)) != table.class_id((s,)):
                        break
            u = tuple(fs.forest.word_from_tree(t))
            v = tuple(fs.forest.word_from_tree(s))
            self.pairs.append((name, p, u, v, "yes" if same else "no"))
            hist[k] += 1
            same_count += same
            branching += name == "rebel"
        n = len(self.pairs)
        ctx.inputs.update({
            "pairs": n,
            "caret_histogram": dict(sorted(hist.items())),
            "same_class_share": same_count / n,
            "branching_share": branching / n,
            "reversing_budget": repr(self.budget),
            "presentations": {name: {"colours": len(p.colours), "carets": list(sizes),
                                     "truth_stratum": len(tables[name].class_of)}
                              for name, p, sizes in plans},
        })

    def run(self, ctx):
        words_equal = ctx.fs.reversing.words_equal
        budget = self.budget
        for i, (name, p, u, v, want) in enumerate(self.pairs):
            got = ctx.call("words_equal", words_equal, p, u, v, budget)
            if ctx.planted("sweep"):
                want = "no" if want == "yes" else "yes"
            if got is not FAILED and got != want:
                ctx.error("sweep", f"{name} pair {i}: reversing says "
                                   f"{got}, oracle class table says {want}")

    def check(self, ctx):
        pass


# ---------------------------------------------------------------------------
# query

def _leaf_addresses(t, prefix=()):
    if t is None:
        return [prefix]
    return _leaf_addresses(t[1], prefix + (0,)) + _leaf_addresses(t[2], prefix + (1,))


def dyadic(t, j) -> Fraction:
    """The free1 point (t, j) as a dyadic rational in (0, 1)."""
    bits = _leaf_addresses(t)[j - 1]
    return sum((Fraction(b, 2 ** i) for i, b in enumerate(bits, start=1)), Fraction(0))


class _StrataLog:
    """Records every stratum the oracle is asked for, with its size.

    Installed around ``oracle.saturate`` for the whole query run (traced or
    not); one extra Python call per lookup.
    """

    def __init__(self, oracle):
        self.sizes: dict = {}
        self.over_budget: Counter = Counter()
        orig = oracle.saturate
        exceeded = oracle.BudgetExceeded

        def saturate(p, roots, carets, *rest, **kw):
            key = f"{p.name}:{roots}x<={carets}"
            try:
                table = orig(p, roots, carets, *rest, **kw)
            except exceeded:
                self.over_budget[key] += 1
                raise
            if key not in self.sizes:
                self.sizes[key] = len(getattr(table, "class_of", ()))
            return table

        oracle.saturate = saturate

    def record(self) -> dict:
        def order(key):
            name, _, rest = key.partition(":")
            roots, _, carets = rest.partition("x<=")
            return (name, int(roots), int(carets))
        return {"built": {k: self.sizes[k] for k in sorted(self.sizes, key=order)},
                "over_budget": {k: self.over_budget[k]
                                for k in sorted(self.over_budget, key=order)}}


class Query:
    """qspace and eval queries on cleary, with a free1 share.

    The timed section runs ROUNDS_PER_SECOND rounds per second of --seconds
    (about that long at the commit that added the benchmark, on 2 vCPU),
    then the two forced points, which add about 25 s there.
    """

    ROUNDS_PER_SECOND = 40
    GATES = ("trichotomy", "equivariance", "dyadic", "witness", "fixer", "eval", "forced")

    def setup(self, ctx):
        fs = ctx.fs
        self.p = fs.corpus.load("cleary")
        self.q = fs.corpus.load("free1")
        rt = fs.forest.random_tree
        rng = ctx.rng
        colours = self.p.colours

        def cleary_point(k):
            t = rt(rng, colours, k)
            return t, rng.randrange(1, fs.forest.leaf_count(t) + 1)

        # the seed picks shapes, colours and leaves; caret sizes follow a
        # fixed schedule, so every seed forces the same strata
        self.rounds = []
        for r in range(round(self.ROUNDS_PER_SECOND * ctx.seconds)):
            rnd = {"points": [cleary_point(1 + (3 * r + i) % 4) for i in range(3)]}
            c = 1 + r % 2
            rnd["element"] = (rt(rng, colours, c), rt(rng, colours, c))
            free = []
            for i in range(2):
                t = rt(rng, self.q.colours, 1 + (2 * r + i) % 6)
                free.append((t, rng.randrange(1, fs.forest.leaf_count(t) + 1)))
            rnd["free1"] = free
            if r % 4 == 1:
                k = 1 + (r // 4) % 3
                rnd["sets"] = (k, [cleary_point(1 + (i + r) % 4) for i in range(2 * k + 6)])
            if r % 4 == 3:
                slots = [(r // 4 + i) % 3 for i in range(3)]
                rnd["growth"] = (tuple(rt(rng, colours, c) for c in slots),
                                 tuple(rt(rng, colours, c) for c in slots))
            if r % 2 == 0:
                c = 1 + (r // 2) % 3
                t, s = rt(rng, colours, c), rt(rng, colours, c)
                f = fs.forest.random_forest(rng, colours, c + 1, 1 + (r // 2) % 2)
                rnd["fraction"] = (t, s, f)
            self.rounds.append(rnd)
        self.fix_tree = rt(rng, colours, 2)
        big, over = (6, 7) if ctx.tiny else (8, 9)
        self.forced = [("stratum", cleary_point(big)), ("over_budget", cleary_point(over))]
        carets = fs.forest.caret_count
        cleary_hist = Counter(carets(t) for rnd in self.rounds
                              for t, _ in rnd["points"] + rnd.get("sets", (0, []))[1])
        cleary_hist.update(carets(t) for _, (t, _) in self.forced)
        free1_hist = Counter(carets(t) for rnd in self.rounds for t, _ in rnd["free1"])
        self.forced_budget = fs.config.OracleBudget(class_cap=20_000) if ctx.tiny else None
        self.strata = _StrataLog(fs.oracle)
        self.marked = fs.ordered_action.stabilizer_generators(self.p, self.fix_tree).points()
        ctx.inputs.update({
            "rounds": len(self.rounds),
            "cleary_point_carets": dict(sorted(cleary_hist.items())),
            "free1_point_carets": dict(sorted(free1_hist.items())),
            "caret_schedule": {"cleary_points": [1, 2, 3, 4], "free1_points": [1, 2, 3, 4, 5, 6],
                               "plain_elements": [1, 2], "witness_k": [1, 2, 3],
                               "fixer_tree": 2, "growth_trees": [0, 1, 2],
                               "eval_fractions": [1, 2, 3], "eval_growth": [1, 2],
                               "forced_points": [big, over]},
        })

    def run(self, ctx):
        for rnd in self.rounds:
            self._round(ctx, rnd)
        self._forced(ctx)

    def _round(self, ctx, rnd):
        fs = ctx.fs
        oa, fr = fs.ordered_action, fs.fractions
        p = self.p
        norm = [ctx.call("normalize_point", oa.normalize_point, p, t, j)
                for t, j in rnd["points"]]
        if FAILED not in norm:
            x, y, z = norm
            cxy = ctx.call("compare", oa.compare, x, y, 14)
            cyz = ctx.call("compare", oa.compare, y, z, 14)
            cxz = ctx.call("compare", oa.compare, x, z, 14)
            cyx = ctx.call("compare", oa.compare, y, x, 14)
            if FAILED not in (cxy, cyz, cxz, cyx):
                converse = {"LT": "GT", "GT": "LT", "EQ": "EQ"}[cxy]
                if ctx.planted("trichotomy"):
                    converse = cxy if cxy != "EQ" else "LT"
                if cyx != converse:
                    ctx.error("trichotomy", f"compare(x,y)={cxy} but compare(y,x)={cyx}")
                if cxy == cyz and cxy in ("LT", "GT") and cxz != cxy:
                    ctx.error("trichotomy", f"x {cxy} y {cyz} z but x {cxz} z")
                t, s = rnd["element"]
                g = oa.from_fraction(fr.GroupElement(t, s, p))
                gx = ctx.call("act", oa.act, g, x, 14)
                gy = ctx.call("act", oa.act, g, y, 14)
                if FAILED not in (gx, gy):
                    after = ctx.call("compare", oa.compare, gx, gy, 14)
                    want = cxy
                    if ctx.planted("equivariance"):
                        want = "GT" if cxy == "LT" else "LT"
                    if after is not FAILED and after != want:
                        ctx.error("equivariance", f"compare(x,y)={cxy}, after acting {after}")
        self._free1(ctx, rnd["free1"])
        if "sets" in rnd:
            self._witness(ctx, *rnd["sets"])
        if "growth" in rnd:
            self._fixer(ctx, *rnd["growth"])
        if "fraction" in rnd:
            self._eval(ctx, *rnd["fraction"])

    def _free1(self, ctx, raw):
        oa = ctx.fs.ordered_action
        pts = [ctx.call("normalize_point", oa.normalize_point, self.q, t, j) for t, j in raw]
        if FAILED in pts:
            return
        want = [dyadic(t, j) for t, j in raw]
        if ctx.planted("dyadic"):
            want[0] += 1
        for (t, j), x, w in zip(raw, pts, want):
            if dyadic(x.tree, x.leaf) != w:
                ctx.error("dyadic", f"normalize moved ({t}, {j}) to another dyadic value")
        got = ctx.call("compare", oa.compare, pts[0], pts[1], 20)
        order = "LT" if want[0] < want[1] else "GT" if want[0] > want[1] else "EQ"
        if got is not FAILED and got != order:
            ctx.error("dyadic", f"compare says {got}, dyadic order says {order}")

    def _witness(self, ctx, k, raw):
        oa = ctx.fs.ordered_action
        pool = []
        for t, j in raw:
            x = ctx.call("normalize_point", oa.normalize_point, self.p, t, j)
            if x is FAILED:
                return
            pool.append(x)
        sets = []
        for _ in range(2):
            chosen = []
            while pool and len(chosen) < k:
                x = pool.pop(0)
                rel = [ctx.call("compare", oa.compare, x, y, 14) for y in chosen]
                if FAILED in rel:
                    return
                if "EQ" not in rel:
                    chosen.append(x)
            if len(chosen) < k:
                return
            sets.append(chosen)
        A, B = sets
        g = ctx.call("transitivity_witness", oa.transitivity_witness, A, B, 14)
        if g is FAILED:
            return
        images = [ctx.call("act", oa.act, g, x, 14) for x in A]
        if FAILED in images:
            return
        want = set(B)
        if ctx.planted("witness"):
            want = set(B[1:])
        if set(images) != want:
            ctx.error("witness", f"witness maps a {k}-set elsewhere")

    def _fixer(self, ctx, f, h):
        oa = ctx.fs.ordered_action
        fx = ctx.call("make_fixer", oa.make_fixer, self.p, self.fix_tree, f, h)
        if fx is FAILED:
            return
        marked = self.marked
        want = list(marked)
        if ctx.planted("fixer"):
            want = want[1:] + want[:1]
        for x, w in zip(marked, want):
            y = ctx.call("act", oa.act, fx, x, 14)
            if y is not FAILED and y != w:
                ctx.error("fixer", f"fixer moves marked point {x.render()}")

    def _eval(self, ctx, t, s, f):
        fr = ctx.fs.fractions
        compose = ctx.fs.forest.compose
        p = self.p
        g = fr.GroupElement(t, s, p)
        h = fr.GroupElement(compose((t,), f)[0], compose((s,), f)[0], p)
        same = ctx.call("equals", fr.equals, g, h, 14)
        want = not ctx.planted("eval")
        if same is not FAILED and same is not want:
            ctx.error("eval", f"[t;s] and its expansion compare {same}")
        nf = ctx.call("normal_form", fr.normal_form, h, 14)
        if nf is FAILED:
            return
        if nf.carets > g.carets:
            ctx.error("eval", "normal form has more carets than a known representative")
        back = ctx.call("equals", fr.equals, nf, g, 14)
        if back is not FAILED and back is not True:
            ctx.error("eval", "normal form is not equal to its element")

    def _forced(self, ctx):
        oa = ctx.fs.ordered_action
        for label, (t, j) in self.forced:
            x = ctx.call(f"forced_{label}", oa.normalize_point, self.p, t, j,
                         self.forced_budget)
            if x is FAILED:
                continue
            same = ctx.call("raw_points_equal", oa.raw_points_equal, self.p,
                            (t, j), (x.tree, x.leaf), 14)
            want = not ctx.planted("forced")
            if same is not FAILED and same is not want:
                ctx.error("forced", f"{label}: normalize_point moved the point")

    def check(self, ctx):
        ctx.inputs["strata"] = self.strata.record()


# ---------------------------------------------------------------------------
# census

def normalized_report(text: str) -> str:
    """A JSON report with its wall time blanked: the bytes that must repeat."""
    return _WALL.sub('"wall_time_ms": 0', text)


def digest(text: str) -> str:
    return hashlib.sha256(normalized_report(text).encode()).hexdigest()


def observe(outputs: dict, relators: list) -> dict:
    """The facts of one presentation that the golden table pins."""
    check = json.loads(outputs["check"])
    spine = json.loads(outputs["spine"])
    fin = json.loads(outputs["finite"])
    inf = json.loads(outputs["infinite"])
    counts = Counter("true" if r is True else "false" if r is False else "none"
                     for r in relators)
    return {
        "check": {v["property"]: v["verdict"] for v in check["verdicts"]},
        "spine": {v["property"]: v["verdict"] for v in spine["verdicts"]},
        "spine_size": spine["spine_size"],
        "finite": [fin["abelianization"]["free_rank"], fin["abelianization"]["torsion"]],
        "finite_counts": [fin["generator_count"], fin["relator_count"]],
        "infinite": [inf["abelianization"]["free_rank"], inf["abelianization"]["torsion"]],
        "relators": dict(sorted(counts.items())),
        "digests": {cmd: digest(text) for cmd, text in sorted(outputs.items())},
    }


class Census:
    """Certify the corpus and seeded build_f_tau families through `fsk`.

    The plan is the whole corpus and FAMILIES_PER_SECOND families per second
    of --seconds (at 10 s: 16 entries and 9 families, about 10 s at the
    commit that added the benchmark, on 2 vCPU).  Family i has the colour
    and leaf counts of FAMILY_SCHEDULE[i mod 9]; the seed picks the shapes.
    The golden table was recorded from that commit; criterion 2 of the
    acceptance suite pins a part of it.
    """

    FAMILIES_PER_SECOND = 0.9
    GATES = ("census-golden", "census-bytes", "census-family")
    MAX_INDEX = 10
    # (colours, leaves) of successive families; the seed picks the shapes
    FAMILY_SCHEDULE = [(2, 3), (3, 4), (4, 5), (2, 4), (3, 5), (4, 3), (2, 5), (3, 3), (4, 4)]

    def setup(self, ctx):
        fs = ctx.fs
        from click.testing import CliRunner
        self.runner = CliRunner()
        self.main = fs.cli.main
        self.goldens = json.loads(GOLDENS.read_text())
        tiny = ctx.tiny
        self.corpus = ["cleary", "gn3", "hn2"] if tiny else fs.corpus.names()
        schedule = self.FAMILY_SCHEDULE[:2] if tiny else self.FAMILY_SCHEDULE
        count = 2 if tiny else max(1, round(self.FAMILIES_PER_SECOND * ctx.seconds))
        rng = ctx.rng
        self.families = []
        for i in range(count):
            # a family's name is part of its presentation, so even two
            # families with the same shapes share no cache entry
            n, leaves = schedule[i % len(schedule)]
            words = [fs.forest.word_from_tree(fs.forest.random_tree(rng, ("x",), leaves - 1))
                     for _ in range(n)]
            self.families.append({
                "name": f"fam{i}", "colours": "abcd"[:n], "leaves": leaves,
                "words": ";".join(" ".join(str(idx) for _, idx in w) for w in words)})
        self.workdir = ctx.root / ".perfbench_out" / f"census-{os.getpid()}"
        self.done: list = []
        ctx.inputs["corpus"] = {name: len(fs.corpus.load(name).colours) for name in self.corpus}
        ctx.inputs["family_schedule"] = [list(x) for x in schedule]
        ctx.inputs["max_index"] = self.MAX_INDEX

    def _cli(self, args):
        res = self.runner.invoke(self.main, args)
        return res.output if res.exit_code == 0 else None

    def _commands(self, source):
        n = str(self.MAX_INDEX)
        return {
            "check": ["check", source, "--json"],
            "spine": ["spine", source, "--json"],
            "finite": ["present", source, "--finite", "--abelian", "--json"],
            "infinite": ["present", source, "--infinite", "--max-index", n, "--abelian", "--json"],
        }

    def run(self, ctx):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name in self.corpus:
            self._presentation(ctx, "corpus", name)
        for fam in self.families:
            self._presentation(ctx, "family", fam)
        ctx.inputs["presentations_run"] = [
            {k: d[k] for k in ("name", "kind", "colours", "leaves", "words") if k in d}
            for d in self.done]

    def _presentation(self, ctx, kind, item):
        fs = ctx.fs
        rec = {"kind": kind}
        if kind == "family":
            rec["name"] = item["name"]
            out = ctx.call("cli.examples_f_tau", self._cli, [
                "examples", "f-tau", "--colours", ",".join(item["colours"]),
                "--words", item["words"], "--name", item["name"], "--dir", str(self.workdir)])
            if out is FAILED:
                return
            rec["f_tau_line"] = out.strip().splitlines()[-1]
            source = str(self.workdir / f"{item['name']}.fsk")
            p = fs.presentation.parse(Path(source).read_text())
            rec["words"] = item["words"]
            rec["leaves"] = item["leaves"]
        else:
            rec["name"] = source = item
            p = fs.corpus.load(item)
        rec["colours"] = len(p.colours)
        rec["source"] = source
        outputs = {}
        for cmd, args in self._commands(source).items():
            out = ctx.call(f"cli.{cmd}", self._cli, args)
            if out is FAILED:
                return
            outputs[cmd] = out
        pres = fs.group_presentation.finite_presentation(p, p.colours[0])
        relators = []
        for rel in pres.relators:
            ans = ctx.call("relator", fs.group_presentation.evaluate_relator, pres, rel, 14)
            if ans is FAILED:
                return
            relators.append(ans)
        rec["outputs"] = outputs
        rec["observed"] = observe(outputs, relators)
        self.done.append(rec)

    def check(self, ctx):
        for name, want in CRITERION_2.items():
            if self.goldens.get(name, {}).get("finite") != want:
                ctx.error("census-golden", f"golden table lost the criterion-2 value of {name}")
        for rec in self.done:
            if rec["kind"] == "corpus":
                self._check_corpus(ctx, rec)
            else:
                self._check_family(ctx, rec)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _check_corpus(self, ctx, rec):
        name, got = rec["name"], rec["observed"]
        want = json.loads(json.dumps(self.goldens[name]))
        if ctx.planted("census-golden"):
            want["finite"][1] = want["finite"][1] + [7]
        if ctx.planted("census-bytes"):
            want["digests"]["check"] = "0" * 64
        for field, value in want.items():
            if field == "digests":
                for cmd, d in value.items():
                    if got["digests"].get(cmd) != d:
                        ctx.error("census-bytes", f"{name} {cmd}: JSON report bytes "
                                                  f"differ from the golden report")
            elif got.get(field) != value:
                ctx.error("census-golden", f"{name} {field}: got {got.get(field)}, "
                                           f"golden {value}")

    def _check_family(self, ctx, rec):
        name, got = rec["name"], rec["observed"]
        want_line = ("lc: yes", "ore: proved", "F-infinity: proved")
        want_check = {"complemented": "yes", "complete": "complete", "lc": "yes", "ore": "yes"}
        if ctx.planted("census-family"):
            want_check = dict(want_check, lc="no")
        if not all(w in rec["f_tau_line"] for w in want_line):
            ctx.error("census-family", f"{name}: build_f_tau reports {rec['f_tau_line']!r}")
        if got["check"] != want_check:
            ctx.error("census-family", f"{name}: check verdicts {got['check']}")
        if got["spine"].get("f_infinity") != "proved":
            ctx.error("census-family", f"{name}: spine verdicts {got['spine']}")
        if got["finite"] != got["infinite"]:
            ctx.error("census-family", f"{name}: finite abelianization {got['finite']} "
                                       f"!= infinite {got['infinite']}")
        if set(got["relators"]) != {"true"}:
            ctx.error("census-family", f"{name}: relator evaluations {got['relators']}")
        # the same command on the same file must print the same bytes
        for cmd, args in self._commands(rec["source"]).items():
            again = self._cli(args)
            if again is None or normalized_report(again) != normalized_report(rec["outputs"][cmd]):
                ctx.error("census-bytes", f"{name} {cmd}: report changed on a second run")


WORKLOADS = {"sweep": Sweep, "query": Query, "census": Census}
