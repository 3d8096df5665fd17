"""Bound monotonicity: a verdict that a small bound calls proved or refuted is
the verdict at the default bounds.

Every corpus entry and a few seeded f_tau families run `check --ore`,
`spine`, `eval X eq Y` and `qspace compare` in-process at small bounds and at
the default ones.  A small-bound verdict with confidence "proved" or
"refuted" that differs from the default verdict of the same property is an
overstatement; so is a compare result other than `unknown` that differs from
the default one.
"""

import json
import random

from click.testing import CliRunner

from forestskein import corpus, ore_spine
from forestskein.cli import load_presentation, main
from forestskein.forest import random_tree, render_tree
from forestskein.presentation import render

# (command head, the small-bound flags), each run beside the same head unbounded
CUTS = [(("check", "--ore"), [("--bound", str(b)) for b in (1, 2, 3)]),
        (("spine",), [("--max-carets", str(c)) for c in (1, 2, 3)]
         + [("--max-stages", str(s)) for s in (1, 2)])]
SEEDED_BOUNDS = [("--bound", "2"), ("--bound", "4")]


def _sources(tmp_path, count=4):
    """The corpus names, then seeded two-colour f_tau families of 3-4 leaves
    written out as .fsk files."""
    rng = random.Random(38)
    out = list(corpus.names())
    for i in range(count):
        leaves = rng.choice((3, 4))
        words = {c: " ".join(str(rng.randint(1, k)) for k in range(1, leaves))
                 for c in "ab"}
        path = tmp_path / f"fam{i}.fsk"
        path.write_text(render(corpus.f_tau_from_words(words, name=f"fam{i}").presentation))
        out.append(str(path))
    return out


def _seeded_heads(source, rng, pairs=2):
    """`eval X eq Y` on fraction literals and `qspace compare` on points, all
    of at most two carets over the source's colours."""
    colours = load_presentation(source).colours

    def tree(carets):
        return render_tree(random_tree(rng, colours, carets))

    heads = []
    for _ in range(pairs):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        heads.append(("eval", source, f"[{tree(n)} ; {tree(n)}]", "eq",
                      f"[{tree(m)} ; {tree(m)}]"))
        heads.append(("qspace", source, "compare", f"{tree(n)}:{rng.randint(1, n + 1)}",
                      f"{tree(m)}:{rng.randint(1, m + 1)}"))
    return heads


def _run(argv):
    """The verdicts of one JSON run by (property, verdict, confidence), the
    compare result as a pseudo-verdict, or None when the run exits nonzero."""
    res = CliRunner().invoke(main, [*argv, "--json"])
    if res.exit_code:
        return None
    doc = json.loads(res.output)
    out = {v["property"]: (v["verdict"], v["confidence"]) for v in doc["verdicts"]}
    if "result" in doc:
        out["compare"] = (doc["result"], "proved" if doc["result"] != "unknown" else "unknown")
    return out


def overstatements(sources):
    """Every (argv, property, small-bound verdict, default verdict) where a
    decided small-bound verdict differs from the default one."""
    rng = random.Random(38)
    found = []
    for source in sources:
        runs = [((head[0], source, *head[1:]), cuts) for head, cuts in CUTS]
        runs += [(head, SEEDED_BOUNDS) for head in _seeded_heads(source, rng)]
        for head, cuts in runs:
            default = _run(head)
            for cut in cuts:
                small = _run((*head, *cut))
                for prop, (verdict, confidence) in (small or {}).items():
                    want = default[prop][0] if default else None
                    if confidence in ("proved", "refuted") and verdict != want:
                        found.append(((*head, *cut), prop, verdict, want))
    return found


def test_small_bounds_never_overstate(tmp_path):
    assert overstatements(_sources(tmp_path)) == []


def test_the_sweep_catches_a_spine_that_proves_a_cut_run(tmp_path, monkeypatch):
    # the spine rule before a cut run read as evidence: any exact run is proved
    monkeypatch.setattr(ore_spine.SpineReport, "confidence", property(
        lambda sp: "proved" if sp.strategy == "exact" else "evidence"))
    assert overstatements(_sources(tmp_path))
