import collections
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from forestskein import corpus, fractions, oracle, reversing
from forestskein.cli import main
from forestskein.presentation import parse


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_check_cleary_text():
    res = run("check", "cleary", "--lc", "--ore")
    assert res.exit_code == 0
    assert "lc: yes" in res.output
    assert "ore: yes" in res.output


def test_json_determinism():
    outs = []
    for _ in range(2):
        res = run("check", "cleary", "--json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        doc.pop("wall_time_ms")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]
    doc = json.loads(run("check", "cleary", "--json").output)
    assert doc["schema_version"] == "1"
    assert doc["presentation"]["name"] == "cleary"
    assert all("bounds" in v for v in doc["verdicts"])


def test_exit_code_bad_input(tmp_path):
    bad = tmp_path / "bad.fsk"
    bad.write_text("colors: a\nrel: a1 = a1 a1\n")
    res = run("check", str(bad))
    assert res.exit_code == 2
    res = run("check", "no-such-example")
    assert res.exit_code == 2


def test_exit_code_expectation():
    res = run("check", "notlc", "--lc", "--expect", "lc=yes")
    assert res.exit_code == 3
    res = run("check", "notlc", "--lc", "--expect", "lc=no")
    assert res.exit_code == 0


def test_spine_command():
    res = run("spine", "cleary", "--json")
    doc = json.loads(res.output)
    assert doc["stabilized"] is True
    assert doc["spine_size"] == 3
    res = run("spine", "rebel", "--json")
    doc = json.loads(res.output)
    assert doc["stabilized"] is False
    assert all(v["verdict"] != "proved" for v in doc["verdicts"]
               if v["property"] == "f_infinity")


@pytest.mark.parametrize("source", ["cleary", "rebel"])
def test_spine_over_the_caret_bound_proves_nothing(source):
    doc = json.loads(run("spine", source, "--max-carets", "1", "--json").output)
    assert doc["stabilized"] is False
    assert [v["verdict"] for v in doc["verdicts"] if v["property"] == "f_infinity"] == ["unknown"]


@pytest.mark.parametrize("bound", [("--max-carets", "1"), ("--max-carets", "2"),
                                   ("--max-carets", "3"), ("--max-stages", "1")])
def test_a_cut_spine_is_not_proved_infinite(bound):
    # no bounded search proves a spine infinite, on either strategy
    for name in corpus.names():
        doc = json.loads(run("spine", name, *bound, "--json").output)
        [spine] = [v for v in doc["verdicts"] if v["property"] == "spine"]
        assert spine["verdict"] in ("stabilized", "not-stabilized")
        if spine["verdict"] == "not-stabilized":
            assert spine["confidence"] == "evidence", (name, bound)


# sha256 of the reports of runs cut below the default bounds (exit code, then
# the report without wall_time_ms) on every corpus entry, recorded before the
# CLI read each confidence off the certifier's result
PINNED_CUT_REPORTS = "52fe1d5ddd6eef3cff2691422052f9f1ec67b6d5d0aff143a779ce9b4bbf1c2f"
CUT_RUNS = [("check", "--bound", str(b)) for b in (1, 2, 3)] + \
    [("spine", "--max-carets", str(c)) for c in (1, 2, 3)] + \
    [("spine", "--max-stages", "1"), ("qspace", "compare", "a(I,I):1", "a(I,I):2")]


def test_cut_run_reports_pinned():
    reports = []
    for name in corpus.names():
        for command, *args in CUT_RUNS:
            res = run(command, name, *args, "--json")
            if res.exit_code:           # the qspace precheck refuses a refuted Ore
                reports.append(f"{res.exit_code} {res.output}")
                continue
            doc = json.loads(res.output)
            doc.pop("wall_time_ms")
            reports.append("0 " + json.dumps(doc, sort_keys=True))
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == PINNED_CUT_REPORTS


def test_present_counts_and_abelian():
    res = run("present", "cleary", "--finite", "--abelian", "--json")
    doc = json.loads(res.output)
    assert doc["generator_count"] == 6
    assert doc["relator_count"] == 30
    assert doc["abelianization"] == {"free_rank": 2, "torsion": [2]}
    res = run("present", "gn3", "--finite", "--abelian", "--json")
    doc = json.loads(res.output)
    assert doc["abelianization"] == {"free_rank": 2, "torsion": [3]}


def test_spine_json_determinism():
    docs = []
    for _ in range(2):
        doc = json.loads(run("spine", "cleary", "--json").output)
        doc.pop("wall_time_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_eval_hatted_tokens():
    res = run("eval", "cleary", "bh1 bh2", "eq", "a1")
    assert "equal: equal" in res.output


def test_present_cas_format():
    res = run("present", "free1", "--monoid", "--max-index", "3", "--format", "cas")
    assert res.exit_code == 0
    assert "FreeGroup" in res.output


def test_eval():
    res = run("eval", "cleary", "a1 a1", "eq", "b1 b2")
    assert "equal: equal" in res.output
    res = run("eval", "cleary", "b1^-1 b1")
    assert "identity: True" in res.output
    res = run("eval", "free1", "[a(I,I) ; a(I,I)]")
    assert "identity: True" in res.output


def test_eval_unequal_fraction_sides_exit_2():
    res = run("eval", "free1", "[a(I,I) ; I]")
    assert res.exit_code == 2
    assert "equal leaf counts" in res.output


@pytest.mark.parametrize("args", [
    ("[c(I,I) ; a(I,I)]", "eq", "[a(I,I) ; a(I,I)]"),          # colour of a fraction literal
    ("a1 a2^-1", "--colour", "z"),                              # base colour
])
def test_eval_unknown_colour_exit_2(args):
    res = run("eval", "cleary", *args)
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "unknown" in res.output


@pytest.mark.parametrize("args", [("eq",), ("a1", "eq"), ("eq", "a1"), ("",)])
def test_eval_empty_expression_exit_2(args):
    # an empty side is refused, not read as the identity
    res = run("eval", "cleary", *args)
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "empty expression" in res.output


def test_qspace_compare_and_act():
    res = run("qspace", "free1", "compare", "a(I,I):1", "a(I,I):2")
    assert "LT" in res.output
    res = run("qspace", "free1", "act",
              "[a(a(I,I),I) ; cyc3 ; a(a(I,I),I)]", "a(a(I,I),I):1")
    assert "a(a(I,I),I):2" in res.output


@pytest.mark.parametrize("args", [
    ("compare", "a(I,I):5", "a(I,I):1"),                      # leaf out of range
    ("compare", "a(I,I):x", "a(I,I):1"),                      # non-integer leaf
    ("act", "[a(I,I) ; (1,1) ; a(I,I)]", "a(I,I):1"),         # not a bijection
])
def test_qspace_bad_literals_exit_2(args):
    res = run("qspace", "free1", *args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "Error:" in res.output


@pytest.mark.parametrize("args", [
    ("compare", "c(I,I):1", "a(I,I):1"),                      # point literal
    ("act", "[c(I,I);id;a(I,I)]", "a(I,I):1"),                # element literal
    ("stabilizer", "c(I,I)"),                                 # tree literal
])
def test_qspace_unknown_colour_exit_2(args):
    res = run("qspace", "cleary", *args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "unknown colour 'c'" in res.output


def test_qspace_transitivity():
    res = run("qspace", "cleary", "transitivity", "--k", "2", "--samples", "3")
    assert res.exit_code == 0
    assert "3 found and verified, 0 unresolved" in res.output


def test_qspace_stabilizer():
    res = run("qspace", "free1", "stabilizer", "a(a(I,I),I)", "--samples", "4")
    assert res.exit_code == 0
    assert "fixers verified: 4/4" in res.output


def test_qspace_transitivity_more_points_than_exist_exit_2():
    # free1 has 16 distinct points with <= 4 carets; asking for 17 stops
    # drawing, and a hang fails the timeout here instead of stalling the suite
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-m", "forestskein", "qspace", "free1", "transitivity",
                          "--k", "17", "--samples", "1"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "k=17" in res.stderr and "<= 4 carets" in res.stderr


def vine(levels):
    return "a(I," * levels + "I" + ")" * levels


def test_qspace_stabilizer_unresolved_fixers():
    # on a 100-level vine a fixer's Ore witness reversal exceeds the default
    # reversing budget; such a fixer is reported as not verified
    res = run("qspace", "free1", "stabilizer", vine(100), "--samples", "1")
    assert res.exit_code == 0
    assert "Traceback" not in res.output
    assert "fixers verified: 0/1" in res.output


# sha256 of `fsk qspace ... stabilizer --json` (exit code, then the report
# without wall_time_ms) on the trees below, recorded while every point on a
# reversing presentation still descended through its congruence classes.
# The 7-caret cleary tree keeps 7 carets after pruning at its last leaf.
PINNED_STABILIZERS = "80fbb43dae8f7d51e58c424fc7d860561e0e0146afcc5438639a373474c87dd1"


def test_qspace_stabilizer_pinned():
    reports = []
    for source, tree in (("cleary", "a(b(I,I),a(I,b(I,a(I,I))))"),
                         ("cleary", "a(I,b(a(I,b(I,a(b(I,a(I,I)),I))),I))"),
                         ("free1", vine(40))):
        res = run("qspace", source, "stabilizer", tree, "--json")
        doc = json.loads(res.output)
        doc.pop("wall_time_ms")
        reports.append(f"{res.exit_code} " + json.dumps(doc, sort_keys=True))
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == PINNED_STABILIZERS


@pytest.mark.parametrize("subcommand", [["transitivity"], ["stabilizer", "a(I,I)"]])
def test_qspace_negative_samples_exit_2(subcommand):
    res = run("qspace", "cleary", *subcommand, "--samples", "-1")
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "--samples" in res.output


def test_qspace_deep_literal():
    res = run("qspace", "free1", "compare", vine(1500) + ":1", "a(I,I):1")
    assert res.exit_code == 0
    assert res.exception is None
    assert "I:1  EQ  I:1" in res.output


def test_qspace_act_deep_literal():
    res = run("qspace", "free1", "act", f"[{vine(1500)};id;{vine(1500)}]", "a(I,I):1")
    assert res.exit_code == 0
    assert res.exception is None


def test_eval_deep_literal():
    res = run("eval", "free1", f"[{vine(1500)};{vine(1500)}]")
    assert res.exit_code in (0, 2)
    assert "Traceback" not in res.output


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("args", [
    ("check", "cleary", "--bound"),
    ("eval", "cleary", "a1", "--bound"),
    ("qspace", "free1", "compare", "a(I,I):1", "a(I,I):2", "--bound"),
    ("spine", "cleary", "--max-carets"),
    ("spine", "cleary", "--max-stages"),
    ("qspace", "cleary", "transitivity", "--k"),
    ("present", "cleary", "--infinite", "--abelian", "--max-index"),
], ids=["check-bound", "eval-bound", "qspace-bound", "max-carets", "max-stages",
        "qspace-k", "max-index"])
def test_bounds_below_one_exit_2(args, value):
    res = run(*args, value, "--json")
    assert res.exit_code == 2
    assert "Traceback" not in res.output


def _left_vine(colour, carets):
    return f"{colour}(" * carets + "I" + ",I)" * carets


# A 9-caret fraction on notlc: the oracle refuses the stratum of its
# numerator's class, and `eval` reads that as unknown rather than failing.
NOTLC_FRACTION = f"[{_left_vine('a', 9)} ; {_left_vine('b', 9)}]"


@pytest.mark.parametrize("args", [
    (NOTLC_FRACTION,),
    (NOTLC_FRACTION, "--bound", "20"),
    (NOTLC_FRACTION, "eq", "[I ; I]"),
], ids=["identity", "identity-bound-20", "eq"])
def test_eval_over_the_oracle_budget_is_unknown(args):
    res = run("eval", "notlc", *args)
    assert res.exit_code == 0
    assert res.exception is None
    assert "Traceback" not in res.output
    assert "unknown" in res.output.splitlines()[-1]


# Vine words whose first letter already needs a witness over the bound: the
# evaluation is unknown, which completes with exit 0, not an input error.
@pytest.mark.parametrize("args", [
    ("rebel", "a1 b2"),
    ("rebel", "a1 b2", "eq", "b2 a1"),
    ("notlc", "a1 b1^-1 a2"),
], ids=["rebel", "rebel-eq", "notlc"])
def test_eval_unresolved_word_is_unknown(args):
    res = run("eval", *args, "--bound", "1")
    assert res.exit_code == 0 and res.exception is None
    assert "unresolved" not in res.output
    doc = json.loads(run("eval", *args, "--bound", "1", "--json").output)
    if "eq" in args:
        assert res.output.splitlines() == ["lhs: unknown", "rhs: unknown", "equal: unknown"]
        assert [(v["verdict"], v["confidence"]) for v in doc["verdicts"]] == \
            [("unknown", "unknown")]
    else:
        assert res.output.splitlines() == ["normal form: unknown", "identity: unknown"]
        assert doc["is_identity"] is None and doc["normal_form"] is None


@pytest.mark.parametrize("args", [
    ("cleary", "a1 a1", "eq", "b1 b2"),
    ("rebel", "a1", "eq", "b1"),
], ids=["cleary", "rebel"])
def test_eval_eq_json_computes_no_normal_form(args, monkeypatch):
    # the `eq` report holds no normal form, so only the text lines compute them
    text = run("eval", *args).output.splitlines()
    assert [line.split(": ")[0] for line in text] == ["lhs", "rhs", "equal"]
    assert "unknown" not in text[0] + text[1]
    want = json.loads(run("eval", *args, "--json").output)

    def refuse(*_args, **_kwargs):
        raise AssertionError("normal_form called for a JSON report")
    monkeypatch.setattr(fractions, "normal_form", refuse)
    res = run("eval", *args, "--json")
    assert res.exit_code == 0 and res.exception is None
    got = json.loads(res.output)
    assert got.pop("wall_time_ms") >= 0 and want.pop("wall_time_ms") >= 0
    assert got == want


def test_examples_emit(tmp_path):
    res = run("examples", "emit", "dv2", "--dir", str(tmp_path))
    assert res.exit_code == 0
    body = (tmp_path / "dv2.fsk").read_text()
    assert "rel: a1 b1 b3 = b1 a1 a3" in body
    res = run("examples", "emit", "nope", "--dir", str(tmp_path))
    assert res.exit_code == 2


def test_examples_list():
    res = run("examples", "list")
    for name in ("cleary", "rebel", "notlc", "dv2"):
        assert name in res.output


def test_examples_f_tau(tmp_path):
    res = run("examples", "f-tau", "--colours", "a,b", "--words", "1 1;1 2",
              "--name", "tau-cleary", "--dir", str(tmp_path))
    assert res.exit_code == 0
    assert "F-infinity: proved" in res.output
    body = (tmp_path / "tau-cleary.fsk").read_text()
    assert "rel: a1 a1 = b1 b2" in body


def test_examples_f_tau_non_integer_index_exit_2(tmp_path):
    res = run("examples", "f-tau", "--colours", "a,b", "--words", "x1;x1", "--dir", str(tmp_path))
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "integers" in res.output


@pytest.mark.parametrize("args", [
    ["emit", "dv2", "--dir", "{tmp}/missing"],
    ["f-tau", "--colours", "a,b", "--words", "1;1", "--dir", "{tmp}/missing"],
    ["f-tau", "--colours", "a,b", "--words", "1;1", "--name", "sub/f_tau", "--dir", "{tmp}"],
])
def test_examples_unwritable_target_exit_2(args, tmp_path):
    res = run("examples", *(a.replace("{tmp}", str(tmp_path)) for a in args))
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "cannot write" in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", [
    ["--name", ""],
    ["--name", ".f_tau"],
    ["--name", "sub/f_tau"],
    ["--dir", "{tmp}/missing"],
])
def test_examples_f_tau_checks_the_target_before_building(target, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the presentation was built")

    monkeypatch.setattr(corpus, "f_tau_from_words", refuse)
    res = run("examples", "f-tau", "--colours", "a,b", "--words", "1 1;1 2",
              "--dir", str(tmp_path), *(a.replace("{tmp}", str(tmp_path)) for a in target))
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "cannot write" in res.output
    assert list(tmp_path.iterdir()) == []


def test_examples_f_tau_repeated_colour_exit_2(tmp_path):
    # one shape word per colour name: a repeated name would drop a word
    res = run("examples", "f-tau", "--colours", "a,a", "--words", "1;1 1", "--dir", str(tmp_path))
    assert res.exit_code == 2
    assert "distinct colour names" in res.output
    assert list(tmp_path.iterdir()) == []


def test_examples_f_tau_long_vines(tmp_path):
    # the third iterate of a 1,200-caret vine has about 1.7e9 carets; the
    # absorption check reaches it through complements against the vine.  The
    # join of the two colour carets is kept although it exceeds the spine's
    # caret bound, so the spine is cut after it rather than read as stabilized
    vine = " ".join(["1"] * 1200)
    res = run("examples", "f-tau", "--colours", "a,b", "--words", f"{vine};{vine}",
              "--dir", str(tmp_path))
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == \
        "lc: yes; ore: evidence; spine size: 3; F-infinity: unknown"


def test_certifiers_run_once_per_presentation(tmp_path, monkeypatch):
    # a name no other test uses, so no verdict for this value is cached yet
    text = corpus.EXAMPLES["notlc"].replace("name: notlc", "name: notlc-memo-probe")
    source = tmp_path / "probe.fsk"
    source.write_text(text)
    calls = collections.Counter()
    for module, name in ((oracle, "refute_left_cancellative"), (reversing, "scc_at"),
                         (reversing, "cube_sides")):
        def counting(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    assert run("check", str(source), "--json").exit_code == 0
    assert run("spine", str(source), "--json").exit_code == 0
    # one completeness check (violated at the first triple), one LC refutation
    assert calls == {"scc_at": 1, "refute_left_cancellative": 1}
    # a re-parsed equal presentation gets the cached certificates
    p, q = parse(text), parse(text)
    assert p is not q
    assert reversing.is_complete(q) is reversing.is_complete(p)
    assert reversing.decide_left_cancellative(q) is reversing.decide_left_cancellative(p)
    assert calls == {"scc_at": 1, "refute_left_cancellative": 1}


# Complemented three-colour presentations whose cube is defined on one side
# only: completeness is not established there, and reversing must not be
# trusted to tell these equal words apart.
PARTIAL_CUBES = {
    "rand33": ("colors: a, b, c\nrel: a1 b2 = b1 b1\nrel: a1 = c1\n", "b1 b1", "c1 b2"),
    "rand73": ("colors: a, b, c\nrel: a1 c1 b2 = b1 b2 b3\nrel: c1 = b1\n",
               "c1 b2 b3", "a1 b1 b2"),
}


@pytest.mark.parametrize("name", sorted(PARTIAL_CUBES))
def test_partial_cube_is_not_complete(name, tmp_path):
    text, lhs, rhs = PARTIAL_CUBES[name]
    source = tmp_path / f"{name}.fsk"
    source.write_text(text)
    doc = json.loads(run("check", str(source), "--complete", "--json").output)
    (verdict,) = doc["verdicts"]
    assert (verdict["verdict"], verdict["certificate"]["criterion"]) == \
        ("unknown", "complemented-cube-partial")
    doc = json.loads(run("eval", str(source), lhs, "eq", rhs, "--json").output)
    (verdict,) = doc["verdicts"]
    assert (verdict["verdict"], verdict["confidence"]) == ("equal", "proved")


def test_python_dash_m():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-m", "forestskein", "examples", "list"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "cleary" in res.stdout


# ---------------------------------------------------------------------------
# The exit-code contract under generated arguments: small literals, some of
# them malformed or over unknown colours, and integer options from -2 to 4.

SOURCES = st.sampled_from(["cleary", "free1", "ternary", "gn3", "rebel", "notlc", "no-such"])
SMALL = st.one_of(st.integers(1, 4), st.integers(-2, 0)).map(str)
COLOURS = st.sampled_from("abc")
TREES = st.one_of(
    st.recursive(st.just("I"), lambda sub: st.builds("{}({},{})".format, COLOURS, sub, sub),
                 max_leaves=5),
    st.sampled_from(["", "a(I)", "I,I", "a(I,I", "a1 a2"]))
POINTS = st.builds("{}:{}".format, TREES, st.integers(-1, 5))
FRACTIONS = st.builds("[{} ; {}]".format, TREES, TREES)
TOKENS = st.builds("{}{}{}{}".format, COLOURS, st.sampled_from(["", "h"]), st.integers(0, 4),
                   st.sampled_from(["", "^-1"]))
EXPRS = st.one_of(FRACTIONS, st.lists(TOKENS, min_size=1, max_size=4).map(" ".join))
PERMS = st.sampled_from(["id", "cyc2", "cyc3", "(2,1)", "(1,1)", "(2,3,1)", "rot"])
ELEMENTS = st.one_of(st.builds("[{} ; {} ; {}]".format, TREES, PERMS, TREES), FRACTIONS)


def _argv(head, flags, ints):
    """head, then some of the flags, then some integer options with small values."""
    return st.builds(
        lambda h, fs, opts: [*h, *fs, *itertools.chain.from_iterable(opts)],
        head, st.lists(st.sampled_from(flags), unique=True),
        st.lists(st.tuples(st.sampled_from(ints), SMALL),
                 max_size=len(ints), unique_by=lambda o: o[0]))


ARGV = st.one_of(
    _argv(st.tuples(st.just("check"), SOURCES),
          ["--lc", "--complete", "--complemented", "--ore", "--json"], ["--bound"]),
    _argv(st.tuples(st.just("spine"), SOURCES), ["--json"], ["--max-carets", "--max-stages"]),
    _argv(st.tuples(st.just("present"), SOURCES),
          ["--infinite", "--monoid", "--abelian", "--format=cas", "--colour=b", "--json"],
          ["--max-index"]),
    _argv(st.one_of(st.tuples(st.just("eval"), SOURCES, EXPRS),
                    st.tuples(st.just("eval"), SOURCES, EXPRS, st.just("eq"), EXPRS)),
          ["--colour=b", "--json"], ["--bound"]),
    _argv(st.one_of(st.tuples(st.just("qspace"), SOURCES, st.just("compare"), POINTS, POINTS),
                    st.tuples(st.just("qspace"), SOURCES, st.just("act"), ELEMENTS, POINTS),
                    st.tuples(st.just("qspace"), SOURCES, st.just("transitivity")),
                    st.tuples(st.just("qspace"), SOURCES, st.just("stabilizer"), TREES)),
          ["--json"], ["--bound", "--k", "--samples", "--seed"]),
    # "{tmp}" stands for a fresh scratch directory of each example
    st.builds(lambda cols, words, where, name: ["examples", "f-tau", "--colours", cols,
                                                "--words", ";".join(words), "--dir", where,
                                                "--name", name],
              st.sampled_from(["a", "a,b", "a,a", "b,a,c", "a,"]),
              st.lists(st.lists(st.integers(0, 3).map(str), max_size=3).map(" ".join),
                       min_size=1, max_size=3),
              st.sampled_from(["{tmp}", "{tmp}/missing"]),
              st.sampled_from(["f_tau", "", ".f_tau", "sub/f_tau"])),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(["qspace", "cleary", "transitivity", "--k", "0"])
@example(["qspace", "cleary", "transitivity", "--samples", "-5"])
@example(["qspace", "free1", "stabilizer", "a(I,I)", "--samples", "-3"])
@example(["qspace", "free1", "stabilizer", "a(I,I)", "--samples", "0"])
@example(["present", "cleary", "--infinite", "--max-index", "0", "--abelian"])
@example(["examples", "f-tau", "--colours", "a,b", "--words", "x1;x1"])
@example(["examples", "f-tau", "--colours", "a,b", "--words", "1;1", "--dir", "{tmp}/missing"])
@example(["eval", "cleary", "[c(I,I) ; a(I,I)]"])
@example(["qspace", "cleary", "compare", "c(I,I):1", "a(I,I):1"])
@given(ARGV)
def test_cli_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        res = run(*(a.replace("{tmp}", tmp) for a in argv))
    assert res.exit_code in (0, 2, 3), (argv, res.exception)
    assert "Traceback" not in res.output
