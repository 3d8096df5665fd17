"""fsk: certify, compute, and export forest-skein data from the command line.

Inputs are .fsk presentation files or names from the built-in corpus.  Every
command prints a human summary, or one deterministic JSON report with
--json.  Exit codes: 0 completed (unknowns included), 2 bad input, 3 an
--expect assertion failed.
"""

from __future__ import annotations

import os
import random
import re
import sys

import click

from . import corpus, fractions, group_presentation as gp, ordered_action as oa
from . import ore_spine, reversing
from .config import FRACTION_BOUND
from .forest import ForestError, leaf_count, parse_tree, render_tree, tree_colours
from .presentation import PresentationError, SkeinPresentation, is_complemented, parse, render
from .reports import RunReport, Verdict


class CliError(click.ClickException):
    exit_code = 2


def load_presentation(source: str) -> SkeinPresentation:
    try:
        if os.path.exists(source):
            with open(source) as fh:
                return parse(fh.read())
        if source in corpus.EXAMPLES:
            return corpus.load(source)
        raise CliError(f"no such file or built-in example: {source}")
    except (PresentationError, ForestError) as e:
        raise CliError(str(e))


def emit(report: RunReport, as_json: bool, lines: list):
    if as_json:
        click.echo(report.dumps())
    else:
        for line in lines:
            click.echo(line)


def apply_expectations(report: RunReport, expects) -> None:
    actual = {v.prop: v.verdict for v in report.verdicts}
    for item in expects:
        prop, _, want = item.partition("=")
        if actual.get(prop) != want:
            click.echo(f"expectation failed: {prop}={actual.get(prop)!r}, wanted {want!r}",
                       err=True)
            sys.exit(3)


@click.group()
def main():
    """Forest-skein certification and computation toolkit."""


@main.command()
@click.argument("source")
@click.option("--lc", is_flag=True, help="decide left-cancellativity")
@click.option("--complete", "complete_", is_flag=True, help="check completeness")
@click.option("--complemented", "complemented_", is_flag=True, help="check complementedness")
@click.option("--ore", is_flag=True, help="certify Ore's property")
@click.option("--bound", type=click.IntRange(min=1), default=None,
              help="caret bound for oracle searches")
@click.option("--json", "as_json", is_flag=True)
@click.option("--expect", multiple=True, metavar="PROP=VERDICT",
              help="exit 3 unless the property reaches the verdict")
def check(source, lc, complete_, complemented_, ore, bound, as_json, expect):
    """Run the selected certifiers and print a consolidated report."""
    p = load_presentation(source)
    if not (lc or complete_ or complemented_ or ore):
        lc = complete_ = complemented_ = ore = True
    report = RunReport("check", p)
    lines = [f"{p.name or source}: {len(p.colours)} colours, {len(p.relations)} relations"]
    if complemented_:
        comp = is_complemented(p)
        report.add(Verdict("complemented", "yes" if comp else "no", "proved"))
        lines.append(f"  complemented: {'yes' if comp else 'no'}")
    for prop, wanted, certify in (("complete", complete_, reversing.is_complete),
                                  ("lc", lc, reversing.decide_left_cancellative)):
        if wanted:
            cert = certify(p)
            report.add(Verdict(prop, cert.verdict, cert.confidence, witness=cert.detail,
                               certificate=cert.to_json()))
            lines.append(f"  {prop}: {cert.verdict} ({cert.criterion})")
    if ore:
        search = ore_spine.cofinal_search(p, bound=bound)
        verdict = {"proved": "yes", "refuted": "no", "evidence": "evidence",
                   "unknown": "unknown-at-bound"}[search.verdict]
        report.add(Verdict("ore", verdict, search.verdict, bounds=search.bounds,
                           witness=search.failures[:4] or None,
                           certificate=search.certificate.to_json()
                           if search.certificate else None))
        kind = search.certificate.kind if search.certificate else "-"
        lines.append(f"  ore: {verdict} ({kind})"
                     + (f", first failing pair {search.failures[0]}" if search.failures else ""))
    emit(report, as_json, lines)
    apply_expectations(report, expect)


@main.command()
@click.argument("source")
@click.option("--max-carets", type=click.IntRange(min=1), default=None)
@click.option("--max-stages", type=click.IntRange(min=1), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--expect", multiple=True, metavar="PROP=VERDICT")
def spine(source, max_carets, max_stages, as_json, expect):
    """Compute spine stages and, when possible, the F-infinity certificate."""
    p = load_presentation(source)
    report = RunReport("spine", p)
    sp = ore_spine.spine(p, max_carets, max_stages)
    classes = ore_spine.spine_classes_deduped(p, sp)
    report.bounds = {"caret_bound": sp.caret_bound, "stage_bound": sp.stage_bound}
    report.data["stages"] = [[render_tree(t) for t in stage] for stage in sp.stages]
    report.data["stabilized"] = sp.stabilized
    report.data["spine_size"] = len(classes)
    report.data["strategy"] = sp.strategy
    lines = [f"spine of {p.name or source}: "
             f"{'stabilized' if sp.stabilized else 'not stabilized'} "
             f"after {len(sp.stages)} stages, {len(classes)} classes ({sp.strategy})"]
    for n, stage in enumerate(sp.stages):
        lines.append(f"  stage {n}: " + ", ".join(render_tree(t) for t in stage))
    report.add(Verdict("spine", "stabilized" if sp.stabilized else "not-stabilized",
                       sp.confidence, bounds=report.bounds))
    cert = ore_spine.f_infinity_certificate(p, sp) if sp.stabilized else None
    if cert:
        report.add(Verdict("f_infinity", "proved", "proved",
                           certificate=cert.to_json()))
        lines.append(f"  F-infinity: proved via finite spine of size {cert.spine_size}"
                     f" (covers {', '.join(cert.covers)})")
    else:
        report.add(Verdict("f_infinity", "unknown", "unknown"))
        lines.append("  F-infinity: no certificate at these bounds")
    emit(report, as_json, lines)
    apply_expectations(report, expect)


@main.command()
@click.argument("source")
@click.option("--finite", "mode", flag_value="finite", default=True)
@click.option("--infinite", "mode", flag_value="infinite")
@click.option("--monoid", "mode", flag_value="monoid")
@click.option("--max-index", type=click.IntRange(min=1), default=3)
@click.option("--colour", default=None, help="base colour (default: first declared)")
@click.option("--format", "fmt", type=click.Choice(["text", "cas"]), default="text")
@click.option("--abelian", is_flag=True, help="also print abelian invariants")
@click.option("--json", "as_json", is_flag=True)
def present(source, mode, max_index, colour, fmt, abelian, as_json):
    """Emit a group presentation of the fraction group."""
    p = load_presentation(source)
    base = colour or p.colours[0]
    if base not in p.colours:
        raise CliError(f"unknown base colour {base!r}")
    if mode == "finite":
        pres = gp.finite_presentation(p, base)
    elif mode == "infinite":
        pres = gp.infinite_presentation(p, base, max_index)
    else:
        pres = gp.infinite_presentation(p, base, max_index, kind="monoid_H")
    report = RunReport("present", p)
    report.data["kind"] = pres.kind
    report.data["generators"] = [g.label for g in pres.generators]
    report.data["relators"] = [r.render() for r in pres.relators]
    report.data["generator_count"] = pres.generator_count
    report.data["relator_count"] = pres.relator_count
    text = gp.render_text(pres) if fmt == "text" else gp.render_cas(pres)
    lines = [text.rstrip("\n"),
             f"# {pres.generator_count} generators, {pres.relator_count} relators"]
    if abelian:
        inv = gp.abelianization(pres)
        report.data["abelianization"] = {
            "free_rank": inv.free_rank, "torsion": list(inv.torsion)}
        lines.append(f"# abelianization: {inv.render()}")
    emit(report, as_json, lines)


_FRACTION_RE = re.compile(r"\[\s*(.+?)\s*;\s*(.+?)\s*\]$")


def _tree_over(p: SkeinPresentation, text: str):
    """A tree literal whose colours all belong to p; ValueError otherwise."""
    t = parse_tree(text)
    unknown = tree_colours(t) - set(p.colours)
    if unknown:
        raise ValueError(f"unknown colour {min(unknown)!r}")
    return t


def _parse_element(p: SkeinPresentation, text: str, base: str, bound: int):
    """The element an expression names, or None when evaluating its vine word
    runs out of the bound: an unknown, not an input error."""
    text = text.strip()
    if not text:
        raise CliError("empty expression (write `EXPR` or `EXPR eq EXPR`)")
    m = _FRACTION_RE.match(text)
    if m:
        try:
            num, den = _tree_over(p, m.group(1)), _tree_over(p, m.group(2))
            return fractions.GroupElement(num, den, p)
        except ValueError as e:
            raise CliError(str(e))
    try:
        letters = _parse_group_word(p, text)
        return fractions.word_to_element(letters, base, p, bound)
    except (ForestError, ValueError) as e:
        raise CliError(str(e))
    except fractions.Unresolved:
        return None


def _normal_form(g):
    """The rendered normal form of g, or None when g is unknown."""
    return None if g is None else fractions.normal_form(g).render()


def _parse_group_word(p: SkeinPresentation, text: str) -> list:
    """Tokens like a1, bh2, b2^-1 over the declared colours."""
    letters = []
    by_length = sorted(p.colours, key=len, reverse=True)
    for tok in text.split():
        sign = 1
        if tok.endswith("^-1"):
            sign, tok = -1, tok[:-3]
        for colour in by_length:
            if tok.startswith(colour):
                rest = tok[len(colour):]
                hatted = rest.startswith("h")
                if hatted:
                    rest = rest[1:]
                if rest.isdigit() and int(rest) >= 1:
                    letters.append((colour, int(rest), hatted, sign))
                    break
        else:
            raise ValueError(f"cannot read generator token {tok!r}")
    return letters


@main.command()
@click.argument("source")
@click.argument("exprs", nargs=-1, required=True)
@click.option("--bound", type=click.IntRange(min=1), default=None)
@click.option("--colour", default=None, help="base colour for generator words")
@click.option("--json", "as_json", is_flag=True)
def eval(source, exprs, bound, colour, as_json):
    """Evaluate group words or fraction literals; `EXPR eq EXPR` compares."""
    p = load_presentation(source)
    base = colour or p.colours[0]
    if base not in p.colours:
        raise CliError(f"unknown base colour {base!r}")
    bound = FRACTION_BOUND if bound is None else bound
    parts = list(exprs)
    report = RunReport("eval", p)
    report.bounds = {"fraction_bound": bound}
    if "eq" in parts:
        i = parts.index("eq")
        left, right = " ".join(parts[:i]), " ".join(parts[i + 1:])
        g = _parse_element(p, left, base, bound)
        h = _parse_element(p, right, base, bound)
        ans = None if g is None or h is None else fractions.equals(g, h, bound)
        verdict = "unknown" if ans is None else ("equal" if ans else "distinct")
        report.add(Verdict("equality", verdict,
                           "unknown" if ans is None else "proved"))
        lines = [] if as_json else [f"lhs: {_normal_form(g) or 'unknown'}",
                                    f"rhs: {_normal_form(h) or 'unknown'}",
                                    f"equal: {verdict}"]
    else:
        g = _parse_element(p, " ".join(parts), base, bound)
        nf = _normal_form(g)
        ident = None if g is None else fractions.is_identity(g, bound)
        report.data["normal_form"] = nf
        report.data["is_identity"] = ident
        lines = [f"normal form: {nf or 'unknown'}",
                 f"identity: {'unknown' if ident is None else ident}"]
    emit(report, as_json, lines)


def _parse_perm(text: str, n: int):
    text = text.strip()
    if text == "id":
        return oa.identity_perm(n)
    m = re.fullmatch(r"cyc(\d+)", text)
    if m:
        if int(m.group(1)) != n:
            raise CliError(f"cyc{m.group(1)} against {n} leaves")
        return oa.rotation(n, 1)
    m = re.fullmatch(r"\(([\d,\s]+)\)", text)
    if m:
        perm = tuple(int(x) for x in m.group(1).split(","))
        if len(perm) != n:
            raise CliError(f"permutation width {len(perm)} against {n} leaves")
        return perm
    raise CliError(f"cannot read permutation {text!r} (use id, cycN, or (2,3,1))")


def _parse_perm_element(p, text: str) -> oa.PermutationElement:
    parts = [s.strip() for s in text.strip().lstrip("[").rstrip("]").split(";")]
    if len(parts) not in (2, 3):
        raise CliError("element literal is [tree ; perm ; tree]")
    try:
        num, den = _tree_over(p, parts[0]), _tree_over(p, parts[-1])
        if len(parts) == 2:
            return oa.from_fraction(fractions.GroupElement(num, den, p))
        return oa.PermutationElement(num, _parse_perm(parts[1], leaf_count(num)), den, p)
    except ValueError as e:
        raise CliError(f"bad element literal {text!r}: {e}")


def _act_or_none(g, x, bound):
    try:
        return oa.act(g, x, bound)
    except fractions.Unresolved:
        return None         # no Ore witness fits the bound


def _parse_point(p, text: str) -> oa.OrderedPoint:
    """A normalized point from `tree-literal:leaf` over p's colours."""
    tree_text, _, leaf_text = text.rpartition(":")
    try:
        return oa.normalize_point(p, _tree_over(p, tree_text), int(leaf_text))
    except ValueError as e:
        raise CliError(f"bad point literal {text!r}: {e}")


@main.command()
@click.argument("source")
@click.argument("subcommand",
                type=click.Choice(["compare", "act", "transitivity", "stabilizer"]))
@click.argument("args", nargs=-1)
@click.option("--bound", type=click.IntRange(min=1), default=None)
@click.option("--k", type=click.IntRange(min=1), default=2)
@click.option("--samples", type=click.IntRange(min=0), default=10)
@click.option("--seed", type=int, default=0)
@click.option("--json", "as_json", is_flag=True)
def qspace(source, subcommand, args, bound, k, samples, seed, as_json):
    """Drive the ordered point set: compare points, act, search witnesses."""
    p = load_presentation(source)
    bound = FRACTION_BOUND if bound is None else bound
    report = RunReport(f"qspace {subcommand}", p)
    report.bounds = {"fraction_bound": bound}
    ore = ore_spine.cofinal_search(p)
    report.add(Verdict("ore", ore.verdict, ore.verdict, bounds=ore.bounds))
    if ore.verdict == "refuted":
        raise CliError("Ore's property fails here; the ordered set is not directed")
    lines = [f"ore precheck: {ore.verdict}"]
    rng = random.Random(seed)
    if subcommand == "compare":
        if len(args) != 2:
            raise CliError("compare needs two point literals `tree:leaf`")
        x, y = (_parse_point(p, a) for a in args)
        ans = oa.compare(x, y, bound) or "unknown"
        report.data["result"] = ans
        lines.append(f"{x.render()}  {ans}  {y.render()}")
    elif subcommand == "act":
        if len(args) != 2:
            raise CliError("act needs an element literal and a point literal")
        g = _parse_perm_element(p, args[0])
        x = _parse_point(p, args[1])
        try:
            y = oa.act(g, x, bound)
            report.data["result"] = y.render()
            lines.append(f"{g.render()} . {x.render()} = {y.render()}")
        except fractions.Unresolved as e:
            report.data["result"] = "unresolved"
            lines.append(f"unresolved: {e}")
    elif subcommand == "transitivity":
        found = unresolved = 0
        for _ in range(samples):
            try:
                A = oa.random_point_set(p, rng, k)
                B = oa.random_point_set(p, rng, k)
            except ValueError as e:
                raise CliError(str(e))
            g = oa.transitivity_witness(A, B, bound)
            if g is None:
                unresolved += 1
            else:
                found += 1
        report.data["found"] = found
        report.data["unresolved"] = unresolved
        lines.append(f"transitivity witnesses: {found} found and verified, "
                     f"{unresolved} unresolved (k={k}, samples={samples})")
    else:
        if len(args) != 1:
            raise CliError("stabilizer needs a tree literal")
        try:
            t = _tree_over(p, args[0])
        except ValueError as e:
            raise CliError(str(e))
        stab = oa.stabilizer_generators(p, t)
        pts = stab.points()
        images = [_act_or_none(stab.cyclic, x, bound) for x in pts]
        orbit = ["unresolved" if y is None else y.render() for y in images]
        fixed = 0
        for _ in range(samples):
            fx = oa.sample_fixer(p, t, rng)
            if all(_act_or_none(fx, x, bound) == x for x in pts):
                fixed += 1
        report.data["cyclic_orbit"] = orbit
        report.data["fixers_verified"] = fixed
        lines.append(f"cyclic element orbit: {orbit}")
        lines.append(f"sampled fixers verified: {fixed}/{samples}")
    emit(report, as_json, lines)


@main.group()
def examples():
    """List or emit the built-in presentation corpus."""


def _fsk_path(directory: str, name: str) -> str:
    """The path of name.fsk in directory, checked before anything is built:
    an empty, hidden or path-like name, or a missing directory, exits 2."""
    if (not name or name.startswith(".") or "/" in name or os.sep in name
            or not os.path.isdir(directory)):
        raise CliError(f"cannot write {name!r}.fsk into {directory}: the directory must "
                       f"exist and the name be nonempty, without a leading '.' or '/'")
    return os.path.join(directory, f"{name}.fsk")


def _write_fsk(path: str, body: str) -> None:
    """Write body to path and print the path; a failed write exits 2."""
    try:
        with open(path, "w") as fh:
            fh.write(body)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}")
    click.echo(path)


@examples.command("list")
def examples_list():
    for name in corpus.names():
        p = corpus.load(name)
        click.echo(f"{name:10s} {len(p.colours)} colours, {len(p.relations)} relations")


@examples.command("emit")
@click.argument("name")
@click.option("--dir", "directory", default=".", type=click.Path())
def examples_emit(name, directory):
    try:
        body = corpus.text(name)
    except KeyError as e:
        raise CliError(str(e))
    _write_fsk(_fsk_path(directory, name), body)


@examples.command("f-tau")
@click.option("--colours", required=True, help="comma-separated colour names")
@click.option("--words", required=True,
              help="semicolon-separated caret-index words, one per colour, e.g. '1 1;1 2'")
@click.option("--name", default="f_tau")
@click.option("--dir", "directory", default=".", type=click.Path())
def examples_f_tau(colours, words, name, directory):
    cols = [c.strip() for c in colours.split(",")]
    shape_words = [w.strip() for w in words.split(";")]
    if len(cols) != len(shape_words) or len(set(cols)) != len(cols):
        raise CliError("need distinct colour names and exactly one shape word per colour")
    path = _fsk_path(directory, name)
    try:
        result = corpus.f_tau_from_words(dict(zip(cols, shape_words)), name=name)
    except (PresentationError, ForestError) as e:
        raise CliError(str(e))
    _write_fsk(path, render(result.presentation))
    click.echo(f"lc: {result.lc.verdict}; ore: {result.ore.verdict}; "
               f"spine size: {result.spine_report.size}; "
               f"F-infinity: {'proved' if result.f_infinity else 'unknown'}")


if __name__ == "__main__":
    main()
