"""Skein presentations: a colour set plus tree-pair relations of equal arity.

Presentations are parsed from a small line-oriented format:

    # golden-ratio example
    name: cleary
    colors: a, b
    rel: a1 a1 = b1 b2
    rel: a(I,b(I,I)) = b(b(I,I),I)

Relation sides may be tree words or tree literals.  Relations are kept in
the order written; duplicates (in either orientation) are rejected so that
complementedness checks stay meaningful.

`monoid_relations` expands a presentation into the homogeneous monoid
relations satisfied by the elementary generators: the index-shift
commutations x_q y_j = y_j x_{q+1} (j < q) common to all forest diagrams,
plus every index shift of each skein relation.

`memo(p)` keeps what is computed once per presentation, for the 32
presentations used last; `per_presentation` routes a function through it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from .forest import (
    ForestError,
    Tree,
    leaf_count,
    parse_tree,
    parse_word,
    render_word,
    tree_colours,
    tree_from_word,
    valid_colour,
    word_from_tree,
)


class PresentationError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SkeinPresentation:
    colours: tuple
    relations: tuple            # pairs (lhs Tree, rhs Tree), equal leaf counts
    name: str = ""

    def __post_init__(self):
        if not self.colours:
            raise PresentationError("colour set must be nonempty")
        seen = set()
        for c in self.colours:
            if not valid_colour(c):
                raise PresentationError(f"bad colour name {c!r}")
            if c in seen:
                raise PresentationError(f"duplicate colour {c!r}")
            seen.add(c)
        for lhs, rhs in self.relations:
            if lhs is None or rhs is None:
                raise PresentationError("relation sides must be nontrivial trees")
            if leaf_count(lhs) != leaf_count(rhs):
                raise PresentationError(
                    f"relation sides have {leaf_count(lhs)} vs {leaf_count(rhs)} leaves"
                )
            for c in tree_colours(lhs) | tree_colours(rhs):
                if c not in seen:
                    raise PresentationError(f"relation uses unknown colour {c!r}")
        # computed once: every memo lookup hashes the presentation
        object.__setattr__(self, "colour_rank", {c: i for i, c in enumerate(self.colours)})
        object.__setattr__(self, "_hash", hash((self.colours, self.relations, self.name)))

    def __hash__(self):
        return self._hash

    def digest(self) -> str:
        return hashlib.sha256(render(self).encode()).hexdigest()[:12]

    def __repr__(self):
        label = self.name or "anonymous"
        return f"SkeinPresentation({label}: {len(self.colours)} colours, {len(self.relations)} relations)"


@functools.lru_cache(maxsize=32)
def memo(p: SkeinPresentation) -> dict:
    """The per-presentation results, keyed by the function that computed them."""
    return {}


def per_presentation(fn):
    """fn(p) computed once per presentation value and kept in memo(p)."""
    def cached(p):
        entries = memo(p)    # setdefault: racing threads keep the first value stored
        return entries[fn] if fn in entries else entries.setdefault(fn, fn(p))
    return functools.update_wrapper(cached, fn, updated=())


def is_complemented(p: SkeinPresentation) -> bool:
    """At most one relation per unordered colour pair, none with equal root colours."""
    seen = set()
    for lhs, rhs in p.relations:
        a, b = lhs[0], rhs[0]
        if a == b:
            return False
        key = frozenset((a, b))
        if key in seen:
            return False
        seen.add(key)
    return True


@dataclass(frozen=True)
class MonoidRelation:
    lhs: tuple                  # positive words: tuples of (colour, index)
    rhs: tuple
    source: str = "thompson"    # "thompson" or "skein"

    def __post_init__(self):
        if len(self.lhs) != len(self.rhs):
            raise PresentationError("monoid relations must be homogeneous")

    def render(self) -> str:
        return f"{render_word(self.lhs)} = {render_word(self.rhs)}"


def shift_word(letters, offset: int) -> tuple:
    return tuple((c, i + offset) for c, i in letters)


def skein_relation_words(p: SkeinPresentation) -> list:
    """Each relation as a pair of base-index-1 positive words."""
    return [
        (tuple(word_from_tree(lhs)), tuple(word_from_tree(rhs)))
        for lhs, rhs in p.relations
    ]


def monoid_relations(p: SkeinPresentation, max_index: int) -> list:
    """Thompson-like relations with 1 <= j < q <= max_index plus skein shifts j <= max_index."""
    out = []
    for q in range(2, max_index + 1):
        for j in range(1, q):
            for x in p.colours:
                for y in p.colours:
                    out.append(MonoidRelation(
                        ((x, q), (y, j)), ((y, j), (x, q + 1)), source="thompson"))
    for lw, rw in skein_relation_words(p):
        for j in range(1, max_index + 1):
            out.append(MonoidRelation(
                shift_word(lw, j - 1), shift_word(rw, j - 1), source="skein"))
    return out


# ---------------------------------------------------------------------------
# DSL

def parse(text: str) -> SkeinPresentation:
    name = ""
    colours: list = []
    relations: list = []
    seen_pairs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise PresentationError(f"expected `key: value`, got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "name":
            name = value
        elif key == "colors" or key == "colours":
            if colours:
                raise PresentationError("colour set declared twice", lineno)
            colours = [c.strip() for c in value.split(",") if c.strip()]
            if not colours:
                raise PresentationError("empty colour list", lineno)
            for c in colours:
                if not valid_colour(c):
                    raise PresentationError(f"bad colour name {c!r}", lineno)
        elif key == "rel":
            if "=" not in value:
                raise PresentationError("relation needs `lhs = rhs`", lineno)
            lhs_text, _, rhs_text = value.partition("=")
            try:
                lhs = _parse_side(lhs_text.strip())
                rhs = _parse_side(rhs_text.strip())
            except ForestError as e:
                raise PresentationError(str(e), lineno) from e
            if leaf_count(lhs) != leaf_count(rhs):
                raise PresentationError(
                    f"relation sides have {leaf_count(lhs)} vs {leaf_count(rhs)} leaves",
                    lineno,
                )
            pair = frozenset(((0, lhs), (1, rhs))) if lhs == rhs else frozenset((lhs, rhs))
            if pair in seen_pairs:
                raise PresentationError("duplicate relation", lineno)
            seen_pairs.add(pair)
            relations.append((lhs, rhs))
        else:
            raise PresentationError(f"unknown declaration {key!r}", lineno)
    if not colours:
        raise PresentationError("missing `colors:` declaration")
    return SkeinPresentation(tuple(colours), tuple(relations), name)


def _parse_side(text: str) -> Tree:
    if "(" in text or text == "I":
        return parse_tree(text)
    return tree_from_word(parse_word(text))


def render(p: SkeinPresentation) -> str:
    lines = []
    if p.name:
        lines.append(f"name: {p.name}")
    lines.append("colors: " + ", ".join(p.colours))
    for lhs, rhs in p.relations:
        lines.append(f"rel: {render_word(word_from_tree(lhs))} = {render_word(word_from_tree(rhs))}")
    return "\n".join(lines) + "\n"


def to_json(p: SkeinPresentation) -> dict:
    return {
        "name": p.name,
        "colors": list(p.colours),
        "relations": [
            {
                "lhs_word": render_word(word_from_tree(lhs)),
                "rhs_word": render_word(word_from_tree(rhs)),
                "leaves": leaf_count(lhs),
            }
            for lhs, rhs in p.relations
        ],
    }
