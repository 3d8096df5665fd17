"""Built-in example presentations, in the text format the CLI reads."""

from __future__ import annotations

from .forest import tree_from_word
from .presentation import PresentationError, SkeinPresentation, parse
from .ore_spine import build_f_tau


def _gn(n: int) -> str:
    lhs = " ".join(["a1"] * n)
    rhs = " ".join(f"b{i}" for i in range(1, n + 1))
    return f"name: gn{n}\ncolors: a, b\nrel: {lhs} = {rhs}\n"


def _hn(n: int) -> str:
    lhs = " ".join(["a1"] * n)
    rhs = " ".join(["b1"] * n)
    return f"name: hn{n}\ncolors: a, b\nrel: {lhs} = {rhs}\n"


EXAMPLES: dict = {
    "free1": "name: free1\ncolors: a\n",
    "free2": "name: free2\ncolors: a, b\n",
    # golden-ratio slopes: left a-vine against right b-vine
    "cleary": "name: cleary\ncolors: a, b\nrel: a1 a1 = b1 b2\n",
    # the bicoloured description of the ternary Thompson group
    "ternary": "name: ternary\ncolors: a, b\nrel: a1 b2 = b1 a1\n",
    "gn2": _gn(2),
    "gn3": _gn(3),
    "gn4": _gn(4),
    "gn5": _gn(5),
    "hn2": _hn(2),
    "hn3": _hn(3),
    "hn4": _hn(4),
    # the two ways of cutting a square in half twice
    "dv2": "name: dv2\ncolors: a, b\nrel: a1 b1 b3 = b1 a1 a3\n",
    "nocgp1": "name: nocgp1\ncolors: a, b\nrel: b1 a1 b3 = a1 a2 a3\n",
    # both sides the complete tree with four leaves
    "nocgp2": "name: nocgp2\ncolors: a, b\nrel: a1 a1 a3 = b1 b1 b3\n",
    "notlc": ("name: notlc\ncolors: a, b\n"
              "rel: a1 b1 = b1 a1\nrel: a1 a2 = b1 b2\n"),
    # small two-relation presentation with an infinite spine
    "rebel": ("name: rebel\ncolors: a, b\n"
              "rel: a1 b1 = b1 a1\nrel: a1 a1 = b1 b1\n"),
}


def names() -> list:
    return sorted(EXAMPLES)


def text(name: str) -> str:
    try:
        return EXAMPLES[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; try one of {', '.join(names())}")


def load(name: str) -> SkeinPresentation:
    return parse(text(name))


def f_tau_from_words(colour_words: dict, name: str = ""):
    """Build the monochromatic-pair presentation from caret-index words.

    colour_words maps colour names to index words like "1 1 3" (the shape of
    the tree, read as a one-colour tree word).
    """
    tau = {}
    for colour, word in colour_words.items():
        try:
            letters = [("x", int(tok)) for tok in word.split()]
        except ValueError:
            raise PresentationError(f"shape word {word!r} of {colour}: indices must be integers")
        tau[colour] = tree_from_word(letters)
    return build_f_tau(tau, name=name)
