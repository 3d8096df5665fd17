import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from forestskein.forest import (
    ForestError,
    LEAF,
    caret,
    caret_count,
    compose,
    divide,
    elementary,
    find_occurrences,
    forest_caret_count,
    forest_count,
    forest_from_word,
    forest_leaf_count,
    forests_with_carets,
    graft,
    leaf_count,
    parse_forest,
    parse_tree,
    parse_word,
    prunable_carets,
    prune_ends_in_key_order,
    random_forest,
    random_tree,
    render_forest,
    render_tree,
    render_word,
    rewrite_at,
    strip_caret,
    tensor,
    tree_from_word,
    tree_key,
    trees_with_carets,
    word_from_tree,
)

COLOURS = ("a", "b")


def tw(text):
    return tree_from_word(parse_word(text))


def test_caret_basics():
    ya = caret("a")
    assert leaf_count(ya) == 2
    assert ya != caret("b")
    assert caret_count(ya) == 1


def test_compose_counts():
    # two roots / three leaves against three roots / five leaves
    f = (caret("a"), LEAF)
    g = (caret("b"), LEAF, caret("a"))
    fg = compose(f, g)
    assert len(fg) == 2
    assert forest_leaf_count(fg) == 5
    assert forest_caret_count(fg) == 3


def test_compose_identity():
    t = tw("a1 a2 b1")
    assert compose((t,), (LEAF,) * leaf_count(t)) == (t,)


def test_compose_arity_error():
    with pytest.raises(ForestError, match="3 leaves.*2 roots"):
        compose((tw("a1 a1"),), (LEAF, LEAF))


def test_elementary_stacking():
    assert compose(elementary("a", 1, 1), elementary("a", 1, 2)) == (tw("a1 a1"),)


def test_tensor():
    f = (caret("a"),)
    g = (caret("b"),)
    assert tensor(f, g) == (caret("a"), caret("b"))
    assert len(tensor(f, g)) == 2
    assert forest_leaf_count(tensor(f, g)) == 4
    assert tensor((LEAF,), (LEAF,)) == (LEAF, LEAF)


def test_elementary_shape():
    assert elementary("a", 1, 1) == (caret("a"),)
    assert elementary("b", 2, 3) == (LEAF, caret("b"), LEAF)
    with pytest.raises(ForestError):
        elementary("a", 4, 3)


def test_tree_words():
    assert tw("a1 a1") == ("a", ("a", None, None), None)
    assert tw("b1 b2") == ("b", None, ("b", None, None))
    with pytest.raises(ForestError, match="letter 2"):
        tw("a1 a3")
    assert word_from_tree(LEAF) == []
    assert word_from_tree(caret("a")) == [("a", 1)]


def test_codec_round_trip_exhaustive():
    for k in range(6):
        for t in trees_with_carets(COLOURS, k):
            assert tree_from_word(word_from_tree(t)) == t


def test_codec_letters_in_range():
    rng = random.Random(5)
    for _ in range(100):
        t = random_tree(rng, COLOURS, 8)
        for k, (_, idx) in enumerate(word_from_tree(t), start=1):
            assert 1 <= idx <= k


def _word_by_levels(t):
    """The canonical word as defined before: every level is tested for leaves only."""
    word = []
    level = (t,)
    while not all(tr is None for tr in level):
        nxt, pos = [], 1
        for tr in level:
            if tr is None:
                nxt.append(None)
                pos += 1
            else:
                c, l, r = tr
                word.append((c, pos))
                nxt.append(l)
                nxt.append(r)
                pos += 2
        level = tuple(nxt)
    return word


def test_word_from_tree_matches_the_level_test(rng):
    for k in range(6):
        for t in trees_with_carets(COLOURS, k):
            assert word_from_tree(t) == _word_by_levels(t)
    for _ in range(300):
        t = random_tree(rng, ("a", "b", "c"), rng.randint(0, 40))
        assert word_from_tree(t) == _word_by_levels(t)
    # 1,500 levels, beyond the default recursion limit: the walk is iterative
    left = right = LEAF
    for _ in range(1500):
        left, right = ("a", left, LEAF), ("b", LEAF, right)
    assert word_from_tree(left) == [("a", 1)] * 1500
    assert word_from_tree(right) == [("b", n) for n in range(1, 1501)]


def test_word_from_tree_is_linear_in_depth():
    # 20,000 levels: a walk that lists the leaves of every level makes
    # about 2 * 10^8 appends here, one over the carets makes 20,000
    left = right = LEAF
    for _ in range(20000):
        left, right = ("a", left, LEAF), ("b", LEAF, right)
    assert word_from_tree(left) == [("a", 1)] * 20000
    assert word_from_tree(right) == [("b", n) for n in range(1, 20001)]


def _path_shaped(t):
    while t is not None:
        if t[1] is not None and t[2] is not None:
            return False
        t = t[2] if t[1] is None else t[1]
    return True


def _bottom_right_leaf(t):
    if t is None:
        return 1
    leaf = 2
    while t[1] is not None or t[2] is not None:
        leaf, t = (leaf + 1, t[2]) if t[1] is None else (leaf, t[1])
    return leaf


@pytest.mark.parametrize("colours", [("a",), ("a", "b"), ("b", "a", "c")])
def test_prune_ends_in_key_order(colours):
    rank = {c: i for i, c in enumerate(colours)}
    for k in range(5):
        want = sorted(filter(_path_shaped, trees_with_carets(colours, k)),
                      key=lambda t: tree_key(t, rank))
        got = list(prune_ends_in_key_order(colours, k))
        assert [t for t, _ in got] == want
        assert [j for _, j in got] == [_bottom_right_leaf(t) for t in want]
        assert len(got) == (1 if k == 0 else len(colours) ** k * 2 ** (k - 1))


def compose_decoded(letters, roots):
    """Reference decoder: one `compose` with an elementary forest per letter."""
    f, n = (LEAF,) * roots, roots
    for colour, idx in letters:
        f = compose(f, elementary(colour, idx, n))
        n += 1
    return f


def test_one_pass_decoder_matches_compose():
    rng = random.Random(15)
    for _ in range(2000):
        roots = rng.randint(1, 3)
        word = [(rng.choice("abc"), rng.randint(1, roots + k))
                for k in range(rng.randint(1, 24))]
        f = compose_decoded(word, roots)
        assert forest_from_word(word, roots) == f
        if roots == 1:
            assert tree_from_word(word) == f[0]


def test_decoder_errors():
    cases = [
        (forest_from_word, ([("a", 1), ("b", 4)], 1), "letter index 4 out of range 1..2"),
        (forest_from_word, ([("a", 0)], 3), "letter index 0 out of range 1..3"),
        (forest_from_word, ([("a", 1)], 0), "a forest needs at least one root"),
        (tree_from_word, ([("a", 1), ("b", 3)],), "letter 2: index 3 out of range 1..2"),
        (tree_from_word, ([("a", 1), ("b", 0)],), "letter 2: index 0 out of range 1..2"),
    ]
    for decode, args, message in cases:
        with pytest.raises(ForestError) as err:
            decode(*args)
        assert str(err.value) == message


def test_decoder_on_a_deep_vine():
    t = tree_from_word([("a", n) for n in range(1, 1501)])
    vine = "a(I," * 1500 + "I" + ")" * 1500
    assert render_tree(t) == vine
    f = forest_from_word([("a", n) for n in range(2, 1502)], 2)
    assert f[0] == LEAF and render_tree(f[1]) == vine


def naive_occurrences(f, u):
    """Independent matcher: embed u at every vertex by brute recursion."""
    def embeds(node, pat):
        if pat is None:
            return True
        if node is None or node[0] != pat[0]:
            return False
        return embeds(node[1], pat[1]) and embeds(node[2], pat[2])

    count = 0
    for t in f:
        stack = [t]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if embeds(node, u):
                count += 1
            stack.extend([node[1], node[2]])
    return count


def test_occurrences_examples():
    t = tw("a1 a1")
    assert find_occurrences((t,), t) == [(0, ())]
    assert find_occurrences((caret("a"),), t) == []


def test_occurrences_vs_naive():
    patterns = [t for k in (1, 2, 3) for t in trees_with_carets(COLOURS, k)]
    subjects = [t for k in range(5) for t in trees_with_carets(COLOURS, k)]
    rng = random.Random(11)
    for f in rng.sample(subjects, 120):
        for u in rng.sample(patterns, 12):
            assert len(find_occurrences((f,), u)) == naive_occurrences((f,), u)


def _addresses(t, path=()):
    """The path to every vertex of t."""
    if t is not None:
        yield path
        yield from _addresses(t[1], path + (0,))
        yield from _addresses(t[2], path + (1,))


def _subtree(t, path):
    for step in path:
        t = t[1 + step]
    return t


def test_occurrence_order(rng):
    # the stack walk itself yields (tree index, preorder path) order: no sort
    t = tw("a1 a1 a3")
    occs = find_occurrences((t,), caret("a"))
    assert occs == sorted(occs, key=lambda o: (o.tree_index, o.path))
    for _ in range(1000):
        f = random_forest(rng, COLOURS, rng.randint(1, 4), rng.randint(0, 10))
        u = random_tree(rng, COLOURS, rng.randint(1, 3))
        want = sorted((i, path) for i, tree in enumerate(f) for path in _addresses(tree)
                      if divide((u,), (_subtree(tree, path),)) is not None)
        assert [(o.tree_index, o.path) for o in find_occurrences(f, u)] == want


def test_rewrite_cleary_relation():
    lhs, rhs = tw("a1 a1"), tw("b1 b2")
    site = find_occurrences((lhs,), lhs)[0]
    assert rewrite_at((lhs,), site, lhs, rhs) == (rhs,)
    # a single step is involutive
    back = rewrite_at((rhs,), find_occurrences((rhs,), rhs)[0], rhs, lhs)
    assert back == (lhs,)


def test_rewrite_preserves_counts(rng):
    lhs, rhs = tw("a1 a1"), tw("b1 b2")
    for _ in range(200):
        f = random_forest(rng, COLOURS, rng.randrange(1, 4), rng.randrange(2, 7))
        for u, u2 in ((lhs, rhs), (rhs, lhs)):
            for occ in find_occurrences(f, u):
                g = rewrite_at(f, occ, u, u2)
                assert len(g) == len(f)
                assert forest_leaf_count(g) == forest_leaf_count(f)
                break


def test_divide():
    t = tw("a1 a1")
    assert divide((t,), (t,)) == (LEAF, LEAF, LEAF)
    assert divide((caret("a"),), (t,)) == elementary("a", 1, 2)
    assert divide((caret("a"),), (caret("b"),)) is None


def small_forests(max_roots=3, max_carets=3):
    out = []
    for roots in range(1, max_roots + 1):
        for k in range(max_carets + 1):
            out.extend(forests_with_carets(COLOURS, roots, k))
    return out


def test_forest_count_matches_enumeration():
    for colours in (("a",), ("a", "b"), ("a", "b", "c")):
        for roots in (1, 2, 3):
            for k in range(5):
                assert forest_count(colours, roots, k) == \
                    len(list(forests_with_carets(colours, roots, k)))


def test_associativity_exhaustive_small():
    pool = [f for f in small_forests(2, 2)]
    by_roots = {}
    for f in pool:
        by_roots.setdefault(len(f), []).append(f)
    checked = 0
    for f in pool:
        for g in by_roots.get(forest_leaf_count(f), []):
            for h in by_roots.get(forest_leaf_count(g), []):
                if forest_caret_count(f) + forest_caret_count(g) + forest_caret_count(h) > 4:
                    continue
                assert compose(compose(f, g), h) == compose(f, compose(g, h))
                checked += 1
    assert checked > 100


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10**6))
def test_associativity_randomized(cf, cg, seed):
    rng = random.Random(seed)
    f = random_forest(rng, COLOURS, rng.randrange(1, 4), cf)
    g = random_forest(rng, COLOURS, forest_leaf_count(f), cg)
    h = random_forest(rng, COLOURS, forest_leaf_count(g), rng.randrange(0, 5))
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_interchange(seed):
    rng = random.Random(seed)
    f = random_forest(rng, COLOURS, rng.randrange(1, 3), rng.randrange(0, 4))
    h = random_forest(rng, COLOURS, rng.randrange(1, 3), rng.randrange(0, 4))
    g = random_forest(rng, COLOURS, forest_leaf_count(f), rng.randrange(0, 4))
    k = random_forest(rng, COLOURS, forest_leaf_count(h), rng.randrange(0, 4))
    assert compose(tensor(f, h), tensor(g, k)) == tensor(compose(f, g), compose(h, k))


def test_thompson_identity_raw_diagrams():
    for n in range(1, 7):
        for q in range(2, n + 1):
            for j in range(1, q):
                for cb, ca in itertools.product(COLOURS, repeat=2):
                    lhs = compose(elementary(cb, q, n), elementary(ca, j, n + 1))
                    rhs = compose(elementary(ca, j, n), elementary(cb, q + 1, n + 1))
                    assert lhs == rhs


def test_literals_round_trip(rng):
    for _ in range(100):
        f = random_forest(rng, COLOURS, rng.randrange(1, 4), rng.randrange(0, 6))
        assert parse_forest(render_forest(f)) == f
        t = random_tree(rng, COLOURS, rng.randrange(0, 6))
        assert parse_tree(render_tree(t)) == t


def test_word_literals():
    letters = parse_word("a1 b2 a3")
    assert letters == [("a", 1), ("b", 2), ("a", 3)]
    assert render_word(letters) == "a1 b2 a3"
    with pytest.raises(ForestError):
        parse_word("a1 %%")


def test_prune_helpers_leave_no_cyclic_garbage():
    t = parse_tree("a(b(I,I),a(I,b(I,I)))")
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            for pos, _colour in prunable_carets(t):
                strip_caret(t, pos)
        assert gc.collect() == 0
    finally:
        gc.enable()


def same_tree(a, b):
    """Structural equality without recursion (== on deep tuples recurses)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is None or y is None:
            if x is not y:
                return False
        elif x[0] != y[0]:
            return False
        else:
            stack += [(x[1], y[1]), (x[2], y[2])]
    return True


def test_prune_helpers_on_a_deep_tree():
    # A 3,000-level zigzag; the only prunable caret is the deepest one.
    depth = 3000
    t = LEAF
    for i in range(depth):
        t = ("a", t, LEAF) if i % 2 else ("b", LEAF, t)
    assert prunable_carets(t) == [(depth // 2, "b")]
    stripped = strip_caret(t, depth // 2)
    want = LEAF
    for i in range(1, depth):
        want = ("a", want, LEAF) if i % 2 else ("b", LEAF, want)
    assert same_tree(stripped, want)
    assert not same_tree(stripped, t)


def _graft_recursive(t, subs, pos=0):
    if t is None:
        return subs[pos], pos + 1
    c, l, r = t
    nl, pos = _graft_recursive(l, subs, pos)
    nr, pos = _graft_recursive(r, subs, pos)
    return (c, nl, nr), pos


def test_graft_matches_the_recursive_definition():
    rng = random.Random(4)
    for _ in range(500):
        t = random_tree(rng, COLOURS, rng.randrange(0, 9))
        pos = rng.randrange(0, 3)
        subs = [random_tree(rng, COLOURS, rng.randrange(0, 4))
                for _ in range(pos + leaf_count(t) + rng.randrange(0, 2))]
        assert graft(t, subs, pos) == _graft_recursive(t, subs, pos)


def test_graft_deep_tree():
    vine = LEAF
    for _ in range(5000):
        vine = ("a", LEAF, vine)
    grafted, pos = graft(vine, [caret("b")] * 5001)
    assert pos == 5001
    assert caret_count(grafted) == 5000 + 5001
