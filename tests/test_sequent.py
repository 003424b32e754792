"""Nested sequent structure: canonical form, contexts, splits and merges."""

import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover.formula import ParseError, parse_formula
from fillprover.sequent import (
    HOLE,
    Hole,
    Sequent,
    context_decompose,
    hole_count,
    is_fill_sequent,
    is_hollow,
    parse_sequent,
    plug,
    sequent_node_count,
    sequent_text,
    tau_a,
    tau_s,
)
from fillprover.shallow import _merge_plan
from moves_reference import enumerate_context_partitions, enumerate_partitions, formula_occurrence_count, hole_contexts


# ------------------------------------------------------- an independent
# partition enumerator used as the oracle for the reference's
# (`moves_reference`): address every formula occurrence by its tree path,
# two-colour the addresses, rebuild.

def brute_partitions(s):
    slots = []

    def collect(node, path):
        for side_name in ("left", "right"):
            for idx, it in enumerate(getattr(node, side_name)):
                p = path + ((side_name, idx),)
                if isinstance(it, Sequent):
                    collect(it, p)
                elif not isinstance(it, Hole):
                    slots.append(p)

    collect(s, ())

    def rebuild(node, path, keep):
        sides = {}
        for side_name in ("left", "right"):
            items = []
            for idx, it in enumerate(getattr(node, side_name)):
                p = path + ((side_name, idx),)
                if isinstance(it, Sequent):
                    items.append(rebuild(it, p, keep))
                elif isinstance(it, Hole) or p in keep:
                    items.append(it)
            sides[side_name] = tuple(items)
        return Sequent(sides["left"], sides["right"])

    out = []
    for mask in range(2 ** len(slots)):
        keep1 = {p for j, p in enumerate(slots) if not mask >> j & 1}
        keep2 = {p for j, p in enumerate(slots) if mask >> j & 1}
        out.append((rebuild(s, (), keep1), rebuild(s, (), keep2)))
    return out


# ----------------------------------------------------------------- parsing

def test_round_trips():
    for text in [
        "=>",
        "a =>",
        "=> a",
        "a, a => b",
        "a => [b => c]@2, d",
        "[a => b] => c",
        "=> [=>]@1",
        "a*b, c -o d => [e => [f =>]@3]@2",
        "_ => a",
        "a => _",
    ]:
        s = parse_sequent(text)
        assert parse_sequent(sequent_text(s)) == s


def test_canonical_order_is_permutation_invariant():
    assert parse_sequent("a, b => c") == parse_sequent("b, a => c")
    assert parse_sequent("=> [a =>]@1, [b =>]@2") == parse_sequent("=> [b =>]@2, [a =>]@1")
    assert sequent_text(parse_sequent("b, a =>")) == "a, b =>"


def test_duplicates_and_origins():
    s = parse_sequent("a, a =>")
    assert len(s.left) == 2
    # an origin, which older text writes after a sequent, is read and
    # ignored, however many digits it has
    child = parse_sequent("b => c @2")
    assert child == parse_sequent("b => c") == Sequent((parse_formula("b"),), (parse_formula("c"),))
    assert sequent_text(child) == "b => c"
    assert parse_sequent("=> [b => c]@2").right[0] == child
    assert parse_sequent("=> [b => c]@" + "9" * 5000) == parse_sequent("=> [b => c]")
    assert sequent_text(parse_sequent("a => a, [=>]@1")) == "a => a, [=>]"


@pytest.mark.parametrize("bad", ["a", "a => => b", "[a => b", "a => ]", "=> @", "a,, b =>", "=> [a => a]@²"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_sequent(bad)


# ------------------------------------------------------------- predicates

def test_hollow():
    assert is_hollow(parse_sequent("=>"))
    assert is_hollow(parse_sequent("=> [=>]@1, [=> [=>]@3]@2"))
    assert not is_hollow(parse_sequent("=> [a =>]@1"))
    assert not is_hollow(parse_sequent("a =>"))


def test_fill_sequents():
    assert is_fill_sequent(parse_sequent("a => b, [c => d]@1"))
    assert is_fill_sequent(parse_sequent("=> [a => [b => c]@2]@1"))
    assert not is_fill_sequent(parse_sequent("[a => b] => c"))
    assert not is_fill_sequent(parse_sequent("a -< b => c"))
    assert not is_fill_sequent(parse_sequent("=> [[a => b] => c]@1"))


def test_counts():
    s = parse_sequent("a => b, [c => d, [e => f]@3]@2")
    assert formula_occurrence_count(s) == 6
    assert sequent_node_count(s) == 3


# ---------------------------------------------------------------- contexts

def test_hole_contexts_cover_every_node():
    s = parse_sequent("a => b, [c => d, [e => f]@3]@2")
    pairs = list(hole_contexts(s))
    assert len(pairs) == sequent_node_count(s)
    assert pairs[0][0] is HOLE and pairs[0][1] == s
    for ctx, node in pairs:
        if not isinstance(ctx, Hole):
            assert hole_count(ctx) == 1
        assert plug(ctx, node) == s
        assert context_decompose(ctx, s) == node


def test_plug_and_decompose():
    ctx = parse_sequent("a => _")
    node = parse_sequent("b => c @2")
    tree = plug(ctx, node)
    assert tree == parse_sequent("a => [b => c]@2")
    assert context_decompose(ctx, tree) == node
    assert context_decompose(parse_sequent("b => _"), tree) is None
    assert context_decompose(ctx, parse_sequent("a => d")) is None


# ------------------------------------------------ formula interpretations

def test_tau_on_flat_sequents():
    assert tau_s(parse_sequent("=>")) == parse_formula("1 -o bot")
    assert tau_s(parse_sequent("a, b => c, d")) == parse_formula("a*b -o c|d")
    assert tau_a(parse_sequent("a => b")) == parse_formula("a -< b")


def test_tau_on_nested_sequents():
    assert tau_s(parse_sequent("=> a, [b => c]@2")) == parse_formula("1 -o a|(b -o c)")
    assert tau_a(parse_sequent("a, [b => c] => d")) == parse_formula("a*(b -< c) -< d")
    assert tau_s(parse_sequent("[a => b] => c")) == parse_formula("(a -< b) -o c")


# ------------------------------------------------------ merging and splits

def merges(x, y, z):
    """Whether `z` is a merge of `x` and `y`, by the merge plan the
    translators fuse children with."""
    return _merge_plan(x, y, z) is not None


# a hollow node plugged into the hole of each context makes the hole a
# child, which a merge pairs up as it does any other
MARK = Sequent()


def merges_contexts(x, y, z):
    return merges(plug(x, MARK), plug(y, MARK), plug(z, MARK))


def test_merge_pairs_children_by_origin():
    # the children of a side pair up as one group; origins in the text,
    # which are ignored, group nothing
    s1 = parse_sequent("=> [a =>]@1, [b =>]@2")
    s2 = parse_sequent("=> [c =>], [d =>]@1")
    assert merges(s1, s2, parse_sequent("=> [a, c =>], [b, d =>]"))
    assert merges(s1, s2, parse_sequent("=> [a, d =>], [b, c =>]"))
    assert not merges(s1, s2, parse_sequent("=> [a, b =>], [c, d =>]"))
    assert not merges(s1, s2, parse_sequent("=> [a, b, c, d =>]"))


def test_merge_requires_matching_shape():
    S = parse_sequent
    assert not merges(S("=> [a =>]"), S("[=>] =>"), S("=> [a =>]"))
    assert not merges(S("=> [a =>], [b =>]"), S("=>"), S("=> [a, b =>]"))
    assert not merges(S("=> [a =>]"), S("=> [b =>]"), S("=> [a => b]"))


def test_a_child_of_origin_0_may_stand_alone_in_a_merge():
    # a display wrapper only one premise of a branch has: a child stands for
    # an equal child of the merge, whatever origin older text gives it
    S = parse_sequent
    assert _merge_plan(S("=> [a =>]"), S("b =>"), S("b => [a =>]")) == []
    assert _merge_plan(S("=> [c => [a =>]]"), S("=> [b =>]"), S("=> [b, c => [a =>]]")) == [
        ("right", S("c => [a =>]"), S("b =>"), S("b, c => [a =>]"))
    ]
    assert _merge_plan(S("=> [a =>]@1"), S("=>"), S("=> [a =>]")) == []
    assert not merges(S("=> [a =>]"), S("=>"), S("=> [a, a =>]"))
    assert not merges(S("=> [a =>]"), S("=> [a =>]"), S("=> [a =>]"))


def test_merging_equal_children_never_backtracks():
    # each child of the merge tries each pair of distinct values once, so a
    # merge that fails at its last child fails at once, however many equal
    # children come before it
    x = parse_sequent("=> " + ", ".join(["[a =>]"] * 40))
    y = parse_sequent("=> " + ", ".join(["[=>]"] * 40))
    start = time.perf_counter()
    assert merges(x, y, parse_sequent("=> " + ", ".join(["[a =>]"] * 40)))
    assert not merges(x, y, parse_sequent("=> " + ", ".join(["[a =>]"] * 39 + ["[=> a]"])))
    assert time.perf_counter() - start < 1


def test_merge_flat():
    assert _merge_plan(parse_sequent("a => b"), parse_sequent("c =>"), parse_sequent("a, c => b")) == []
    assert not merges(parse_sequent("a => b"), parse_sequent("c =>"), parse_sequent("a => b, c"))


def test_merge_contexts_aligns_holes():
    c1 = parse_sequent("a => _")
    c2 = parse_sequent("b => _")
    assert merges_contexts(c1, c2, parse_sequent("a, b => _"))
    assert merges_contexts(HOLE, HOLE, HOLE)
    assert not merges_contexts(parse_sequent("_ => a"), c1, parse_sequent("a, _ => a"))


def test_partitions_match_brute_force():
    for text in ["a => b", "a, b => c", "a => b, [c => d]@2", "=> [a => [b =>]@3]@2"]:
        s = parse_sequent(text)
        got = enumerate_partitions(s)
        assert len(got) == 2 ** formula_occurrence_count(s)
        assert Counter(got) == Counter(brute_partitions(s))


def test_partition_order_starts_full():
    s = parse_sequent("a => b")
    first_half, second_half = enumerate_partitions(s)[0]
    assert first_half == s
    assert formula_occurrence_count(second_half) == 0


def test_context_partitions_keep_the_hole():
    ctx = parse_sequent("a => _, b")
    pairs = enumerate_context_partitions(ctx)
    assert len(pairs) == 4
    for c1, c2 in pairs:
        assert hole_count(c1) == 1 and hole_count(c2) == 1
        assert merges_contexts(c1, c2, ctx)
    assert enumerate_context_partitions(HOLE) == [(HOLE, HOLE)]


# ------------------------------------------------------------ random shape

formula_pool = st.sampled_from(
    [parse_formula(t) for t in ["a", "b", "p -o q", "a*b", "bot", "1"]]
)
occ_items = formula_pool


flat_seqs = st.builds(
    lambda l, r: Sequent(tuple(l), tuple(r)),
    st.lists(occ_items, max_size=2),
    st.lists(occ_items, max_size=2),
)
nested_seqs = st.recursive(
    flat_seqs,
    lambda kids: st.builds(
        lambda l, r, cs: Sequent(tuple(l), tuple(r) + tuple(cs)),
        st.lists(occ_items, max_size=1),
        st.lists(occ_items, max_size=1),
        st.lists(kids, max_size=2),
    ),
    max_leaves=3,
)


@given(nested_seqs)
@settings(max_examples=60, deadline=None)
def test_sequent_text_round_trip(s):
    assert parse_sequent(sequent_text(s)) == s


@given(nested_seqs)
@settings(max_examples=40, deadline=None)
def test_every_partition_merges_back(s):
    if formula_occurrence_count(s) > 4:
        return
    for p1, p2 in enumerate_partitions(s):
        assert merges(p1, p2, s)


@given(nested_seqs)
@settings(max_examples=40, deadline=None)
def test_hole_contexts_invert(s):
    for ctx, node in hole_contexts(s):
        assert plug(ctx, node) == s
        assert context_decompose(ctx, s) == node
