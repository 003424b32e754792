"""Root-rule calculus: schemas, whole proofs, and the derivation builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover.certs import CheckError, ProofNode, certificate_text, read_certificate
from fillprover.cli import _FILL
from fillprover.deep import BRANCH_RULES, UNARY_LOGICAL_RULES, deep_moves
from fillprover.formula import parse_formula
from fillprover.sequent import (
    HOLE,
    Hole,
    Sequent,
    is_hollow,
    parse_sequent,
    plug,
    sequent_text,
)
from fillprover.shallow import (
    SN_FILL_EXCLUDED,
    SN_RULES,
    check_sn_proof,
    display_in_sn,
    expand_deep_leaf,
    expand_dist,
    expand_merge,
    expand_weaken_hollow,
    invert_display_chain,
    sn_rule_applies,
)
from moves_reference import formula_occurrence_count, hole_contexts

S = parse_sequent


def N(rule, conclusion, *premises):
    return ProofNode(rule, S(conclusion), tuple(premises))


in_fill = _FILL["sn"]  # the shallow calculus's FILL fragment pass


# ------------------------------------------------------------ rule schemas

_SCHEMA_CASES = [
    ("id", "p => p", [], True),
    ("id", "p => q", [], False),
    ("id", "p*p => p*p", [], False),
    ("id", "p, q => p", [], False),
    ("bot_l", "bot =>", [], True),
    ("bot_l", "bot => a", [], False),
    ("i_r", "=> 1", [], True),
    ("i_r", "a => 1", [], False),
    ("i_l", "a, 1 => b", ["a => b"], True),
    ("i_l", "a => b", ["a => b"], False),
    ("bot_r", "a => b, bot", ["a => b"], True),
    ("bot_r", "a => b", ["a => b, bot"], False),
    ("tensor_l", "a*b, c => d", ["a, b, c => d"], True),
    ("tensor_l", "a*b => d", ["b, a => d"], True),
    ("tensor_l", "a*b => d", ["a => d"], False),
    ("par_r", "c => a|b", ["c => a, b"], True),
    # sides are multisets, so the premise order never matters
    ("par_r", "c => b|a", ["c => a, b"], True),
    ("par_r", "c => b|a", ["c => a, a"], False),
    ("lolli_r", "c => a -o b, d", ["c => d, [a => b]"], True),
    ("lolli_r", "c => a -o b", ["c, a => b"], False),
    ("lolli_r", "c => a -o b", ["c => [a => b, e]"], False),
    ("excl_l", "a -< b, c => d", ["[a => b], c => d"], True),
    ("excl_l", "a -< b => d", ["a, [=> b] => d"], False),
    ("tensor_r", "a, b => a*b", ["a => a", "b => b"], True),
    ("tensor_r", "a, b => b*a", ["b => b", "a => a"], True),
    ("tensor_r", "a, b, c => a*b, c", ["a => a", "b, c => b, c"], True),
    ("tensor_r", "a, b => a*b", ["a => b", "b => a"], False),
    ("par_l", "a|b => a, b", ["a => a", "b => b"], True),
    ("par_l", "a|b, c => a, b, c", ["a, c => a, c", "b => b"], True),
    ("par_l", "a|b => b, a", ["b => b", "a => a"], False),
    ("lolli_l", "a, a -o b => b", ["a => a", "b => b"], True),
    ("lolli_l", "a -o b, a => b", ["b => b", "a => a"], False),
    ("excl_r", "a => a -< b, b", ["a => a", "b => b"], True),
    ("excl_r", "a => b -< a, b", ["a => a", "b => b"], False),
    ("cut", "a => b", ["a => c", "c => b"], True),
    ("cut", "a, d => b, e", ["a => c, e", "c, d => b"], True),
    ("cut", "a => b", ["a => c", "d => b"], False),
    ("wrap_left", "[a => b, c] => d", ["a => b, c, d"], True),
    ("wrap_left", "[a => b] => c, d", ["a => b, c, d"], True),
    ("wrap_left", "[a => b], e => c", ["a => b, c"], False),
    ("wrap_right", "a => [b => c]", ["a, b => c"], True),
    ("wrap_right", "=> [a, b => c]", ["a, b => c"], True),
    ("wrap_right", "a => [b => c], d", ["a, b => c"], False),
    ("dissolve_left", "a => b, c, d", ["[a => b, c] => d"], True),
    ("dissolve_left", "a => b, c", ["[a => b], e => c"], False),
    ("dissolve_right", "a, b => c", ["a => [b => c]"], True),
    ("dissolve_right", "a, b => c", ["a => [b => c], d"], False),
    ("pull_left", "[a, e => b] => c", ["[a => b], e => c"], True),
    ("pull_left", "[a, e => b] => c, f", ["[a => b], e => c, f"], True),
    ("pull_left", "[a, e => b] => c", ["[a => b], e => c, f"], False),
    ("pull_left", "[a => b], e => c", ["[a, e => b] => c"], False),
    ("push_right", "a => [b => c, e]", ["a => [b => c], e"], True),
    ("push_right", "a, f => [b => c, e]", ["a, f => [b => c], e"], True),
    ("push_right", "a => [b => c, e]", ["f => [b => c], e"], False),
    ("push_right", "a => [b => c], e", ["a => [b => c, e]"], False),
    # wrap/dissolve need one bare child on the pivot side
    ("wrap_left", "[a => b] => c", ["b, a => c"], False),
    ("dissolve_right", "a, b => c", ["a => [b => c, d]"], False),
]


@pytest.mark.parametrize("rule,conc,prems,ok", _SCHEMA_CASES)
def test_rule_schema(rule, conc, prems, ok):
    assert sn_rule_applies(rule, S(conc), tuple(S(p) for p in prems)) is ok


# one sequent per logical rule, carrying that rule's connective where it acts
_LOGICAL_CASES = {
    "i_l": "1, a => a",
    "bot_r": "a => a, bot",
    "tensor_l": "a*b => c",
    "par_r": "=> a|b",
    "lolli_r": "=> a -o b",
    "excl_l": "a -< b =>",
    "tensor_r": "a, b => a*b",
    "par_l": "a|b => a, b",
    "lolli_l": "a -o b, a => b",
    "excl_r": "a => a -< b, b",
}


@pytest.mark.parametrize("rule", sorted(_LOGICAL_CASES))
def test_sn_agrees_with_dn_at_the_root(rule):
    """A dn logical move fired at the root is the sn rule of the same name,
    and no other rule with as many premises."""
    family = UNARY_LOGICAL_RULES if rule in UNARY_LOGICAL_RULES else BRANCH_RULES
    other = family[(family.index(rule) + 1) % len(family)]
    s = S(_LOGICAL_CASES[rule])
    move = next(m for m in deep_moves(s) if m.rule == rule and m.witness.context == HOLE)
    assert sn_rule_applies(rule, s, move.premises)
    assert not sn_rule_applies(other, s, move.premises)


def test_unknown_rule_raises():
    with pytest.raises(CheckError):
        sn_rule_applies("swap", S("a => a"), ())


def test_arity_table_is_total():
    leafs = [r for r, n in SN_RULES.items() if n == 0]
    assert sorted(leafs) == ["bot_l", "i_r", "id"]
    assert all(r in SN_RULES for r in SN_FILL_EXCLUDED)


# ------------------------------------------------------------ whole proofs

def lolli_identity_proof():
    top = N("id", "a => a")
    mid = N("wrap_right", "=> [a => a]", top)
    return N("lolli_r", "=> a -o a", mid)


def tensor_swap_proof():
    p1 = N("id", "b => b")
    p2 = N("id", "a => a")
    mid = N("tensor_r", "a, b => b*a", p1, p2)
    return N("tensor_l", "a*b => b*a", mid)


def unit_cut_proof():
    left = N("i_r", "=> 1")
    right = N("i_l", "1 => 1", N("i_r", "=> 1"))
    return N("cut", "=> 1", left, right)


def self_exclusion_proof():
    top = N("id", "p => p")
    mid = N("wrap_left", "[p => p] =>", top)
    return N("excl_l", "p -< p =>", mid)


def test_lolli_identity_both_logics():
    root = lolli_identity_proof()
    check_sn_proof(root, expect=S("=> a -o a"))
    in_fill(root)


def test_tensor_swap_proof():
    root = tensor_swap_proof()
    check_sn_proof(root)
    in_fill(root)


def test_unit_cut_proof():
    root = unit_cut_proof()
    check_sn_proof(root)
    in_fill(root)


def test_self_exclusion_biill_only():
    root = self_exclusion_proof()
    check_sn_proof(root)
    with pytest.raises(CheckError, match="^rule excl_l lies outside FILL$") as e:
        in_fill(root)
    assert (e.value.path, e.value.rule) == ((), "excl_l")


def test_expect_mismatch():
    with pytest.raises(CheckError):
        check_sn_proof(lolli_identity_proof(), expect=S("=> b -o b"))


def test_wrong_arity_rejected():
    bad = ProofNode("tensor_r", S("a => a"), (N("id", "a => a"),))
    with pytest.raises(CheckError):
        check_sn_proof(bad)


def test_tampered_step_rejected():
    top = N("id", "a => a")
    mid = N("wrap_right", "=> [a => b]", top)
    with pytest.raises(CheckError):
        check_sn_proof(N("lolli_r", "=> a -o b", mid))


def test_origin_and_label_blind():
    # origins in older text are read and ignored, so they never block a
    # shallow rule
    top = N("id", "a => a")
    mid = ProofNode("wrap_right", S("=> [a => a]@7"), (top,))
    root = ProofNode(
        "lolli_r",
        Sequent((), (parse_formula("a -o a"),)),
        (mid,),
    )
    check_sn_proof(root)
    in_fill(root)
    assert S("[a => b]@7 => [c =>]@2") == S("[a => b] => [c =>]")


def test_certificate_round_trip():
    root = tensor_swap_proof()
    text = certificate_text("sn", "fill", root)
    cert = read_certificate(text)
    assert cert.calculus == "sn" and cert.logic == "fill"
    assert cert.endsequent == "a*b => b*a"
    check_sn_proof(cert.root, expect=S(cert.endsequent))
    in_fill(cert.root)


# --------------------------------------------------- bringing nodes to root

def chain_ok(start, steps):
    prev = start
    for rule, s in steps:
        assert sn_rule_applies(rule, s, (prev,)), rule
        prev = s
    return prev


def test_display_chain_frozen_example():
    tree = S("a => b, [c => d, [e => f]@2]@1")
    targets = {sequent_text(node): (ctx, node) for ctx, node in hole_contexts(tree)}
    ctx, node = targets["e => f"]
    steps = display_in_sn(ctx, node)
    assert [r for r, _ in steps] == [
        "wrap_left",
        "dissolve_right",
        "wrap_left",
        "dissolve_right",
    ]
    assert sequent_text(steps[-1][1]) == "e, [c, [a => b] => d] => f"
    chain_ok(tree, steps)
    inv = invert_display_chain(steps, tree)
    assert chain_ok(steps[-1][1], inv) == tree


def test_display_chain_left_node():
    tree = S("[p => q]@1, r => s")
    ctx, node = next((c, n) for c, n in hole_contexts(tree) if n == S("p => q"))
    steps = display_in_sn(ctx, node)
    assert [r for r, _ in steps] == ["wrap_right", "dissolve_left"]
    assert sequent_text(steps[-1][1]) == "p => q, [r => s]"
    chain_ok(tree, steps)


def test_display_chain_lone_child():
    tree = S("=> [a => b]@1")
    ctx, node = next((c, n) for c, n in hole_contexts(tree) if n == S("a => b"))
    steps = display_in_sn(ctx, node)
    assert [r for r, _ in steps] == ["dissolve_right"]
    assert steps[-1][1] == S("a => b")


def test_display_of_root_is_empty():
    tree = S("a => b")
    assert display_in_sn(HOLE, tree) == []


formula_pool = st.sampled_from([parse_formula(t) for t in ["a", "b", "p -o q", "bot"]])
occ_items = formula_pool

flat_seqs = st.builds(
    lambda l, r: Sequent(tuple(l), tuple(r)),
    st.lists(occ_items, max_size=2),
    st.lists(occ_items, max_size=2),
)
two_sided_trees = st.recursive(
    flat_seqs,
    lambda kids: st.builds(
        lambda l, r, cl, cr: Sequent(tuple(l) + tuple(cl), tuple(r) + tuple(cr)),
        st.lists(occ_items, max_size=1),
        st.lists(occ_items, max_size=1),
        st.lists(kids, max_size=1),
        st.lists(kids, max_size=1),
    ),
    max_leaves=3,
)


@given(two_sided_trees)
@settings(max_examples=60, deadline=None)
def test_display_chain_valid_everywhere(tree):
    for ctx, node in hole_contexts(tree):
        steps = display_in_sn(ctx, node)
        final = chain_ok(tree, steps)
        # node's own items survive at the root, plus at most one wrapper
        spare = (len(final.left) + len(final.right)) - (
            len(node.left) + len(node.right)
        )
        assert spare in (0, 1)
        for side in ("left", "right"):
            have = list(getattr(final, side))
            for it in getattr(node, side):
                have.remove(it)
        inv = invert_display_chain(steps, tree)
        assert chain_ok(final, inv) == tree


def test_display_chain_wraps_only_levels_that_carry_something():
    # the root holds nothing beside its child, and gets no wrapper
    tree = S("=> [=> [a => b]@2]@1")
    ctx, node = next((c, n) for c, n in hole_contexts(tree) if n == S("a => b"))
    assert [r for r, _ in display_in_sn(ctx, node)] == ["dissolve_right", "dissolve_right"]
    # `c` at the root is wrapped, and that wrapper then makes the level
    # below carry something too, so it is wrapped in turn
    tree = S("c => [=> [a => b]@2]@1")
    ctx, node = next((c, n) for c, n in hole_contexts(tree) if n == S("a => b"))
    steps = display_in_sn(ctx, node)
    assert [r for r, _ in steps] == ["wrap_left", "dissolve_right", "wrap_left", "dissolve_right"]
    assert sequent_text(steps[-1][1]) == "a, [[c =>] =>] => b"
    inv = invert_display_chain(steps, tree)
    assert chain_ok(chain_ok(tree, steps), inv) == tree


def nested_nodes(s):
    """Every node of the tree below the root of `s`."""
    for it in s.left + s.right:
        if isinstance(it, Sequent):
            yield it
            yield from nested_nodes(it)


def bare_path(ctx):
    """Whether the context holds nothing but the path down to its hole."""
    while not isinstance(ctx, Hole):
        items = ctx.left + ctx.right
        if len(items) != 1:
            return False
        ctx = items[0]
    return True


@given(two_sided_trees)
@settings(max_examples=60, deadline=None)
def test_display_chain_never_builds_an_empty_wrapper(tree):
    empty = Sequent((), ())
    for ctx, node in hole_contexts(tree):
        steps = display_in_sn(ctx, node)
        final = chain_ok(tree, steps)
        # the tree may have empty children of its own; no step adds one, as
        # an empty wrapper would
        prev = tree
        for _, s in steps:
            assert list(nested_nodes(s)).count(empty) <= list(nested_nodes(prev)).count(empty)
            prev = s
        # a wrapper comes out exactly when the context has more than a path
        spare = (len(final.left) + len(final.right)) - (len(node.left) + len(node.right))
        assert spare == (0 if bare_path(ctx) else 1)
        inv = invert_display_chain(steps, tree)
        assert chain_ok(final, inv) == tree


# ------------------------------------------------------- derived fragments

def assume(text):
    return ProofNode("assume", S(text))


def fragment_ok(node, stop):
    if node is stop:
        return
    prems = tuple(p.conclusion for p in node.premises)
    assert sn_rule_applies(node.rule, node.conclusion, prems), node.rule
    for p in node.premises:
        fragment_ok(p, stop)


def test_expand_dist_left():
    x, y = S("a => b"), S("[=> c]@2 => d")
    top = assume("[a => b], [[=> c]@2 => d], e => f")
    out = expand_dist(x, y, top, "left")
    assert out.conclusion == S("[a, [=> c] => b, d], e => f")
    fragment_ok(out, top)
    assert len(list(_walk(out, top))) == 9


def test_expand_dist_right():
    x, y = S("a => b"), S("c => d")
    top = assume("e => f, [a => b], [c => d]")
    out = expand_dist(x, y, top, "right")
    assert out.conclusion == S("e => f, [a, c => b, d]")
    fragment_ok(out, top)


def _walk(node, stop):
    while node is not stop:
        yield node
        (node,) = node.premises


def test_expand_merge_childless():
    x, y = S("a =>"), S("c => d")
    z = S("a, c => d")
    top = assume("[a =>], [c => d], g => h")
    out = expand_merge(x, y, z, top, "left")
    assert out.conclusion == S("[a, c => d], g => h")
    fragment_ok(out, top)


def test_expand_merge_with_children():
    x, y = S("[p =>]@3 =>"), S("[=> q]@3 =>")
    z = S("[p => q]@3 =>")
    top = assume("[[p =>]@3 =>], [[=> q]@3 =>] => v")
    out = expand_merge(x, y, z, top, "left")
    assert out.conclusion == S("[[p => q]@3 =>] => v")
    fragment_ok(out, top)


def test_expand_merge_right_side():
    x, y = S("=> a"), S("b => c")
    z = S("b => a, c")
    top = assume("u => [=> a], [b => c]")
    out = expand_merge(x, y, z, top, "right")
    assert out.conclusion == S("u => [b => a, c]")
    fragment_ok(out, top)


def test_expand_merge_rejects_non_merge():
    x, y = S("a =>"), S("b =>")
    top = assume("[a =>], [b =>] =>")
    with pytest.raises(ValueError):
        expand_merge(x, y, S("a =>"), top, "left")


def test_expand_weaken_hollow():
    x = S("[=>]@2 => [=>]@4")
    assert is_hollow(x)
    top = assume("a => b")
    out_l = expand_weaken_hollow(x, "left", top)
    assert out_l.conclusion == S("[[=>]@2 => [=>]@4], a => b")
    fragment_ok(out_l, top)
    out_r = expand_weaken_hollow(x, "right", top)
    assert out_r.conclusion == S("a => b, [[=>]@2 => [=>]@4]")
    fragment_ok(out_r, top)


def test_expand_weaken_rejects_non_hollow():
    with pytest.raises(ValueError):
        expand_weaken_hollow(S("a =>"), "left", assume("c => d"))


def test_expand_deep_leaf_at_root():
    out = expand_deep_leaf("id", HOLE, S("p => p"))
    check_sn_proof(out, expect=S("p => p"))
    in_fill(out)
    out = expand_deep_leaf("i_r", HOLE, S("=> 1"))
    check_sn_proof(out, expect=S("=> 1"))
    in_fill(out)


def test_expand_deep_leaf_nested_id():
    ctx = S("=> _")
    node = S("p => p, [=>]@5 @1")
    out = expand_deep_leaf("id", ctx, node)
    check_sn_proof(out, expect=plug(ctx, node))


def test_expand_deep_leaf_nested_bot():
    ctx = S("[=>]@7 => _")
    node = S("bot => @2")
    out = expand_deep_leaf("bot_l", ctx, node)
    check_sn_proof(out, expect=plug(ctx, node))


def test_expand_deep_leaf_hollow_padding():
    node = S("[=>]@3, p => p")
    out = expand_deep_leaf("id", HOLE, node)
    check_sn_proof(out, expect=node)


def test_expand_deep_leaf_rejections():
    with pytest.raises(ValueError):
        expand_deep_leaf("id", HOLE, S("p => q"))
    with pytest.raises(ValueError):
        expand_deep_leaf("id", HOLE, S("a*b => a*b"))
    with pytest.raises(ValueError):
        expand_deep_leaf("id", HOLE, S("p, q => p"))
    with pytest.raises(ValueError):
        expand_deep_leaf("tensor_l", HOLE, S("a*b => a*b"))


hollow_pool = st.sampled_from(
    [S(t) for t in ["=>", "[=>]@1 =>", "=> [=>]@2", "[[=>]@3 =>]@1 =>"]]
)


@given(hollow_pool, hollow_pool)
@settings(max_examples=20, deadline=None)
def test_weaken_then_check(xa, xb):
    top = expand_deep_leaf("id", HOLE, S("p => p"))
    out = expand_weaken_hollow(xa, "left", top)
    out = expand_weaken_hollow(xb, "right", out)
    check_sn_proof(out)
    assert formula_occurrence_count(out.conclusion) == 2
