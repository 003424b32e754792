"""Deep nested calculus: move generation and proof checking."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover import deep
from fillprover.certs import CheckError, ProofNode, Witness, certificate_text, parse_context, proof_size
from fillprover.cli import corpus_formulas
from fillprover.deep import (
    PROP_RULES,
    check_dn_proof,
    check_separation,
    deep_moves,
    endsequent_for,
)
from fillprover.formula import Atom, UnitBot, UnitI, formula_text, parse_formula
from fillprover.prover import decide_formula
from fillprover.sequent import (
    HOLE,
    Occ,
    Sequent,
    child_seqs,
    is_fill_sequent,
    occs,
    parse_sequent,
    plug,
    sequent_node_count,
    sequent_text,
)
from moves_reference import (
    _charge,
    enumerate_context_partitions,
    fill_excluded_offers,
    first_disagreement,
    formula_occurrence_count,
    hole_contexts,
    reference_axiom_move,
    searched_calls,
    size4_sample,
)


def N(rule, conclusion, witness=None, *premises):
    w = None
    if witness is not None:
        w = Witness(
            context=parse_context(witness["context"]) if "context" in witness else None,
            principal=parse_formula(witness["principal"]) if "principal" in witness else None,
            child_origin=witness.get("child_origin"),
            ctx1=parse_context(witness["ctx1"]) if "ctx1" in witness else None,
            ctx2=parse_context(witness["ctx2"]) if "ctx2" in witness else None,
        )
    return ProofNode(rule, parse_sequent(conclusion), tuple(premises), w)


def moves_of(text):
    return list(deep_moves(parse_sequent(text)))


# ---------------------------------------------------------------- moves

def test_axiom_moves():
    ms = moves_of("a => a")
    assert [m.rule for m in ms] == ["id"]
    assert ms[0].premises == ()
    assert [m.rule for m in moves_of("bot =>")] == ["bot_l"]
    assert [m.rule for m in moves_of("=> 1")] == ["i_r"]


AXIOM_CASES = [
    ("a => a", "id", "_"),
    ("bot =>", "bot_l", "_"),
    ("=> 1", "i_r", "_"),
    ("a => a, [=>]@1", "id", "_"),
    ("[=>] => [[=> [a => a]] =>]@2", "id", "[=>] => [[=> _] =>]@2"),
    ("=> [=>], [=> 1], [=>]@3", "i_r", "=> [=>], [=>]@3, _"),
    ("[bot =>]@1, [bot =>]@2 =>", None, None),
    ("=> [=> a], [a =>]", None, None),
    ("=> [a =>], [a =>]", None, None),
    ("a => a, b", None, None),
    ("a, bot => a", None, None),
    ("1 =>", None, None),
    ("=> bot", None, None),
    ("a => b", None, None),
    ("1 => 1", None, None),
    ("=> [=>]", None, None),
    ("=>", None, None),
]


@pytest.mark.parametrize("text, rule, context", AXIOM_CASES)
def test_the_axiom_walk_finds_the_axiom_the_hole_context_scan_finds(text, rule, context):
    s = parse_sequent(text)
    got = deep._axiom_move(s)
    assert got == reference_axiom_move(s)
    if rule is None:
        assert got is None
    else:
        ctx = got.witness.context
        assert (got.rule, "_" if ctx == HOLE else sequent_text(ctx)) == (rule, context)


hollow_trees = st.recursive(
    st.builds(Sequent, st.just(()), st.just(()), st.integers(0, 2)),
    lambda kids: st.builds(
        lambda left, right, origin: Sequent(tuple(left), tuple(right), origin),
        st.lists(kids, max_size=2),
        st.lists(kids, max_size=2),
        st.integers(0, 2),
    ),
    max_leaves=6,
)
axiom_items = st.sampled_from(
    [Occ(Atom("a")), Occ(Atom("b")), Occ(UnitI()), Occ(UnitBot()), Occ(parse_formula("a*a"))]
)


@given(hollow_trees, st.data())
@settings(max_examples=150, deadline=None)
def test_the_axiom_walk_agrees_with_the_hole_context_scan(tree, data):
    # up to three occurrences, each put on a side of a node the tree
    # already has, so closing trees, trees with the occurrences at two
    # nodes and trees with too many all arise
    s = tree
    for _ in range(data.draw(st.integers(0, 3))):
        ctx, node = data.draw(st.sampled_from(list(hole_contexts(s))))
        occ = data.draw(axiom_items)
        if data.draw(st.booleans()):
            node = Sequent(node.left + (occ,), node.right, node.origin)
        else:
            node = Sequent(node.left, node.right + (occ,), node.origin)
        s = plug(ctx, node)
    assert deep._axiom_move(s) == reference_axiom_move(s)


def test_axioms_require_hollow_rest():
    assert all(m.rule != "id" for m in moves_of("a, b => a"))
    assert all(m.rule != "bot_l" for m in moves_of("a, bot => a"))
    # hollow children do not block closing
    assert [m.rule for m in moves_of("a => a, [=>]@1")] == ["id"]


def test_lolli_r_creates_a_child_of_origin_0():
    ms = moves_of("=> a -o b")
    lolli = [m for m in ms if m.rule == "lolli_r"]
    assert len(lolli) == 1
    (premise,) = lolli[0].premises
    assert sequent_text(premise) == "=> [a => b]"
    assert premise.right[0].origin == 0
    # so does the child of an arrow that sits beside a child a user named
    (premise,) = moves_of("=> a -o b, [c => c]@4")[0].premises
    assert sequent_text(premise) == "=> [a => b], [c => c]@4"


def test_unary_move_is_the_only_move():
    # tensor_r would apply too, but tensor_l is invertible
    ms = moves_of("a*b => c*d")
    assert [m.rule for m in ms] == ["tensor_l"]
    assert sequent_text(ms[0].premises[0]) == "a, b => c*d"


def texts(moves):
    return [(m.rule, tuple(sequent_text(p) for p in m.premises)) for m in moves]


def test_branch_moves_split_material():
    # a balanced conclusion: of the four colourings of `a, c -o c` only the
    # two that leave premise 1 balanced are built, in colouring order; the
    # lolli_l on `c -o c` has none, since premise 1 would hold only the
    # positive `c`
    assert texts(moves_of("a, b, c -o c => a*b")) == [
        ("tensor_r", ("a, c -o c => a", "b => b")),
        ("tensor_r", ("a => a", "b, c -o c => b")),
    ]
    # at a child, the context splits as well: premise 1 needs the root's `a`
    ms = moves_of("a => [b => a*b]")
    assert texts(ms) == [
        ("tensor_r", ("a => [=> a]", "=> [b => b]")),
        ("prop_left_in", ("=> [a, b => a*b]",)),
        ("prop_right_out", ("a => a*b, [b =>]",)),
    ]
    w = ms[0].witness
    assert (sequent_text(w.context), sequent_text(w.ctx1), sequent_text(w.ctx2)) == ("a => _", "a => _", "=> _")


def test_branch_moves_match_the_colouring_reference_on_every_searched_state():
    # every state the search visits for 300 seeded size-4 formulas that
    # reach it, each decided once: the moves built from counts are the
    # moves every colouring gives, less those whose premise 1 does not
    # balance, in the same order
    states = 0
    for f in size4_sample(20, 300):
        calls = searched_calls(f)
        assert first_disagreement(calls) is None, formula_text(f)
        states += len(calls)
    assert states == 1294


FIVE_ARROWS = "(a -o a)|(b -o b)|(c -o c)|(d -o d)|(e -o e)|(bot*bot*bot*bot*bot)"


def reachable(s):
    """`s` and every state that premises of its moves lead to, in turn."""
    seen, todo = {s}, [s]
    while todo:
        for m in deep_moves(todo.pop()):
            for p in m.premises:
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
    return seen


def test_branch_moves_match_the_colouring_reference_where_colourings_are_many():
    # states of more than six occurrences, children among them: those the
    # search visits for the five-arrow formula, and every state the moves
    # reach from the Horn-like `a, a, a -o b, b -o c => c` in a child beside
    # an arrow; on each, the moves charged and summed are those every
    # colouring gives, in the same order
    calls = searched_calls(parse_formula(FIVE_ARROWS))
    s = parse_sequent("d, d -o e => e, [a, a, a -o b, b -o c => c]")
    calls += list(reachable(s))
    many = [x for x in calls if formula_occurrence_count(x) > 6]
    assert len(many) == 27
    assert all(child_seqs(x.left + x.right) for x in many)
    assert max(formula_occurrence_count(x) for x in many) == 11
    assert first_disagreement(many) is None


@pytest.mark.parametrize(
    "text",
    [
        "=>",
        "a, b -o a => [a => b, [c -o c => 1]@2], bot",
        "a, a -o b => _, [b => a*b]",
        "[a, a => [_ => b -< a], b]@1, 1 => a",
        "a, a, a -o b, b -o c => c, [d, d -o e => e]",
    ],
)
def test_summed_charges_are_the_charges_of_the_halves_they_stand_for(text):
    # colouring j of a sequent or context: its halves are the reference's
    # j-th pair, and the charge summed for it is the first half's charge
    # as walking that half counts it
    x = parse_context(text) if "_" in text else parse_sequent(text)
    fields: dict = {}
    charges = deep._charges(x, fields)
    pairs = enumerate_context_partitions(x)
    assert len(deep._sums(charges)) == len(pairs) == 2 ** len(charges)
    for j, c in enumerate(deep._sums(charges)):
        halves = deep._halves(x, deep._colouring(j, charges))
        assert halves == pairs[j]
        surplus, nets = _charge((halves[0], 1))
        assert c == surplus + sum(net << deep._FIELD * fields[name] for name, net in nets)


def test_the_five_arrow_formula_keeps_its_search_and_its_proof():
    d = decide_formula(parse_formula(FIVE_ARROWS), "fill")
    assert d.visited == 24
    digest = hashlib.sha256(certificate_text("dn", "fill", d.proof).encode()).hexdigest()
    assert digest == "f5c76410221ba28cc87da5229f0f1cb1a6398e77591653dfc367dcc8fd3a06a6"


def test_no_rule_outside_fill_is_offered_on_an_exclusion_free_search():
    # FILL has no search mode of its own: on every state the search visits
    # for an exclusion-free size-3 formula, no FILL_EXCLUDED rule is yielded
    # as a move, found by `rules_at` or sited by `_prop_sites`, and every
    # proof checks in FILL and separates
    decisions = states = theorems = 0
    for f in corpus_formulas(["p", "q"], 3, "fill"):
        calls = searched_calls(f)
        assert fill_excluded_offers(calls) == [], formula_text(f)
        decisions += 1
        states += len(calls)
        if calls:
            d = decide_formula(f, "fill")
            if d.proof is not None:
                check_dn_proof(d.proof)
                check_separation(d.proof)
                theorems += 1
    assert (decisions, states, theorems) == (12460, 3427, 522)


def test_propagation_moves():
    ms = moves_of("b => [=> b]@1")
    props = [m for m in ms if m.rule == "prop_left_in"]
    assert len(props) == 1
    assert sequent_text(props[0].premises[0]) == "=> [b => b]@1"


def hollow_tree(rng, nodes):
    """A tree of `nodes` hollow nodes, each below the root a left or right
    child of an earlier node, with one atom `a` on a side of one of them."""
    kids = [([], []) for _ in range(nodes)]
    parents = [(rng.randrange(i), rng.randrange(2)) for i in range(1, nodes)]
    home = rng.randrange(nodes)
    kids[home][rng.randrange(2)].append(Occ(Atom("a")))

    def build(i):
        left, right = kids[i]
        for j, (parent, side) in enumerate(parents, 1):
            if parent == i:
                (left, right)[side].append(build(j))
        return Sequent(tuple(left), tuple(right), rng.randrange(2))

    return build(0)


def longest_propagation_path(s):
    """The most moves in a row from `s`, asserting on the way that every
    move is a propagation that carries the one occurrence unchanged, keeps
    every node and never leads back to a state it started from."""
    (occ,) = [o for _, node in hole_contexts(s) for o in occs(node.left + node.right)]
    longest: dict = {}
    on_path: set = set()

    def walk(x):
        if x in longest:
            return longest[x]
        assert x not in on_path, f"a cycle through {sequent_text(x)}"
        on_path.add(x)
        best = 0
        for m in deep_moves(x):
            assert m.rule in PROP_RULES and m.witness.principal == occ.formula
            (p,) = m.premises
            assert [o for _, node in hole_contexts(p) for o in occs(node.left + node.right)] == [occ]
            assert sequent_node_count(p) == sequent_node_count(x)
            best = max(best, 1 + walk(p))
        on_path.discard(x)
        longest[x] = best
        return best

    return walk(s)


@pytest.mark.parametrize(
    "text, moves",
    [
        ("a =>", 0),
        ("a => [=>]", 1),
        ("[a =>] => [=> [=>]]", 3),
        ("[[a =>] =>] => [=> [=>]]", 4),
        ("[[[a =>] =>] =>] => [=> [=>]]", 5),
        ("[[=>] =>] => a, [=> [=>]]", 2),
        ("[[=>] =>] => [=> [=> a]]", 4),
        ("[[=> a] =>] => [[=>] =>]", 0),
    ],
)
def test_propagation_paths_of_hand_built_trees(text, moves):
    # a left occurrence leaves left children and enters right ones, a right
    # occurrence the mirror image: up, then down, each node at most once
    s = parse_sequent(text)
    assert longest_propagation_path(s) == moves <= sequent_node_count(s) - 1


def test_propagation_paths_are_simple():
    # the path lemma of the `prover` docstring: on trees of up to six hollow
    # nodes around one atom, the moves form no cycle and the longest chain
    # of them passes each node at most once
    rng = random.Random(31)
    tight = set()  # the node counts of trees whose longest chain meets the bound
    for _ in range(400):
        s = hollow_tree(rng, rng.randrange(1, 7))
        nodes = sequent_node_count(s)
        moves = longest_propagation_path(s)
        assert moves <= nodes - 1, sequent_text(s)
        if moves == nodes - 1:
            tight.add(nodes)
    assert tight == {1, 2, 3, 4, 5}


def test_left_nested_propagation_is_biill_only():
    # exclusion and the propagations across a left-nested child are moves of
    # the one search, on sequents outside FILL only
    assert texts(moves_of("a -< b => c")) == [("excl_l", ("[a => b] => c",))]
    assert texts(moves_of("a => a -< b, b")) == [("excl_r", ("a => a", "b => b"))]
    assert any(m.rule == "prop_right_in" for m in moves_of("[a => b] => c"))
    assert any(m.rule == "prop_left_out" for m in moves_of("[a, x => b] => c"))
    outside = ("a -< b => c", "a => a -< b, b", "[a => b] => c", "[a, x => b] => c")
    assert not any(is_fill_sequent(parse_sequent(t)) for t in outside)


# ------------------------------------------------------------- the fixture
# A full derivation of a two-premise par shuffle through an implication,
# transcribed by hand: it exercises child creation, deep rewriting, context
# splitting at two levels, propagation, and hollow-rest axioms.

def big_fill_proof():
    id_e = N("id", "=> [e => e]", {"context": "=> _", "principal": "e"})
    id_d = N("id", "=> [d => d]", {"context": "=> _", "principal": "d"})
    v1 = N("id", "a => a, [=>]", {"context": "_", "principal": "a"})
    id_b = N("id", "=> [b => b]", {"context": "=> _", "principal": "b"})
    v2 = N(
        "prop_left_in",
        "b => [=> b]",
        {"context": "_", "principal": "b", "child_origin": 0},
        id_b,
    )
    u1 = N(
        "par_l",
        "a|b => a, [=> b]",
        {"context": "_", "principal": "a|b", "ctx1": "_", "ctx2": "_"},
        v1,
        v2,
    )
    id_c = N("id", "=> [c => c]", {"context": "=> _", "principal": "c"})
    u2 = N(
        "prop_left_in",
        "c => [=> c]",
        {"context": "_", "principal": "c", "child_origin": 0},
        id_c,
    )
    r1 = N(
        "par_l",
        "(a|b)|c => a, [=> b, c]",
        {"context": "_", "principal": "(a|b)|c", "ctx1": "_", "ctx2": "_"},
        u1,
        u2,
    )
    q1 = N(
        "par_r",
        "(a|b)|c => a, [=> b|c]",
        {"context": "(a|b)|c => a, _", "principal": "b|c"},
        r1,
    )
    p1 = N(
        "lolli_l",
        "(a|b)|c => a, [b|c -o d => d]",
        {
            "context": "(a|b)|c => a, _",
            "principal": "b|c -o d",
            "ctx1": "(a|b)|c => a, _",
            "ctx2": "=> _",
        },
        q1,
        id_d,
    )
    s2 = N(
        "par_l",
        "(a|b)|c => a, [(b|c -o d)|e => d, e]",
        {
            "context": "(a|b)|c => a, _",
            "principal": "(b|c -o d)|e",
            "ctx1": "(a|b)|c => a, _",
            "ctx2": "=> _",
        },
        p1,
        id_e,
    )
    s1 = N(
        "par_r",
        "(a|b)|c => a, [(b|c -o d)|e => d|e]",
        {"context": "(a|b)|c => a, _", "principal": "d|e"},
        s2,
    )
    return N(
        "lolli_r",
        "(a|b)|c => a, (b|c -o d)|e -o d|e",
        {"context": "_", "principal": "(b|c -o d)|e -o d|e"},
        s1,
    )


def test_fixture_proof_checks_in_both_logics():
    proof = big_fill_proof()
    assert proof_size(proof) == 14
    check_dn_proof(proof)
    check_separation(proof)


def test_fixture_expect_mismatch():
    proof = big_fill_proof()
    with pytest.raises(CheckError):
        check_dn_proof(proof, expect=parse_sequent("=> a"))


# ------------------------------------------------------------- rejections

def test_id_needs_hollow_rest():
    bad = N("id", "a, b => a", {"context": "_", "principal": "a"})
    with pytest.raises(CheckError):
        check_dn_proof(bad)


def test_wrong_premise_rejected():
    bad = N(
        "lolli_r",
        "=> a -o b",
        {"context": "_", "principal": "a -o b"},
        N("id", "=> [b => a]", {"context": "=> _", "principal": "a"}),
    )
    with pytest.raises(CheckError):
        check_dn_proof(bad)


def test_wrong_child_origin_rejected():
    # a premise in the certificate format that numbered spawned children
    bad = N(
        "lolli_r",
        "=> a -o b",
        {"context": "_", "principal": "a -o b"},
        N("id", "=> [a => b]@1", {"context": "=> _", "principal": "a"}),
    )
    # the rule applies; what is wrong is the stated premise
    with pytest.raises(CheckError, match=r"premise mismatch at lolli_r: stated '=> \[a => b\]@1', derived '=> \[a => b\]'"):
        check_dn_proof(bad)


def test_branch_requires_split_witnesses():
    bad = N(
        "tensor_r",
        "a, b => a*b",
        {"context": "_", "principal": "a*b"},
        N("id", "a => a", {"context": "_", "principal": "a"}),
        N("id", "b => b", {"context": "_", "principal": "b"}),
    )
    with pytest.raises(CheckError):
        check_dn_proof(bad)


def test_branch_with_witnesses_checks():
    good = N(
        "tensor_r",
        "a, b => a*b",
        {"context": "_", "principal": "a*b", "ctx1": "_", "ctx2": "_"},
        N("id", "a => a", {"context": "_", "principal": "a"}),
        N("id", "b => b", {"context": "_", "principal": "b"}),
    )
    check_dn_proof(good)
    check_separation(good)


def test_missing_witness_rejected():
    bad = ProofNode("id", parse_sequent("a => a"), (), None)
    with pytest.raises(CheckError):
        check_dn_proof(bad)


def test_fill_rejects_exclusion_and_left_nesting():
    proof = N(
        "excl_l",
        "a -< b => c",
        {"context": "_", "principal": "a -< b"},
        N("id", "[a => b] => c", {"context": "_", "principal": "c"}),
    )
    with pytest.raises(CheckError, match=r"^rule excl_l lies outside FILL$") as e:
        check_separation(proof)
    assert (e.value.path, e.value.rule) == ((), "excl_l")
    nested = N("id", "[a => b] => c", {"context": "_", "principal": "c"})
    with pytest.raises(CheckError, match=r"^sequent leaves FILL: '\[a => b\] => c'$") as e:
        check_separation(nested)
    assert (e.value.path, e.value.rule) == ((), "id")


def test_unknown_rule_rejected():
    with pytest.raises(CheckError):
        check_dn_proof(N("cut", "a => a", {"context": "_"}))


def test_a_wrong_leaf_above_equal_children_costs_one_instance_search_per_node(monkeypatch):
    # each prop_left_in moves a_i into one of d - i equal empty children;
    # every choice gives the same premise, so when the wrong id above them
    # fails, no other choice is tried: one pass, not d! retries
    d = 6
    atoms = [f"a{i}" for i in range(d)]

    def conclusion(i):
        kids = [f"[{a} =>]" for a in atoms[:i]] + ["[=>]"] * (d - i)
        return ", ".join(atoms[i:]) + " => " + ", ".join(kids)

    proof = N("id", conclusion(d), {"context": "_", "principal": "a0"})
    for i in reversed(range(d)):
        proof = N("prop_left_in", conclusion(i), {"context": "_", "principal": atoms[i]}, proof)
    calls = []
    instances = deep._instances

    def counted(*args):
        calls.append(args)
        return instances(*args)

    monkeypatch.setattr(deep, "_instances", counted)
    with pytest.raises(CheckError, match=r"^rule id does not apply to ") as e:
        check_dn_proof(proof)
    assert e.value.path == (0,) * d
    assert len(calls) <= proof_size(proof) == d + 1


def test_stays_in_fill_predicate():
    inside = N("id", "a => a", {"context": "_", "principal": "a"})
    check_separation(inside)
    outside = N(
        "prop_right_in",
        "[a => b] => c",
        {"context": "_", "principal": "c", "child_origin": 0},
    )
    with pytest.raises(CheckError):
        check_separation(outside)


def test_endsequent_for():
    f = parse_formula("(a -o b) -o c -o d")
    s = endsequent_for(f)
    assert sequent_text(s) == "=> (a -o b) -o c -o d"
    assert s.right[0].formula is f
