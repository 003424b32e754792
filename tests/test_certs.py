"""cut_loops, the pass every translator's output goes through, and where
the shared checker walks say a proof fails."""

import sys

import pytest

from fillprover.certs import CheckError, ProofNode, Witness, cut_loops, proof_size
from fillprover.deep import check_dn_proof, check_separation
from fillprover.display import check_dc_proof
from fillprover.formula import Atom, parse_formula
from fillprover.prover import decide_formula
from fillprover.sequent import Occ, Sequent, parse_sequent
from fillprover.shallow import check_sn_proof
from fillprover.translate import deep_to_shallow, shallow_to_display


def chain(*steps):
    """A one-premise chain from (rule, conclusion) pairs, root first; the
    last pair is its leaf."""
    node = ProofNode(*steps[-1])
    for rule, conclusion in reversed(steps[:-1]):
        node = ProofNode(rule, conclusion, (node,))
    return node


def shape(root):
    """(rule, conclusion) of each node, in preorder."""
    out, todo = [], [root]
    while todo:
        node = todo.pop()
        out.append((node.rule, node.conclusion))
        todo.extend(reversed(node.premises))
    return out


def test_a_loop_in_a_chain_is_cut_to_the_upper_node():
    # A <- B <- A <- C becomes A <- C, the upper A keeping its rule and witness
    w = Witness(child_origin=7)
    upper = ProofNode("r2", "A", (ProofNode("r3", "C"),), w)
    root = ProofNode("r0", "A", (ProofNode("r1", "B", (upper,)),))
    cut = cut_loops(root)
    assert cut is upper
    assert cut.witness == w and shape(cut) == [("r2", "A"), ("r3", "C")]


def test_a_loop_back_to_the_base_is_cut():
    root = chain(("r0", "B"), ("r1", "A"), ("r2", "C"), ("r3", "A"))
    assert shape(cut_loops(root)) == [("r0", "B"), ("r3", "A")]


def test_loops_that_overlap_keep_the_highest_repeat():
    root = chain(("r0", "A"), ("r1", "B"), ("r2", "A"), ("r3", "B"), ("r4", "C"), ("r5", "B"), ("r6", "D"))
    assert shape(cut_loops(root)) == [("r2", "A"), ("r5", "B"), ("r6", "D")]


def test_a_loop_free_proof_comes_back_unchanged():
    a = parse_sequent("a => a")
    leaf = ProofNode("id", a)
    root = ProofNode(
        "tensor_r",
        parse_sequent("a, b => a*b"),
        (ProofNode("x", parse_sequent("a => a, 1"), (leaf,)), ProofNode("id", parse_sequent("b => b"))),
    )
    assert cut_loops(root) == root
    assert cut_loops(root) is root


def test_loops_inside_both_premises_of_a_branch_are_cut():
    left = chain(("r1", "L"), ("r2", "M"), ("r3", "L"), ("r4", "X"))
    right = chain(("r5", "R"), ("r6", "R"), ("r7", "Y"))
    root = ProofNode("r0", "T", (left, right))
    assert shape(cut_loops(root)) == [("r0", "T"), ("r3", "L"), ("r4", "X"), ("r6", "R"), ("r7", "Y")]


def test_chains_are_cut_separately():
    # the same conclusion in two premises of a branch is no loop
    root = ProofNode("r0", "T", (chain(("r1", "S"), ("r2", "X")), chain(("r3", "S"), ("r4", "Y"))))
    assert cut_loops(root) is root


def test_equal_conclusions_must_carry_equal_labels():
    # the labels a conclusion carries are its children's `@n` origins and
    # its occurrences' hop counts
    bare = parse_sequent("a => [=> a]")
    labelled = parse_sequent("a => [=> a]@1")
    hopped = Sequent((Occ(Atom("a"), 1),), bare.right)
    assert len({bare, labelled, hopped}) == 3
    root = chain(("r0", labelled), ("r1", bare), ("r2", hopped), ("r3", parse_sequent("=> a")))
    assert cut_loops(root) is root
    looped = chain(
        ("r0", labelled), ("r1", bare), ("r2", hopped), ("r3", parse_sequent("a => [=> a]@1")), ("r4", bare)
    )
    assert shape(cut_loops(looped)) == [("r3", labelled), ("r4", bare)]


def test_a_100_000_node_chain_is_cut_at_the_default_recursion_limit():
    n = 100_000
    root = chain(*[(f"r{i}", "AB"[i % 2]) for i in range(n)], ("leaf", "C"))
    distinct = chain(*[("r", i) for i in range(n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        cut = cut_loops(root)
        same = cut_loops(distinct)
    finally:
        sys.setrecursionlimit(limit)
    assert shape(cut) == [(f"r{n - 2}", "A"), (f"r{n - 1}", "B"), ("leaf", "C")]
    assert same is distinct and proof_size(same) == n


def replaced(root, path, node):
    """`root` with the node at `path`, premise indices from the root, replaced by `node`."""
    if not path:
        return node
    kids = list(root.premises)
    kids[path[0]] = replaced(kids[path[0]], path[1:], node)
    return ProofNode(root.rule, root.conclusion, tuple(kids), root.witness)


@pytest.mark.parametrize(
    "calculus, rule, check, located",
    [
        ("dn", "prop_right_in", check_separation, "at 0*5.1.0.1 (prop_right_in): rule prop_right_in lies outside FILL"),
        ("dn", "i_r", check_dn_proof, "at 0*5.1.0.1 (i_r): rule i_r does not apply to '=> [=> [=> [c => c]]]' with the given witness"),
        ("sn", "i_r", check_sn_proof, "at 0*15.1.0*6.1 (i_r): rule i_r does not derive 'c => c' from its premises"),
        ("dc", "i_r", check_dc_proof, "at 0*31.1.0*15.1 (i_r): rule i_r does not derive 'c |- c' from its premises"),
    ],
)
def test_a_defect_deep_in_a_proof_is_named_by_its_path(calculus, rule, check, located):
    # the top node of the last branch of a proof of each calculus gets a
    # rule outside FILL (dn, against the fragment pass) or a rule that does
    # not derive it (each calculus, against the checker loop); runs of equal
    # steps in the path print as `i*n`
    dn = decide_formula(parse_formula("(a -o b) -o (b -o c) -o a -o c")).proof
    sn = deep_to_shallow(dn)
    proof = {"dn": dn, "sn": sn, "dc": shallow_to_display(sn)}[calculus]
    path, node = (), proof
    while node.premises:
        i = len(node.premises) - 1
        path, node = path + (i,), node.premises[i]
    check(proof)
    with pytest.raises(CheckError) as e:
        check(replaced(proof, path, ProofNode(rule, node.conclusion, node.premises, node.witness)))
    assert (e.value.path, e.value.rule) == (path, rule)
    assert e.value.located() == located
