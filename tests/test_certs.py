"""cut_loops: the pass every translator's output goes through."""

import sys

from fillprover.certs import ProofNode, Witness, cut_loops, proof_size
from fillprover.formula import Atom
from fillprover.sequent import Occ, Sequent, parse_sequent


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
