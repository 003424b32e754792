"""cut_loops, the pass every translator's output goes through, where the
shared checker walks say a proof fails, and the nesting that certificate
writer and reader agree on."""

import json
import random
import sys

import pytest

from fillprover.certs import (
    CheckError,
    ProofNode,
    Witness,
    certificate_text,
    conclusion_text,
    context_text,
    cut_loops,
    proof_size,
    read_certificate,
)
from fillprover.deep import check_dn_proof, check_separation
from fillprover.display import DisplaySequent, SComma, SGt, SLeaf, SLt, SPhi, check_dc_proof
from fillprover.formula import Atom, Excl, Lolli, Par, Tensor, formula_text, parse_formula
from fillprover.prover import decide_formula
from fillprover.sequent import HOLE, Sequent, parse_sequent
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
    w = Witness(principal=Atom("a"))
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


def test_conclusions_that_differ_only_by_an_old_origin_are_one_conclusion():
    # an `@n` origin in older text is read and ignored, so it labels nothing
    # that could keep two conclusions apart
    bare = parse_sequent("a => [=> a]")
    labelled = parse_sequent("a => [=> a]@1")
    assert bare == labelled
    root = chain(("r0", labelled), ("r1", parse_sequent("=> a")))
    assert cut_loops(root) is root
    looped = chain(("r0", labelled), ("r1", bare), ("r2", parse_sequent("=> a")))
    assert shape(cut_loops(looped)) == [("r1", bare), ("r2", parse_sequent("=> a"))]


def test_origins_in_older_sequent_texts_are_read_and_ignored():
    # the format that numbered children wrote `@n` after a child or a whole
    # sequent, in endsequents, conclusions and witness contexts alike
    dn = decide_formula(parse_formula("a -o b -o a*b")).proof
    text = certificate_text("dn", "biill", dn)
    data = json.loads(text)
    aged = 0

    def age(holder, key):
        nonlocal aged
        t = holder[key]
        holder[key] = t.replace("]", "]@3") + ("" if t == "_" else " @2")
        aged += "]" in t

    age(data, "endsequent")
    todo = [data["proof"]]
    while todo:
        node = todo.pop()
        age(node, "conclusion")
        for key in node.get("witness", {}).keys() & {"context", "ctx1", "ctx2"}:
            age(node["witness"], key)
        todo += node["premises"]
    assert aged == 10 and "@3" in json.dumps(data)
    old = read_certificate(json.dumps(data))
    assert old.root == read_certificate(text).root == dn
    assert old.endsequent == "=> a -o b -o a*b"


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


# ------------------------------------------------- nesting, written and read

def json_text(calculus, root):
    """The certificate text of `root` as `certificate_text` lays it out, but
    written by `json.dumps` alone, with no check of how deep it nests."""

    def node(n):
        out = {"rule": n.rule, "conclusion": conclusion_text(calculus, n.conclusion)}
        if n.witness is not None:
            out["witness"] = {"context": context_text(n.witness.context), "principal": formula_text(n.witness.principal)}
        out["premises"] = [node(p) for p in n.premises]
        return out

    data = {"calculus": calculus, "logic": "biill", "endsequent": conclusion_text(calculus, root.conclusion)}
    return json.dumps({**data, "proof": node(root)}) + "\n"


ATOMS = [Atom(x) for x in "abc"]


def formula_tree(rng, n):
    """A formula whose tree is `n` deep: each connective drawn, and the
    deeper operand on a drawn side."""
    f = rng.choice(ATOMS)
    for _ in range(n):
        op, a = rng.choice((Tensor, Par, Lolli, Excl)), rng.choice(ATOMS)
        f = op(f, a) if rng.random() < 0.5 else op(a, f)
    return f


def tensors(rng, n):
    """`a*b*…`: a tree `n` deep in the shortest text that can nest so deep."""
    f = rng.choice(ATOMS)
    for _ in range(n):
        f = Tensor(f, rng.choice(ATOMS))
    return f


def bracketed(j):
    """`(…((a -o a) -o a)…) -o a`: brackets `j` deep, its tree `j + 1`."""
    f = Atom("a")
    for _ in range(j + 1):
        f = Lolli(f, Atom("a"))
    return f


def children(rng, k, inner):
    """`inner`, an occurrence or a hole, inside `k` levels of children, each
    on a drawn side, with a drawn atom beside it or none."""
    s = Sequent((inner,), ())
    for _ in range(k):
        extra = tuple(rng.choice(ATOMS) for _ in range(rng.randrange(2)))
        s = Sequent((s,) + extra, ()) if rng.random() < 0.5 else Sequent(extra, (s,))
    return s


def structure_tree(rng, n):
    """A display side whose tree is `n` deep above its leaves: each node
    drawn among comma, `>` and `<`, its other operand a leaf or `Phi`."""
    x = SLeaf(rng.choice(ATOMS))
    for _ in range(n):
        op, y = rng.choice((SComma, SGt, SLt)), rng.choice((SLeaf(rng.choice(ATOMS)), SPhi()))
        x = op(x, y) if rng.random() < 0.5 else op(y, x)
    return x


def residuals(rng, k, f):
    """The leaf `f` inside `k` residuals, each bracketing the one inside it."""
    x = SLeaf(f)
    for _ in range(k):
        op, y = rng.choice((SGt, SLt)), SLeaf(rng.choice(ATOMS))
        x = op(x, y) if rng.random() < 0.5 else op(y, x)
    return x


def nested(rng, n):
    """(calculus, one-node proof) pairs that nest exactly `n` deep as the
    reader counts it: child chains, formula brackets inside them, formula
    trees, the shortest text of each depth, display trees, residual
    brackets and a witness context."""
    j = rng.randrange(1, 6)
    side = rng.choice(ATOMS)
    shallow = Sequent((side,), (side,))
    cases = [
        ("sn", ProofNode("id", children(rng, n, side))),
        ("sn", ProofNode("id", children(rng, n - j, bracketed(j)))),
        ("dn", ProofNode("id", Sequent((), (formula_tree(rng, n),)), (), Witness(HOLE, side))),
        ("dn", ProofNode("id", shallow, (), Witness(children(rng, n, HOLE), side))),
        ("dn", ProofNode("id", shallow, (), Witness(HOLE, formula_tree(rng, n)))),
        ("dn", ProofNode("id", shallow, (), Witness(HOLE, tensors(rng, n)))),
    ]
    for ant in (structure_tree(rng, n), residuals(rng, n - j + 1, bracketed(j)), SLeaf(formula_tree(rng, n))):
        pair = (ant, SLeaf(side)) if rng.random() < 0.5 else (SLeaf(side), ant)
        cases.append(("dc", ProofNode("id", DisplaySequent(*pair))))
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_certificate_text_writes_exactly_what_the_reader_reads(seed):
    rng = random.Random(seed)
    for n in (99, 100, 101):
        for calculus, root in nested(rng, n):
            text = json_text(calculus, root)
            try:
                read_certificate(text)
            except CheckError:
                read = False
            else:
                read = True
            try:
                written = certificate_text(calculus, "biill", root)
            except ValueError as e:
                assert str(e).endswith(f"nests {n} deep, past the 100 levels a certificate can hold")
                written = None
            assert read == (n <= 100), (calculus, text)
            assert written == (text if read else None)


def test_a_proof_too_tall_to_read_is_not_written():
    # each proof node nests two JSON levels, its object and its premise
    # list, so a 25,000-node chain would pass the reader's JSON allowance:
    # the writer refuses it, and a 20,000-node chain is written and reads
    # back as the very proof (compared node by node: equality of such tall
    # trees recurses past the interpreter's limit)
    a = parse_sequent("a => a")
    with pytest.raises(ValueError, match="the proof is 25000 nodes tall, past the 20000"):
        certificate_text("sn", "biill", chain(*[("wrap_left", a)] * 24_999, ("id", a)))
    tallest = chain(*[("wrap_left", a)] * 19_999, ("id", a))
    assert shape(read_certificate(certificate_text("sn", "biill", tallest)).root) == shape(tallest)
