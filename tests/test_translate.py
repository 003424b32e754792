"""Proof translations between the three calculi: closure, round trips, rejections."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fillprover
from fillprover import translate
from fillprover.certs import CheckError, ProofNode, certificate_text, postorder, proof_size, read_certificate
from fillprover.deep import check_dn_proof, endsequent_for
from fillprover.display import check_dc_proof, parse_display
from fillprover.formula import Atom, Excl, Lolli, Par, Tensor, UnitBot, UnitI, parse_formula
from fillprover.prover import decide_formula, decide_sequent
from fillprover.sequent import parse_sequent, strip_sequent
from fillprover.cli import main
from fillprover.shallow import check_sn_proof, zero_origins
from fillprover.translate import (
    TranslationError,
    deep_to_shallow,
    display_to_shallow,
    embed_sequent,
    shallow_to_deep,
    shallow_to_display,
)


def proved(text, logic):
    d = decide_formula(parse_formula(text), logic)
    assert d.status == "proved"
    return d.proof


def norm(s):
    return zero_origins(strip_sequent(s))


def rules_of(p):
    return {n.rule for n in postorder(p)}


# ------------------------------------------------------------ full pipeline

FILL_CASES = [
    "a -o a",
    "1",
    "bot|1",
    "a*b -o b*a",
    "a|b -o b|a",
    "(p*(q|r)) -o (p*q)|r",
    "((b -o bot)|c) -o b -o c",
    "a -o b -o a*b",
    "a*(b*c) -o (a*b)*c",
]
BIILL_CASES = [
    "p -o q|(p -< q)",
    "(a -< a) -o bot|bot",
    "(a -< b) -< c -o a -< (b|c)",
]


@pytest.mark.parametrize(
    "text, logic",
    [(t, "fill") for t in FILL_CASES] + [(t, "biill") for t in BIILL_CASES],
)
def test_four_way_closure(text, logic):
    """dn -> sn -> dc -> sn and dn -> sn -> dn, every stage re-checked."""
    f = parse_formula(text)
    dn = proved(text, logic)
    sn = deep_to_shallow(dn, logic)
    check_sn_proof(sn, "biill", expect=endsequent_for(f))
    dc = shallow_to_display(sn)
    check_dc_proof(dc, "biill", expect=embed_sequent(sn.conclusion))
    sn2 = display_to_shallow(dc)
    check_sn_proof(sn2, "biill", expect=sn.conclusion)
    dn2 = shallow_to_deep(sn)
    check_dn_proof(dn2, "biill", expect=endsequent_for(f))
    # the dc leg leaves no trace in the dn proof it ends in
    dn3 = shallow_to_deep(sn2)
    assert certificate_text("dn", "biill", dn3) == certificate_text("dn", "biill", dn2)
    for p in (sn, dc, sn2, dn2):
        assert "cut" not in rules_of(p)
    for p in (sn, dc, sn2):
        assert not repeated_conclusions(p)
    # the sn -> dc translator as built, before `cut_loops` sees it
    assert proof_size(translate._std(sn)) <= 4 * proof_size(sn)


def repeated_conclusions(root):
    """Conclusions that occur twice in one chain of one-premise nodes, the
    node the chain ends on included."""
    repeats = []
    starts = [root] + [p for n in postorder(root) if len(n.premises) != 1 for p in n.premises]
    for node in starts:
        seen = {node.conclusion}
        while len(node.premises) == 1:
            node = node.premises[0]
            if node.conclusion in seen:
                repeats.append(node.conclusion)
            seen.add(node.conclusion)
    return repeats


def test_nested_example_full_round_trip():
    f = parse_formula("(a|b)|c -o a|((b|c -o d)|e -o d|e)")
    dn = proved("(a|b)|c -o a|((b|c -o d)|e -o d|e)", "fill")
    sn = deep_to_shallow(dn, "fill")
    check_sn_proof(sn, "biill")
    check_dc_proof(shallow_to_display(sn), "biill")
    check_dn_proof(shallow_to_deep(sn), "biill", expect=endsequent_for(f))


def test_frozen_translation_sizes():
    # determinism pins; recheck before touching either translator
    dn = proved("a -o a", "fill")
    sn = deep_to_shallow(dn, "fill")
    dc = shallow_to_display(sn)
    assert (proof_size(dn), proof_size(sn), proof_size(dc)) == (2, 3, 4)
    assert proof_size(display_to_shallow(dc)) == 3
    assert proof_size(shallow_to_deep(sn)) == 2
    sn = deep_to_shallow(proved("a*b -o a*b", "fill"), "fill")
    assert proof_size(sn) == 22
    assert proof_size(shallow_to_deep(sn)) == 5
    dc = shallow_to_display(deep_to_shallow(proved("a*b -o b*a", "fill"), "fill"))
    assert proof_size(dc) == 42
    assert proof_size(display_to_shallow(dc)) == 20


def assoc_dc_certificate():
    dc = shallow_to_display(deep_to_shallow(proved("a*(b*(c*d)) -o ((a*b)*c)*d", "fill"), "fill"))
    return dc, certificate_text("dc", "fill", dc)


def test_certificates_are_written_compact():
    dc, text = assoc_dc_certificate()
    assert proof_size(dc) > 100 and len(text.encode()) < 64 * 1024


def test_indented_certificates_still_read():
    _, text = assoc_dc_certificate()
    indented = json.dumps(json.loads(text), indent=2)
    assert read_certificate(indented).root == read_certificate(text).root


def test_one_node_proofs_stay_one_node():
    dn = proved("1", "fill")
    sn = deep_to_shallow(dn, "fill")
    assert sn.rule == "i_r" and not sn.premises
    dn2 = shallow_to_deep(sn)
    assert dn2.rule == "i_r" and not dn2.premises


# ------------------------------------------------------- endpoint behaviour

def test_deep_to_shallow_output_leaves_fill():
    """Displaying a redex parks the rest of the tree in a left wrapper, so
    shallow output of a FILL proof is a biill-calculus artifact."""
    dn = proved("(p*(q|r)) -o (p*q)|r", "fill")
    sn = deep_to_shallow(dn, "fill")
    check_sn_proof(sn, "biill")
    assert rules_of(sn) & {"wrap_left", "dissolve_left", "pull_left"}
    with pytest.raises(CheckError):
        check_sn_proof(sn, "fill")


def test_input_is_validated_in_the_given_logic():
    dn = proved("p -o q|(p -< q)", "biill")
    with pytest.raises(CheckError):
        deep_to_shallow(dn, "fill")
    deep_to_shallow(dn, "biill")


def test_invalid_inputs_rejected():
    bogus = ProofNode("id", parse_sequent("a => b"))
    with pytest.raises(CheckError):
        deep_to_shallow(bogus)
    with pytest.raises(CheckError):
        shallow_to_deep(bogus)
    with pytest.raises(CheckError):
        shallow_to_display(bogus)
    with pytest.raises(CheckError):
        display_to_shallow(ProofNode("id", parse_display("a |- b")))


def test_a_broken_translator_is_caught_by_its_target_checker(tmp_path, monkeypatch, capsys):
    # a one-node "proof" of the right endsequent passes any endsequent test
    monkeypatch.setattr(translate, "_std", lambda node: ProofNode("id", embed_sequent(node.conclusion)))
    sn = deep_to_shallow(proved("a*b -o b*a", "fill"), "fill")
    with pytest.raises(TranslationError, match="sn -> dc"):
        shallow_to_display(sn)
    src = tmp_path / "sn.json"
    out = tmp_path / "dc.json"
    src.write_text(certificate_text("sn", "biill", sn))
    capsys.readouterr()
    assert main(["translate", str(src), "--calculus", "dc", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("translation failed: ") and err.count("\n") == 1
    assert not out.exists()


def test_every_import_is_used_or_exported():
    # a deletion must not leave the names it used imported for nothing
    for path in sorted(Path(fillprover.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in used, f"{path.name}:{node.lineno} imports {name} unused"


def test_the_package_holds_no_assertions():
    # python -O strips assertions, so no invariant may rest on one
    for path in sorted(Path(fillprover.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not isinstance(node, ast.Assert), where
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert not (isinstance(exc, ast.Name) and exc.id == "AssertionError"), where


def test_only_stack_room_and_main_set_the_recursion_limit():
    # `certs.stack_room` sizes the limit for a block and puts it back, and
    # `cli.main` pins a floor for the command line; any other site is a
    # limit raised by hand
    sites = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            name = getattr(child, "attr", None) or getattr(child, "id", None) or getattr(child, "name", None)
            if name == "setrecursionlimit":
                sites.add(where)
            visit(child, where)

    for path in sorted(Path(fillprover.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sites == {"certs.stack_room", "cli.main"}


def test_cut_bearing_proofs_rejected():
    ida = ProofNode("id", parse_sequent("a => a"))
    snc = ProofNode("cut", parse_sequent("a => a"), (ida, ida))
    check_sn_proof(snc, "biill")  # the checker itself allows cut
    with pytest.raises(ValueError, match="cut"):
        shallow_to_deep(snc)
    with pytest.raises(ValueError, match="cut"):
        shallow_to_display(snc)
    dcc = ProofNode(
        "cut",
        parse_display("Phi |- 1"),
        (
            ProofNode("i_r", parse_display("Phi |- 1")),
            ProofNode("i_l", parse_display("1 |- 1"), (ProofNode("i_r", parse_display("Phi |- 1")),)),
        ),
    )
    check_dc_proof(dcc, "biill")
    with pytest.raises(ValueError, match="cut"):
        display_to_shallow(dcc)


def test_translations_preserve_endsequent_exactly():
    f = parse_formula("((p -o q)|r) -o p -o q|r")
    dn = proved("((p -o q)|r) -o p -o q|r", "fill")
    sn = deep_to_shallow(dn, "fill")
    assert norm(sn.conclusion) == norm(endsequent_for(f))
    dn2 = shallow_to_deep(sn)
    assert norm(dn2.conclusion) == norm(endsequent_for(f))
    dc = shallow_to_display(sn)
    assert dc.conclusion == embed_sequent(sn.conclusion)


@pytest.mark.parametrize(
    "text",
    [
        "b, c => c*b",
        "d, c, b, a => (a*b)*(c*d)",
        "a|b|c => c, b, a",
        "a => a, [=>]@1",
        "b, a => [=> a*b]@1",
        "[b, a => a*b]@1 =>",
        "q, [p, [=>]@2 =>]@1 => p*q",
    ],
)
def test_display_proofs_end_in_the_embedded_endsequent(text):
    # several operands a side, and children: the final arrangement has work,
    # inside the children too for the last two
    d = decide_sequent(parse_sequent(text))
    assert d.proved
    sn = deep_to_shallow(d.proof)
    dc = shallow_to_display(sn)
    assert dc.conclusion == embed_sequent(sn.conclusion)
    dn = shallow_to_deep(display_to_shallow(dc))
    check_dn_proof(dn, "biill")
    # display structures carry no child origins, so compare without them
    assert norm(dn.conclusion) == norm(sn.conclusion)


# -------------------------------------------------------------- randomized

_subformulas = st.recursive(
    st.one_of(
        st.sampled_from("a b".split()).map(Atom),
        st.just(UnitI()),
        st.just(UnitBot()),
    ),
    lambda ch: st.one_of(
        st.builds(Tensor, ch, ch),
        st.builds(Par, ch, ch),
        st.builds(Lolli, ch, ch),
        st.builds(Excl, ch, ch),
    ),
    max_leaves=3,
)

# wrappers that make a theorem out of any formula
_theorem_makers = st.sampled_from(
    [
        lambda f: Lolli(f, f),
        lambda f: Lolli(Tensor(UnitI(), f), f),
        lambda f: Lolli(f, Par(f, UnitBot())),
        lambda f: Lolli(Tensor(f, Lolli(f, f)), f),
    ]
)


@given(_subformulas, _theorem_makers)
@settings(max_examples=40, deadline=None)
def test_random_theorems_round_trip(sub, make):
    f = make(sub)
    d = decide_formula(f, "biill")
    assert d.status == "proved"
    sn = deep_to_shallow(d.proof)
    check_sn_proof(sn, "biill", expect=endsequent_for(f))
    check_dn_proof(shallow_to_deep(sn), "biill", expect=endsequent_for(f))
    sn2 = display_to_shallow(shallow_to_display(sn))
    check_sn_proof(sn2, "biill", expect=sn.conclusion)
