"""Proof translations between the three calculi: closure, round trips, rejections."""

import ast
import hashlib
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

def _case(text, logic, digests):
    return pytest.param(text, logic, digests, id=f"{text}-{logic}")


def digest(calculus, proof):
    return hashlib.sha256(certificate_text(calculus, "biill", proof).encode()).hexdigest()


STAGE_CALCULI = ("dn", "sn", "dc", "sn", "dn")

# formula, logic, and the SHA-256 of the certificate text of each stage of
# dn -> sn -> dc -> sn and sn -> dn: a translator that builds any other proof
# fails here, even when its output still checks
CLOSURE_CASES = [
    _case("a -o a", "fill", (
        "d630a5335e21b765b86127002bc043e61727fa96e98710ae5d30029e3c95ca11",
        "672313ea8b6246def31461002a5c937ecfef6dd6e7f85b7953c54b2a417b3826",
        "74e1fc1044731b315152dc065a2f4e03902cd9aaf6496cd696a4e26e84966a60",
        "6bdf78f86f7fde2364fab895aa82f66005e54ddfb34e5bbd51a9a08e542b53d6",
        "34a6ebca2f204017480222753d9daa186a07c4862ba4a32622a27669eb61b1d9",
    )),
    _case("1", "fill", (
        "9c0f131729d21c7138d512bf5613c4db9afcfd23215c1242698c9334fe3253e4",
        "c66de1265e48987031bb8f0ab04cf5075f46f3b82a763cc2696d4dacbae1c750",
        "370c0112a377404ee0fdc8479aefc5342a9e244f7bdc27a2a5d96e829e56d7a8",
        "c66de1265e48987031bb8f0ab04cf5075f46f3b82a763cc2696d4dacbae1c750",
        "9c0f131729d21c7138d512bf5613c4db9afcfd23215c1242698c9334fe3253e4",
    )),
    _case("bot|1", "fill", (
        "7416d46a79b0d1b18ea038bdbedd9e49abe6a84af669c3d241e546150fc1afac",
        "7115f7483895c9f5e5d767445bab9df9fa3a103c3269ebc46c91e051c30d34b2",
        "4d693f3d1fd56f3a4bc8e2893016ce6e4790ed59dc0dd514558af3fc62c150b9",
        "2d3dd4cc89a08359b001749a6335adc17ac80ad6b1d4feed8a516414c4aa418e",
        "7416d46a79b0d1b18ea038bdbedd9e49abe6a84af669c3d241e546150fc1afac",
    )),
    _case("a*b -o b*a", "fill", (
        "70f8923a7cef962198dca4216a6f8a17eb69791029ed5b8582f21638b5fb317a",
        "4f8335b202dd1b96611e8b5958e931ee3564138332e915807ef09f82dd3ba564",
        "a32a0e4973b312e290aeab0d87798cec1c0f424ed06d01b4975e875b60f64e22",
        "47a665e29d9d41ae28ea24ab6a0a1303afd28d5b2510b288c2a7a54615a445eb",
        "bf6c9c2fae42c0b9658a04af06c05b6ade60166fab92e8b5c498c2ba5e816f0d",
    )),
    _case("a|b -o b|a", "fill", (
        "69011511fc82d0c0c4a8e62f1dd927b751d7e1ce9bd167921c5538d58a7d6ae3",
        "3d4fcef35c6a7b879eb8fa7960744cf19394a0c00e01825617cc6b079a7e5844",
        "ddc76a379a6b399c195ab773c03768fc97c96477c0000dcf8a19a1bd48ff500c",
        "8eed2c10d53971489fba884863bfc9becd1ab4c891850f605b71d2803ed7ab52",
        "0fe16b519420f240bd4990af8059c78046cb03aab98078e4db34b75b86c4c668",
    )),
    _case("(p*(q|r)) -o (p*q)|r", "fill", (
        "76413ae6522d0617c17a552705418a33bbd2893868720575f9af93b446cd4e64",
        "15e6ed65e856576e98230f3db1f2c11133f8dcf8e70c66b5a03a0961e9f3b934",
        "0c7e534d0fab53b97a47084ec3a8f0ccc6ddd2646b501de99576f0ea3cc8358c",
        "f82de6112de488dabf5e6c639afdd749aca0d7cc41086068da7446b6434f628a",
        "6fa6ab70203e482405f6529b87367b073537ebf961bc4f05c43a7919bf270a04",
    )),
    _case("((b -o bot)|c) -o b -o c", "fill", (
        "a97d17ddfac866c3603a5fec34678ba347cef118b26cb2d59e4ea0ef8ce1b220",
        "01ca3054a20ba8ead4ffff354737ed04163551b87fc86dc1cb30ba519c642120",
        "4ba033b155b1b0f58eadd6c199e2d3cbf31e77fcc218acd5d88641cb8a8e3dc5",
        "e38672d936ee65fe29b1f553538a514c46a88da96426c8b83396894b23a85ddf",
        "eacce44c70abfd12521512c34254bb72ce3ffe5f7b876cad3e827c9494e50a82",
    )),
    _case("a -o b -o a*b", "fill", (
        "853d74ffe39f6213011dbf164d23d1dbad83a15d50918fba07ad3c520bfeca6e",
        "b444dbfff04ea387d7706ddbe63c88a71f7189386cea6d93d391e1ea9bf6a283",
        "0f0b5bdb936f53e91c07d89044df447831124e41488c82085dff80c2d88c92f5",
        "4bdb2b5c0abe686e46111c484c3701bf3cfc7c3b00e5a8a430e881f96cee0286",
        "26c780b2cc338df652effe7f916307ccea4341571aba4d989b6b785f87db2950",
    )),
    _case("a*(b*c) -o (a*b)*c", "fill", (
        "d644a77b3a1b35bb93dcfb2be10e7fc5da2112386128761fa30f99f4210eb164",
        "e5bbc6c529a81eb44dbe87df49acff7d0332473067fdca25f13016aff9fc3227",
        "641abefd98544bb4f0196fa5c9afb65257c6dc8ba37e6240c694e1b8903a7309",
        "c714e9782171bfbb678315542a851fe37dfd4b365848d4f71a2791a75e8b6653",
        "e23dd5595746bed5a487c28fc90b7435a00471e21a23d9c0a08de70c4bbc0fd0",
    )),
    _case("p -o q|(p -< q)", "biill", (
        "33a8043b550392e1650b25dd916b35cb2537097816fa9d9b72cda1785a14b0bf",
        "5aacc962cc01abe2ecfa9fb3a5d87e693aadbc6a7f1a66784a8cab1aacd77600",
        "ec5b07d3017988d641c7b6e57948200313c8821b33a64b5398989584d8217f47",
        "a915c25fd7048ea3add308520104edcf0840dafa86a8244770a74b00ff9e2834",
        "d10564439952be2a220224313786ef31c4f4c16dff51f889953469d50dd89417",
    )),
    _case("(a -< a) -o bot|bot", "biill", (
        "72165a640e517d376bfb298d78c648994aae7033fa18a60ec25974eef9c03164",
        "8da6becb5fdbb62d26bfb81d851517775ebbca0a7a4571376efb15c0dd291f99",
        "0aba8e179afa9f84663f9994853b2623a56a649761eb01a30cfc9a84049cd9af",
        "1ba2a0361b9c0971f4b803c4172927829e647554c898d4ed21c99795cbeb638a",
        "bf704b99d05ed0a074e769d9a1faa10aaf354b93eef96bed1f5f7ed0dab3cfce",
    )),
    _case("(a -< b) -< c -o a -< (b|c)", "biill", (
        "8130ffa8e3037bdb37ca95d0ed5ad62e7762512f60f23ca1482a4caa19796e72",
        "6edcd09aff7074c3983b16ab767fb4f47bcab88141accb7b602dc4f6b2f4bb7b",
        "39e19db384414815b80236b74a05350e3483f18315574e88cbf0c6516167c778",
        "b60d713fb939464779be0b0ded9feffd100a43977223385c4a4e777385d7f090",
        "c32f86126b6da290735278348466e98c8ae1bac874f5ca07b6b5d61264c29705",
    )),
    _case("(a|b)|c -o a|((b|c -o d)|e -o d|e)", "fill", (
        "b36dbf86f44f5a2d13adbfc401630fb3838da159967549adc37fd0516f2712b7",
        "cf6fc14e262ae551cc332826dc5e23f67fabed9cbcccf8d0d59fcfa5598b503a",
        "93cc7a100fa6046e14e3f6295e7b1ce28be677628257c5a240f2e8b10e74bee5",
        "9aa4d5770ec36d106ced10ea70bb7bfdbc195a4fa487aebbfc4fbcf27e2ed24e",
        "88319fb98105372a39c36452fc6243018a8ba6331b520d01085bc782394aa8a0",
    )),
]


def round_trip(dn, logic):
    """The stages dn, sn, dc, sn2 and dn2 of the round trip, every one
    re-checked against the endsequent it must have."""
    sn = deep_to_shallow(dn, logic)
    check_sn_proof(sn, "biill", expect=dn.conclusion)
    dc = shallow_to_display(sn)
    check_dc_proof(dc, "biill", expect=embed_sequent(sn.conclusion))
    sn2 = display_to_shallow(dc)
    check_sn_proof(sn2, "biill", expect=sn.conclusion)
    dn2 = shallow_to_deep(sn)
    check_dn_proof(dn2, "biill", expect=dn.conclusion)
    return dn, sn, dc, sn2, dn2


@pytest.mark.parametrize("text, logic, digests", CLOSURE_CASES)
def test_four_way_closure(text, logic, digests):
    """dn -> sn -> dc -> sn and dn -> sn -> dn, every stage re-checked."""
    f = parse_formula(text)
    dn = proved(text, logic)
    check_dn_proof(dn, logic, expect=endsequent_for(f))
    stages = dn, sn, dc, sn2, dn2 = round_trip(dn, logic)
    assert tuple(digest(c, p) for c, p in zip(STAGE_CALCULI, stages)) == digests
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


def outward_certificate(rule, conclusion, premise):
    """A two-node dn proof: `rule` moves `a` out of child 1 onto the root,
    over an identity axiom."""
    leaf = {"rule": "id", "conclusion": premise, "witness": {"context": "_", "principal": "a"}, "premises": []}
    proof = {
        "rule": rule,
        "conclusion": conclusion,
        "witness": {"context": "_", "principal": "a", "child_origin": 1},
        "premises": [leaf],
    }
    return json.dumps({"calculus": "dn", "logic": "biill", "endsequent": conclusion, "proof": proof})


@pytest.mark.parametrize(
    "rule, conclusion, premise, digests",
    [
        (
            "prop_right_out", "a => [=> a]@1", "a => a, [=>]@1",
            (
                "702dc2da8e7f04394f5d0dcaa3d63a39da3ae84c17dd02fb792234d74fdbfe07",
                "007d634a33fd614d2546d9ce92e1b1cf21108bc0ad15020a000bf73fe368d090",
                "4a928905cb42ec74d34d04c081a394ad253b37604d03867f05eb6a7888ff6238",
                "ac3e1ef340bee23d9aad4f798aa6cc9e983983c9897ca6a61bfc0905f30a4a2f",
                "702dc2da8e7f04394f5d0dcaa3d63a39da3ae84c17dd02fb792234d74fdbfe07",
            ),
        ),
        (
            "prop_left_out", "[a =>]@1 => a", "a, [=>]@1 => a",
            (
                "0c403849236c3e7d64d7e37135a6550358ef5c559a4c76d8e6a3edee81591f88",
                "8d0e035c4c9b0eea911fbb9a62e86eb9ab3a2064a5c6b84d15cbb58ae44a8e62",
                "500f737b7bb36739b74ab26d93c2dfda771ce513e9852540838353907e97644c",
                "417dedd3b705bbdd7088e1248194f2502022d187b586e3e96b821711a2775581",
                "0c403849236c3e7d64d7e37135a6550358ef5c559a4c76d8e6a3edee81591f88",
            ),
        ),
    ],
    ids=["prop_right_out", "prop_left_out"],
)
def test_outward_propagations_round_trip(rule, conclusion, premise, digests):
    # the only proofs in the suite whose dn -> sn leg moves material out of
    # a child: the recipes for both outward propagations run here
    dn = read_certificate(outward_certificate(rule, conclusion, premise)).root
    check_dn_proof(dn, "biill", expect=parse_sequent(conclusion))
    stages = round_trip(dn, "biill")
    assert [proof_size(p) for p in stages] == [2, 7, 15, 7, 2]
    assert tuple(digest(c, p) for c, p in zip(STAGE_CALCULI, stages)) == digests


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


# module-level functions that nothing in the package calls, kept on purpose
UNCALLED = {
    "parse_structure": "reads display structure text, as parse_display reads a sequent",
    "tau_a": "the exclusion reading of a sequent, the dual of tau_s",
    "check_separation": "tells whether a dn proof stays in FILL, by raising or not",
    "sequent_node_count": "the node count of a nested sequent, beside formula_occurrence_count",
    "connective_count": "the size measure the corpus tests bound formulas by",
    "decide_sequent": "the prover's entry point for a sequent goal, beside decide_formula",
}


def test_every_function_is_called():
    # a function is dead unless the package refers to it outside its own body
    tops = [
        (top, {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(top)})
        for path in sorted(Path(fillprover.__file__).parent.glob("*.py"))
        for top in ast.parse(path.read_text()).body
    ]
    for fn, _ in tops:
        if isinstance(fn, ast.FunctionDef) and fn.name not in UNCALLED:
            assert any(fn.name in names for top, names in tops if top is not fn), f"{fn.name} is never called"


def test_the_package_holds_no_assertions():
    # python -O strips assertions, so no invariant may rest on one
    for path in sorted(Path(fillprover.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not isinstance(node, ast.Assert), where
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert not (isinstance(exc, ast.Name) and exc.id == "AssertionError"), where


def test_only_stack_room_sets_the_recursion_limit():
    # `certs.stack_room` sizes the limit for a block and puts it back; any
    # other site is a limit raised by hand
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
    assert sites == {"certs.stack_room"}


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
