"""Proof translations between the three calculi: closure, round trips, rejections."""

import ast
import hashlib
import inspect
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fillprover
from fillprover import deep, display, shallow, translate
from fillprover.certs import (
    CheckError,
    ProofNode,
    Witness,
    certificate_text,
    postorder,
    proof_size,
    read_certificate,
)
from fillprover.deep import check_dn_proof, check_separation, endsequent_for
from fillprover.display import check_dc_proof, parse_display, sequent_to_display
from fillprover.formula import Atom, Excl, Lolli, Par, Tensor, UnitBot, UnitI, parse_formula
from fillprover.prover import decide_formula, decide_sequent
from fillprover.sequent import HOLE, Occ, Sequent, parse_sequent
from fillprover.cli import _FILL, main
from fillprover.shallow import check_sn_proof, zero_origins
from fillprover.translate import (
    TranslationError,
    deep_to_shallow,
    display_to_shallow,
    shallow_to_deep,
    shallow_to_display,
)
import parse_reference as reference
from round_trip_corpus import round_trip


def proved(text, logic):
    d = decide_formula(parse_formula(text), logic)
    assert d.status == "proved"
    return d.proof


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
        "8892f2bd916fad6db625d82ccb4f067387e765107de4fba93f3bdcb5a2e4dee6",
        "6bdf78f86f7fde2364fab895aa82f66005e54ddfb34e5bbd51a9a08e542b53d6",
        "74e1fc1044731b315152dc065a2f4e03902cd9aaf6496cd696a4e26e84966a60",
        "6bdf78f86f7fde2364fab895aa82f66005e54ddfb34e5bbd51a9a08e542b53d6",
        "8892f2bd916fad6db625d82ccb4f067387e765107de4fba93f3bdcb5a2e4dee6",
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
        "f8012b2410f271c219594479940556db642b5c0e21bfe3cae8bd5e2d2be4f4a4",
        "d18e2d8f0faf9cd9805196c037e9cbdaf25103e9cdb6404ae1996cfa57983064",
        "bd4aac76f046a19f4b9054f0ab509c266b6306b53f97fb3437e4d2611bf012cf",
        "d18e2d8f0faf9cd9805196c037e9cbdaf25103e9cdb6404ae1996cfa57983064",
        "f8012b2410f271c219594479940556db642b5c0e21bfe3cae8bd5e2d2be4f4a4",
    )),
    _case("a|b -o b|a", "fill", (
        "431c6192ddad2d8336e6d21638f38464410ab10e4acfa2341f9033b6cf6e21e9",
        "bd5f261a8bfa0065593f0b183abbe0123306a98524a7e94cec0389e81f6cfc01",
        "8a4ac3a5c1458b639eae1407af67229dac071def1bcfc490f5f2a44255678bd4",
        "bd5f261a8bfa0065593f0b183abbe0123306a98524a7e94cec0389e81f6cfc01",
        "431c6192ddad2d8336e6d21638f38464410ab10e4acfa2341f9033b6cf6e21e9",
    )),
    _case("(p*(q|r)) -o (p*q)|r", "fill", (
        "22553376fd0527e3a92ce8c3eaba930f33ef32cccc4bcd65a88574ec03e1d36d",
        "3f4534441459c3e3b3114d7fd859b079b880b8289da3bc5a08f6dc2a8bf13324",
        "163696e2b873afa5dab32401ae934e5290b3c211039affa00632d583bdd9084c",
        "1b86c4e8cf0e40dde50227e6d4dc583068f4b02dad63529baa5d36a420974c3c",
        "22553376fd0527e3a92ce8c3eaba930f33ef32cccc4bcd65a88574ec03e1d36d",
    )),
    _case("((b -o bot)|c) -o b -o c", "fill", (
        "189f8de331fb6bea59798fe07b02ef55df6af6cc893cb6155c1baf054e10dd48",
        "650985673ef35795bcdefd7ea2484e09a0be77e0d8c3ab13f10418cec52a6f17",
        "2176b7cc82820ba04b5b8e99dae3e5ede11f10c3642b10ccfb70256c5556afab",
        "e32386c95fbffb8bb4156c044ac60275594dbcd8bd74009df9e9bd30dedcc523",
        "189f8de331fb6bea59798fe07b02ef55df6af6cc893cb6155c1baf054e10dd48",
    )),
    _case("a -o b -o a*b", "fill", (
        "8584a4f1e770ae8d1e02f53d5c898605db0e4dc8422185144f7519776f81072e",
        "8fd88ffea0486b1c8a3b4b00cfafbb5322a22299c4ceff4dfe33899c6a1ded42",
        "1b43d978ca8c7fd468a9aab78ba99f304aee3d7e217641bef5398cabe1176fcd",
        "8fd88ffea0486b1c8a3b4b00cfafbb5322a22299c4ceff4dfe33899c6a1ded42",
        "8584a4f1e770ae8d1e02f53d5c898605db0e4dc8422185144f7519776f81072e",
    )),
    _case("a*(b*c) -o (a*b)*c", "fill", (
        "7c9e98d93a9b39e07418a938c8fd9f52a0b70e1e8ab968d2f5e144af6c143fc0",
        "703f2a0c0600f9d2e152ae359cebbfcc0ef23f0e9a978aa6c70451518132fcd2",
        "f9e58f8e634830118f51c3ddd58258cdf33aa9067c0a167f40a38ce4bc6262a3",
        "f905347e857677e66553ad9e44e7a72e1c28289b2629368e60afa8b34241b935",
        "7c9e98d93a9b39e07418a938c8fd9f52a0b70e1e8ab968d2f5e144af6c143fc0",
    )),
    _case("p -o q|(p -< q)", "biill", (
        "c8528e4cca1641c21c03c0b452b78536b3c194bdcd428ef9123eb54a5d67a023",
        "388c592ff87e0618704ade7cc2933e01cd6a7d8e4c26505c1a063fc783052b36",
        "e0446e7864c21078844885b5864cc6629488fa9af618540042b45cab03cd72c7",
        "388c592ff87e0618704ade7cc2933e01cd6a7d8e4c26505c1a063fc783052b36",
        "c8528e4cca1641c21c03c0b452b78536b3c194bdcd428ef9123eb54a5d67a023",
    )),
    _case("(a -< a) -o bot|bot", "biill", (
        "8ab3b407e7e45e746ff1e61e676c7e16c0ecea83e9f41faefcbba7c867745fa1",
        "99f99a3333caa841d454ad260522162d09dcde9411acddbebbdcc989a5fab3c0",
        "0aba8e179afa9f84663f9994853b2623a56a649761eb01a30cfc9a84049cd9af",
        "1ba2a0361b9c0971f4b803c4172927829e647554c898d4ed21c99795cbeb638a",
        "8ab3b407e7e45e746ff1e61e676c7e16c0ecea83e9f41faefcbba7c867745fa1",
    )),
    _case("(a -< b) -< c -o a -< (b|c)", "biill", (
        "2b16419a75c2c39ec2ebd774c968d430cb6df29c5d9e9f8eea337db82efe43da",
        "e59156d6f4e717d5404c81d8e49bdac7289c6e377474a27cb2783798ee34b949",
        "b615d7fe82ee9a94a4c1aaae0e007ac5e921a9b542ceea2fb5e65f7b0a10b551",
        "e59156d6f4e717d5404c81d8e49bdac7289c6e377474a27cb2783798ee34b949",
        "c855ed5bd564503aa501b8e74be01b7834c8edf4084461765c70e2711240f255",
    )),
    _case("(a|b)|c -o a|((b|c -o d)|e -o d|e)", "fill", (
        "d9af12137f0e3ed03114a33aed2d7ba5963eb9f01203abcde7ffd152666b18cd",
        "b43d082d2cbfc1b86e8fe58f8f4915089043a7fc40955d1234c5d4493b1de3c0",
        "2f6c4911419034cdbe7870a94bba46ecb32608b70968549e85f5af429b363d70",
        "6f9eea6dfb182efc2c53ae6d5fcfc0249b8732a7a473f3263179fe4a03d79213",
        "d9af12137f0e3ed03114a33aed2d7ba5963eb9f01203abcde7ffd152666b18cd",
    )),
    # its dn proof reaches `=> [=>], [p => p]`: two children of one node,
    # both spawned, both of origin 0
    _case("(p -o p)|(1 -o bot)", "fill", (
        "2ddfd3fe0e0d586d0038de074f89ab9b202ec0d034c73b9ee1cdfb11534a7e59",
        "abef67c4deed45b6a1f63bb91970feeb8f72044a5ad82ac39ba415ca27e5f585",
        "14c8c5f520b2a4c89ccba50cc6b362444c5abd44a9792f1b6e9698bde5b153a5",
        "5c4ef20310186922da60927d9718b640005bda2ff843fee5d02d9d6f7433677d",
        "2ddfd3fe0e0d586d0038de074f89ab9b202ec0d034c73b9ee1cdfb11534a7e59",
    )),
]


@pytest.mark.parametrize("text, logic, digests", CLOSURE_CASES)
def test_four_way_closure(text, logic, digests):
    """dn -> sn -> dc -> sn and dn -> sn -> dn, every stage re-checked."""
    f = parse_formula(text)
    dn = proved(text, logic)
    check_dn_proof(dn, expect=endsequent_for(f))
    if logic == "fill":
        check_separation(dn)
    stages = dn, sn, dc, sn2, dn2 = round_trip(dn)
    assert tuple(digest(c, p) for c, p in zip(STAGE_CALCULI, stages)) == digests
    # each stage's certificate reads back, through one formula table for the
    # whole certificate, as the proof it was written from, and as the
    # reference grammars read it text by text
    for calculus, proof in zip(STAGE_CALCULI, stages):
        cert = certificate_text(calculus, "biill", proof)
        assert read_certificate(cert).root == reference.read_proof(cert) == proof
    # the dc leg leaves no trace in the dn proof it ends in
    dn3 = shallow_to_deep(sn2)
    assert certificate_text("dn", "biill", dn3) == certificate_text("dn", "biill", dn2)
    for p in (sn, dc, sn2, dn2):
        assert "cut" not in rules_of(p)
    for p in (sn, dc, sn2):
        assert not repeated_conclusions(p)
    # the sn -> dc translator as built, before `cut_loops` sees it
    assert proof_size(translate._std(sn)) <= 4 * proof_size(sn)


def test_six_spawned_children_check_and_translate_in_seconds():
    """Every child that `lolli_r` spawns has origin 0, so the dn checker's
    lifting meets the six children of this proof's root together, beside
    the hollow copies each branch split leaves: (6!)^2 pairs of
    permutations at the first split, unless a permutation is dropped at
    the first child that cannot lift."""
    text = "(a -o a) | (b -o b) | (c -o c) | (d -o d) | (e -o e) | (f -o f) | (bot*bot*bot*bot*bot*bot)"
    start = time.perf_counter()
    dn = read_certificate(certificate_text("dn", "biill", proved(text, "biill"))).root
    check_dn_proof(dn, expect=endsequent_for(parse_formula(text)))
    sn = deep_to_shallow(dn)
    dn2 = shallow_to_deep(sn)
    assert dn2.conclusion == dn.conclusion
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("text", ["a -o b -o a*b", "((b -o bot)|c) -o b -o c", "(a -< b) -< c -o a -< (b|c)"])
def test_a_dn_certificate_that_names_no_principal_or_child_checks_and_translates(text):
    """Branch and propagation witnesses may leave out the principal and the
    child crossed: the checker tries each instance, and dn -> sn finds them
    from the node's premises.  The certificates here hold `tensor_r`,
    `lolli_l`, `par_l`, `excl_r` and propagations into both kinds of child,
    each written without either field."""
    dn = proved(text, "biill")
    opened: dict = {}
    for node in postorder(dn):
        w = node.witness
        if node.rule in deep.BRANCH_RULES or node.rule in deep.PROP_RULES:
            w = Witness(context=w.context, ctx1=w.ctx1, ctx2=w.ctx2)
        opened[id(node)] = ProofNode(node.rule, node.conclusion, tuple(opened[id(p)] for p in node.premises), w)
    cert = certificate_text("dn", "biill", opened[id(dn)])
    root = read_certificate(cert).root
    assert all(
        n.witness.principal is None and n.witness.child_origin is None
        for n in postorder(root)
        if n.rule in deep.BRANCH_RULES or n.rule in deep.PROP_RULES
    )
    check_dn_proof(root, expect=dn.conclusion)
    # every stage after dn is the one the full witnesses give
    assert round_trip(root)[1:] == round_trip(dn)[1:]


def test_a_wrapper_only_one_premise_of_a_branch_has_stays_as_it_is():
    """`tensor_r` fires two levels down in `a => [b => [=> a*b]]`.  Its
    first premise keeps `a` at the root and its second keeps nothing there,
    so displaying the redex wraps the root for the first premise only, and
    that wrapper sits inside the wrapper both premises build for the child
    between.  Merging the two keeps the inner wrapper as it is."""
    s = parse_sequent("a => [b => [=> a*b]]")
    dn = decide_sequent(s).proof
    assert dn.rule == "tensor_r"
    assert (dn.witness.ctx1, dn.witness.ctx2) == (parse_sequent("a => [=> _]"), parse_sequent("=> [b => _]"))
    sn = deep_to_shallow(dn)
    check_sn_proof(sn, expect=s)
    assert proof_size(sn) == 26


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
    check_dn_proof(dn, expect=parse_sequent(conclusion))
    stages = round_trip(dn)
    assert [proof_size(p) for p in stages] == [2, 7, 15, 7, 2]
    assert tuple(digest(c, p) for c, p in zip(STAGE_CALCULI, stages)) == digests
    # each stage's certificate reads back, through one formula table for the
    # whole certificate, as the proof it was written from, and as the
    # reference grammars read it text by text
    for calculus, proof in zip(STAGE_CALCULI, stages):
        cert = certificate_text(calculus, "biill", proof)
        assert read_certificate(cert).root == reference.read_proof(cert) == proof


def test_frozen_translation_sizes():
    # determinism pins; recheck before touching either translator
    dn = proved("a -o a", "fill")
    sn = deep_to_shallow(dn)
    dc = shallow_to_display(sn)
    assert (proof_size(dn), proof_size(sn), proof_size(dc)) == (2, 3, 4)
    assert proof_size(display_to_shallow(dc)) == 3
    assert proof_size(shallow_to_deep(sn)) == 2
    sn = deep_to_shallow(proved("a*b -o a*b", "fill"))
    assert proof_size(sn) == 6
    assert proof_size(shallow_to_deep(sn)) == 5
    dc = shallow_to_display(deep_to_shallow(proved("a*b -o b*a", "fill")))
    assert proof_size(dc) == 8
    assert proof_size(display_to_shallow(dc)) == 6


def large_dc_certificate():
    dc = shallow_to_display(deep_to_shallow(proved("a -o b -o c -o d -o ((a*b)*c)*d", "fill")))
    return dc, certificate_text("dc", "fill", dc)


def test_certificates_are_written_compact():
    dc, text = large_dc_certificate()
    assert proof_size(dc) > 100 and len(text.encode()) < 64 * 1024


def test_indented_certificates_still_read():
    _, text = large_dc_certificate()
    indented = json.dumps(json.loads(text), indent=2)
    assert read_certificate(indented).root == read_certificate(text).root


def test_one_node_proofs_stay_one_node():
    dn = proved("1", "fill")
    sn = deep_to_shallow(dn)
    assert sn.rule == "i_r" and not sn.premises
    dn2 = shallow_to_deep(sn)
    assert dn2.rule == "i_r" and not dn2.premises


# ------------------------------------------------------- endpoint behaviour

def test_deep_to_shallow_output_leaves_fill():
    """Displaying a redex in a child parks what the tree has beside it in a
    left wrapper, so shallow output of a FILL proof can be a biill-calculus
    artifact: here `a` waits at the root while `b` joins `a*b` in a child."""
    dn = proved("a -o b -o a*b", "fill")
    sn = deep_to_shallow(dn)
    check_sn_proof(sn)
    assert rules_of(sn) & {"wrap_left", "dissolve_left", "pull_left"}
    with pytest.raises(CheckError, match="lies outside FILL"):
        _FILL["sn"](sn)


def test_deep_to_shallow_output_of_most_fill_closure_cases_stays_in_fill():
    """A context level with nothing beside the redex gets no wrapper, so
    most FILL proofs translate to sn proofs that the FILL fragment pass
    accepts: 7 of the 9 FILL formulas of the benchmark's pipeline, which
    are the first FILL cases here.  A left wrapper stays where a child's
    redex has material beside it."""
    outside = set()
    for case in CLOSURE_CASES:
        text, logic, _ = case.values
        if logic == "fill":
            try:
                _FILL["sn"](deep_to_shallow(proved(text, logic)))
            except CheckError:
                outside.add(text)
    assert outside == {
        "((b -o bot)|c) -o b -o c",
        "a -o b -o a*b",
        "(a|b)|c -o a|((b|c -o d)|e -o d|e)",
        "(p -o p)|(1 -o bot)",
    }


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
    monkeypatch.setattr(translate, "_std", lambda node: ProofNode("id", sequent_to_display(node.conclusion)))
    sn = deep_to_shallow(proved("a*b -o b*a", "fill"))
    with pytest.raises(TranslationError, match="sn -> dc"):
        shallow_to_display(sn)
    src = tmp_path / "sn.json"
    out = tmp_path / "dc.json"
    src.write_text(certificate_text("sn", "biill", sn))
    capsys.readouterr()
    assert main(["translate", str(src), "--calculus", "dc", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # the target checker names the node it rejects
    assert err.startswith("translation failed: sn -> dc: output rejected: at root (id): ") and err.count("\n") == 1
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
    "parse_context": "reads witness context text on its own; certificates read it with their formula table",
    "tau_a": "the exclusion reading of a sequent, the dual of tau_s",
    "check_separation": "tells whether a dn proof stays in FILL, by raising or not",
    "sequent_node_count": "the node count of a nested sequent",
    "connective_count": "the size measure the corpus tests bound formulas by",
    "decide_sequent": "the prover's entry point for a sequent goal, beside decide_formula",
    "sn_rule_applies": "the sn schema test of one rule instance, origins ignored",
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


def functions_where(fits) -> set:
    """`module.function` of every package function holding an AST node that `fits`."""
    sites = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if fits(child):
                sites.add(where)
            visit(child, where)

    for path in sorted(Path(fillprover.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sites


def test_only_stack_room_sets_the_recursion_limit():
    # `certs.stack_room` sizes the limit for a block and puts it back; any
    # other site is a limit raised by hand
    def names_it(node):
        name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
        return name == "setrecursionlimit"

    assert functions_where(names_it) == {"certs.stack_room"}


def test_stack_room_is_entered_only_where_the_walk_recurses():
    # the three checkers run on `certs.check_tree` and dn -> sn folds over
    # the proof in postorder; what is left recurses on purpose: the search,
    # the JSON encoder and decoder, and three translators (sn -> dc and
    # dc -> sn for their recursively hashed structures as well)
    def enters_it(node):
        return isinstance(node, ast.With) and any(
            getattr(getattr(item.context_expr, "func", None), "id", None) == "stack_room" for item in node.items
        )

    assert functions_where(enters_it) == {
        "prover._search",
        "certs.certificate_text",
        "certs.read_certificate",
        "translate.shallow_to_display",
        "translate.display_to_shallow",
        "translate.shallow_to_deep",
    }


def test_no_checker_or_translator_takes_a_logic():
    # FILL is BiILL plus the fragment pass (`certs.check_fragment`), which
    # the command line runs; no checker or translator has a FILL mode
    for module in (deep, display, shallow, translate):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                assert "logic" not in inspect.signature(fn).parameters, f"{module.__name__}.{name}"


def test_5000_step_sn_and_dc_chains_check_without_raising_the_recursion_limit(monkeypatch):
    # all three checkers walk the proof over an explicit stack, and dn -> sn
    # folds over it in postorder, so none asks for room in proportion to
    # the proof
    n = 5000
    flat, nested = parse_sequent("a => a"), parse_sequent("=> [a => a]")

    def sn_chain(leaf):
        for i in reversed(range(n)):
            leaf = ProofNode("wrap_right" if i % 2 else "dissolve_right", nested if i % 2 else flat, (leaf,))
        return leaf

    ab, ba = parse_display("a, b |- a*b"), parse_display("b, a |- a*b")
    dc = ProofNode("tensor_r", ab, (ProofNode("id", parse_display("a |- a")), ProofNode("id", parse_display("b |- b"))))
    for i in reversed(range(n)):
        dc = ProofNode("com_l", ba if i % 2 else ab, (dc,))

    def refuse(limit):
        raise AssertionError(f"recursion limit raised to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    sn = sn_chain(ProofNode("id", flat))
    check_sn_proof(sn, expect=flat)
    check_dc_proof(dc, expect=ab)
    _FILL["sn"](sn)  # both chains stay in FILL, and the fragment pass walks them too
    _FILL["dc"](dc)
    assert proof_size(sn) == n + 1 and proof_size(dc) == n + 3
    # a defect at the far end is still found, and named as before
    with pytest.raises(CheckError, match=r"^rule wrap_right does not derive '=> \[a => a\]' from its premises$"):
        check_sn_proof(sn_chain(ProofNode("id", parse_sequent("b => b"))))
    # a dn chain deeper than the default limit: 1,200 i_l steps
    m = 1200
    dn = ProofNode("id", flat, (), Witness(context=HOLE, principal=Atom("a")))
    for k in range(1, m + 1):
        dn = ProofNode("i_l", parse_sequent("1, " * k + "a => a"), (dn,), Witness(context=HOLE, principal=UnitI()))
    check_dn_proof(dn, expect=dn.conclusion)
    assert proof_size(deep_to_shallow(dn)) == m + 1


def balanced_tensor(lo, hi):
    """The sn proof of a_lo, ..., a_(hi-1) => their balanced tensor."""
    if hi - lo == 1:
        occ = Occ(Atom(f"a{lo}"))
        return ProofNode("id", Sequent((occ,), (occ,)))
    p1, p2 = balanced_tensor(lo, (lo + hi) // 2), balanced_tensor((lo + hi) // 2, hi)
    f = Tensor(p1.conclusion.right[0].formula, p2.conclusion.right[0].formula)
    return ProofNode("tensor_r", Sequent(p1.conclusion.left + p2.conclusion.left, (Occ(f),)), (p1, p2))


def test_sn_to_dc_of_a_400_atom_sequent():
    # a side of n operands is a comma chain n levels deep, which display
    # structures hash and compare recursively: each stage of sn -> dc,
    # checks included, runs inside the translator's stack room; dc -> sn
    # reads each structure its conclusions share once, and each comma chain
    # in one pass
    sn = balanced_tensor(0, 400)
    dc = shallow_to_display(sn)
    assert rules_of(dc) >= {"id", "tensor_r"}
    start = time.perf_counter()
    back = display_to_shallow(dc)
    assert time.perf_counter() - start < 1
    assert back.conclusion == sn.conclusion and proof_size(back) == proof_size(sn)


def test_cut_bearing_proofs_rejected():
    ida = ProofNode("id", parse_sequent("a => a"))
    snc = ProofNode("cut", parse_sequent("a => a"), (ida, ida))
    check_sn_proof(snc)  # the checker itself allows cut
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
    check_dc_proof(dcc)
    with pytest.raises(ValueError, match="cut"):
        display_to_shallow(dcc)


def test_translations_preserve_endsequent_exactly():
    f = parse_formula("((p -o q)|r) -o p -o q|r")
    dn = proved("((p -o q)|r) -o p -o q|r", "fill")
    sn = deep_to_shallow(dn)
    assert zero_origins(sn.conclusion) == zero_origins(endsequent_for(f))
    dn2 = shallow_to_deep(sn)
    assert zero_origins(dn2.conclusion) == zero_origins(endsequent_for(f))
    dc = shallow_to_display(sn)
    assert dc.conclusion == sequent_to_display(sn.conclusion)


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
    assert dc.conclusion == sequent_to_display(sn.conclusion)
    dn = shallow_to_deep(display_to_shallow(dc))
    check_dn_proof(dn)
    # display structures carry no child origins, so compare without them
    assert zero_origins(dn.conclusion) == zero_origins(sn.conclusion)


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
    check_sn_proof(sn, expect=endsequent_for(f))
    check_dn_proof(shallow_to_deep(sn), expect=endsequent_for(f))
    sn2 = display_to_shallow(shallow_to_display(sn))
    check_sn_proof(sn2, expect=sn.conclusion)
