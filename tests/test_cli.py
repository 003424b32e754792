import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fillprover
from fillprover import prover
from fillprover.certs import CheckError, ProofNode, Witness, certificate_text, parse_context, proof_size, read_certificate
from fillprover.cli import CORPUS_CAP, corpus_formulas, corpus_record, main
from fillprover.deep import check_dn_proof, check_separation, endsequent_for
from fillprover.display import check_dc_proof
from fillprover.formula import connective_count, formula_text, parse_formula
from fillprover.prover import branch_bound, decide_formula
from fillprover.sequent import Sequent, parse_sequent
from fillprover.shallow import check_sn_proof
from fillprover.translate import deep_to_shallow
from test_certs import json_text
from test_translate import balanced_tensor

BIERMAN = "(a|b)|c -o a | ((b|c -o d)|e -o d|e)"
DATA = Path(__file__).parent / "data"


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code


# -------------------------------------------------- prove

def test_prove_writes_a_checkable_certificate(tmp_path):
    out = tmp_path / "cert.json"
    assert run("prove", "--logic", "fill", BIERMAN, "--out", str(out)) == 0
    cert = read_certificate(out.read_text())
    assert cert.calculus == "dn" and cert.logic == "fill"
    check_dn_proof(cert.root)
    check_separation(cert.root)


def test_prove_to_stdout(capsys):
    assert run("prove", "p -o p") == 0
    cert = read_certificate(capsys.readouterr().out)
    assert cert.endsequent == "=> p -o p"


def test_prove_unprovable_is_exit_1(capsys):
    assert run("prove", "--logic", "fill", "p -o q") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Unprovable" in captured.err


def test_prove_writes_no_child_origin(tmp_path):
    # the child that lolli_r spawns has origin 0, which the text omits
    out = tmp_path / "cert.json"
    assert run("prove", "a -o a", "--out", str(out)) == 0
    text = out.read_text()
    assert "[a => a]" in text and "@" not in text


def test_prove_reproduces_the_golden_bierman_certificate(tmp_path):
    out = tmp_path / "cert.json"
    assert run("prove", "--logic", "fill", BIERMAN, "--out", str(out)) == 0
    assert out.read_bytes() == (DATA / "bierman.fill.dn.json").read_bytes()


@pytest.mark.parametrize(
    "formula, line",
    [
        ("a -o a*a", "Unprovable: atom a occurs 1 time negatively, 2 times positively"),
        ("b*a*a -o a*c", "Unprovable: atom a occurs 2 times negatively, 1 time positively"),
        ("(p -< q) -o p", "Unprovable: atom q occurs 0 times negatively, 1 time positively"),
        ("(p -o q|r) -o (p -o q)|r", "Unprovable"),
    ],
)
def test_prove_names_the_first_unbalanced_atom(capsys, formula, line):
    assert run("prove", formula) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("formula", ["1|1", "a*b -o a|b"])
def test_prove_names_a_leaf_count_refutation(capsys, formula):
    # balanced atoms, but two positive leaves and no branching connective:
    # deficit 1, refuted before any state is visited
    assert run("prove", formula) == 1
    assert capsys.readouterr().err == "Unprovable: 2 positive atoms and units, 0 branching connectives\n"
    assert decide_formula(parse_formula(formula)).visited == 0


@pytest.mark.parametrize(
    "formula, line",
    [
        ("p -o q*(q -o p)", "Unprovable: false in the 4-element Sugihara monoid at p=1, q=-1"),
        ("p*(p -o 1)", "Unprovable: false in the 4-element Sugihara monoid at p=-1"),
        ("bot*(1|1)", "Unprovable: false in the 4-element Sugihara monoid"),
    ],
)
def test_prove_names_a_countermodel(capsys, formula, line):
    # balanced atoms and deficit 0, so the counts allow a proof, but a
    # valuation into S4 takes the formula below 1: refuted before any state
    # is visited, and refuted by the search too
    assert run("prove", formula) == 1
    assert capsys.readouterr().err == line + "\n"
    f = parse_formula(formula)
    assert decide_formula(f).visited == 0
    assert prover._search(endsequent_for(f), f).status == "refuted"


def test_prove_non_fill_formula_is_exit_2():
    assert run("prove", "--logic", "fill", "p -< q") == 2


def test_prove_parse_error_is_exit_2():
    assert run("prove", "p -o") == 2


# -------------------------------------------------- check

def test_check_accepts_and_asserts_calculus(tmp_path):
    out = tmp_path / "cert.json"
    run("prove", "--logic", "fill", "a * (b|c) -o (a*b) | c", "--out", str(out))
    assert run("check", str(out)) == 0
    assert run("check", str(out), "--calculus", "dn") == 0
    assert run("check", str(out), "--calculus", "sn") == 1


def test_check_corrupted_certificate_is_exit_1(tmp_path):
    out = tmp_path / "cert.json"
    run("prove", "--logic", "fill", "a * (b|c) -o (a*b) | c", "--out", str(out))
    data = json.loads(out.read_text())
    data["proof"]["rule"] = "i_r"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run("check", str(bad)) == 1


def test_check_malformed_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("check", str(bad)) == 2
    assert run("check", str(tmp_path / "missing.json")) == 2


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("witness", "child_origin", "x"),
        ("witness", "context", 5),
        ("witness", "principal", ["a"]),
        ("witness", "ctx1", None),
        ("witness", "side", "left"),
        ("node", "conclusion", 7),
        ("node", "premises", 5),
        ("node", "rule", 1),
        ("cert", "endsequent", 7),
    ],
)
def test_check_wrongly_typed_field_is_malformed(tmp_path, capsys, where, key, value):
    path = tmp_path / "cert.json"
    assert run("prove", "a -o a", "--out", str(path)) == 0
    cert = json.loads(path.read_text())
    {"cert": cert, "node": cert["proof"], "witness": cert["proof"]["witness"]}[where][key] = value
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run("check", str(path)) == 2
    assert "malformed certificate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, raw, prefix",
    [
        (None, "(" * 40_000 + "a" + ")" * 40_000, "parse error: "),
        ("conclusion", json.dumps("=> " + "(" * 50_000 + "a" + ")" * 50_000), "malformed certificate: "),
        ("proof", "[" * 60_000 + "]" * 60_000, "malformed certificate: "),
        ("conclusion", json.dumps("=> [a => a]@" + "1" * 5_000), "malformed certificate: "),
        ("child_origin", "7" * 5_000, "malformed certificate: "),
        (None, "*".join(["a"] * 40_000), "parse error: "),
        (None, " -o ".join(["a"] * 40_000), "parse error: "),
    ],
    ids=[
        "formula-parens",
        "conclusion-parens",
        "proof-arrays",
        "label-digits",
        "child_origin-digits",
        "formula-tensors",
        "formula-arrows",
    ],
)
def test_untrusted_text_is_a_one_line_exit_2(tmp_path, capsys, key, raw, prefix):
    """`raw` is the formula to prove, or the JSON text put in place of `key`
    in the certificate of `a -o a`."""
    argv = ["prove", raw]
    if key is not None:
        path = tmp_path / "cert.json"
        assert run("prove", "a -o a", "--out", str(path)) == 0
        cert = json.loads(path.read_text())
        {"proof": cert, "conclusion": cert["proof"], "child_origin": cert["proof"]["witness"]}[key][key] = "RAW"
        path.write_text(json.dumps(cert).replace('"RAW"', raw))
        argv = ["check", str(path)]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert len(err.encode()) < 1_000


@pytest.mark.parametrize(
    "calculus, rule, conclusion, code, prefix",
    [
        ("dc", "id", ", ".join(["a"] * 40_000) + " |- a", 2, "malformed certificate: "),
        ("sn", "id", ", ".join(["a"] * 40_000) + " => a", 1, "check failed: "),
        ("dn", "x" * 100_000, "a => a", 1, "check failed: "),
        ("sn", "x" * 100_000, "a => a", 1, "check failed: "),
        ("dc", "x" * 100_000, "a |- a", 1, "check failed: "),
    ],
    ids=["dc-commas", "sn-atoms", "dn-rule", "sn-rule", "dc-rule"],
)
def test_huge_one_node_certificate_gets_one_short_line(tmp_path, capsys, calculus, rule, conclusion, code, prefix):
    # a whole certificate, where the test above edits a dn one: a 40,000-long
    # comma chain in a display structure, or a sequent or rule name that no
    # message may quote in full
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"calculus": calculus, "proof": {"rule": rule, "conclusion": conclusion}}))
    capsys.readouterr()
    assert run("check", str(path)) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert len(err.encode()) < 1_000


@pytest.mark.parametrize("calculus", ["sn", "dc"])
def test_a_defect_atop_a_5000_step_chain_gets_one_short_line(tmp_path, capsys, calculus):
    # steps alternate between two conclusions, and the top one is no axiom:
    # the failing node's path of 4,999 or 5,000 steps prints as one run
    steps = {
        "sn": (("dissolve_right", "a => a"), ("wrap_right", "=> [a => a]"), "b => b"),
        "dc": (("com_l", "a, b |- a*b"), ("com_l", "b, a |- a*b"), "a, b |- a*b"),
    }[calculus]
    chain = "".join('{"rule": "%s", "conclusion": "%s", "premises": [' % steps[i % 2] for i in range(5000))
    top = '{"rule": "id", "conclusion": "%s"}' % steps[2]
    path = tmp_path / "cert.json"
    path.write_text(f'{{"calculus": "{calculus}", "proof": ' + chain + top + "]}" * 5000 + "}")
    capsys.readouterr()
    assert run("check", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith({"sn": "check failed: at 0*4999 (wrap_right): ", "dc": "check failed: at 0*5000 (id): "}[calculus])
    assert err.count("\n") == 1 and len(err.encode()) < 1_000


def test_check_json_nested_past_the_c_stack_is_exit_2(tmp_path):
    # in a child process: a C stack overflow would kill the interpreter
    path = tmp_path / "cert.json"
    path.write_text('{"calculus": "dn", "proof": ' + "[" * 1_000_000 + "]" * 1_000_000 + "}")
    env = {**os.environ, "PYTHONPATH": str(Path(fillprover.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "fillprover.cli", "check", str(path)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 2
    assert done.stderr.startswith("malformed certificate: ")


def test_check_deep_proof_is_rejected_not_a_crash(tmp_path):
    # in a child process: a C stack overflow would kill the interpreter;
    # the proof is a chain of 20,000 i_l nodes whose premises do not match
    node = '{"rule": "i_l", "conclusion": "1, a => a", "premises": ['
    leaf = '{"rule": "id", "conclusion": "a => a"}'
    path = tmp_path / "cert.json"
    path.write_text('{"calculus": "dn", "proof": ' + node * 20_000 + leaf + "]}" * 20_000 + "}")
    env = {**os.environ, "PYTHONPATH": str(Path(fillprover.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "fillprover.cli", "check", str(path)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 1
    assert done.stderr.startswith("check failed: ")


def biill_only_certificates(tmp_path):
    """A certificate of the BiILL-only theorem `p -o q|(p -< q)` in each
    calculus, by path."""
    path = {c: tmp_path / f"{c}.json" for c in ("dn", "sn", "dc")}
    assert run("prove", "--logic", "biill", "p -o q|(p -< q)", "--out", str(path["dn"])) == 0
    assert run("translate", str(path["dn"]), "--calculus", "sn", "--out", str(path["sn"])) == 0
    assert run("translate", str(path["sn"]), "--calculus", "dc", "--out", str(path["dc"])) == 0
    return path


def test_check_logic_override(tmp_path, capsys):
    for calculus, out in biill_only_certificates(tmp_path).items():
        assert run("check", str(out)) == 0
        capsys.readouterr()
        assert run("check", str(out), "--logic", "fill") == 1
        # the fragment pass names the first node outside FILL, here the root
        err = capsys.readouterr().err
        assert re.fullmatch(r"check failed: at root \(\w+\): sequent leaves FILL: '(=>|Phi \|-) p -o q\|\(p -< q\)'\n", err), err


def test_translate_logic_fill_runs_the_fragment_pass_on_the_input(tmp_path, capsys):
    # the translator checks its input in BiILL; --logic fill adds only the
    # fragment pass, so a BiILL-only input is rejected in every calculus
    target = {"dn": "sn", "sn": "dc", "dc": "sn"}
    for calculus, path in biill_only_certificates(tmp_path).items():
        capsys.readouterr()
        assert run("translate", str(path), "--calculus", target[calculus], "--logic", "fill") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input certificate rejected: at ") and captured.out == ""
        assert run("translate", str(path), "--calculus", target[calculus]) == 0


def test_check_names_the_failing_node(tmp_path, capsys):
    # a schema defect at the top of a chain: the path of premise indices
    # from the root, and the rule, come before the reason
    leaf = {"rule": "id", "conclusion": "c => c"}
    proof = {"rule": "tensor_r", "conclusion": "a, b => a*b", "premises": [
        {"rule": "id", "conclusion": "a => a"},
        {"rule": "dissolve_right", "conclusion": "b => b", "premises": [
            {"rule": "wrap_right", "conclusion": "=> [b => b]", "premises": [leaf]}]}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"calculus": "sn", "proof": proof}))
    capsys.readouterr()
    assert run("check", str(path)) == 1
    assert capsys.readouterr().err == (
        "check failed: at 1.0 (wrap_right): rule wrap_right does not derive '=> [b => b]' from its premises\n"
    )
    # a dn certificate too: the id inside the child is called i_r
    leaf = {"rule": "i_r", "conclusion": "=> [a => a]", "witness": {"context": "=> _", "principal": "a"}}
    proof = {"rule": "lolli_r", "conclusion": "=> a -o a", "witness": {"context": "_"}, "premises": [leaf]}
    path.write_text(json.dumps({"calculus": "dn", "proof": proof}))
    assert run("check", str(path)) == 1
    assert capsys.readouterr().err == (
        "check failed: at 0 (i_r): rule i_r does not apply to '=> [a => a]' with the given witness\n"
    )


# -------------------------------------------------- translate

def test_translate_chain_re_checks(tmp_path, capsys):
    dn = tmp_path / "dn.json"
    sn = tmp_path / "sn.json"
    dc = tmp_path / "dc.json"
    run("prove", "--logic", "fill", "a * (b|c) -o (a*b) | c", "--out", str(dn))
    assert run("translate", str(dn), "--calculus", "sn", "--out", str(sn)) == 0
    assert run("translate", str(sn), "--calculus", "dc", "--out", str(dc)) == 0
    capsys.readouterr()
    cert = read_certificate(sn.read_text())
    assert cert.logic == "biill"
    check_sn_proof(cert.root)
    cert = read_certificate(dc.read_text())
    assert cert.logic == "biill"
    check_dc_proof(cert.root)
    # and back down to a deep proof of the same endsequent
    assert run("translate", str(dc), "--calculus", "dn") == 0
    back = read_certificate(capsys.readouterr().out)
    assert back.endsequent == "=> a*(b|c) -o (a*b)|c"
    assert back.logic == "biill"
    check_dn_proof(back.root)


def test_translate_reports_sizes_and_time(tmp_path, capsys):
    dn = tmp_path / "dn.json"
    run("prove", "a*b -o b*a", "--out", str(dn))
    capsys.readouterr()
    assert run("translate", str(dn), "--calculus", "sn", "--out", str(tmp_path / "sn.json")) == 0
    err = capsys.readouterr().err
    m = re.fullmatch(r"dn -> sn: (\d+) nodes in, (\d+) out, \d+\.\d\d s\n", err)
    assert m is not None, err
    out = read_certificate((tmp_path / "sn.json").read_text()).root
    assert (int(m[1]), int(m[2])) == (5, proof_size(out))


@pytest.mark.parametrize("command", ["prove", "translate", "corpus"])
def test_out_path_that_cannot_be_written_is_a_one_line_exit_2(tmp_path, capsys, command):
    dn = tmp_path / "dn.json"
    run("prove", "a -o a", "--out", str(dn))
    bad = tmp_path / "no" / "such" / "x.json"
    argv = {
        "prove": ["prove", "a -o a"],
        "translate": ["translate", str(dn), "--calculus", "sn"],
        "corpus": ["corpus", "--max-size", "0"],
    }[command]
    capsys.readouterr()
    assert run(*argv, "--out", str(bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {bad}: ") and captured.err.count("\n") == 1
    assert not bad.exists()


def test_translate_same_calculus_is_exit_2(tmp_path):
    dn = tmp_path / "dn.json"
    run("prove", "p -o p", "--out", str(dn))
    assert run("translate", str(dn), "--calculus", "dn") == 2


def test_translate_requires_target():
    assert run("translate", "whatever.json") == 2


def test_translate_rejects_cut(tmp_path, capsys):
    leaf = ProofNode("id", parse_sequent("a => a"))
    cut = ProofNode("cut", parse_sequent("a => a"), (leaf, leaf))
    path = tmp_path / "cut.json"
    path.write_text(certificate_text("sn", "biill", cut))
    # the checker itself is fine with cut
    assert run("check", str(path)) == 0
    assert run("translate", str(path), "--calculus", "dn") == 1
    assert "cut" in capsys.readouterr().err


def test_translate_writes_no_dc_certificate_too_deep_to_read(tmp_path, capsys):
    # a display side nests about as deep as it is wide, and the reader of a
    # certificate bounds how deep its text may nest: a translation past
    # that bound is refused, not written for `check` to refuse
    sn = tmp_path / "sn.json"
    dc = tmp_path / "dc.json"
    sn.write_text(certificate_text("sn", "biill", balanced_tensor(0, 150)))
    assert run("translate", str(sn), "--calculus", "dc", "--out", str(dc)) == 1
    assert capsys.readouterr().err == (
        "translation failed: sn -> dc: a display side of 146 formulas nests 151 deep,"
        " past the 100 levels a certificate can hold\n"
    )
    assert not dc.exists()
    # the widest sequent of this shape whose translation fits is written
    sn.write_text(certificate_text("sn", "biill", balanced_tensor(0, 99)))
    assert run("translate", str(sn), "--calculus", "dc", "--out", str(dc)) == 0
    assert run("check", str(dc)) == 0
    sn.write_text(certificate_text("sn", "biill", balanced_tensor(0, 100)))
    assert run("translate", str(sn), "--calculus", "dc", "--out", str(dc)) == 1


def two_chains(depth):
    """The one-node dn proof, by `i_r`, of `=> [=> … [=> 1] …], [=> … [=>] …]`:
    two chains of children `depth` deep, one ending in `1`, one hollow."""
    full = "[=> " * (depth - 1) + "[=> 1]" + "]" * (depth - 1)
    hollow = "[=> " * (depth - 1) + "[=>]" + "]" * (depth - 1)
    end = parse_sequent(f"=> {full}, {hollow}")
    ctx = parse_context("=> " + "[=> " * (depth - 1) + "_" + "]" * (depth - 1) + f", {hollow}")
    return ProofNode("i_r", end, (), Witness(context=ctx))


def test_prove_writes_no_certificate_too_deep_to_read(tmp_path, capsys, monkeypatch):
    # `prove` writes through the same guard as `translate`: a proof whose
    # text nests past the reader's bound is refused, not written
    s = parse_sequent("=> 1")
    for _ in range(101):
        s = Sequent((), (s,))
    deep = ProofNode("i_r", s)
    monkeypatch.setattr(fillprover.cli, "decide_formula", lambda f, logic: prover.Decision("proved", deep, 1))
    out = tmp_path / "dn.json"
    assert run("prove", "p -o p", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "cannot write the certificate: a sequent nests 101 deep, past the 100 levels a certificate can hold\n"
    )
    assert not out.exists()


def test_translate_writes_no_sn_certificate_too_deep_to_read(tmp_path, capsys):
    # displaying the node of `1` wraps the other chain one level deeper at
    # each level it passes, so the sn proof nests about twice as deep as the
    # dn tree: a translation past the reader's bound is refused, not written
    # for `check` to refuse
    dn = tmp_path / "dn.json"
    sn = tmp_path / "sn.json"
    dn.write_text(certificate_text("dn", "biill", two_chains(55)))
    assert run("check", str(dn)) == 0
    capsys.readouterr()
    assert run("translate", str(dn), "--calculus", "sn", "--out", str(sn)) == 1
    assert capsys.readouterr().err == (
        "translation failed: dn -> sn: a sequent nests 110 deep, past the 100 levels a certificate can hold\n"
    )
    assert not sn.exists()
    # the deepest chains whose translation fits are written and check
    dn.write_text(certificate_text("dn", "biill", two_chains(50)))
    assert run("translate", str(dn), "--calculus", "sn", "--out", str(sn)) == 0
    assert run("check", str(sn)) == 0
    # one level more nests past the bound, as the reader counts it
    too_deep = json_text("sn", deep_to_shallow(two_chains(51)))
    with pytest.raises(CheckError, match="brackets nest deeper than 100"):
        read_certificate(too_deep)
    dn.write_text(certificate_text("dn", "biill", two_chains(51)))
    assert run("translate", str(dn), "--calculus", "sn", "--out", str(tmp_path / "sn51.json")) == 1


# -------------------------------------------------- corpus

def _records(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_corpus_base_stratum(capsys):
    assert run("corpus", "--max-size", "1", "--vars", "p") == 0
    records = _records(capsys)
    texts = {r["formula"] for r in records}
    assert {"p*p", "p|p", "p -o p", "p -< p"} <= texts
    by_text = {r["formula"]: r for r in records}
    assert by_text["p -o p"]["fill"] == "proved"
    assert by_text["p -o p"]["biill"] == "proved"
    assert by_text["p -o p"]["nodes"] == 2
    assert by_text["p -< p"]["fill"] is None


def test_corpus_fill_mode_skips_exclusion(capsys):
    assert run("corpus", "--max-size", "1", "--vars", "p", "--logic", "fill") == 0
    assert all("-<" not in r["formula"] for r in _records(capsys))


def test_corpus_decisions_agree(capsys):
    """`fill` is null exactly for formulas with exclusion, and otherwise the
    one decision's verdict, which holds because every FILL theorem's proof
    lies in FILL (the separation property)."""
    assert run("corpus", "--max-size", "2", "--vars", "p,q") == 0
    theorems = 0
    for r in _records(capsys):
        assert (r["fill"] is None) == ("-<" in r["formula"]), r["formula"]
        assert r["biill"] in ("proved", "unprovable")
        if r["fill"] is not None:
            assert r["fill"] == r["biill"], r["formula"]
            if r["fill"] == "proved":
                check_separation(decide_formula(parse_formula(r["formula"]), "biill").proof)
                theorems += 1
    assert theorems > 0


def test_corpus_record_searches_an_exclusion_free_theorem_once(monkeypatch):
    f = parse_formula(BIERMAN)
    states = []
    real = prover.deep_moves
    monkeypatch.setattr(prover, "deep_moves", lambda s, *rest: states.append(s) or real(s, *rest))
    record = corpus_record(f)
    searched = len(states)
    assert record["fill"] == record["biill"] == "proved"
    assert searched == decide_formula(f, "fill").visited == 16


def test_corpus_quotients_commutativity(capsys):
    assert run("corpus", "--max-size", "1", "--vars", "p,q", "--logic", "fill") == 0
    texts = {r["formula"] for r in _records(capsys)}
    assert ("p*q" in texts) != ("q*p" in texts)
    assert ("p -o q" in texts) and ("q -o p" in texts)


def test_corpus_cap_and_vars_validation():
    assert run("corpus", "--max-size", str(CORPUS_CAP + 1)) == 2
    assert run("corpus", "--vars", "P,q") == 2
    assert run("corpus", "--vars", ",") == 2


def test_corpus_formulas_enumeration_is_deterministic():
    first = [formula_text(f) for f in corpus_formulas(["p", "q"], 2, "biill")]
    second = [formula_text(f) for f in corpus_formulas(["p", "q"], 2, "biill")]
    assert first == second
    assert len(first) == len(set(first))
    assert all(connective_count(parse_formula(t)) <= 2 for t in first)


# -------------------------------------------------- stats

def test_stats_id_only_certificate(tmp_path, capsys):
    from fillprover.prover import decide_sequent

    leaf = decide_sequent(parse_sequent("a => a")).proof
    path = tmp_path / "id.json"
    path.write_text(certificate_text("dn", "biill", leaf))
    assert run("stats", str(path)) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["nodes"] == 1
    assert record["max_branch"] == 1
    assert record["rules"] == {"id": 1}
    # a => a reads as a -o a: one arrow, size 3
    assert record["branch_bound"] == 6
    assert set(record) == {"calculus", "logic", "endsequent", "nodes", "max_branch", "rules", "branch_bound"}


def test_stats_branch_within_budget(tmp_path, capsys):
    out = tmp_path / "cert.json"
    run("prove", "--logic", "fill", BIERMAN, "--out", str(out))
    assert run("stats", str(out)) == 0
    record = json.loads(capsys.readouterr().out)
    # the endsequent => F reads as F, which prove searched: 3 arrows, size 19
    assert record["branch_bound"] == 4 * 19
    assert branch_bound(parse_formula(BIERMAN)) == 76
    assert record["max_branch"] <= 76
    assert record["calculus"] == "dn"


def test_stats_rejects_invalid_proof(tmp_path):
    leaf = ProofNode("id", parse_sequent("a => b"))
    path = tmp_path / "bad.json"
    path.write_text(certificate_text("dn", "fill", leaf))
    assert run("stats", str(path)) == 1


# -------------------------------------------------- plumbing

def test_no_command_is_exit_2():
    assert run() == 2


def test_unknown_command_is_exit_2():
    assert run("frobnicate") == 2


# main builds its parser once per process; no call may leave state behind


def test_prove_logic_does_not_carry_over(capsys):
    assert run("prove", "--logic", "fill", "p -o p") == 0
    assert read_certificate(capsys.readouterr().out).logic == "fill"
    assert run("prove", "p -o p") == 0
    assert read_certificate(capsys.readouterr().out).logic == "biill"
    assert fillprover.cli._build_parser.cache_info().misses == 1


def test_usage_error_leaves_main_working(capsys):
    assert run("prove", "--logic", "linear", "p -o p") == 2
    assert run("prove", "p -o p") == 0
    cert = read_certificate(capsys.readouterr().out)
    assert cert.logic == "biill" and cert.endsequent == "=> p -o p"


def test_check_calculus_does_not_carry_over(tmp_path):
    dn = tmp_path / "dn.json"
    sn = tmp_path / "sn.json"
    assert run("prove", "a*b -o b*a", "--out", str(dn)) == 0
    assert run("translate", str(dn), "--calculus", "sn", "--out", str(sn)) == 0
    assert run("check", str(dn), "--calculus", "dn") == 0
    assert run("check", str(sn)) == 0
