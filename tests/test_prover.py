"""The decision procedure: known theorems, known non-theorems, budgets."""

import pytest

from fillprover.deep import check_dn_proof, proof_stays_in_fill
from fillprover.certs import proof_size
from fillprover.formula import formula_size, parse_formula
from fillprover.prover import SearchBudget, decide_formula, decide_sequent
from fillprover.sequent import parse_sequent

# theorems of FILL (so of BiILL too)
FILL_THEOREMS = [
    "a -o a",
    "1",
    "1 -o 1",
    "bot -o bot",
    "bot|1",
    "a*b -o a*b",
    "a*b -o b*a",
    "a|b -o b|a",
    "(a -o b) -o (b -o c) -o a -o c",
    "(p*(q|r)) -o (p*q)|r",
    "((p -o q)|r) -o p -o q|r",
    "((b -o bot)|c) -o b -o c",
    "a*(b*c) -o (a*b)*c",
    "a -o b -o a*b",
    "(a|b)|c -o a|(b|c)",
]

# not provable in either logic
NON_THEOREMS = [
    "bot -o 1",
    "1 -o bot",
    "p -o p*p",
    "p*p -o p",
    "a*b -o a|b",
    "a|b -o a*b",
    "(p -o q|r) -o (p -o q)|r",
    "(b -o c) -o (b -o bot)|c",
    "a -o b",
]

# provable only once exclusion is available
BIILL_ONLY = [
    "p -o q|(p -< q)",
    "(a -< a) -o bot|bot",
]


@pytest.mark.parametrize("text", FILL_THEOREMS)
def test_fill_theorems_prove_in_both_logics(text):
    f = parse_formula(text)
    for logic in ("fill", "biill"):
        d = decide_formula(f, logic)
        assert d.status == "proved"
        check_dn_proof(d.proof, logic)
    # deciding a FILL goal in the larger logic stays inside the fragment
    assert proof_stays_in_fill(decide_formula(f, "biill").proof)


@pytest.mark.parametrize("text", NON_THEOREMS)
def test_non_theorems_are_refuted_not_budget_limited(text):
    f = parse_formula(text)
    assert decide_formula(f, "biill").status == "refuted"
    if "-<" not in text:
        assert decide_formula(f, "fill").status == "refuted"


@pytest.mark.parametrize("text", BIILL_ONLY)
def test_biill_only_theorems(text):
    f = parse_formula(text)
    d = decide_formula(f, "biill")
    assert d.status == "proved"
    check_dn_proof(d.proof, "biill")
    assert not proof_stays_in_fill(d.proof)


def test_fill_mode_rejects_exclusion():
    with pytest.raises(ValueError):
        decide_formula(parse_formula("p -o q|(p -< q)"), "fill")


def test_nested_example_proves():
    f = parse_formula("(a|b)|c -o a|((b|c -o d)|e -o d|e)")
    d = decide_formula(f, "fill")
    assert d.status == "proved"
    check_dn_proof(d.proof, "fill")
    assert proof_size(d.proof) <= 4 * formula_size(f) ** 4
    # the unary rules are committed to, so their alternatives are never tried
    assert d.visited == 7_668


def test_budget_arithmetic():
    b = SearchBudget.for_formula(parse_formula("a -o b"))
    assert b.max_branch_length == 6 and b.hop_cap == 1
    b = SearchBudget.for_formula(parse_formula("(p*(q|r)) -o (p*q)|r"))
    assert b.max_branch_length == 11 + 5 * 1 * 11 and b.hop_cap == 1
    b = SearchBudget.for_formula(parse_formula("a*b"))
    assert b.max_branch_length == 3 and b.hop_cap == 0


def test_tiny_budget_reports_budget_limited():
    f = parse_formula("(p*(q|r)) -o (p*q)|r")
    d = decide_formula(f, "fill", SearchBudget(2, 1))
    assert d.status == "budget_limited"
    assert d.proof is None


def test_decide_sequent():
    assert decide_sequent(parse_sequent("a, b => a*b")).proved
    assert decide_sequent(parse_sequent("a => a, [=>]@1")).proved
    assert decide_sequent(parse_sequent("a => b")).status == "refuted"
    with pytest.raises(ValueError):
        decide_sequent(parse_sequent("[a => b] => c"), "fill")


def test_proof_sizes_within_quartic_bound():
    for text in FILL_THEOREMS:
        f = parse_formula(text)
        d = decide_formula(f, "biill")
        assert proof_size(d.proof) <= 4 * formula_size(f) ** 4
