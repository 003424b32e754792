"""Verdicts judged by relations that need no second prover: duality, and a
nested sequent against its formula reading (`brackets.py`)."""

import random

from brackets import dual, nested_sequent
from fillprover.cli import corpus_formulas
from fillprover.formula import formula_text, parse_formula
from fillprover.prover import decide_formula, decide_sequent
from fillprover.sequent import Sequent, sequent_text, tau_s


def test_every_size_3_formula_and_its_dual_get_one_verdict():
    # `=> F` and `F^d =>`, both decided in BiILL
    decisions = theorems = 0
    for f in corpus_formulas(["p", "q"], 3):
        d = decide_formula(f)
        assert decide_sequent(Sequent((dual(f),), ())).status == d.status, formula_text(f)
        decisions += 1
        theorems += d.proved
    assert (decisions, theorems) == (39420, 1258)


def test_the_dual_of_the_dual_is_the_formula():
    for f in corpus_formulas(["p", "q"], 2):
        assert dual(dual(f)) == f
    assert dual(parse_formula("a*1 -o b")) == parse_formula("b -< a|bot")
    assert dual(parse_formula("(a -< 1)|bot")) == parse_formula("(bot -o a)*1")


def test_nested_sequents_get_the_verdict_of_their_formula_reading():
    # brackets nest at most two deep, at most three items a node
    rng = random.Random(24)
    theorems = 0
    for _ in range(3000):
        s = nested_sequent(rng)
        d = decide_sequent(s)
        assert decide_formula(tau_s(s)).status == d.status, sequent_text(s)
        theorems += d.proved
    assert theorems == 257
