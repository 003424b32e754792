"""Check the branch moves against the colouring reference over the size-3
corpus and a seeded size-4 sample.

Every formula of `cli.corpus_formulas(["p", "q"], 3)`, and every formula of
`moves_reference.size4_sample(7, 3000)`, where splits are larger, is decided
once, as `cli.corpus_record` decides it: in FILL when it has no exclusion,
else in BiILL.  Every state the search visits must get from `deep.deep_moves`
exactly the moves of `moves_reference.reference_moves`, in the same order:
the axiom that scanning every context-plus-node pair finds
(`reference_axiom_move`, against the one walk of `deep._axiom_move`), and
the moves every colouring gives, less the branch splits whose first premise
does not balance.  On the states of an exclusion-free goal, no rule of
`deep.FILL_EXCLUDED` may be offered at all (`fill_excluded_offers`), since
FILL and BiILL share that one search.  No branch of a proof of `F` may hold
more than `prover.branch_bound(F)` sequents, the bound of the path and
measure lemmas in the `prover` docstring.  Prints the decisions and states
checked, each in all and for exclusion-free goals, and the proofs bounded,
for each set, and fails naming the first formula and state that breaks a
check.

    PYTHONPATH=src python3 tests/moves_reference_corpus.py
"""

from __future__ import annotations

import sys
import time

from fillprover.certs import branch_length
from fillprover.cli import corpus_formulas
from fillprover.formula import formula_text, is_fill_formula
from fillprover.prover import branch_bound, decide_formula
from fillprover.sequent import sequent_text
from moves_reference import fill_excluded_offers, first_disagreement, searched_calls, size4_sample


def main() -> int:
    for name, formulas in (("size-3 corpus", corpus_formulas(["p", "q"], 3)), ("size-4 sample", size4_sample(7, 3000))):
        if check(name, formulas):
            return 1
    return 0


def check(name: str, formulas) -> int:
    """Check every formula of `formulas`; 1 at the first that fails, else 0."""
    start = time.perf_counter()
    decisions = states = fill_decisions = fill_states = proofs = 0
    for f in formulas:
        calls = searched_calls(f)
        bad = first_disagreement(calls)
        if bad is not None:
            s, got, want = bad
            print(
                f"{formula_text(f)}: at {sequent_text(s)}, deep_moves yields "
                f"{[m.rule for m in got]}, the reference {[m.rule for m in want]}",
                file=sys.stderr,
            )
            return 1
        if is_fill_formula(f):
            offers = fill_excluded_offers(calls)
            if offers:
                s, rule = offers[0]
                print(f"{formula_text(f)}: at {sequent_text(s)}, {rule} is offered", file=sys.stderr)
                return 1
            fill_decisions += 1
            fill_states += len(calls)
        decisions += 1
        states += len(calls)
        if calls:
            proof = decide_formula(f).proof
            if proof is not None:
                if branch_length(proof) > branch_bound(f):
                    print(f"{formula_text(f)}: a proof branch of {branch_length(proof)} sequents", file=sys.stderr)
                    return 1
                proofs += 1
    print(
        f"{name}: {decisions:,} decisions, {states:,} searched states: deep_moves agrees with the "
        f"axiom and colouring references on every one; {fill_decisions:,} decisions without exclusion, "
        f"{fill_states:,} searched states, none offering a rule outside FILL; "
        f"{proofs:,} proofs, no branch past the branch bound; in {time.perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
