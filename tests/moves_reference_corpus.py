"""Check the branch moves against the colouring reference over the size-3 corpus.

For every formula of `cli.corpus_formulas(["p", "q"], 3)`, decided in
BiILL and, without exclusion, in FILL, every state the search visits must
get from `deep.deep_moves` exactly the moves of
`moves_reference.reference_moves`, in the same order: the moves every
colouring gives, less the branch splits whose first premise does not
balance.  Prints the decisions and states checked, and fails naming the
first formula, logic and state on which the two disagree.

    PYTHONPATH=src python3 tests/moves_reference_corpus.py
"""

from __future__ import annotations

import sys
import time

from fillprover.cli import corpus_formulas
from fillprover.formula import formula_text
from fillprover.sequent import sequent_text
from moves_reference import first_disagreement, logics, searched_calls


def main() -> int:
    start = time.perf_counter()
    decisions = states = 0
    for f in corpus_formulas(["p", "q"], 3):
        for logic in logics(f):
            calls = searched_calls(f, logic)
            bad = first_disagreement(calls)
            if bad is not None:
                s, got, want = bad
                print(
                    f"{formula_text(f)} ({logic}): at {sequent_text(s)}, deep_moves yields "
                    f"{[m.rule for m in got]}, the reference {[m.rule for m in want]}",
                    file=sys.stderr,
                )
                return 1
            decisions += 1
            states += len(calls)
    print(
        f"{decisions:,} decisions, {states:,} searched states: deep_moves agrees with the "
        f"colouring reference on every one, in {time.perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
