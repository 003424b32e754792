"""Check the countermodel prune against the search over the size-4 corpus.

For every formula of `cli.corpus_formulas(["p", "q"], 4)` that passes the
counting prunes (`prover._balanced`) and that a valuation into S4 takes
below 1 (`prover._countermodel`), the search, called directly past the
prune (`prover._search`), must refute it too: the `prover` docstring's
countermodel lemma says no such formula is provable.  Prints the formulas
enumerated, those the counts let through, those S4 refutes and the states
searched for them, and the time; fails naming the first formula the
search proves.

    PYTHONPATH=src python3 tests/model_soundness_corpus.py
"""

from __future__ import annotations

import sys
import time

from fillprover import prover
from fillprover.cli import corpus_formulas
from fillprover.deep import endsequent_for
from fillprover.formula import formula_text


def main() -> int:
    start = time.perf_counter()
    formulas = balanced = refuted = states = 0
    for f in corpus_formulas(["p", "q"], 4):
        formulas += 1
        if not prover._balanced(f):
            continue
        balanced += 1
        if prover._countermodel(f) is None:
            continue
        d = prover._search(endsequent_for(f), f)
        if d.proved:
            print(f"{formula_text(f)}: S4 refutes it, but the search proves it", file=sys.stderr)
            return 1
        refuted += 1
        states += d.visited
    print(
        f"{formulas:,} formulas, {balanced:,} with balanced counts, {refuted:,} of them refuted "
        f"by S4 and by the search ({states:,} searched states); in {time.perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
