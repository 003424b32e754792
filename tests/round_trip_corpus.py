"""Round-trip every size-3 BiILL theorem through dn -> sn -> dc -> sn -> dn.

The corpus is `cli.corpus_formulas(["p", "q"], 3)`, whose 1,258 BiILL
theorems take about 15 s.  Each theorem's dn proof from the search is
checked, then translated to sn, the sn proof to dc and back to sn, and the
first sn proof to dn; every stage is checked again against the endsequent
it must have.  Prints the node count of each stage, summed over the
theorems, and fails with the traceback of the first theorem whose round
trip fails, after naming it.

    PYTHONPATH=src python3 tests/round_trip_corpus.py
"""

from __future__ import annotations

import sys
import time

from fillprover.certs import proof_size
from fillprover.cli import corpus_formulas
from fillprover.deep import check_dn_proof, endsequent_for
from fillprover.display import check_dc_proof, sequent_to_display
from fillprover.formula import formula_text
from fillprover.prover import decide_formula
from fillprover.shallow import check_sn_proof
from fillprover.translate import deep_to_shallow, display_to_shallow, shallow_to_deep, shallow_to_display

STAGES = ("dn", "sn", "dc", "sn2", "dn2")


def round_trip(dn, logic: str = "biill") -> tuple:
    """The stages dn, sn, dc, sn2 and dn2 of the round trip of the dn proof
    `dn`, every one checked against the endsequent it must have (the
    translation from dn checks `dn` itself first).  The tests of
    `test_translate.py` use it too."""
    end = dn.conclusion
    sn = deep_to_shallow(dn, logic)
    check_sn_proof(sn, "biill", expect=end)
    dc = shallow_to_display(sn)
    check_dc_proof(dc, "biill", expect=sequent_to_display(end))
    sn2 = display_to_shallow(dc)
    check_sn_proof(sn2, "biill", expect=end)
    dn2 = shallow_to_deep(sn)
    check_dn_proof(dn2, "biill", expect=end)
    return dn, sn, dc, sn2, dn2


def main() -> int:
    start = time.perf_counter()
    nodes = [0] * len(STAGES)
    theorems = 0
    for f in corpus_formulas(["p", "q"], 3):
        decision = decide_formula(f, "biill")
        if not decision.proved:
            continue
        theorems += 1
        try:
            check_dn_proof(decision.proof, "biill", expect=endsequent_for(f))
            stages = round_trip(decision.proof)
        except Exception:
            print(f"round trip of {formula_text(f)} failed:", file=sys.stderr)
            raise
        nodes = [n + proof_size(p) for n, p in zip(nodes, stages)]
    totals = ", ".join(f"{name} {n:,}" for name, n in zip(STAGES, nodes))
    print(f"{theorems:,} theorems round-tripped in {time.perf_counter() - start:.1f} s; nodes: {totals}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
