"""Round-trip every size-3 BiILL theorem through dn -> sn -> dc -> sn -> dn.

The corpus is `cli.corpus_formulas(["p", "q"], 3)`, whose 1,258 BiILL
theorems take about 15 s.  Each theorem's dn proof from the search is
checked, then translated to sn, the sn proof to dc and back to sn, and the
first sn proof to dn; every stage is checked again against the endsequent
it must have.  Each of the five stages is also written as a certificate
and read back, and must come back as the very proof it was written from,
and dn -> sn -> dn must give back the dn certificate text.  Prints the node
count of each stage, summed over the theorems, and the seconds the
certificates took, and fails with the traceback of the first theorem whose
round trip fails or whose dn certificate does not come back, after naming
it.  It also fails when a stage's total exceeds its bound in `BOUNDS`, the
totals of the translators as they stand, so a translator whose proofs grow
is caught here.

    PYTHONPATH=src python3 tests/round_trip_corpus.py
"""

from __future__ import annotations

import sys
import time

from fillprover.certs import certificate_text, proof_size, read_certificate
from fillprover.cli import corpus_formulas
from fillprover.deep import check_dn_proof, endsequent_for
from fillprover.display import check_dc_proof, sequent_to_display
from fillprover.formula import formula_text
from fillprover.prover import decide_formula
from fillprover.shallow import check_sn_proof
from fillprover.translate import deep_to_shallow, display_to_shallow, shallow_to_deep, shallow_to_display

STAGES = ("dn", "sn", "dc", "sn2", "dn2")
CALCULI = ("dn", "sn", "dc", "sn", "dn")
# the most nodes each stage may total over the corpus
BOUNDS = {"dn": 8_062, "sn": 11_722, "dc": 21_485, "sn2": 13_972, "dn2": 8_062}


def round_trip(dn) -> tuple:
    """The stages dn, sn, dc, sn2 and dn2 of the round trip of the dn proof
    `dn`, every one checked against the endsequent it must have (the
    translation from dn checks `dn` itself first).  The tests of
    `test_translate.py` use it too."""
    end = dn.conclusion
    sn = deep_to_shallow(dn)
    check_sn_proof(sn, expect=end)
    dc = shallow_to_display(sn)
    check_dc_proof(dc, expect=sequent_to_display(end))
    sn2 = display_to_shallow(dc)
    check_sn_proof(sn2, expect=end)
    dn2 = shallow_to_deep(sn)
    check_dn_proof(dn2, expect=end)
    return dn, sn, dc, sn2, dn2


def read_back(stages: tuple) -> None:
    """Write each stage as a certificate, read it back, and fail unless the
    very proof it was written from comes back."""
    for name, calculus, proof in zip(STAGES, CALCULI, stages):
        back = read_certificate(certificate_text(calculus, "biill", proof)).root
        if back != proof:
            raise AssertionError(f"the {name} certificate reads back as another proof")


def same_dn(stages: tuple) -> None:
    """Fail unless dn -> sn -> dn gives back the dn certificate text."""
    dn, dn2 = stages[0], stages[-1]
    if certificate_text("dn", "biill", dn2) != certificate_text("dn", "biill", dn):
        raise AssertionError("dn -> sn -> dn gives another dn certificate")


def main() -> int:
    start = time.perf_counter()
    nodes = [0] * len(STAGES)
    theorems = 0
    io = 0.0  # seconds spent writing and reading back certificates
    for f in corpus_formulas(["p", "q"], 3):
        decision = decide_formula(f, "biill")
        if not decision.proved:
            continue
        theorems += 1
        try:
            check_dn_proof(decision.proof, expect=endsequent_for(f))
            stages = round_trip(decision.proof)
            io -= time.perf_counter()
            read_back(stages)
            io += time.perf_counter()
            same_dn(stages)
        except Exception:
            print(f"round trip of {formula_text(f)} failed:", file=sys.stderr)
            raise
        nodes = [n + proof_size(p) for n, p in zip(nodes, stages)]
    totals = ", ".join(f"{name} {n:,}" for name, n in zip(STAGES, nodes))
    print(
        f"{theorems:,} theorems round-tripped in {time.perf_counter() - start:.1f} s, "
        f"{io:.1f} s of it writing and reading back {len(STAGES) * theorems:,} certificates; nodes: {totals}"
    )
    over = [f"{name} {n:,} > {BOUNDS[name]:,}" for name, n in zip(STAGES, nodes) if n > BOUNDS[name]]
    if over:
        print(f"stage totals over their bounds: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
