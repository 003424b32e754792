"""Regenerate the expected-verdict table for the corpus3 workload.

Decides every formula of `corpus_formulas(["p", "q"], 3)` in both logics
with `cli.corpus_record` and writes one tab-separated row per formula, in
enumeration order: formula, FILL verdict (`-` for formulas with exclusion),
BiILL verdict, nodes and longest branch of the BiILL proof (`-` when
unprovable).  The table is committed; regenerate it only when a change is
meant to alter verdicts or proofs, and say so.  Takes about two minutes.

    python3 perfbench/make_verdicts.py
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from fillprover.cli import corpus_formulas, corpus_record  # noqa: E402

from workloads import CORPUS_MAX, CORPUS_VARS, VERDICTS, record_row  # noqa: E402


def main() -> int:
    lines = []
    for f in corpus_formulas(CORPUS_VARS, CORPUS_MAX):
        row = record_row(corpus_record(f))
        lines.append("\t".join("-" if v is None else str(v) for v in row) + "\n")
    VERDICTS.parent.mkdir(parents=True, exist_ok=True)
    with open(VERDICTS, "wb") as raw, gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
        fh.write("".join(lines).encode("utf-8"))
    print(f"{len(lines)} rows written to {VERDICTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
