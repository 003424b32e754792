"""The benchmark workloads.

Each workload is built from a seed and a scratch directory (its set-up) and
then hands out the ops of one pass over its input set, in a seeded order.
An op is timed around the call into fillprover only; its check runs
untimed afterwards and raises `Failure` when the output is wrong.  Every
input goes in through `fillprover.cli.main` (in-process, as the command
line would run it) or `fillprover.cli.corpus_record`.

See README.md for why each workload exists and what it is predicted to
stress.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from fillprover import cli
from fillprover.formula import formula_text, parse_formula

HERE = Path(__file__).resolve().parent
VERDICTS = HERE / "data" / "corpus_p_q_3.tsv.gz"

BIERMAN = "(a|b)|c -o a|((b|c -o d)|e -o d|e)"

# the twelve formulas of tests/test_translate.py::test_four_way_closure
PIPELINE_CASES = [
    ("a -o a", "fill"),
    ("1", "fill"),
    ("bot|1", "fill"),
    ("a*b -o b*a", "fill"),
    ("a|b -o b|a", "fill"),
    ("(p*(q|r)) -o (p*q)|r", "fill"),
    ("((b -o bot)|c) -o b -o c", "fill"),
    ("a -o b -o a*b", "fill"),
    ("a*(b*c) -o (a*b)*c", "fill"),
    ("p -o q|(p -< q)", "biill"),
    ("(a -< a) -o bot|bot", "biill"),
    ("(a -< b) -< c -o a -< (b|c)", "biill"),
]

# the seven whose chain takes under 1 s: short enough to repeat often in a run
PIPELINE_LIGHT = [
    case
    for case in PIPELINE_CASES
    if case[0]
    not in (
        "a -o b -o a*b",
        "(p*(q|r)) -o (p*q)|r",
        "((b -o bot)|c) -o b -o c",
        "a*(b*c) -o (a*b)*c",
        "(a -< b) -< c -o a -< (b|c)",
    )
]

# m = 5 takes about 2 s per check and m = 6 about a minute: too long to
# repeat often enough in a run for a steady time; see README.md
ADVERSARIAL_M = (2, 3, 4)

CORPUS_VARS = ["p", "q"]
CORPUS_MAX = 3
CORPUS_SAMPLE = 2000


class Failure(Exception):
    """An op produced a wrong or missing result."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class PassTotals:
    """What one pass emitted: proof nodes and certificate bytes."""

    proof_nodes: int = 0
    cert_bytes: int = 0
    verdicts: list = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the fillprover command line in this process; return the exit
    status and what it wrote to standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code if isinstance(e.code, int) else 2
    return code, err.getvalue()


def _expect(code: int, err: str, want: int, what: str) -> None:
    if code != want:
        raise Failure(f"{what}: exit {code}, wanted {want}: {err.strip()[:300]}")


def _checked_endsequent(err: str) -> str:
    # `check` reports "<calculus> certificate ok under <logic>: <endsequent>"
    line = err.strip().splitlines()[-1] if err.strip() else ""
    if " certificate ok under " not in line:
        raise Failure(f"check gave no verdict line: {err.strip()[:300]}")
    return line.split(": ", 1)[1]


def cert_nodes(path: Path) -> int:
    """Proof nodes in a certificate file, counted from its JSON."""
    data = json.loads(path.read_text(encoding="utf-8"))
    n, todo = 0, [data["proof"]]
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(node.get("premises", ()))
    return n


# ------------------------------------------------------------------ bierman

class Bierman:
    """Bierman's FILL formula, proved and then checked (the check untimed)."""

    name = "bierman"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.expected = "=> " + formula_text(parse_formula(BIERMAN))

    def ops(self, totals: PassTotals) -> list[Op]:
        path = self.workdir / "bierman.dn.json"

        def run():
            return run_cli(["prove", BIERMAN, "--logic", "fill", "--out", str(path)])

        def check(result):
            _expect(*result, 0, "prove")
            code, err = run_cli(["check", str(path), "--calculus", "dn"])
            _expect(code, err, 0, "check of the proof")
            if _checked_endsequent(err) != self.expected:
                raise Failure(f"proof concludes {_checked_endsequent(err)!r}")
            totals.proof_nodes += cert_nodes(path)
            totals.cert_bytes += path.stat().st_size
            totals.verdicts.append(("bierman", "proved"))

        return [Op("prove bierman", run, check)]


# ------------------------------------------------------------------ corpus3

def load_verdicts(path: Path = VERDICTS) -> list[tuple]:
    """The committed table: one (formula, fill, biill, nodes, max_branch)
    row per corpus formula, in enumeration order."""
    rows = []
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            text, fill, biill, nodes, branch = line.rstrip("\n").split("\t")
            rows.append(
                (
                    text,
                    None if fill == "-" else fill,
                    biill,
                    None if nodes == "-" else int(nodes),
                    None if branch == "-" else int(branch),
                )
            )
    return rows


def record_row(record: dict) -> tuple:
    return (record["formula"], record["fill"], record["biill"], record["nodes"], record["max_branch"])


def _shape(row: tuple) -> tuple:
    # the formula with every leaf blanked out, plus both verdicts
    return (re.sub(r"\b([a-z]+|1)\b", "x", row[0]), row[1], row[2])


def stratified_sample(rows: list[tuple], n: int, rng: random.Random) -> list[int]:
    """One index from each of `n` equal blocks of the corpus sorted by shape
    and verdicts.  The seed changes which formulas are drawn, not the mix of
    shapes, so the sample's cost tracks the whole corpus."""
    order = sorted(range(len(rows)), key=lambda i: (_shape(rows[i]), i))
    width = len(order) / n
    return [order[int(j * width) + rng.randrange(max(1, int(width)))] for j in range(n)]


class Corpus3:
    """A seeded stratified sample of `corpus --max-size 3 --vars p,q`, each
    formula decided in both logics and compared with the committed table."""

    name = "corpus3"

    def __init__(self, seed: int, workdir: Path, sample: int = CORPUS_SAMPLE):
        rows = load_verdicts()
        formulas = list(cli.corpus_formulas(CORPUS_VARS, CORPUS_MAX))
        if len(formulas) != len(rows):
            raise Failure(f"corpus has {len(formulas)} formulas, table has {len(rows)}")
        rng = random.Random(seed)
        picked = stratified_sample(rows, sample, rng)
        rng.shuffle(picked)
        self.inputs = [(formulas[i], rows[i]) for i in picked]

    def ops(self, totals: PassTotals) -> list[Op]:
        return [self._op(f, row, totals) for f, row in self.inputs]

    @staticmethod
    def _op(f, row: tuple, totals: PassTotals) -> Op:
        def check(record):
            got = record_row(record)
            if got != row:
                raise Failure(f"corpus record {got} differs from the table {row}")
            if record["fill"] is not None and record["fill"] != record["biill"]:
                raise Failure(f"FILL and BiILL disagree on {record['formula']}")
            totals.proof_nodes += record["nodes"] or 0
            totals.verdicts.append((record["formula"], record["fill"], record["biill"]))

        return Op(row[0], lambda: cli.corpus_record(f), check)


# ----------------------------------------------------------------- pipeline

STAGES = [("dn", "sn"), ("sn", "dc"), ("dc", "sn2"), ("sn2", "dn2")]


class Pipeline:
    """One op per formula: prove, then dn -> sn -> dc -> sn -> dn, with
    `check` on every output, ten command lines in a row."""

    name = "pipeline"

    def __init__(self, seed: int, workdir: Path, cases=PIPELINE_LIGHT):
        self.workdir = workdir
        self.cases = list(cases)
        random.Random(seed).shuffle(self.cases)

    def ops(self, totals: PassTotals) -> list[Op]:
        return [self._chain(k, text, logic, totals) for k, (text, logic) in enumerate(self.cases)]

    def _chain(self, k: int, text: str, logic: str, totals: PassTotals) -> Op:
        goal = formula_text(parse_formula(text))
        path = {name: self.workdir / f"case{k}.{name}.json" for name in ("dn", "sn", "dc", "sn2", "dn2")}
        calculus = {"dn": "dn", "sn": "sn", "dc": "dc", "sn2": "sn", "dn2": "dn"}

        def emitted(name: str, nodes: int) -> None:
            totals.proof_nodes += nodes
            totals.cert_bytes += path[name].stat().st_size

        def proved(code, err):
            _expect(code, err, 0, f"prove {text}")

        def translated(src: str, dst: str):
            def check(code, err):
                _expect(code, err, 0, f"translate {src}->{dst} of {text}")
                m = re.search(r"(\d+) nodes in, (\d+) out", err)
                if m is None:
                    raise Failure(f"translate printed no sizes: {err.strip()[:300]}")
                if src == "dn":
                    emitted("dn", int(m.group(1)))
                emitted(dst, int(m.group(2)))

            return check

        def checked(name: str):
            want = ("Phi |- " if name == "dc" else "=> ") + goal

            def check(code, err):
                _expect(code, err, 0, f"check {name} of {text}")
                if _checked_endsequent(err) != want:
                    raise Failure(f"{name} of {text} concludes {_checked_endsequent(err)!r}")

            return check

        steps = [
            (["prove", text, "--logic", logic, "--out", str(path["dn"])], proved),
            (["check", str(path["dn"]), "--calculus", "dn"], checked("dn")),
        ]
        for src, dst in STAGES:
            steps.append((["translate", str(path[src]), "--calculus", calculus[dst], "--out", str(path[dst])], translated(src, dst)))
            steps.append((["check", str(path[dst]), "--calculus", calculus[dst]], checked(dst)))

        def run():
            return [run_cli(argv) for argv, _ in steps]

        def check(results):
            for (_, step_check), (code, err) in zip(steps, results):
                step_check(code, err)
            totals.verdicts.append((text, "round trip"))

        return Op(f"pipeline {text}", run, check)


# -------------------------------------------------------- check_adversarial

def adversarial_certificate(m: int, valid: bool) -> dict:
    """The 3-node dn certificate `a, b => a*b, [=>]@1 x m`: tensor_r over
    two `id` leaves.  The invalid form names `bot_l` at the second leaf."""
    kids = ", ".join(["[=>]@1"] * m)

    def leaf(rule: str, atom: str) -> dict:
        return {
            "rule": rule,
            "conclusion": f"{atom} => {atom}, {kids}",
            "witness": {"context": "_", "principal": atom},
            "premises": [],
        }

    root = f"a, b => a*b, {kids}"
    return {
        "calculus": "dn",
        "logic": "biill",
        "endsequent": root,
        "proof": {
            "rule": "tensor_r",
            "conclusion": root,
            "witness": {"context": "_", "principal": "a*b", "ctx1": "_", "ctx2": "_"},
            "premises": [leaf("id", "a"), leaf("id" if valid else "bot_l", "b")],
        },
    }


class CheckAdversarial:
    """`fillprover check` on small certificates whose label lifting blows up:
    each must be accepted (valid form) or rejected (invalid form)."""

    name = "check_adversarial"

    def __init__(self, seed: int, workdir: Path):
        self.files = []
        for m in ADVERSARIAL_M:
            for valid in (True, False):
                path = workdir / f"adversarial_m{m}_{'valid' if valid else 'invalid'}.json"
                path.write_text(json.dumps(adversarial_certificate(m, valid)), encoding="utf-8")
                self.files.append((path, m, valid))
        random.Random(seed).shuffle(self.files)

    def ops(self, totals: PassTotals) -> list[Op]:
        return [self._op(path, m, valid, totals) for path, m, valid in self.files]

    @staticmethod
    def _op(path: Path, m: int, valid: bool, totals: PassTotals) -> Op:
        def check(result):
            code, err = result
            _expect(code, err, 0 if valid else 1, f"check of {path.name}")
            if not valid and "check failed" not in err:
                raise Failure(f"{path.name} was not rejected by the checker: {err.strip()[:300]}")
            totals.verdicts.append((path.name, code))

        return Op(f"check m={m} {'valid' if valid else 'invalid'}", lambda: run_cli(["check", str(path)]), check)


class PipelineFull(Pipeline):
    """The pipeline on all twelve formulas, the 54.8 MB dc certificate of
    `(a -< b) -< c -o a -< (b|c)` included: about 35 s a pass."""

    name = "pipeline_full"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir, cases=PIPELINE_CASES)


WORKLOADS = {w.name: w for w in (Corpus3, Pipeline, CheckAdversarial, Bierman, PipelineFull)}
