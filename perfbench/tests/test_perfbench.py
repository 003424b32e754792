"""Tests of the benchmark itself: the tracer's counters agree with each
other and with what the program wrote, tracing changes no result, and the
correctness gate catches a wrong output.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_PIPELINE = [
    ("a -o a", "fill"),
    ("a*b -o b*a", "fill"),
    ("((b -o bot)|c) -o b -o c", "fill"),
    ("p -o q|(p -< q)", "biill"),
]


def traced_pass(workload):
    tally = run.Tally()
    tracer = Tracer()
    tracer.install()
    try:
        tally.run_pass(workload, around=tracer.recording)
    finally:
        tracer.uninstall()
    return tally, tracer


@pytest.fixture(scope="module")
def corpus_small(tmp_path_factory):
    return workloads.Corpus3(7, tmp_path_factory.mktemp("corpus"), sample=80)


@pytest.fixture(scope="module")
def corpus_traced(corpus_small):
    return traced_pass(corpus_small)


@pytest.fixture(scope="module")
def pipeline_traced(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pipeline")
    workload = workloads.Pipeline(3, workdir, cases=SMALL_PIPELINE)
    tally, tracer = traced_pass(workload)
    return workload, workdir, tally, tracer


def test_verdict_table_matches_the_baseline_totals():
    rows = workloads.load_verdicts()
    assert len(rows) == 39420
    assert sum(r[2] == "proved" for r in rows) == 1258
    fill = [r for r in rows if r[1] is not None]
    assert len(fill) == 12460
    assert all(r[1] == r[2] for r in fill)
    assert sum(r[1] == "proved" for r in fill) == 522


def test_stratified_sample_is_seeded_and_covers_every_block():
    rows = workloads.load_verdicts()
    a = workloads.stratified_sample(rows, 500, random.Random(1))
    assert a == workloads.stratified_sample(rows, 500, random.Random(1))
    assert a != workloads.stratified_sample(rows, 500, random.Random(2))
    assert len(set(a)) == 500


def test_deep_moves_calls_equal_states_visited(corpus_traced):
    tally, tracer = corpus_traced
    assert tally.failed == 0
    assert tracer.counts["prover.visited"] > 0
    assert tracer.calls["deep.deep_moves"] == tracer.counts["prover.visited"]


def test_move_families_sum_to_all_moves(corpus_traced):
    _, tracer = corpus_traced
    families = sum(tracer.counts[f"deep.deep_moves.moves.{f}"] for f in ("axiom", "unary", "branch", "prop"))
    assert families == tracer.counts["deep.deep_moves.moves"] > 0


def test_self_times_add_up_to_the_traced_time(corpus_traced):
    _, tracer = corpus_traced
    agg = tracer.aggregate()
    roots = sum(
        tracer.span_end[i] - tracer.span_start[i] for i in range(len(tracer.span_start)) if tracer.span_parent[i] < 0
    )
    assert sum(row["self_ns"] for row in agg.values()) == roots
    assert all(row["self_ns"] >= 0 for row in agg.values())


def test_translator_out_nodes_match_the_written_certificates(pipeline_traced):
    workload, workdir, tally, tracer = pipeline_traced
    assert tally.failed == 0
    written = {"deep_to_shallow": "sn", "shallow_to_display": "dc", "display_to_shallow": "sn2", "shallow_to_deep": "dn2"}
    for translator, stage in written.items():
        on_disk = sum(workloads.cert_nodes(path) for path in workdir.glob(f"case*.{stage}.json"))
        assert tracer.counts[f"translate.{translator}.out_nodes"] == on_disk > 0
        assert tracer.calls[f"translate.{translator}"] == len(SMALL_PIPELINE)


def test_certificate_bytes_match_the_written_files(pipeline_traced):
    _, workdir, tally, tracer = pipeline_traced
    on_disk = sum(p.stat().st_size for p in workdir.glob("case*.json"))
    assert tracer.counts["certs.certificate_text.bytes"] == on_disk == tally.totals[-1].cert_bytes


def test_tracing_changes_no_count_or_verdict(tmp_path, corpus_small, corpus_traced):
    plain = run.Tally()
    plain.run_pass(corpus_small)
    traced, _ = corpus_traced
    assert (plain.attempted, plain.failed) == (traced.attempted, traced.failed)
    assert plain.totals[0] == traced.totals[0]

    pipe = workloads.Pipeline(3, tmp_path, cases=SMALL_PIPELINE)
    plain = run.Tally()
    plain.run_pass(pipe)
    traced, tracer = traced_pass(pipe)
    assert plain.totals[0] == traced.totals[0]
    assert plain.failed == traced.failed == 0
    assert tracer.calls["cli.main"] == 10 * len(SMALL_PIPELINE)


def test_uninstall_restores_every_original():
    from fillprover import cli, prover
    from fillprover.sequent import Sequent

    before = (prover.deep_moves, cli._CHECKERS["dn"], Sequent.__init__, Sequent.__hash__)
    tracer = Tracer()
    tracer.install()
    assert prover.deep_moves is not before[0]
    tracer.uninstall()
    assert (prover.deep_moves, cli._CHECKERS["dn"], Sequent.__init__, Sequent.__hash__) == before


def test_gate_counts_a_wrong_verdict_as_a_failure(corpus_small):
    f, row = corpus_small.inputs[0]
    wrong = (row[0], row[1], "proved" if row[2] != "proved" else "unprovable", row[3], row[4])
    tampered = copy.copy(corpus_small)
    tampered.inputs = [(f, wrong)]
    tally = run.Tally()
    tally.run_pass(tampered)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_each_op_gets_one_reference_ratio_a_pass(corpus_small):
    few = copy.copy(corpus_small)
    few.inputs = corpus_small.inputs[:3]
    tally = run.Tally()
    for _ in range(3):
        tally.run_pass(few)
    assert [len(r) for r in tally.ratios] == [3, 3, 3]
    assert len(tally.reference_seconds) == 9
    medians = [sorted(r)[1] for r in tally.ratios]
    assert tally.scaled_pass() == pytest.approx(run.REFERENCE_S * sum(medians))


def test_adversarial_certificates_are_accepted_and_rejected_as_expected(tmp_path):
    for valid in (True, False):
        path = tmp_path / f"m2_{valid}.json"
        path.write_text(json.dumps(workloads.adversarial_certificate(2, valid)))
        code, err = workloads.run_cli(["check", str(path)])
        assert code == (0 if valid else 1), err


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(run.JUDGED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "check_adversarial", "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bierman", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
