"""Benchmark for fillprover: checked workloads, one command.

    python3 perfbench/run.py                     # every workload, one row each
    python3 perfbench/run.py --workload bierman --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh single-threaded process as a closed loop: one
caller, and each op starts when the previous one has finished.  The run
repeats whole passes over the workload's input set until `--seconds` have
gone by (at least one pass).  Right after each op it times a fixed piece
of pure-Python work, the reference piece, and the op times it reports are
scaled by the reference piece's time to a host of fixed speed (README.md,
"Host-speed scaling").  Every op's output is checked; a wrong output, an
exception or an unexpected exit status counts as a failed op and makes the
run exit with status 1.

`BENCHMARK.json` names the workloads the benchmark is judged on; `bierman`
and `pipeline_full` are not among them (README.md says why) but run the
same way.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics.  With `--trace 1` the run makes one untraced pass and
then one pass with `tracer.Tracer` installed, writes the spans under
`.perfbench_out/traces/`, and reports the per-layer metrics of that one
traced pass instead.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

JUDGED = ("corpus3", "pipeline", "check_adversarial")
# one op or one pass too long to repeat in a run, so never steady enough
# to judge a change by; run by name or with the rest
UNJUDGED = ("bierman", "pipeline_full")
WORKLOAD_NAMES = JUDGED + UNJUDGED

# fresh processes timed from spawn to the first op; the median is reported
SETUP_SAMPLES = 7
# reference pieces each of them times once ready, to scale its set-up time
SETUP_REFERENCE_PIECES = 7

# The host's speed drifts by tens of percent over minutes, so raw times of
# the same code differ from run to run.  Every op's time is divided by the
# time of a reference piece taken right after it, and each set-up time by
# pieces its process takes once ready, and multiplied by REFERENCE_S,
# about the piece's fastest time on the measuring machine: a time in
# seconds on a host where the piece takes REFERENCE_S.
REFERENCE_S = 1.2e-3


def reference_piece() -> int:
    """Fixed work of the kind the prover does: tuples, strings, dicts,
    frozensets.  It calls nothing of fillprover."""
    d = {}
    for i in range(2000):
        k = (i % 97, str(i % 13))
        d[k] = d.get(k, 0) + 1
    s = {frozenset(range(j % 50, j % 50 + 5)) for j in range(400)}
    return len(d) + len(s)


def time_reference() -> float:
    """Seconds one reference piece takes now.  The garbage collector is off
    meanwhile, so the piece never pays for collecting the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_piece()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

TRANSLATORS = ("deep_to_shallow", "shallow_to_display", "display_to_shallow", "shallow_to_deep")

# `<layer>.calls` and `<layer>.self_s` come from the spans, the rest from the
# tracer's counters; see README.md for each definition
PER_LAYER = [
    ("sequent.Sequent.init_calls", "count"),
    ("sequent.Sequent.init_s", "s"),
    ("sequent.Sequent.hash_calls", "count"),
    *[
        (f"sequent.{fn}.{stat}", unit)
        for fn in ("enumerate_partitions", "enumerate_context_partitions")
        for stat, unit in (("calls", "count"), ("pairs", "count"), ("self_s", "s"))
    ],
    ("deep.deep_moves.calls", "count"),
    ("deep.deep_moves.self_s", "s"),
    ("deep.deep_moves.moves", "count"),
    *[(f"deep.deep_moves.moves.{fam}", "count") for fam in ("axiom", "unary", "branch", "prop")],
    ("prover.decide_formula.calls", "count"),
    ("prover.decide_formula.self_s", "s"),
    ("prover.visited", "count"),
    ("prover.proved", "count"),
    ("prover.refuted", "count"),
    ("prover.budget_limited", "count"),
    ("prover.useful_ratio", "ratio"),
    *[
        (f"{layer}.{stat}", unit)
        for layer in ("formula.parse_formula", "sequent.parse_sequent", "sequent.label_sequent", "deep.check_dn_proof")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ],
    ("shallow.check_sn_proof.calls", "count"),
    ("shallow.check_sn_proof.self_s", "s"),
    ("shallow.sn_rule_applies.calls", "count"),
    ("display.check_dc_proof.calls", "count"),
    ("display.check_dc_proof.self_s", "s"),
    ("display.dc_rule_applies.calls", "count"),
    ("display.parse_display.self_s", "s"),
    *[(f"translate.{t}.{stat}", unit) for t in TRANSLATORS for stat, unit in (("self_s", "s"), ("out_nodes", "count"))],
    *[
        (f"certs.{fn}.{stat}", unit)
        for fn in ("certificate_text", "read_certificate")
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("bytes", "B"))
    ],
    ("cli.main.self_s", "s"),
    ("cli.corpus_record.self_s", "s"),
    ("trace.overhead", "ratio"),
]


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="run passes until this long has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_workloads():
    """The workloads, on the fillprover of this checkout and no other."""
    try:
        import fillprover
    except ImportError as e:
        print(f"cannot import fillprover from {ROOT / 'src'}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if Path(fillprover.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"fillprover was imported from {fillprover.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


# ------------------------------------------------------------- the loop

class Tally:
    """Latency of every op and the failures, across passes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.pass_seconds: list[float] = []
        # the k-th op's time over the reference piece's, one per pass
        self.ratios: list[list[float]] = []
        self.reference_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.totals = []

    def run_pass(self, workload, around=None) -> float:
        """One pass; `around(k)`, when given, is a context entered around
        the k-th op's timed call (not its check)."""
        from workloads import Failure, PassTotals

        totals = PassTotals()
        spent = 0.0
        for k, op in enumerate(workload.ops(totals)):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if around is None:
                    result = op.run()
                else:
                    with around(k):
                        result = op.run()
            except Exception:
                dt = time.perf_counter() - t0
                self._time_reference(k, dt)
                self._fail(op, traceback.format_exc())
            else:
                dt = time.perf_counter() - t0
                self._time_reference(k, dt)
                try:
                    op.check(result)
                except Failure as e:
                    self._fail(op, str(e))
                except Exception:
                    self._fail(op, traceback.format_exc())
            self.latencies.append(dt)
            self.labels.append(op.label)
            spent += dt
        self.pass_seconds.append(spent)
        self.totals.append(totals)
        return spent

    def scaled_pass(self) -> float:
        """A pass in seconds at the reference speed: over the ops of a pass,
        the sum of each op's median time over the reference piece's."""
        return REFERENCE_S * sum(statistics.median(r) for r in self.ratios)

    def _time_reference(self, k: int, dt: float) -> None:
        ref = time_reference()
        if k == len(self.ratios):
            self.ratios.append([])
        self.ratios[k].append(dt / ref)
        self.reference_seconds.append(ref)

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        print(f"FAILED {op.label}: {why}", file=sys.stderr)


def _tail(latencies: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p90/p75 with at least ten samples beyond it."""
    n = len(latencies)
    for p in (99.9, 99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(latencies, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g}", cut
    return None


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Medians over fresh processes of the time from spawn to the first op,
    raw and scaled by the reference pieces each process times once it is
    ready.  Pieces timed here instead, by a process that sat waiting, do
    not follow the host (README.md)."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process for {workload} failed with exit {code}")
        raw.append(dt)
        scaled.append(dt / float(rest) * REFERENCE_S)
    return statistics.median(raw), statistics.median(scaled)


def _workdir() -> Path:
    path = OUT / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _print_result(correct: bool, tally: Tally, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def run_one(args) -> int:
    workloads = _import_workloads()
    cls = workloads.WORKLOADS[args.workload]
    workdir = _workdir()
    try:
        workload = cls(args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            print(statistics.median(time_reference() for _ in range(SETUP_REFERENCE_PIECES)))
            return 0
        if args.trace:
            return _traced(args, workload)
        return _untraced(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(args, workload) -> int:
    setup_raw, setup_s = _setup_seconds(args.workload, args.seed)
    tally = Tally()
    start = time.perf_counter()
    while not tally.pass_seconds or time.perf_counter() - start < args.seconds:
        tally.run_pass(workload)
    wall_s = tally.scaled_pass()
    reference = statistics.median(tally.reference_seconds)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_per_s": len(tally.ratios) / wall_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    totals = tally.totals[-1]
    tail = _tail(tally.latencies)
    row = [f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items()]
    row.append(f"op_p50_ms={statistics.median(tally.latencies) * 1e3:.6g} ms")
    row.append(f"op_tail_ms={tail[1] * 1e3:.6g} ms ({tail[0]} of {len(tally.latencies)})" if tail else f"op_tail_ms=- (only {len(tally.latencies)} ops)")
    row.append(f"fail_rate={tally.failed / tally.attempted:.6g}")
    row.append(f"cert_bytes={totals.cert_bytes} B/pass")
    row.append(f"proof_nodes={totals.proof_nodes} /pass")
    row.append(f"passes={len(tally.pass_seconds)}")
    row.append(f"raw_pass_s={statistics.median(tally.pass_seconds):.6g} s (median)")
    row.append(f"raw_setup_s={setup_raw:.6g} s")
    row.append(f"reference_ms={reference * 1e3:.6g} ms (median)")
    print(f"{args.workload}: " + "  ".join(row))
    correct = tally.failed == 0
    _print_result(correct, tally, metrics)
    return 0 if correct else 1


def _traced(args, workload) -> int:
    from tracer import Tracer

    tally = Tally()
    plain = tally.run_pass(workload)
    first = len(tally.labels)
    tracer = Tracer()
    tracer.install()
    try:
        traced = tally.run_pass(workload, around=tracer.recording)
    finally:
        tracer.uninstall()
    labels = tally.labels[first:]
    tracer.dump(OUT / "traces" / f"{args.workload}-seed{args.seed}.json", labels)
    agg = tracer.aggregate()
    metrics = layer_metrics(tracer, agg, traced / plain)
    for name, row in sorted(agg.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"  {name:48s} spans={row['spans']:<9d} calls={tracer.calls[name]:<9d} self_s={row['self_ns'] / 1e9:.4f}")
    # ops that emitted a certificate, with what they counted
    for op, counts in sorted(tracer.op_counts.items()):
        if counts["certs.certificate_text.bytes"]:
            shown = {k: v for k, v in sorted(counts.items()) if not k.startswith(("deep.deep_moves.moves", "sequent."))}
            print(f"  op {op} {labels[op]}: " + " ".join(f"{k}={v}" for k, v in shown.items()))
    print(f"{args.workload} traced: untraced pass {plain:.4f} s, traced pass {traced:.4f} s, {len(tracer.span_start)} spans")
    correct = tally.failed == 0
    _print_result(correct, tally, metrics)
    return 0 if correct else 1


def layer_metrics(tracer, agg: dict, overhead: float) -> dict:
    on_proved = tracer.counts["prover.visited_on_proved"]
    derived = {
        "sequent.Sequent.init_s": tracer.init_ns / 1e9,
        "prover.useful_ratio": tracer.counts["prover.proof_nodes"] / on_proved if on_proved else 0.0,
        "trace.overhead": overhead,
    }
    out = {}
    for metric, unit in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if metric in derived:
            value = derived[metric]
        elif stat == "calls":
            value = tracer.calls[layer]
        elif stat == "self_s":
            value = agg[layer]["self_ns"] / 1e9 if layer in agg else 0.0
        else:
            value = tracer.counts[metric]
        out[metric] = (value, unit)
    return out


# ------------------------------------------------------------ all at once

def run_all(args) -> int:
    """Each workload in its own process; one row per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
