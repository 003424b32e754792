"""In-memory span tracer that instruments fillprover from outside.

`Tracer.install()` replaces every public function of every fillprover module
at each module attribute that names it, so a call is caught wherever the
caller looks the name up: `fillprover.prover.deep_moves` and
`fillprover.deep.deep_moves` both become the same wrapper.  Module-level
tables of functions (such as the CLI's checker table) are patched the same
way.  Calls are recorded only inside `recording()`, which the benchmark
puts around each timed op; `uninstall()` puts every original back.

Each wrapped call is a span: name, start, end, parent span and op id, kept
in flat arrays and written out by `dump()`.  For a generator function the
call itself only counts; every `next()` on the generator is a span of its
own, so the time is the time spent producing items.  A layer's self time is
its span time minus the time covered by its child spans (`aggregate()`).

Besides spans, a few boundaries carry counters:

- `Sequent.__init__` (calls and inclusive seconds) and `Sequent.__hash__`
  (calls), wrapped at the class;
- the pairs returned by the two partition enumerators;
- the moves `deep_moves` yields, by rule family;
- decisions by status, states visited, and proof nodes of proved decisions;
- nodes of each translator's output proof, and bytes written and read by
  the certificate layer.

Counters that need extra work (proof sizes, byte counts) run inside a
`trace.hooks` span, so that work is not charged to the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from fillprover import deep

# bound before install(), so the hooks call the unwrapped functions
from fillprover.certs import branch_length, proof_size

MODULES = ("formula", "sequent", "certs", "deep", "prover", "shallow", "display", "translate", "cli")

# Sort-key helpers run millions of times per Bierman proof (see README.md);
# a span per call would multiply the traced run time, so their time stays
# in the caller's self time.  `stack_room` is a context manager that only
# adjusts the recursion limit.
UNTRACED = frozenset({"sequent.item_key", "formula.formula_key", "certs.stack_room"})

MOVE_FAMILIES = {
    "axiom": deep.LEAF_RULES,
    "unary": deep.UNARY_LOGICAL_RULES,
    "branch": deep.BRANCH_RULES,
    "prop": deep.PROP_RULES,
}
_FAMILY_OF = {rule: fam for fam, rules in MOVE_FAMILIES.items() for rule in rules}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: list[int] = []
        self.op = -1
        self.active = False
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_counts: defaultdict = defaultdict(Counter)
        self.init_ns = 0
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def _id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    # ---------------------------------------------------------- wrappers

    def _wrap_function(self, name: str, fn, hook):
        nid = self._id(name)
        hook_id = self._id("trace.hooks")
        calls = self.calls

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                h = self._enter(hook_id)
                try:
                    hook(self, args, result)
                finally:
                    self._exit(h)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_generator(self, name: str, fn, hook):
        nid = self._id(name)
        calls = self.calls

        def traced(*args, **kwargs):
            if not self.active:
                return (yield from fn(*args, **kwargs))
            calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                    if hook is not None:
                        hook(self, item)
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public fillprover function where callers look it up."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"fillprover.{m}") for m in MODULES}
        wrapped: dict = {}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                home = value.__module__
                if not home.startswith("fillprover."):
                    continue
                name = f"{home.split('.', 1)[1]}.{value.__name__}"
                if name in UNTRACED:
                    continue
                if value not in wrapped:
                    make = self._wrap_generator if inspect.isgeneratorfunction(value) else self._wrap_function
                    wrapped[value] = make(name, value, _HOOKS.get(name))
                self._undo.append(partial(setattr, mod, attr, value))
                setattr(mod, attr, wrapped[value])
        for mod in mods.values():
            for table in vars(mod).values():
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._undo.append(partial(table.__setitem__, key, value))
                            table[key] = wrapped[value]
        self._wrap_sequent(mods["sequent"].Sequent)

    def count(self, key: str, n: int) -> None:
        """Add to a counter, in total and for the current op."""
        self.counts[key] += n
        self.op_counts[self.op][key] += n

    @contextmanager
    def recording(self, op: int):
        """Trace the block as op number `op`; calls outside any such block
        go straight to the originals."""
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.active = False

    def _wrap_sequent(self, cls) -> None:
        init, hash_ = cls.__init__, cls.__hash__
        counts = self.counts
        clock = time.perf_counter_ns

        def traced_init(obj, *args, **kwargs):
            if not self.active:
                return init(obj, *args, **kwargs)
            t0 = clock()
            init(obj, *args, **kwargs)
            self.init_ns += clock() - t0
            counts["sequent.Sequent.init_calls"] += 1

        def traced_hash(obj):
            if self.active:
                counts["sequent.Sequent.hash_calls"] += 1
            return hash_(obj)

        self._undo.append(partial(setattr, cls, "__init__", init))
        self._undo.append(partial(setattr, cls, "__hash__", hash_))
        cls.__init__ = traced_init
        cls.__hash__ = traced_hash

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ----------------------------------------------------------- results

    def aggregate(self) -> dict[str, dict]:
        """Per span name: span count, total and self nanoseconds."""
        n = len(self.span_start)
        dur = array("q", (end - start for start, end in zip(self.span_start, self.span_end)))
        covered = array("q", bytes(8 * n))
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out: dict[str, dict] = defaultdict(lambda: {"spans": 0, "total_ns": 0, "self_ns": 0})
        names = self.names
        for i in range(n):
            row = out[names[self.span_name[i]]]
            row["spans"] += 1
            row["total_ns"] += dur[i]
            row["self_ns"] += dur[i] - covered[i]
        return dict(out)

    def dump(self, path: Path, op_labels: list[str]) -> None:
        """Write the spans: a JSON header (span names, op labels, counters
        per op) and, next to it, the raw columns (int32 name id, then int64
        start ns, end ns, parent index, op id)."""
        columns = (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
        path.parent.mkdir(parents=True, exist_ok=True)
        bin_path = path.with_suffix(".bin")
        with open(bin_path, "wb") as fh:
            for col in columns:
                col.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"], ["parent", "q"], ["op", "q"]],
            "data": bin_path.name,
            "ops": op_labels,
            "op_counts": {str(op): dict(c) for op, c in sorted(self.op_counts.items())},
        }
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")


# ------------------------------------------------------------ counter hooks

def _count_pairs(name):
    def hook(tr: Tracer, args, result) -> None:
        tr.count(f"{name}.pairs", len(result))

    return hook


def _count_move(tr: Tracer, move) -> None:
    tr.count("deep.deep_moves.moves", 1)
    fam = _FAMILY_OF.get(move.rule)
    if fam is not None:
        tr.count(f"deep.deep_moves.moves.{fam}", 1)


def _count_decision(tr: Tracer, args, decision) -> None:
    tr.count("prover.visited", decision.visited)
    tr.count(f"prover.{decision.status}", 1)
    if decision.proof is not None:
        tr.count("prover.proof_nodes", proof_size(decision.proof))
        tr.count("prover.proof_branch", branch_length(decision.proof))
        tr.count("prover.visited_on_proved", decision.visited)


def _count_out_nodes(name):
    def hook(tr: Tracer, args, root) -> None:
        tr.count(f"{name}.out_nodes", proof_size(root))

    return hook


def _count_written(tr: Tracer, args, text: str) -> None:
    size = len(text.encode("utf-8"))
    tr.count("certs.certificate_text.bytes", size)
    tr.count(f"certs.certificate_text.bytes.{args[0]}", size)  # by calculus


def _count_read(tr: Tracer, args, cert) -> None:
    if isinstance(args[0], str):
        tr.count("certs.read_certificate.bytes", len(args[0].encode("utf-8")))


_HOOKS = {
    "sequent.enumerate_partitions": _count_pairs("sequent.enumerate_partitions"),
    "sequent.enumerate_context_partitions": _count_pairs("sequent.enumerate_context_partitions"),
    "deep.deep_moves": _count_move,
    "prover.decide_formula": _count_decision,
    "certs.certificate_text": _count_written,
    "certs.read_certificate": _count_read,
    **{
        f"translate.{t}": _count_out_nodes(f"translate.{t}")
        for t in ("deep_to_shallow", "shallow_to_display", "display_to_shallow", "shallow_to_deep")
    },
}
