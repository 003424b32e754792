"""Command-line front end.

Five subcommands: `prove` decides a formula and writes a deep-calculus
certificate, `check` validates a certificate with the matching checker (in
FILL, then the fragment pass), `translate` rebuilds a certificate in another
calculus, `corpus` enumerates formulas up to a connective bound and decides
each once, its FILL verdict through the separation check, and `stats`
reports size metrics for a certificate, with the branch bound that dn
search would have for its endsequent.

Exit statuses: 0 when the request succeeds, 1 when it fails on the merits
(unprovable formula, rejected proof, cut-bearing input declined, a
translation its target checker rejects, which writes no output), 2 for
usage errors, unparseable input, malformed certificates, a formula outside
FILL to prove in FILL, and an --out path or standard output that cannot be
written, which gets one `cannot write <path>: ...` line (`cannot write
standard output: ...`), not a traceback.  Diagnostics go to standard error;
certificates and records go to standard output or the --out path.

`main` can be called any number of times in one process, as the tests and
the benchmark do.  It builds the argument parser once, on its first call,
and no call leaves state behind for the next: each parse returns a fresh
namespace.  Each command's arguments are parsed once: when the first
argument names a command, the rest go straight to that command's own
subparser, as the full parse would hand them on, and the top-level parser
reads only a command line whose first argument names none (help, no or an
unknown command, a leading `--`).
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from functools import cache, partial

from .certs import (
    CheckError,
    branch_length,
    certificate_text,
    check_fragment,
    postorder,
    proof_size,
    read_certificate,
)
from .deep import check_dn_proof, check_separation
from .display import DC_FILL_EXCLUDED, check_dc_proof, is_fill_display, parse_display
from .formula import (
    Atom,
    Excl,
    Formula,
    Lolli,
    Par,
    ParseError,
    Tensor,
    UnitBot,
    UnitI,
    formula_text,
    is_fill_formula,
    parse_formula,
)
from .prover import _countermodel, branch_bound, decide_formula, goal_reading
from .sequent import is_fill_sequent, parse_sequent, signed_counts
from .shallow import SN_FILL_EXCLUDED, check_sn_proof
from .translate import (
    TranslationError,
    deep_to_shallow,
    display_to_shallow,
    read_display_sequent,
    shallow_to_deep,
    shallow_to_display,
)

__all__ = ["main", "corpus_formulas", "corpus_record", "CORPUS_CAP"]

# enumeration guard: strata grow by roughly a factor of 30 per connective
CORPUS_CAP = 8

_CHECKERS = {"dn": check_dn_proof, "sn": check_sn_proof, "dc": check_dc_proof}
# each calculus's FILL fragment pass: a FILL proof is a BiILL proof that passes it
_FILL = {
    "dn": check_separation,
    "sn": partial(check_fragment, excluded=SN_FILL_EXCLUDED, inside=is_fill_sequent),
    "dc": partial(check_fragment, excluded=DC_FILL_EXCLUDED, inside=is_fill_display),
}


def _in_logic(cert, logic: str) -> None:
    if logic == "fill":
        _FILL[cert.calculus](cert.root)


def _check(cert, logic: str) -> None:
    _CHECKERS[cert.calculus](cert.root)
    _in_logic(cert, logic)


def _cannot_write(out: str | None, e: OSError) -> int:
    print(f"cannot write {'standard output' if out is None else out}: {e}", file=sys.stderr)
    return 2


@contextmanager
def _overwritten(path: str):
    """A UTF-8 text file that writes `path` from its start; on leaving, a
    regular file that was longer than what was written is cut at its end,
    so it holds exactly that, even when a write fails partway.  A new file,
    or one no longer than what was written, needs no cut and gets none.
    Every --out goes through here.

    The file is never truncated to zero first, as `open(path, "w")` would:
    ext4's default `auto_da_alloc` starts writeback at once when a file
    truncated to zero is rewritten and closed, about 0.1 ms a certificate,
    about ten times what an overwrite in place takes.  Like `open(path, "w")`,
    the write is not atomic: a reader may see old bytes beside new ones
    until the cut.  Devices and FIFOs are written, never cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        old_size = st.st_size if stat.S_ISREG(st.st_mode) else 0
        fh = open(fd, "w", encoding="utf-8")
    except BaseException:
        os.close(fd)
        raise
    with fh:
        try:
            yield fh
        finally:
            if old_size and fh.tell() < old_size:
                fh.truncate()


def _emit(text: str, out: str | None) -> int:
    """Write `text` to standard output or the --out path: 0, or 2 after one
    line saying why it cannot be written."""
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with _overwritten(out) as fh:
                fh.write(text)
    except OSError as e:
        return _cannot_write(out, e)
    return 0


def _read_cert_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        return None
    try:
        return read_certificate(text)
    except CheckError as e:
        print(f"malformed certificate: {e}", file=sys.stderr)
        return None


def _counted(n: int, one: str, many: str) -> str:
    return f"{n} {one if n == 1 else many}"


def _imbalance(f: Formula) -> str:
    """Why the formula cannot be provable, when its counts alone say so:
    the first atom, in name order, that occurs more often with one polarity
    than with the other, or else a leaf count other than one more than the
    branching connectives.  Empty when both counts allow a proof."""
    c = signed_counts(f)
    for name, (neg, pos) in sorted(c.atoms.items()):
        if neg != pos:
            return (
                f": atom {name} occurs {_counted(neg, 'time', 'times')} negatively, "
                f"{_counted(pos, 'time', 'times')} positively"
            )
    if c.deficit:
        return (
            f": {_counted(c.leaves, 'positive atom or unit', 'positive atoms and units')}, "
            f"{_counted(c.branches, 'branching connective', 'branching connectives')}"
        )
    return ""


def _countermodel_line(f: Formula) -> str:
    """The valuation into S4 that refutes the formula, as `decide_formula`
    finds it once the counts allow a proof; empty when none does."""
    valuation = _countermodel(f)
    if valuation is None:
        return ""
    at = ", ".join(f"{name}={value}" for name, value in valuation.items())
    return ": false in the 4-element Sugihara monoid" + (f" at {at}" if at else "")


def cmd_prove(args) -> int:
    try:
        f = parse_formula(args.formula)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    try:
        decision = decide_formula(f, args.logic)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if decision.proved:
        try:
            text = certificate_text("dn", args.logic, decision.proof)
        except ValueError as e:
            print(f"cannot write the certificate: {e}", file=sys.stderr)
            return 1
        if _emit(text, args.out):
            return 2
        print(f"Proved ({decision.visited} states visited)", file=sys.stderr)
        return 0
    print(f"Unprovable{_imbalance(f) or _countermodel_line(f)}", file=sys.stderr)
    return 1


def cmd_check(args) -> int:
    cert = _read_cert_file(args.certificate)
    if cert is None:
        return 2
    if args.calculus is not None and args.calculus != cert.calculus:
        print(f"certificate is {cert.calculus}, not {args.calculus}", file=sys.stderr)
        return 1
    logic = args.logic or cert.logic
    try:
        _check(cert, logic)
    except CheckError as e:
        print(f"check failed: {e.located()}", file=sys.stderr)
        return 1
    print(
        f"{cert.calculus} certificate ok under {logic}: {cert.endsequent}",
        file=sys.stderr,
    )
    return 0


def _translated(root, src: str, dst: str):
    # by way of sn; each translator checks its input, in BiILL
    sn = root if src == "sn" else deep_to_shallow(root) if src == "dn" else display_to_shallow(root)
    return sn if dst == "sn" else shallow_to_deep(sn) if dst == "dn" else shallow_to_display(sn)


def cmd_translate(args) -> int:
    cert = _read_cert_file(args.certificate)
    if cert is None:
        return 2
    if args.calculus == cert.calculus:
        print(f"certificate is already in {args.calculus}", file=sys.stderr)
        return 2
    logic = args.logic or cert.logic
    start = time.perf_counter()
    try:
        _in_logic(cert, logic)  # the translator runs the BiILL check
        out_root = _translated(cert.root, cert.calculus, args.calculus)
    except TranslationError as e:
        print(f"translation failed: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 1
    except CheckError as e:
        print(f"input certificate rejected: {e.located()}", file=sys.stderr)
        return 1
    seconds = time.perf_counter() - start
    try:
        text = certificate_text(args.calculus, "biill", out_root)
    except ValueError as e:
        # a translation can nest deeper than its input: a display side as
        # deep as it is wide, a displayed sequent about twice as deep as
        # its tree
        stage = f"{cert.calculus} -> sn" if args.calculus == "sn" else f"sn -> {args.calculus}"
        print(f"translation failed: {stage}: {e}", file=sys.stderr)
        return 1
    if _emit(text, args.out):
        return 2
    print(
        f"{cert.calculus} -> {args.calculus}: {proof_size(cert.root)} nodes "
        f"in, {proof_size(out_root)} out, {len(text.encode())} bytes, {seconds:.2f} s",
        file=sys.stderr,
    )
    return 0


def _stratum(strata, n: int, logic: str):
    for i in range(n):
        for a in strata[i]:
            for b in strata[n - 1 - i]:
                if a <= b:
                    yield Tensor(a, b)
                    yield Par(a, b)
                yield Lolli(a, b)
                if logic == "biill":
                    yield Excl(a, b)


def corpus_formulas(variables, max_connectives: int, logic: str = "biill"):
    """All formulas over the variables plus units, by connective count, one
    representative per commutativity class of * and |.  Deterministic order:
    strata by size, construction order within a stratum.  Lower strata are
    kept for composition; the top stratum streams."""
    leaves: list[Formula] = [Atom(v) for v in variables]
    leaves += [UnitI(), UnitBot()]
    strata: list[list[Formula]] = [leaves]
    yield from leaves
    for n in range(1, max_connectives + 1):
        if n < max_connectives:
            layer = list(_stratum(strata, n, logic))
            strata.append(layer)
            yield from layer
        else:
            yield from _stratum(strata, n, logic)


def corpus_record(f: Formula) -> dict:
    """Decide one formula once, in BiILL.  When it has no exclusion, `fill`
    is that verdict too, once a proof has passed the separation check;
    else `fill` is null.  Node and branch metrics come from the proof."""
    decision = decide_formula(f)
    fill = is_fill_formula(f)
    if fill and decision.proved:
        check_separation(decision.proof)
    word = "proved" if decision.proved else "unprovable"
    record: dict = {"formula": formula_text(f), "fill": word if fill else None, "biill": word}
    if decision.proof is not None:
        record["nodes"] = proof_size(decision.proof)
        record["max_branch"] = branch_length(decision.proof)
    else:
        record["nodes"] = None
        record["max_branch"] = None
    return record


def cmd_corpus(args) -> int:
    if args.max_size < 0 or args.max_size > CORPUS_CAP:
        print(f"--max-size must be between 0 and {CORPUS_CAP}", file=sys.stderr)
        return 2
    variables = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not variables or any(not v.isalpha() or not v.islower() for v in variables):
        print("--vars needs a comma-separated list of lowercase names", file=sys.stderr)
        return 2
    n = 0
    try:
        with ExitStack() as stack:
            sink = sys.stdout if args.out is None else stack.enter_context(_overwritten(args.out))
            for f in corpus_formulas(variables, args.max_size, args.logic):
                sink.write(json.dumps(corpus_record(f)) + "\n")
                n += 1
            sink.flush()
    except OSError as e:
        # the open, a write partway through, or the last flush
        return _cannot_write(args.out, e)
    print(f"{n} records", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    cert = _read_cert_file(args.certificate)
    if cert is None:
        return 2
    try:
        _check(cert, cert.logic)
    except CheckError as e:
        print(f"certificate does not check: {e.located()}", file=sys.stderr)
        return 1
    if cert.calculus == "dc":
        endsequent = read_display_sequent(parse_display(cert.endsequent))
    else:
        endsequent = parse_sequent(cert.endsequent)
    rules = Counter(node.rule for node in postorder(cert.root))
    record = {
        "calculus": cert.calculus,
        "logic": cert.logic,
        "endsequent": cert.endsequent,
        "nodes": proof_size(cert.root),
        "max_branch": branch_length(cert.root),
        "rules": dict(sorted(rules.items())),
        "branch_bound": branch_bound(goal_reading(endsequent)),
    }
    return _emit(json.dumps(record, indent=2) + "\n", args.out)


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fillprover",
        description="decision procedure and proof toolkit for FILL and BiILL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide a formula, write a dn certificate on success")
    p.add_argument("formula", help="formula text, e.g. 'a * (b | c) -o (a * b) | c'")
    fill_help = "fill: an exclusion-free formula, the one search, then the separation check on the proof"
    p.add_argument("--logic", choices=("fill", "biill"), default="biill", help=fill_help)
    p.add_argument("--out", metavar="PATH", help="certificate file (default stdout)")

    p = sub.add_parser("check", help="validate a certificate with its calculus checker")
    p.add_argument("certificate", help="certificate file")
    p.add_argument("--calculus", choices=("dn", "sn", "dc"), help="require this calculus")
    override = "override the recorded logic; fill adds the FILL fragment pass"
    p.add_argument("--logic", choices=("fill", "biill"), help=f"{override} to the biill check")

    p = sub.add_parser("translate", help="rebuild a certificate in another calculus")
    p.add_argument("certificate", help="certificate file")
    p.add_argument("--calculus", choices=("dn", "sn", "dc"), required=True, help="target calculus")
    p.add_argument("--logic", choices=("fill", "biill"), help=f"{override} on the input")
    p.add_argument("--out", metavar="PATH", help="certificate file (default stdout)")

    p = sub.add_parser("corpus", help="enumerate and decide formulas, one JSON record per line")
    p.add_argument("--max-size", type=int, default=2, metavar="N", help="connective bound")
    p.add_argument("--vars", default="p,q", metavar="LIST", help="comma-separated atom names")
    p.add_argument(
        "--logic",
        choices=("fill", "biill"),
        default="biill",
        help="biill enumerates exclusion formulas too; each formula is decided once, in fill if it can be",
    )
    p.add_argument("--out", metavar="PATH", help="records file (default stdout)")

    p = sub.add_parser("stats", help="size metrics and dn search bounds for a certificate")
    p.add_argument("certificate", help="certificate file")
    p.add_argument("--out", metavar="PATH", help="metrics file (default stdout)")

    parser.commands = sub.choices  # each command's own parser, for `main`
    return parser


# looked up at every call rather than bound into the cached parser, so a
# wrapper put in this table later (as perfbench's tracer does) is the one run
_COMMANDS = {
    "prove": cmd_prove,
    "check": cmd_check,
    "translate": cmd_translate,
    "corpus": cmd_corpus,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        # help, no command, an unknown one or a leading `--`: the full parse
        args = parser.parse_args(argv)
    else:
        # what the full parse would hand this command's parser, parsed once;
        # extra arguments are refused as the full parse refuses them
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
