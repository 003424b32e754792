"""Proof trees and the JSON certificate format shared by all three calculi.

A certificate is a JSON object

    {"calculus": "dn" | "sn" | "dc",
     "logic": "fill" | "biill",
     "endsequent": "<text>",
     "proof": <node>}

where each node is `{"rule": ..., "conclusion": ..., "witness": {...}?,
"premises": [...]}`.  Conclusions and endsequents use the sequent text syntax
for the nested ("dn") and shallow ("sn") calculi and the structure syntax for
the display calculus ("dc").  The optional witness narrows the choices a rule
application makes: `context` locates the rewritten node (`_` marks the hole),
`principal` names the formula acted on, `child_origin` picks the child a
propagation crosses by its origin, and `ctx1`/`ctx2` give the context
halves used by a branching rule.
Every checker judges each node locally, on its own conclusion and its
premises' conclusions (`check_tree`).  The witness need not pin everything:
the dn checker tries every principal and child that the witness leaves
open, and recovers the split of the rewritten node's own material between a
branching rule's premises from the stated premises.

Certificates are written as compact JSON, on one line without indentation;
the reader accepts any layout of the same JSON.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from itertools import groupby
from typing import Iterator, NamedTuple, Optional

from .formula import _MAX_NESTING, Formula, ParseError, _clip, _read_formula, formula_text
from .sequent import Context, Hole, _read_context, _read_sequent, sequent_text

__all__ = [
    "CheckError",
    "Witness",
    "ProofNode",
    "Certificate",
    "proof_size",
    "branch_length",
    "postorder",
    "check_tree",
    "check_fragment",
    "cut_loops",
    "stack_room",
    "context_text",
    "parse_context",
    "conclusion_text",
    "certificate_text",
    "read_certificate",
]

CALCULI = ("dn", "sn", "dc")
LOGICS = ("fill", "biill")


class CheckError(Exception):
    """Raised when a proof fails schema or side-condition checking.  `path`
    (premise indices from the root) and `rule` name the failing node; None
    for a malformed certificate."""

    path: Optional[tuple] = None
    rule: Optional[str] = None

    def located(self) -> str:
        """The message after `at 0*2.1.0 (tensor_r): `, a run of n steps i as `i*n`."""
        if self.path is None:
            return str(self)
        runs = ((i, len(tuple(g))) for i, g in groupby(self.path))
        where = ".".join(f"{i}*{n}" if n > 1 else str(i) for i, n in runs) or "root"
        rule = _clip(self.rule, quote=str if self.rule.isidentifier() else repr)
        return f"at {_clip(where, quote=str)} ({rule}): {self}"


class Witness(NamedTuple):
    context: Optional[Context] = None
    principal: Optional[Formula] = None
    child_origin: Optional[int] = None
    ctx1: Optional[Context] = None
    ctx2: Optional[Context] = None


class ProofNode(NamedTuple):
    rule: str
    conclusion: object
    premises: tuple = ()
    witness: Optional[Witness] = None


class Certificate(NamedTuple):
    calculus: str
    logic: str
    endsequent: str
    root: ProofNode


def proof_size(node: ProofNode) -> int:
    # iterative: display chains make proof depth linear in size
    n = 0
    todo = [node]
    while todo:
        cur = todo.pop()
        n += 1
        todo.extend(cur.premises)
    return n


def branch_length(node: ProofNode) -> int:
    """Number of nodes on the longest root-to-leaf branch."""
    best = 0
    todo = [(node, 1)]
    while todo:
        cur, depth = todo.pop()
        if not cur.premises:
            best = max(best, depth)
        todo.extend((p, depth + 1) for p in cur.premises)
    return best


@contextmanager
def stack_room(frames: int):
    """Run a block with at least `frames` of recursion headroom left, then
    put the interpreter limit back.  The walks that recurse in proportion
    to proof size ask for their own allowance instead of assuming whoever
    ran last left the limit high enough."""
    depth = 2
    f = sys._getframe()
    while f is not None:
        depth += 1
        f = f.f_back
    need = depth + frames
    limit = sys.getrecursionlimit()
    if limit >= need:
        yield
        return
    sys.setrecursionlimit(need)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def postorder(node: ProofNode) -> Iterator[ProofNode]:
    stack = [(node, False)]
    while stack:
        cur, expanded = stack.pop()
        if expanded:
            yield cur
        else:
            stack.append((cur, True))
            stack.extend((p, False) for p in reversed(cur.premises))


def _located(e: CheckError, root: ProofNode, node: ProofNode) -> CheckError:
    """`e` naming `node`, where a preorder walk from `root` failed: found by identity only then."""
    path, todo = [], [(root, 0, None)]
    while todo:
        cur, depth, i = todo.pop()
        path[depth:] = [i]
        if cur is node:
            e.path, e.rule = tuple(path[1:]), node.rule
            return e
        todo.extend((p, depth + 1, j) for j, p in reversed(tuple(enumerate(cur.premises))))


def check_tree(root: ProofNode, rules: dict, step, read=None, expect=None) -> None:
    """The checker loop of all three calculi: each node in preorder, over an
    explicit stack of (node, the value `c` its conclusion reads as).  Every
    node is judged locally: `rules` maps a rule name to its premise count,
    and `step(node, c, ps)` says whether the node's rule derives `c` from
    `ps`, its premises' conclusions through `read`, which each premise is
    then checked against.  No node's check depends on another's, so the loop
    never backtracks.  The root is checked against its conclusion, which
    must read as `expect` does, when given."""
    read = read or (lambda c: c)
    todo = [(root, read(root.conclusion))]
    if expect is not None and read(expect) != todo[0][1]:
        raise CheckError("root conclusion does not match the expected sequent")
    try:
        while todo:
            node, c = todo.pop()
            rule = node.rule
            if rule not in rules:
                raise CheckError(f"unknown rule {_clip(rule)}")
            if len(node.premises) != rules[rule]:
                raise CheckError(f"rule {rule} expects {rules[rule]} premises, got {len(node.premises)}")
            ps = tuple(read(p.conclusion) for p in node.premises)
            if not step(node, c, ps):
                raise CheckError(f"rule {rule} does not derive {_clip(str(node.conclusion))} from its premises")
            todo.extend(reversed(tuple(zip(node.premises, ps))))
    except CheckError as e:
        raise _located(e, root, node)


def check_fragment(root: ProofNode, excluded: frozenset, inside) -> None:
    """The FILL fragment pass, given a calculus's rules outside FILL and its
    test of a FILL conclusion.  Raises CheckError at the first offender in
    preorder; the checker, not this pass, says whether the tree is a proof."""
    todo = [root]
    while todo:
        node = todo.pop()
        if node.rule in excluded:
            raise _located(CheckError(f"rule {node.rule} lies outside FILL"), root, node)
        if not inside(node.conclusion):
            raise _located(CheckError(f"sequent leaves FILL: {_clip(str(node.conclusion))}"), root, node)
        todo.extend(reversed(node.premises))


def _kept(node: ProofNode) -> list:
    """The nodes that survive of the one-premise chain starting at `node`,
    from the bottom up to its base, the first node without exactly one
    premise: each node gives way to the highest node of the chain with
    the same conclusion."""
    chain = [node]
    while len(node.premises) == 1:
        node = node.premises[0]
        chain.append(node)
    highest = {n.conclusion: i for i, n in enumerate(chain)}
    kept = []
    i = 0
    while i < len(chain):
        i = highest[chain[i].conclusion]
        kept.append(chain[i])
        i += 1
    return kept


def cut_loops(root: ProofNode) -> ProofNode:
    """The proof with every detour inside a one-premise chain cut out.

    When a node's conclusion equals (strictly, origins included)
    the conclusion of a node higher up the same chain of one-premise
    nodes, or of the chain's base, the proof above the higher node takes
    the lower node's place, and the nodes in between go.  Rules and
    witnesses of the surviving nodes are kept, and the root's conclusion
    does not change.  Afterwards no chain repeats a conclusion.

    Cutting keeps a proof a proof.  Every checker judges a node by its own
    conclusion and the conclusions of its premises (`check_tree`), and a
    surviving node's premise now concludes exactly what its old premise
    did, so each remaining node is checked against the same data as before.

    The walk uses explicit stacks and one dict per chain, so it takes time
    linear in the proof and no recursion."""
    frames = []  # the surviving nodes of each chain, in preorder of chains
    todo = [root]
    while todo:
        kept = _kept(todo.pop())
        frames.append(kept)
        todo.extend(reversed(kept[-1].premises))
    done: list[ProofNode] = []  # rebuilt chains; a base's first premise on top
    for kept in reversed(frames):
        base = kept[-1]
        kids = tuple(done.pop() for _ in base.premises)
        node = base
        if any(new is not old for new, old in zip(kids, base.premises)):
            node = ProofNode(base.rule, base.conclusion, kids, base.witness)
        for below in reversed(kept[:-1]):
            if below.premises[0] is not node:
                below = ProofNode(below.rule, below.conclusion, (node,), below.witness)
            node = below
        done.append(node)
    return done[0]


def context_text(ctx: Context) -> str:
    return "_" if isinstance(ctx, Hole) else sequent_text(ctx)


def parse_context(text: str) -> Context:
    return _read_context(text, {})


def conclusion_text(calculus: str, conclusion) -> str:
    if calculus in ("dn", "sn"):
        return sequent_text(conclusion)
    from .display import display_text

    return display_text(conclusion)


# the longest text that cannot nest past the reader's bound: a level of
# brackets, or of a formula or structure tree, takes two characters at least
_SHORT = 2 * _MAX_NESTING + 1

# The JSON decoder recurses on the C stack, which overflows well before an
# allowance proportional to the input would trip on a few megabytes of
# nested brackets; past this many levels the text is rejected instead.
_JSON_FRAMES = 40_000
# the tallest proof a certificate holds: each node nests two JSON levels,
# its object and its premise list, and its text takes over 20 characters,
# so the reader's allowance by length, a level per 10, covers it too
_TALLEST = _JSON_FRAMES // 2


def _text(value, text: str, long: list) -> str:
    """`text`, the rendering of `value`; `value` joins `long` when its text
    is long enough to nest past the reader's bound."""
    if len(text) > _SHORT:
        long.append(value)
    return text


def _witness_dict(w: Witness, long: list) -> dict:
    out: dict = {}
    if w.context is not None:
        out["context"] = _text(w.context, context_text(w.context), long)
    if w.principal is not None:
        out["principal"] = _text(w.principal, formula_text(w.principal), long)
    if w.child_origin is not None:
        out["child_origin"] = w.child_origin
    if w.ctx1 is not None:
        out["ctx1"] = _text(w.ctx1, context_text(w.ctx1), long)
    if w.ctx2 is not None:
        out["ctx2"] = _text(w.ctx2, context_text(w.ctx2), long)
    return out


def _node_dict(calculus: str, node: ProofNode, long: list) -> dict:
    out: dict = {
        "rule": node.rule,
        "conclusion": _text(node.conclusion, conclusion_text(calculus, node.conclusion), long),
    }
    if node.witness is not None:
        w = _witness_dict(node.witness, long)
        if w:
            out["witness"] = w
    out["premises"] = [_node_dict(calculus, p, long) for p in node.premises]
    return out


def certificate_text(calculus: str, logic: str, root: ProofNode) -> str:
    """The certificate of `root` as JSON text.  Raises ValueError when the
    proof is taller than `_TALLEST` nodes, or a conclusion or witness nests
    deeper than `read_certificate` reads (`display.nesting`, applied to
    each text too long to be within the bound on its length alone), so no
    certificate written here is refused for how deep it nests."""
    from .display import nesting

    if calculus not in CALCULI:
        raise ValueError(f"unknown calculus {calculus!r}")
    if logic not in LOGICS:
        raise ValueError(f"unknown logic {logic!r}")
    height = branch_length(root)
    if height > _TALLEST:
        raise ValueError(f"the proof is {height} nodes tall, past the {_TALLEST} a certificate can hold")
    long: list = []
    # one allowance covers building the nodes' dicts and encoding them
    with stack_room(10 * height + 2000):
        data = {
            "calculus": calculus,
            "logic": logic,
            "endsequent": conclusion_text(calculus, root.conclusion),
            "proof": _node_dict(calculus, root, long),
        }
        depth, what = nesting(long) if long else (0, None)
        if depth > _MAX_NESTING:
            raise ValueError(f"{what} nests {depth} deep, past the {_MAX_NESTING} levels a certificate can hold")
        return json.dumps(data) + "\n"


def _check_types(what: str, data: dict, types: dict) -> None:
    """Reject a present field whose JSON type is not the one named for it."""
    for key, kind in types.items():
        if key in data and type(data[key]) is not kind:
            raise CheckError(f"{what} field {key!r} must be {kind.__name__}, not {type(data[key]).__name__}")


_NODE_TYPES = {"rule": str, "conclusion": str, "premises": list}
_WITNESS_TYPES = {"context": str, "principal": str, "child_origin": int, "ctx1": str, "ctx2": str}


def _read_witness(data: dict, table: dict) -> Witness:
    if not isinstance(data, dict):
        raise CheckError("witness must be an object")
    unknown = data.keys() - _WITNESS_TYPES.keys()
    if unknown:
        raise CheckError(f"unknown witness fields: {sorted(unknown)}")
    _check_types("witness", data, _WITNESS_TYPES)

    def context(key: str) -> Context | None:
        return _read_context(data[key], table) if key in data else None

    try:
        return Witness(
            context=context("context"),
            principal=_read_formula(data["principal"], table) if "principal" in data else None,
            child_origin=data.get("child_origin"),
            ctx1=context("ctx1"),
            ctx2=context("ctx2"),
        )
    except ParseError as e:
        raise CheckError(f"bad witness: {e}") from e


def _reader(calculus: str):
    """The reader of the conclusion text of `calculus`, which takes the text
    and the formula table of the read."""
    if calculus == "dc":
        from .display import _read_display

        return _read_display
    return _read_sequent


def _read_proof(calculus: str, proof, table: dict) -> ProofNode:
    """The proof tree of the JSON node `proof`.  Nodes are read in preorder,
    so the first bad one is the one reported, and built bottom-up, each
    from the premises built before it; two explicit stacks, no recursion."""
    read = _reader(calculus)
    nodes = []  # (rule, conclusion, witness, premise count) in preorder
    todo = [proof]
    while todo:
        data = todo.pop()
        if not isinstance(data, dict) or "rule" not in data or "conclusion" not in data:
            raise CheckError("proof node needs 'rule' and 'conclusion'")
        _check_types("proof node", data, _NODE_TYPES)
        try:
            conclusion = read(data["conclusion"], table)
        except ParseError as e:
            raise CheckError(f"bad conclusion {_clip(data['conclusion'])}: {e}") from e
        witness = _read_witness(data["witness"], table) if "witness" in data else None
        premises = data.get("premises", ())
        nodes.append((data["rule"], conclusion, witness, len(premises)))
        todo.extend(reversed(premises))
    built: list[ProofNode] = []  # in reverse preorder, a node's premises are the last built, first on top
    for rule, conclusion, witness, n in reversed(nodes):
        k = len(built) - n
        built[k:] = [ProofNode(rule, conclusion, tuple(reversed(built[k:])), witness)]
    return built[0]


def read_certificate(data) -> Certificate:
    """The certificate in `data`, JSON text or its decoded object.  One
    formula table serves the whole read (see `formula._tokenize`), so each
    distinct formula text in it is parsed once."""
    if isinstance(data, str):
        try:
            with stack_room(min(len(data) // 10, _JSON_FRAMES) + 2000):
                data = json.loads(data)
        except RecursionError:
            raise CheckError("JSON nests too deep") from None
        except ValueError as e:  # a JSONDecodeError, or an integer past the digit limit
            raise CheckError(f"not JSON: {e}") from e
    if not isinstance(data, dict):
        raise CheckError("certificate must be a JSON object")
    calculus = data.get("calculus")
    logic = data.get("logic", "biill")
    if calculus not in CALCULI:
        raise CheckError(f"unknown calculus {calculus!r}")
    if logic not in LOGICS:
        raise CheckError(f"unknown logic {logic!r}")
    if "proof" not in data:
        raise CheckError("certificate has no proof")
    table: dict = {}
    root = _read_proof(calculus, data["proof"], table)
    endsequent = data.get("endsequent")
    if endsequent is not None:
        _check_types("certificate", data, {"endsequent": str})
        try:
            end = _reader(calculus)(endsequent, table)
        except ParseError as e:
            raise CheckError(f"bad endsequent {_clip(endsequent)}: {e}") from e
        # values, not renderings, are compared: every rendering reads back
        # as the value it renders
        if end != root.conclusion:
            raise CheckError("endsequent does not match the proof root")
    return Certificate(calculus, logic, conclusion_text(calculus, root.conclusion), root)
