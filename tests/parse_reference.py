"""A reference reader for the three text syntaxes, to test the package's own.

These are plain recursive-descent grammars over one token at a time: a
formula grammar, the nested-sequent grammar and the display-structure
grammar, which tries a formula first at every item and rewinds when that
fails.  They accept the same language as `fillprover`'s readers and build
the same values, but share none of their code beyond the values they
build: no formula table, no token runs, no operator-precedence loop.
Tests compare the two readers on generated text and on real certificates;
nothing in the package imports this module.

`read_proof` reads the proof of a whole certificate the same way, node by
node, with no table shared between texts.

The reference keeps both nesting bounds: brackets nest at most
`MAX_NESTING` deep, and so does each formula tree and each display
structure tree above its leaf formulas.
"""

from __future__ import annotations

import json
import re

from fillprover.certs import ProofNode, Witness
from fillprover.display import DisplaySequent, SComma, SGt, SLeaf, SLt, SPhi
from fillprover.formula import Atom, Excl, Lolli, Par, ParseError, Tensor, UnitBot, UnitI
from fillprover.sequent import HOLE, Occ, Sequent, hole_count

MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(Phi(?![a-z0-9_])|[a-z][a-z0-9_]*|@[0-9]+|-[o<]|=>|\|-|[()*|1\[\],_<>])|(\S))")
_NEST = {"(": 1, "[": 1, ")": -1, "]": -1}


class Cursor:
    """A position in the tokens of one text."""

    def __init__(self, text: str):
        self.toks = []
        depth = 0
        for m in _TOKEN.finditer(text):
            tok = m.group(1)
            if tok is None:
                raise ParseError(f"unexpected character {m.group(2)!r} at position {m.start(2)}")
            depth += _NEST.get(tok, 0)
            if depth > MAX_NESTING:
                raise ParseError(f"brackets nest deeper than {MAX_NESTING}")
            self.toks.append(tok)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.take() != tok:
            raise ParseError(f"expected {tok!r}")

    def end(self) -> None:
        if self.peek() is not None:
            raise ParseError("trailing input")


def _join(cls, left: tuple, right: tuple) -> tuple:
    depth = 1 + max(left[1], right[1])
    if depth > MAX_NESTING:
        raise ParseError(f"nests deeper than {MAX_NESTING}")
    return cls(left[0], right[0]), depth


# ---------------------------------------------------------------- formulas

def _arrows(cur: Cursor) -> tuple:
    parts = [_excl(cur)]
    while cur.peek() == "-o":
        cur.take()
        parts.append(_excl(cur))
    f = parts.pop()
    while parts:
        f = _join(Lolli, parts.pop(), f)
    return f


def _excl(cur: Cursor) -> tuple:
    f = _mult(cur)
    while cur.peek() == "-<":
        cur.take()
        f = _join(Excl, f, _mult(cur))
    return f


def _mult(cur: Cursor) -> tuple:
    f = _unary(cur)
    while cur.peek() in ("*", "|"):
        op = cur.take()
        f = _join(Tensor if op == "*" else Par, f, _unary(cur))
    return f


def _unary(cur: Cursor) -> tuple:
    tok = cur.take()
    if tok == "(":
        f = _arrows(cur)
        cur.expect(")")
        return f
    if tok == "1":
        return UnitI(), 0
    if tok == "bot":
        return UnitBot(), 0
    if tok is not None and "a" <= tok[0] <= "z":
        return Atom(tok), 0
    raise ParseError(f"unexpected token {tok!r}")


def parse_formula(text: str):
    cur = Cursor(text)
    f = _arrows(cur)[0]
    cur.end()
    return f


# ---------------------------------------------------------------- sequents

def _item(cur: Cursor):
    tok = cur.peek()
    if tok == "_":
        cur.take()
        return HOLE
    if tok == "[":
        cur.take()
        left, right = _sides(cur)
        cur.expect("]")
        return Sequent(left, right, _origin(cur))
    return Occ(_arrows(cur)[0])


def _side(cur: Cursor) -> tuple:
    nxt = cur.peek()
    if nxt in (None, "=>", "]") or nxt.startswith("@"):
        return ()
    items = [_item(cur)]
    while cur.peek() == ",":
        cur.take()
        items.append(_item(cur))
    return tuple(items)


def _sides(cur: Cursor) -> tuple:
    left = _side(cur)
    cur.expect("=>")
    return left, _side(cur)


def _origin(cur: Cursor) -> int:
    tok = cur.peek()
    if tok is None or not tok.startswith("@"):
        return 0
    cur.take()
    try:
        return int(tok[1:])
    except ValueError:
        raise ParseError("origin too long") from None


def parse_sequent(text: str):
    cur = Cursor(text)
    left, right = _sides(cur)
    s = Sequent(left, right, _origin(cur))
    cur.end()
    return s


def parse_context(text: str):
    ctx = HOLE if text.strip() == "_" else parse_sequent(text)
    if hole_count(ctx) != 1:
        raise ParseError("context needs exactly one hole")
    return ctx


# -------------------------------------------------------------- structures

def _structure(cur: Cursor) -> tuple:
    x = _resid(cur)
    while cur.peek() == ",":
        cur.take()
        x = _join(SComma, x, _resid(cur))
    return x


def _resid(cur: Cursor) -> tuple:
    x = _struct_item(cur)
    if cur.peek() in (">", "<"):
        op = cur.take()
        return _join(SGt if op == ">" else SLt, x, _struct_item(cur))
    return x


def _struct_item(cur: Cursor) -> tuple:
    tok = cur.peek()
    if tok == "Phi":
        cur.take()
        return SPhi(), 0
    start = cur.i
    try:
        return SLeaf(_arrows(cur)[0]), 0
    except ParseError:
        cur.i = start
    if tok == "(":
        cur.take()
        x = _structure(cur)
        cur.expect(")")
        return x
    raise ParseError(f"expected a structure item, found {tok!r}")


def parse_structure(text: str):
    cur = Cursor(text)
    x = _structure(cur)[0]
    cur.end()
    return x


def parse_display(text: str):
    cur = Cursor(text)
    ant = _structure(cur)[0]
    cur.expect("|-")
    suc = _structure(cur)[0]
    cur.end()
    return DisplaySequent(ant, suc)


# ------------------------------------------------------------ certificates

def _witness(data: dict) -> Witness:
    def context(key: str):
        return parse_context(data[key]) if key in data else None

    return Witness(
        context=context("context"),
        principal=parse_formula(data["principal"]) if "principal" in data else None,
        child_origin=data.get("child_origin"),
        ctx1=context("ctx1"),
        ctx2=context("ctx2"),
    )


def read_proof(text: str) -> ProofNode:
    """The proof of the certificate `text`, each conclusion and witness read
    on its own by the grammars above."""
    data = json.loads(text)
    parse = parse_display if data["calculus"] == "dc" else parse_sequent

    def node(d: dict) -> ProofNode:
        witness = _witness(d["witness"]) if "witness" in d else None
        premises = tuple(node(p) for p in d.get("premises", ()))
        return ProofNode(d["rule"], parse(d["conclusion"]), premises, witness)

    return node(data["proof"])
