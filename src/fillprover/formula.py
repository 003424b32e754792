"""Formulas of multiplicative bi-intuitionistic linear logic.

The language has atoms, a tensor unit `1`, a par unit `bot`, and four binary
connectives: tensor `*`, par `|`, linear implication `-o`, and exclusion `-<`.
Formulas without exclusion form the FILL fragment.

`*` and `|` share one left-associative tier and bind tighter than the arrows;
`-o` associates to the right, `-<` associates to the left and binds tighter
than `-o`.  Atoms match `[a-z][a-z0-9_]*`; `bot` is reserved for the unit.

Formulas carry no annotation: an occurrence is its formula and nothing
more, as in the paper's annotation-free calculi.

A formula is a tagged tuple: its first element is the tag of its kind
(atom 0, `1` 1, `bot` 2, `*` 3, `|` 4, `-o` 5, `-<` 6) and its fields
follow (`(5, left, right)`).  Tuple order is therefore the canonical order,
kinds by tag and then fields left to right; equality is structural, and
the interpreter computes the hash.  Fields read by name through
properties, so class patterns such as `Lolli(left=l)` match as usual.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Union

__all__ = [
    "ParseError",
    "Formula",
    "Atom",
    "UnitI",
    "UnitBot",
    "Tensor",
    "Par",
    "Lolli",
    "Excl",
    "parse_formula",
    "formula_text",
    "formula_size",
    "connective_count",
    "arrow_count",
    "is_fill_formula",
]


class ParseError(ValueError):
    """Raised when formula or sequent text does not parse."""


# the kind tags, in the canonical order of the kinds
_ATOM, _ONE, _BOT, _TENSOR, _PAR, _LOLLI, _EXCL = range(7)


class _Tagged(tuple):
    """A tuple whose first element is its kind's tag and whose other
    elements are its fields."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self[1:]))})"

    def __str__(self) -> str:
        return formula_text(self)


class Atom(_Tagged):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, (_ATOM, name))


class UnitI(_Tagged):
    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, (_ONE,))


class UnitBot(_Tagged):
    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, (_BOT,))


class _Binary(_Tagged):
    __slots__ = ()
    left = property(itemgetter(1))
    right = property(itemgetter(2))


class Tensor(_Binary):
    __slots__ = ()

    def __new__(cls, left: Formula, right: Formula):
        return tuple.__new__(cls, (_TENSOR, left, right))


class Par(_Binary):
    __slots__ = ()

    def __new__(cls, left: Formula, right: Formula):
        return tuple.__new__(cls, (_PAR, left, right))


class Lolli(_Binary):
    __slots__ = ()

    def __new__(cls, left: Formula, right: Formula):
        return tuple.__new__(cls, (_LOLLI, left, right))


class Excl(_Binary):
    __slots__ = ()

    def __new__(cls, left: Formula, right: Formula):
        return tuple.__new__(cls, (_EXCL, left, right))


Formula = Union[Atom, UnitI, UnitBot, Tensor, Par, Lolli, Excl]


def formula_size(f: Formula) -> int:
    """Node count: every atom, unit, and connective occurrence."""
    match f:
        case Atom() | UnitI() | UnitBot():
            return 1
        case Tensor(left=l, right=r) | Par(left=l, right=r) | Lolli(left=l, right=r) | Excl(left=l, right=r):
            return 1 + formula_size(l) + formula_size(r)
    raise TypeError(f"not a formula: {f!r}")


def connective_count(f: Formula) -> int:
    """Number of binary connective occurrences."""
    match f:
        case Atom() | UnitI() | UnitBot():
            return 0
        case Tensor(left=l, right=r) | Par(left=l, right=r) | Lolli(left=l, right=r) | Excl(left=l, right=r):
            return 1 + connective_count(l) + connective_count(r)
    raise TypeError(f"not a formula: {f!r}")


def arrow_count(f: Formula) -> int:
    """Number of implication and exclusion occurrences."""
    match f:
        case Atom() | UnitI() | UnitBot():
            return 0
        case Tensor(left=l, right=r) | Par(left=l, right=r):
            return arrow_count(l) + arrow_count(r)
        case Lolli(left=l, right=r) | Excl(left=l, right=r):
            return 1 + arrow_count(l) + arrow_count(r)
    raise TypeError(f"not a formula: {f!r}")


def is_fill_formula(f: Formula) -> bool:
    """True when the formula stays inside FILL, i.e. contains no exclusion."""
    tag = f[0]
    if tag < _TENSOR:
        return True
    if tag < _EXCL:
        return is_fill_formula(f[1]) and is_fill_formula(f[2])
    if tag == _EXCL:
        return False
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------- parsing

_TOKEN = re.compile(r"\s*(?:(Phi(?![a-z0-9_])|[a-z][a-z0-9_]*|@[0-9]+|-[o<]|=>|\|-|[()*|1\[\],_<>])|(\S))")
_MAX_NESTING = 100
_NEST = {"(": 1, "[": 1, ")": -1, "]": -1}


def _clip(text: str, limit: int = 60) -> str:
    """`text` quoted for an error message, cut to its first `limit`
    characters so that one line stays short whatever the input."""
    return repr(text) if len(text) <= limit else repr(text[:limit]) + "..."


def _tokenize(text: str) -> list[str]:
    toks: list[str] = []
    depth = 0
    for m in _TOKEN.finditer(text):
        tok = m.group(1)
        if tok is None:
            raise ParseError(f"unexpected character {m.group(2)!r} at position {m.start(2)}")
        depth += _NEST.get(tok, 0)
        if depth > _MAX_NESTING:
            raise ParseError(f"brackets nest deeper than {_MAX_NESTING} at position {m.start(1)}")
        toks.append(tok)
    return toks


class _Cursor:
    """The parser core: a position in the tokens of one text.  Every text
    syntax of the package reads through it: formulas here, nested sequents
    in `sequent.py`, display structures in `display.py`.  Its tokens are the
    union of what the three grammars use:

    - formulas: identifiers `[a-z][a-z0-9_]*`, `1`, `(`, `)`, `*`, `|`,
      `-o`, `-<`;
    - nested sequents: `=>`, `[`, `]`, `,`, `_` and child origins `@<digits>`;
    - display structures: `|-`, `>`, `<`, `,`, and `Phi` when no identifier
      character follows it.

    Whitespace separates tokens and is otherwise ignored; any other
    character is a ParseError.  Tokens are read longest first (`|-` before
    `|`, `-<` before `<`), which changes no valid input, and each grammar
    rejects the tokens it does not use.  Brackets nest at most
    `_MAX_NESTING` deep, and so does each parsed formula tree and each
    display structure tree (above its leaf formulas), so neither a parse nor
    a later walk of its result runs out of interpreter stack.

    A grammar that must retry from an earlier position saves `i` and
    assigns it back."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> str | None:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, tok: str, message: str) -> None:
        if self.take() != tok:
            raise ParseError(message)

    def end(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {_clip(self.peek())}")


def _formula(cur: _Cursor) -> Formula:
    """A formula starting at the cursor, read as far as it extends."""
    return _arrows(cur)[0]


# Each rule below returns the formula it read with the depth of its tree,
# and `_join` builds every connective node, so no tree grows past
# `_MAX_NESTING` levels.  The display grammar builds its structure nodes
# with `_join` too.

def _join(cls, left: tuple, right: tuple, what: str = "formula") -> tuple:
    depth = 1 + max(left[1], right[1])
    if depth > _MAX_NESTING:
        raise ParseError(f"{what} nests deeper than {_MAX_NESTING}")
    return cls(left[0], right[0]), depth


def _arrows(cur: _Cursor) -> tuple[Formula, int]:
    # `-o` chains are collected and folded rightwards, so only brackets
    # make the parser recurse
    parts = [_excl(cur)]
    while cur.peek() == "-o":
        cur.take()
        parts.append(_excl(cur))
    f = parts.pop()
    while parts:
        f = _join(Lolli, parts.pop(), f)
    return f


def _excl(cur: _Cursor) -> tuple[Formula, int]:
    f = _mult(cur)
    while cur.peek() == "-<":
        cur.take()
        f = _join(Excl, f, _mult(cur))
    return f


def _mult(cur: _Cursor) -> tuple[Formula, int]:
    f = _unary(cur)
    while cur.peek() in ("*", "|"):
        op = cur.take()
        f = _join(Tensor if op == "*" else Par, f, _unary(cur))
    return f


def _unary(cur: _Cursor) -> tuple[Formula, int]:
    tok = cur.take()
    if tok is None:
        raise ParseError("unexpected end of formula")
    if tok == "(":
        f = _arrows(cur)
        cur.expect(")", "unbalanced '('")
        return f
    if tok == "1":
        return UnitI(), 0
    if tok == "bot":
        return UnitBot(), 0
    if "a" <= tok[0] <= "z":
        return Atom(tok), 0
    raise ParseError(f"unexpected token {_clip(tok)}")


def parse_formula(text: str) -> Formula:
    cur = _Cursor(text)
    f = _formula(cur)
    cur.end()
    return f


# --------------------------------------------------------------- printing

_PREC_ARROW, _PREC_EXCL, _PREC_MULT, _PREC_ATOM = 0, 1, 2, 3


# indexed by kind tag
_PREC_OF = (_PREC_ATOM, _PREC_ATOM, _PREC_ATOM, _PREC_MULT, _PREC_MULT, _PREC_ARROW, _PREC_EXCL)


def formula_text(f: Formula) -> str:
    """Render with minimal parentheses; mixed `*`/`|` chains keep theirs so
    the grouping stays visible."""
    tag = f[0]
    if tag == _ATOM:
        return f[1]
    if tag == _ONE:
        return "1"
    if tag == _BOT:
        return "bot"
    if not _TENSOR <= tag <= _EXCL:
        raise TypeError(f"not a formula: {f!r}")
    l, r = f[1], f[2]
    lt, rt = formula_text(l), formula_text(r)
    lp, rp = _PREC_OF[l[0]], _PREC_OF[r[0]]
    if tag == _LOLLI:
        return f"({lt}) -o {rt}" if lp <= _PREC_ARROW else f"{lt} -o {rt}"
    if tag == _EXCL:
        lt = f"({lt})" if lp < _PREC_EXCL else lt
        rt = f"({rt})" if rp <= _PREC_EXCL else rt
        return f"{lt} -< {rt}"
    # `*` or `|`
    if lp < _PREC_MULT or lp == _PREC_MULT and l[0] != tag:
        lt = f"({lt})"
    if rp <= _PREC_MULT:
        rt = f"({rt})"
    return f"{lt}*{rt}" if tag == _TENSOR else f"{lt}|{rt}"
