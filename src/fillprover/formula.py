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
Sequent items (`sequent.py`) and display structures (`display.py`) are
tagged tuples on the same base class, with tags above these.

The reader here bounds how deep a text nests (`_tokenize`, `_join`).  One
measure, `display.nesting`, counts what it counts on any tagged tuple, and
`certs.certificate_text` applies it, so that no certificate is written
that its reader refuses for nesting.
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

_MAX_NESTING = 100

# formula tokens other than brackets, and the tokens of the other grammars;
# `_TOKEN` and `_FORMULA_TOKEN` are both built from these two fragments, so
# they stay in step
_FORMULA = r"[a-z][a-z0-9_]*|1|\*|\|(?!-)|-[o<]"
_OTHER = r"[\[\](),_<>]|=>|\|-|Phi(?![a-z0-9_])|@[0-9]+"
# a token of `_tokenize`: one of `_OTHER`, a run of `_FORMULA`, or an empty
# match at a character that starts no token; no match can fail once a run
# has begun, so the split is linear in the text
_TOKEN = re.compile(rf"{_OTHER}|(?:{_FORMULA})(?:\s*(?:{_FORMULA}))*|(?=\S)")
# the single tokens of a formula's text, for the formula grammar
_FORMULA_TOKEN = re.compile(rf"{_FORMULA}|[()]")
_NEST = {"(": 1, "[": 1, ")": -1, "]": -1}
# the tokens that no formula uses, besides origins `@<digits>`
_STOPS = frozenset({"[", "]", ",", "_", "<", ">", "=>", "|-", "Phi"})


def _clip(text: str, limit: int = 60, quote=repr) -> str:
    """`text` quoted for an error message, by `quote`, cut to its first
    `limit` characters so that one line stays short whatever the input."""
    return quote(text) if len(text) <= limit else quote(text[:limit]) + "..."


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`.  This is the parser core of the package:
    every text syntax reads through it and through `_formula_at`, formulas
    here, nested sequents in `sequent.py` and display structures in
    `display.py`.  The contract:

    - The tokens are the union of what the three grammars use.  Formulas:
      identifiers `[a-z][a-z0-9_]*`, `1`, `(`, `)`, `*`, `|`, `-o`, `-<`.
      Nested sequents: `=>`, `[`, `]`, `,`, `_` and child origins
      `@<digits>`.  Display structures: `|-`, `>`, `<`, `,`, and `Phi` when
      no identifier character follows it.  Whitespace separates tokens and
      is otherwise ignored; any other character is a ParseError that names
      it and its position.  Tokens are read longest first (`|-` before `|`,
      `-<` before `<`), which changes no valid input, and each grammar
      rejects the tokens it does not use.
    - A run of formula tokens other than brackets comes back as one token,
      with the whitespace inside it: `(a -o b) -o c` is `(`, `a -o b`,
      `)`, `-o c`.  The formula grammar reads it as the tokens it is made
      of, so the grammars read the same language.
    - Two nesting bounds: brackets nest at most `_MAX_NESTING` deep, and so
      does each formula tree and each display structure tree above its
      leaf formulas (`_join`), so neither a read nor a later walk of its
      result runs out of interpreter stack.  `display.nesting` measures a
      value as these bounds count it.
    - A read keeps a formula table, a dict from formula text to formula,
      for as long as it lasts: one certificate in `certs.read_certificate`,
      one text in each public `parse_*` function.  `_formula_at` looks each
      formula up there and runs the formula grammar only on a miss, so a
      read parses each distinct formula text once, and equal formula texts
      give one object.

    One `findall` splits the text in C, and marks a character that starts
    no token with an empty token.  The tokens are walked again, with their
    positions, only to name such a character, or to check the depth of a
    text with more than `_MAX_NESTING` opening brackets."""
    toks = _TOKEN.findall(text)
    if "" in toks or len(text) > _MAX_NESTING and text.count("(") + text.count("[") > _MAX_NESTING:
        depth = 0
        for m in _TOKEN.finditer(text):
            tok = m.group()
            if not tok:
                raise ParseError(f"unexpected character {text[m.start()]!r} at position {m.start()}")
            depth += _NEST.get(tok, 0)
            if depth > _MAX_NESTING:
                raise ParseError(f"brackets nest deeper than {_MAX_NESTING} at position {m.start()}")
    return toks


def _end(toks: list[str], i: int) -> None:
    if i < len(toks):
        raise ParseError(f"trailing input at token {_clip(toks[i])}")


def _formula_at(toks: list[str], i: int, table: dict) -> tuple[Formula, int]:
    """The formula whose tokens start at `toks[i]`, and the index past them.
    They are the longest stretch of runs and brackets that closes no
    bracket it did not open; their text is looked up in `table`, and
    parsed on a miss (see `_tokenize`)."""
    j = i
    depth = 0
    n = len(toks)
    while j < n:
        tok = toks[j]
        if tok == "(":
            depth += 1
        elif tok == ")":
            if not depth:
                break
            depth -= 1
        elif tok in _STOPS or tok[0] == "@":
            break
        j += 1
    key = toks[i] if j == i + 1 else "".join(toks[i:j])
    f = table.get(key)
    if f is None:
        if j == i:
            raise ParseError(f"unexpected token {_clip(toks[i])}" if i < n else "unexpected end of formula")
        f = table[key] = _formula(key)
    return f, j


# connective token -> binding strength, and the class it builds
_BINARY = {"-o": (0, Lolli), "-<": (1, Excl), "*": (2, Tensor), "|": (2, Par)}


def _join(cls, left: tuple, right: tuple, what: str = "formula") -> tuple:
    """`cls(left, right)` from two (value, tree depth) pairs, with its own
    depth, or a ParseError past `_MAX_NESTING`.  Every connective node a
    read builds is built here, and so is every display structure node."""
    depth = 1 + max(left[1], right[1])
    if depth > _MAX_NESTING:
        raise ParseError(f"{what} nests deeper than {_MAX_NESTING}")
    return cls(left[0], right[0]), depth


def _formula(text: str) -> Formula:
    """The formula `text`, made of formula tokens only, read by operator
    precedence: `*` and `|` bind tightest and associate to the left, then
    `-<` to the left, then `-o` to the right."""
    out: list[tuple] = []  # operands, each with the depth of its tree
    ops: list[str] = []  # connectives not yet applied, and open brackets

    def apply() -> None:
        right = out.pop()
        out.append(_join(_BINARY[ops.pop()][1], out.pop(), right))

    operand = True  # whether an operand comes next
    for tok in _FORMULA_TOKEN.findall(text):
        if operand:
            if tok == "(":
                ops.append(tok)
                continue
            if tok == "1":
                out.append((UnitI(), 0))
            elif tok == "bot":
                out.append((UnitBot(), 0))
            elif "a" <= tok[0] <= "z":
                out.append((Atom(tok), 0))
            else:
                raise ParseError(f"unexpected token {_clip(tok)}")
            operand = False
        elif tok == ")":
            while ops and ops[-1] != "(":
                apply()
            if not ops:
                raise ParseError("unbalanced ')'")
            ops.pop()
        elif tok in _BINARY:
            # apply what binds tighter, or as tight when `tok` associates
            # to the left, as all but `-o` do
            least = _BINARY[tok][0] + (tok == "-o")
            while ops and ops[-1] != "(" and _BINARY[ops[-1]][0] >= least:
                apply()
            ops.append(tok)
            operand = True
        else:
            raise ParseError(f"unexpected token {_clip(tok)}")
    if operand:
        raise ParseError("unexpected end of formula")
    while ops:
        if ops[-1] == "(":
            raise ParseError("unbalanced '('")
        apply()
    return out[0][0]


def _read_formula(text: str, table: dict) -> Formula:
    toks = _tokenize(text)
    f, i = _formula_at(toks, 0, table)
    _end(toks, i)
    return f


def parse_formula(text: str) -> Formula:
    return _read_formula(text, {})


# --------------------------------------------------------------- printing

# The operands `formula_text` brackets, by the tag of the connective: the
# tags of the left operands and of the right operands it puts in
# parentheses.  `*` and `|` share the tightest tier, left-associative, and
# a mixed chain keeps its parentheses; `-<` comes next, left-associative;
# `-o` is loosest and associates to the right.
_BINARIES = frozenset({_TENSOR, _PAR, _LOLLI, _EXCL})
_BRACKETED = {
    _TENSOR: (frozenset({_PAR, _LOLLI, _EXCL}), _BINARIES),
    _PAR: (frozenset({_TENSOR, _LOLLI, _EXCL}), _BINARIES),
    _LOLLI: (frozenset({_LOLLI}), frozenset()),
    _EXCL: (frozenset({_LOLLI}), frozenset({_LOLLI, _EXCL})),
}
_SYMBOL = {_TENSOR: "*", _PAR: "|", _LOLLI: " -o ", _EXCL: " -< "}


def formula_text(f: Formula) -> str:
    """Render with minimal parentheses (`_BRACKETED`)."""
    tag = f[0]
    if tag == _ATOM:
        return f[1]
    if tag == _ONE:
        return "1"
    if tag == _BOT:
        return "bot"
    if tag not in _BRACKETED:
        raise TypeError(f"not a formula: {f!r}")
    l, r = f[1], f[2]
    lt, rt = formula_text(l), formula_text(r)
    left, right = _BRACKETED[tag]
    if l[0] in left:
        lt = f"({lt})"
    if r[0] in right:
        rt = f"({rt})"
    return f"{lt}{_SYMBOL[tag]}{rt}"
