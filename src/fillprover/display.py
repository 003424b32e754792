"""Display-style sequents: one structure on each side of a turnstile.

Structures are binary trees built from formula leaves, the empty structure
`Phi`, the pairing comma, and two residuation connectives written `>` and
`<`.  `X > Y` lives on the right of the turnstile and behaves like an
implication whose antecedent is `X`; `X < Y` lives on the left and behaves
like an exclusion.  There are no multisets here: comma is plain binary
pairing, and the structural rules below shuffle it explicitly.

Text syntax: `X |- Y`.  Comma is left-associative and loosest; `>` and `<`
bind tighter and do not associate, so nesting them needs parentheses;
formulas appear directly as leaves in their usual syntax.  `Phi` is the
empty structure.  Rendering is minimal-parenthesis and round-trips.  The
text is read by the parser core in `formula.py` (`_tokenize`).

Structures are tagged tuples, as formulas and sequent items are, with tags
above theirs: `SLeaf` is `(10, formula)`, `SPhi` is `(11,)`, `SComma`,
`SGt` and `SLt` are `(12, left, right)`, `(13, ...)` and `(14, ...)`, and
`DisplaySequent` is `(15, ant, suc)`.  So equality is structural and the
interpreter hashes and compares them; fields read by name, and class
patterns such as `SComma(SLeaf(a), y)` match positionally.  `nesting` is
the one nesting rule of the package: how deep the text of a formula,
sequent or display sequent nests, as the certificate reader counts it.

The shapes of the rules are written once, in `dc_conclusions`, which
derives forward the conclusions a rule gives its premises.  The checker
accepts a node whose conclusion is among them, structures compared by plain
equality, and the sn -> dc translator in `translate.py` builds every step
it emits with it.  Rules whose name ends in `_down` or `_up` are the
directed halves of reversible structural moves; one name covers the two
sequent shapes the move can start from, as two readings of the rule.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter
from typing import Union

from .certs import CheckError, ProofNode, check_tree
from .formula import (
    _BRACKETED as _FORMULA_BRACKETED,
    Atom,
    Excl,
    Formula,
    Lolli,
    Par,
    ParseError,
    Tensor,
    UnitBot,
    UnitI,
    _STOPS,
    _Tagged,
    _clip,
    _end,
    _formula_at,
    _join,
    _tokenize,
    formula_text,
    is_fill_formula,
)
from .sequent import _OCC, _SEQUENT, Occ, Sequent

__all__ = [
    "SLeaf",
    "SPhi",
    "SComma",
    "SGt",
    "SLt",
    "Structure",
    "DisplaySequent",
    "parse_structure",
    "parse_display",
    "structure_text",
    "display_text",
    "nesting",
    "is_fill_structure",
    "is_fill_display",
    "comma_join",
    "sequent_to_display",
    "DC_RULES",
    "DC_FILL_EXCLUDED",
    "dc_conclusions",
    "dc_rule_applies",
    "check_dc_proof",
]


# structure tags, above the sequent items' tags, in the order of the kinds
_LEAF, _PHI, _COMMA, _GT, _LT, _DISPLAY = range(10, 16)


class _Structure(_Tagged):
    __slots__ = ()

    def __str__(self) -> str:
        return structure_text(self)


class SLeaf(_Structure):
    """A formula used as a structure leaf."""

    __slots__ = ()
    __match_args__ = ("formula",)
    formula = property(itemgetter(1))

    def __new__(cls, formula: Formula):
        return tuple.__new__(cls, (_LEAF, formula))


class SPhi(_Structure):
    """The empty structure, written `Phi`."""

    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, (_PHI,))


class _Pair(_Structure):
    __slots__ = ()
    __match_args__ = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: "Structure", right: "Structure"):
        return tuple.__new__(cls, (cls._tag, left, right))


class SComma(_Pair):
    __slots__ = ()
    _tag = _COMMA


class SGt(_Pair):
    """`left > right`: succedent-side residual, the structural implication."""

    __slots__ = ()
    _tag = _GT


class SLt(_Pair):
    """`left < right`: antecedent-side residual, the structural exclusion."""

    __slots__ = ()
    _tag = _LT


Structure = Union[SLeaf, SPhi, SComma, SGt, SLt]


class DisplaySequent(_Tagged):
    __slots__ = ()
    __match_args__ = ("ant", "suc")
    ant = property(itemgetter(1))
    suc = property(itemgetter(2))

    def __new__(cls, ant: Structure, suc: Structure):
        return tuple.__new__(cls, (_DISPLAY, ant, suc))

    def __str__(self) -> str:
        return display_text(self)


# --------------------------------------------------------------- printing

# The operands `structure_text` brackets, as `formula._BRACKETED` gives
# those of `formula_text`: a comma brackets a right operand that is a
# comma, and a residual each operand that is a comma or a residual.
_PAIRS = frozenset({_COMMA, _GT, _LT})
_BRACKETED = {_COMMA: (frozenset(), frozenset({_COMMA})), _GT: (_PAIRS, _PAIRS), _LT: (_PAIRS, _PAIRS)}
_SYMBOL = {_COMMA: ", ", _GT: " > ", _LT: " < "}


def structure_text(x: Structure) -> str:
    """Render with minimal parentheses (`_BRACKETED`)."""
    tag = x[0]
    if tag == _LEAF:
        return formula_text(x[1])
    if tag == _PHI:
        return "Phi"
    if tag not in _BRACKETED:
        raise TypeError(f"not a structure: {x!r}")
    l, r = x[1], x[2]
    lt, rt = structure_text(l), structure_text(r)
    left, right = _BRACKETED[tag]
    if l[0] in left:
        lt = f"({lt})"
    if r[0] in right:
        rt = f"({rt})"
    return f"{lt}{_SYMBOL[tag]}{rt}"


def display_text(ds: DisplaySequent) -> str:
    return f"{structure_text(ds[1])} |- {structure_text(ds[2])}"


# the operands that the printers bracket, by the tag of every binary node
_OPERANDS = {**_FORMULA_BRACKETED, **_BRACKETED}


def nesting(values) -> tuple[int, str]:
    """How deep the deepest of `values` nests as a certificate reader counts
    it, and what that value is: "a formula", "a sequent" or "a display side
    of n formulas", the widest side when several nest that deep.  The
    values are formulas, sequents, contexts and display sequents, whose
    sides count one by one.

    This is the one nesting rule of the package.  A reader bounds three
    depths by `formula._MAX_NESTING`: the brackets of each text, the `(`
    that the printers write and each child's `[` (`formula._tokenize`),
    each formula's tree and each display side's tree above its leaf
    formulas (`formula._join`).  The measure of a value is the deepest of
    these in its text, so a certificate reads back exactly when each value
    it writes measures at most the bound (`certs.certificate_text`).  Each
    node is measured once, by identity, so what the values share costs
    nothing more; one explicit stack, no recursion."""
    sides = [v for x in values for v in (x[1:] if x[0] == _DISPLAY else (x,))]
    known: dict = {}  # id -> (tree depth, bracket depth, deepest of either below, leaf formulas)
    todo = sides[:]
    while todo:
        x = todo[-1]
        tag = x[0]
        if tag in _OPERANDS:
            parts = x[1:]
        elif tag == _SEQUENT:
            parts = x[2] + x[3]
        else:
            parts = x[1:2] if tag == _OCC or tag == _LEAF else ()
        new = [p for p in parts if id(p) not in known]
        if new:
            todo += new
            continue
        todo.pop()
        if tag in _OPERANDS:
            (l, r), (left, right) = parts, _OPERANDS[tag]
            (ls, lb, lm, ln), (rs, rb, rm, rn) = known[id(l)], known[id(r)]
            s, b = 1 + max(ls, rs), max(lb + (l[0] in left), rb + (r[0] in right))
            known[id(x)] = (s, b, max(s, b, lm, rm), ln + rn)
        else:
            # a child sequent's `[`, and below it the child's own brackets
            b = max((known[id(p)][1] + (p[0] == _SEQUENT) for p in parts), default=0)
            m = max((known[id(p)][2] for p in parts), default=0)
            known[id(x)] = (0, b, max(b, m), 1 if tag == _LEAF else 0)
    depth, leaves, x = max(((*known[id(v)][2:], v) for v in sides), key=itemgetter(0, 1))
    if x[0] >= _LEAF:
        return depth, f"a display side of {leaves} formulas"
    return depth, "a sequent" if x[0] >= _SEQUENT else "a formula"


# ---------------------------------------------------------------- parsing

# Like the formula grammar, each rule returns the structure it read with
# the depth of its tree above the leaf formulas, and `_join` bounds it, so
# a comma chain of any length cannot outgrow the interpreter stack.  Each
# rule also returns the index of the token past what it read.

_EMPTY = SPhi()


def _formula_brackets(toks: list[str]) -> set[int]:
    """The indices of the `(` that open a formula rather than a structure:
    those whose group, up to the matching `)`, holds formula tokens only.
    A group with a token that no formula uses cannot be a formula, and a
    group without one reads as a structure only when it is a bracketed
    formula, which gives the same leaf.  One pass over the tokens, so a
    formula inside n structure brackets is read once, not n times."""
    formulas: set[int] = set()
    if "(" not in toks:
        return formulas
    groups: list[list] = []  # [index, formula tokens only so far] of each open `(`
    for k, tok in enumerate(toks):
        if tok == "(":
            groups.append([k, True])
        elif tok == ")":
            if groups:
                start, pure = groups.pop()
                if pure:
                    formulas.add(start)
                elif groups:
                    groups[-1][1] = False
        elif groups and (tok in _STOPS or tok[0] == "@"):
            groups[-1][1] = False
    return formulas


def _structure(toks: list[str], i: int, table: dict, formulas: set[int]) -> tuple[Structure, int, int]:
    x, depth, i = _resid(toks, i, table, formulas)
    while i < len(toks) and toks[i] == ",":
        y, ydepth, i = _resid(toks, i + 1, table, formulas)
        x, depth = _join(SComma, (x, depth), (y, ydepth), "structure")
    return x, depth, i


def _resid(toks: list[str], i: int, table: dict, formulas: set[int]) -> tuple[Structure, int, int]:
    x, depth, i = _item(toks, i, table, formulas)
    if i < len(toks) and toks[i] in (">", "<"):
        cls = SGt if toks[i] == ">" else SLt
        y, ydepth, i = _item(toks, i + 1, table, formulas)
        x, depth = _join(cls, (x, depth), (y, ydepth), "structure")
    return x, depth, i


def _item(toks: list[str], i: int, table: dict, formulas: set[int]) -> tuple[Structure, int, int]:
    tok = toks[i] if i < len(toks) else None
    if tok == "Phi":
        return _EMPTY, 0, i + 1
    if tok == "(" and i not in formulas:
        x, depth, i = _structure(toks, i + 1, table, formulas)
        if i == len(toks) or toks[i] != ")":
            raise ParseError("unbalanced '(' in structure")
        return x, depth, i + 1
    if tok is None or tok == ")" or tok in _STOPS:
        raise ParseError(f"expected a structure item, found {_clip(tok) if tok else 'the end'}")
    f, i = _formula_at(toks, i, table)
    return SLeaf(f), 0, i


def parse_structure(text: str) -> Structure:
    toks = _tokenize(text)
    x, _, i = _structure(toks, 0, {}, _formula_brackets(toks))
    _end(toks, i)
    return x


def _read_display(text: str, table: dict) -> DisplaySequent:
    """The display sequent `text`, its formulas read through `table`."""
    toks = _tokenize(text)
    formulas = _formula_brackets(toks)
    ant, _, i = _structure(toks, 0, table, formulas)
    if i == len(toks) or toks[i] != "|-":
        raise ParseError("expected '|-'")
    suc, _, i = _structure(toks, i + 1, table, formulas)
    _end(toks, i)
    return DisplaySequent(ant, suc)


def parse_display(text: str) -> DisplaySequent:
    return _read_display(text, {})


# ------------------------------------------------------------- inspection

def is_fill_structure(x: Structure) -> bool:
    """No `<` anywhere and every leaf formula exclusion-free."""
    if isinstance(x, SLt):
        return False
    match x:
        case SLeaf(formula=f):
            return is_fill_formula(f)
        case SComma(left=l, right=r) | SGt(left=l, right=r):
            return is_fill_structure(l) and is_fill_structure(r)
        case _:
            return True


def is_fill_display(ds: DisplaySequent) -> bool:
    return is_fill_structure(ds.ant) and is_fill_structure(ds.suc)


def comma_join(parts) -> Structure:
    """Left-associated comma of the given structures; `Phi` when empty."""
    parts = list(parts)
    return reduce(SComma, parts) if parts else SPhi()


def sequent_to_display(s) -> DisplaySequent:
    """Canonical structural reading of a nested sequent: each side becomes a
    left-associated comma of its items in canonical order, a right-nested
    child becomes `ant > suc`, a left-nested child becomes `ant < suc`, and
    an empty side becomes `Phi`.  Hop counts and origins are dropped."""

    def side(items, make_child) -> Structure:
        parts = []
        for it in items:
            if isinstance(it, Occ):
                parts.append(SLeaf(it.formula))
            elif isinstance(it, Sequent):
                child = sequent_to_display(it)
                parts.append(make_child(child.ant, child.suc))
            else:
                raise ValueError("cannot embed a context hole as a structure")
        return comma_join(parts)

    return DisplaySequent(side(s.left, SLt), side(s.right, SGt))


# ------------------------------------------------------------------ rules

# name -> premise count
DC_RULES: dict[str, int] = {
    "id": 0,
    "i_r": 0,
    "bot_l": 0,
    "cut": 2,
    "i_l": 1,
    "bot_r": 1,
    "tensor_l": 1,
    "tensor_r": 2,
    "par_l": 2,
    "par_r": 1,
    "lolli_l": 2,
    "lolli_r": 1,
    "excl_l": 1,
    "excl_r": 2,
    "rp_down": 1,
    "rp_up": 1,
    "drp_down": 1,
    "drp_up": 1,
    "phi_l_down": 1,
    "phi_l_up": 1,
    "phi_r_down": 1,
    "phi_r_up": 1,
    "assoc_l": 1,
    "assoc_r": 1,
    "com_l": 1,
    "com_r": 1,
    "mixed_assoc_l": 1,
    "mixed_assoc_r": 1,
}

# Everything that mentions exclusion or the `<` structure.
DC_FILL_EXCLUDED = frozenset(
    {"excl_l", "excl_r", "drp_down", "drp_up", "mixed_assoc_l"}
)


def _reassoc(x: Structure) -> tuple[Structure | None, Structure | None]:
    # W, (X, Y) as (W, X), Y, and (W, X), Y as W, (X, Y)
    if not isinstance(x, SComma):
        return None, None
    a, b = x.left, x.right
    return (
        SComma(SComma(a, b.left), b.right) if isinstance(b, SComma) else None,
        SComma(a.left, SComma(a.right, b)) if isinstance(a, SComma) else None,
    )


def dc_conclusions(rule: str, ps: tuple[DisplaySequent, ...]) -> tuple[DisplaySequent | None, ...]:
    """The conclusion each reading of `rule` derives from the premises `ps`,
    in order, with None where a reading does not fit them.  This is the one
    place the shapes of the non-axiom rules are written: the checker asks
    whether a conclusion is among them, and the sn -> dc translator builds
    each step with them.  Assumes arity was already checked.

    The residuation and associativity rules name reversible moves that can
    start from either of two sequent shapes, so they have two readings:
    reading 0 of `rp_*` and `drp_*` moves the right operand of a comma and
    reading 1 its left one; reading 0 of `assoc_*` makes `W, (X, Y)` into
    `(W, X), Y` and reading 1 does the reverse.  Every other rule has one.
    """
    D = DisplaySequent
    match rule, ps:
        case "cut", (D(x, SLeaf() as a), D(b, y)) if a == b:
            return (D(x, y),)
        case "i_l", (D(SPhi(), y),):
            return (D(SLeaf(UnitI()), y),)
        case "bot_r", (D(x, SPhi()),):
            return (D(x, SLeaf(UnitBot())),)
        case "tensor_l", (D(SComma(SLeaf(a), SLeaf(b)), y),):
            return (D(SLeaf(Tensor(a, b)), y),)
        case "tensor_r", (D(x, SLeaf(a)), D(y, SLeaf(b))):
            return (D(SComma(x, y), SLeaf(Tensor(a, b))),)
        case "par_l", (D(SLeaf(a), x), D(SLeaf(b), y)):
            return (D(SLeaf(Par(a, b)), SComma(x, y)),)
        case "par_r", (D(x, SComma(SLeaf(a), SLeaf(b))),):
            return (D(x, SLeaf(Par(a, b))),)
        case "lolli_l", (D(x, SLeaf(a)), D(SLeaf(b), y)):
            return (D(SLeaf(Lolli(a, b)), SGt(x, y)),)
        case "lolli_r", (D(x, SGt(SLeaf(a), SLeaf(b))),):
            return (D(x, SLeaf(Lolli(a, b))),)
        case "excl_l", (D(SLt(SLeaf(a), SLeaf(b)), y),):
            return (D(SLeaf(Excl(a, b)), y),)
        case "excl_r", (D(x, SLeaf(a)), D(SLeaf(b), y)):
            return (D(SLt(x, y), SLeaf(Excl(a, b))),)
        case "rp_down", (D(x, y),):
            return (
                D(SComma(x, y.left), y.right) if isinstance(y, SGt) else None,
                D(x.right, SGt(x.left, y)) if isinstance(x, SComma) else None,
            )
        case "rp_up", (D(x, y),):
            return (
                D(x.left, SGt(x.right, y)) if isinstance(x, SComma) else None,
                D(SComma(y.left, x), y.right) if isinstance(y, SGt) else None,
            )
        case "drp_down", (D(x, y),):
            return (
                D(SLt(x, y.right), y.left) if isinstance(y, SComma) else None,
                D(x.left, SComma(x.right, y)) if isinstance(x, SLt) else None,
            )
        case "drp_up", (D(x, y),):
            return (
                D(x.left, SComma(y, x.right)) if isinstance(x, SLt) else None,
                D(SLt(x, y.left), y.right) if isinstance(y, SComma) else None,
            )
        case "assoc_l", (D(x, y),):
            return tuple(None if t is None else D(t, y) for t in _reassoc(x))
        case "assoc_r", (D(x, y),):
            return tuple(None if t is None else D(x, t) for t in _reassoc(y))
        case "phi_l_down", (D(SComma(x, SPhi()), y),):
            return (D(x, y),)
        case "phi_l_up", (D(x, y),):
            return (D(SComma(x, SPhi()), y),)
        case "phi_r_down", (D(x, SComma(SPhi(), y)),):
            return (D(x, y),)
        case "phi_r_up", (D(x, y),):
            return (D(x, SComma(SPhi(), y)),)
        case "com_l", (D(SComma(x, y), z),):
            return (D(SComma(y, x), z),)
        case "com_r", (D(z, SComma(x, y)),):
            return (D(z, SComma(y, x)),)
        case "mixed_assoc_l", (D(SComma(w, SLt(x, y)), z),):
            return (D(SLt(SComma(w, x), y), z),)
        case "mixed_assoc_r", (D(w, SComma(SGt(x, y), z)),):
            return (D(w, SGt(x, SComma(y, z))),)
    if rule not in DC_RULES:
        raise CheckError(f"unknown rule {_clip(rule)}")
    return (None,)


def dc_rule_applies(rule: str, c: DisplaySequent, ps: tuple[DisplaySequent, ...]) -> bool:
    """Schema check for one rule instance, conclusion `c`, premises `ps` in
    order.  Assumes arity was already checked."""
    match rule:
        case "id":
            return isinstance(c.ant, SLeaf) and isinstance(c.ant.formula, Atom) and c.ant == c.suc
        case "i_r":
            return c == DisplaySequent(SPhi(), SLeaf(UnitI()))
        case "bot_l":
            return c == DisplaySequent(SLeaf(UnitBot()), SPhi())
    return c in dc_conclusions(rule, ps)


def check_dc_proof(root: ProofNode, expect: DisplaySequent | None = None) -> None:
    """Validate a display-calculus derivation.  Raises CheckError on the
    first offending node; returns None when the tree is a proof."""
    check_tree(root, DC_RULES, lambda node, c, ps: dc_rule_applies(node.rule, c, ps), expect=expect)
