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
text is read by the parser core in `formula.py`.

Each rule is checked schematically against its conclusion and premises,
with structures compared by plain equality.  Rules whose name ends in
`_down` or `_up` are the directed halves of reversible structural moves;
one name covers the two sequent shapes the move can start from, so a
checker never has to guess which side was rearranged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .certs import CheckError, LOGICS, ProofNode, proof_size, stack_room
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
    _Cursor,
    _clip,
    _formula,
    _join,
    formula_text,
    is_fill_formula,
    strip_labels,
)

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
    "strip_structure",
    "strip_display",
    "is_fill_structure",
    "is_fill_display",
    "comma_join",
    "sequent_to_display",
    "DC_RULES",
    "DC_FILL_EXCLUDED",
    "dc_rule_applies",
    "check_dc_proof",
    "display_substructure",
]


@dataclass(frozen=True)
class SLeaf:
    """A formula used as a structure leaf."""

    formula: Formula

    def __str__(self) -> str:
        return structure_text(self)


@dataclass(frozen=True)
class SPhi:
    """The empty structure, written `Phi`."""

    def __str__(self) -> str:
        return "Phi"


@dataclass(frozen=True)
class SComma:
    left: "Structure"
    right: "Structure"

    def __str__(self) -> str:
        return structure_text(self)


@dataclass(frozen=True)
class SGt:
    """`left > right`: succedent-side residual, the structural implication."""

    left: "Structure"
    right: "Structure"

    def __str__(self) -> str:
        return structure_text(self)


@dataclass(frozen=True)
class SLt:
    """`left < right`: antecedent-side residual, the structural exclusion."""

    left: "Structure"
    right: "Structure"

    def __str__(self) -> str:
        return structure_text(self)


Structure = Union[SLeaf, SPhi, SComma, SGt, SLt]


@dataclass(frozen=True)
class DisplaySequent:
    ant: Structure
    suc: Structure

    def __str__(self) -> str:
        return display_text(self)


# --------------------------------------------------------------- printing

_P_COMMA, _P_RESID, _P_UNIT = 0, 1, 2


def _sprec(x: Structure) -> int:
    match x:
        case SComma():
            return _P_COMMA
        case SGt() | SLt():
            return _P_RESID
        case _:
            return _P_UNIT


def _stext(x: Structure, need: int) -> str:
    match x:
        case SLeaf(formula=f):
            return formula_text(f)
        case SPhi():
            return "Phi"
        case SComma(left=l, right=r):
            t = f"{_stext(l, _P_COMMA)}, {_stext(r, _P_RESID)}"
        case SGt(left=l, right=r):
            t = f"{_stext(l, _P_UNIT)} > {_stext(r, _P_UNIT)}"
        case SLt(left=l, right=r):
            t = f"{_stext(l, _P_UNIT)} < {_stext(r, _P_UNIT)}"
        case _:
            raise TypeError(f"not a structure: {x!r}")
    return f"({t})" if _sprec(x) < need else t


def structure_text(x: Structure) -> str:
    return _stext(x, _P_COMMA)


def display_text(ds: DisplaySequent) -> str:
    return f"{structure_text(ds.ant)} |- {structure_text(ds.suc)}"


# ---------------------------------------------------------------- parsing

# Like the formula grammar, each rule returns the structure it read with
# the depth of its tree above the leaf formulas, and `_join` bounds it, so
# a comma chain of any length cannot outgrow the interpreter stack.

def _structure(cur: _Cursor) -> tuple[Structure, int]:
    x = _resid(cur)
    while cur.peek() == ",":
        cur.take()
        x = _join(SComma, x, _resid(cur), "structure")
    return x


def _resid(cur: _Cursor) -> tuple[Structure, int]:
    x = _item(cur)
    if cur.peek() in (">", "<"):
        op = cur.take()
        return _join(SGt if op == ">" else SLt, x, _item(cur), "structure")
    return x


def _item(cur: _Cursor) -> tuple[Structure, int]:
    tok = cur.peek()
    if tok == "Phi":
        cur.take()
        return SPhi(), 0
    # A leading '(' is ambiguous between a parenthesised formula and a
    # parenthesised structure; try the formula reading first.
    start = cur.i
    try:
        return SLeaf(_formula(cur)), 0
    except ParseError:
        cur.i = start
    if tok == "(":
        cur.take()
        x = _structure(cur)
        cur.expect(")", "unbalanced '(' in structure")
        return x
    raise ParseError(f"expected a structure item, found {_clip(tok) if tok else 'the end'}")


def parse_structure(text: str) -> Structure:
    cur = _Cursor(text)
    x = _structure(cur)[0]
    cur.end()
    return x


def parse_display(text: str) -> DisplaySequent:
    cur = _Cursor(text)
    ant = _structure(cur)[0]
    cur.expect("|-", "expected '|-'")
    suc = _structure(cur)[0]
    cur.end()
    return DisplaySequent(ant, suc)


# ------------------------------------------------------------- inspection

def strip_structure(x: Structure) -> Structure:
    """`x` with every arrow label 0.  Returns `x` itself when it has no
    label to drop, and reuses every substructure that has none."""
    match x:
        case SLeaf(formula=f):
            g = strip_labels(f)
            return x if g is f else SLeaf(g)
        case SPhi():
            return x
        case SComma(left=l, right=r) | SGt(left=l, right=r) | SLt(left=l, right=r):
            sl, sr = strip_structure(l), strip_structure(r)
            return x if sl is l and sr is r else type(x)(sl, sr)
    raise TypeError(f"not a structure: {x!r}")


def strip_display(ds: DisplaySequent) -> DisplaySequent:
    ant, suc = strip_structure(ds.ant), strip_structure(ds.suc)
    return ds if ant is ds.ant and suc is ds.suc else DisplaySequent(ant, suc)


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
    if not parts:
        return SPhi()
    out = parts[0]
    for p in parts[1:]:
        out = SComma(out, p)
    return out


def sequent_to_display(s) -> DisplaySequent:
    """Canonical structural reading of a nested sequent: each side becomes a
    left-associated comma of its items in canonical order, a right-nested
    child becomes `ant > suc`, a left-nested child becomes `ant < suc`, and
    an empty side becomes `Phi`.  Formula labels are dropped."""
    from .sequent import Occ, Sequent

    def side(items, make_child) -> Structure:
        parts = []
        for it in items:
            if isinstance(it, Occ):
                parts.append(SLeaf(strip_labels(it.formula)))
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


def _reassoc_l(a: Structure, b: Structure) -> bool:
    # a = W, (X, Y)   b = (W, X), Y
    return (
        isinstance(a, SComma)
        and isinstance(a.right, SComma)
        and b == SComma(SComma(a.left, a.right.left), a.right.right)
    )


def _reassoc_r(a: Structure, b: Structure) -> bool:
    # a = (X, Y), Z   b = X, (Y, Z)
    return (
        isinstance(a, SComma)
        and isinstance(a.left, SComma)
        and b == SComma(a.left.left, SComma(a.left.right, a.right))
    )


def dc_rule_applies(rule: str, c: DisplaySequent, ps: tuple[DisplaySequent, ...]) -> bool:
    """Schema check for one rule instance, conclusion `c`, premises `ps` in
    order.  Assumes arity was already checked."""
    match rule:
        case "id":
            return isinstance(c.ant, SLeaf) and isinstance(c.ant.formula, Atom) and c.ant == c.suc
        case "cut":
            p1, p2 = ps
            return (
                isinstance(p1.suc, SLeaf)
                and p2.ant == p1.suc
                and c == DisplaySequent(p1.ant, p2.suc)
            )
        case "i_l":
            (p,) = ps
            return c.ant == SLeaf(UnitI()) and p == DisplaySequent(SPhi(), c.suc)
        case "i_r":
            return c == DisplaySequent(SPhi(), SLeaf(UnitI()))
        case "bot_l":
            return c == DisplaySequent(SLeaf(UnitBot()), SPhi())
        case "bot_r":
            (p,) = ps
            return c.suc == SLeaf(UnitBot()) and p == DisplaySequent(c.ant, SPhi())
        case "tensor_l":
            (p,) = ps
            match c.ant:
                case SLeaf(formula=Tensor(left=a, right=b)):
                    return p == DisplaySequent(SComma(SLeaf(a), SLeaf(b)), c.suc)
            return False
        case "tensor_r":
            p1, p2 = ps
            match c.ant, c.suc:
                case SComma(left=x, right=y), SLeaf(formula=Tensor(left=a, right=b)):
                    return p1 == DisplaySequent(x, SLeaf(a)) and p2 == DisplaySequent(y, SLeaf(b))
            return False
        case "par_l":
            p1, p2 = ps
            match c.ant, c.suc:
                case SLeaf(formula=Par(left=a, right=b)), SComma(left=x, right=y):
                    return p1 == DisplaySequent(SLeaf(a), x) and p2 == DisplaySequent(SLeaf(b), y)
            return False
        case "par_r":
            (p,) = ps
            match c.suc:
                case SLeaf(formula=Par(left=a, right=b)):
                    return p == DisplaySequent(c.ant, SComma(SLeaf(a), SLeaf(b)))
            return False
        case "lolli_l":
            p1, p2 = ps
            match c.ant, c.suc:
                case SLeaf(formula=Lolli(left=a, right=b)), SGt(left=x, right=y):
                    return p1 == DisplaySequent(x, SLeaf(a)) and p2 == DisplaySequent(SLeaf(b), y)
            return False
        case "lolli_r":
            (p,) = ps
            match c.suc:
                case SLeaf(formula=Lolli(left=a, right=b)):
                    return p == DisplaySequent(c.ant, SGt(SLeaf(a), SLeaf(b)))
            return False
        case "excl_l":
            (p,) = ps
            match c.ant:
                case SLeaf(formula=Excl(left=a, right=b)):
                    return p == DisplaySequent(SLt(SLeaf(a), SLeaf(b)), c.suc)
            return False
        case "excl_r":
            p1, p2 = ps
            match c.ant, c.suc:
                case SLt(left=x, right=y), SLeaf(formula=Excl(left=a, right=b)):
                    return p1 == DisplaySequent(x, SLeaf(a)) and p2 == DisplaySequent(SLeaf(b), y)
            return False
        case "rp_down":
            (p,) = ps
            if isinstance(p.suc, SGt) and c == DisplaySequent(SComma(p.ant, p.suc.left), p.suc.right):
                return True
            return isinstance(p.ant, SComma) and c == DisplaySequent(
                p.ant.right, SGt(p.ant.left, p.suc)
            )
        case "rp_up":
            (p,) = ps
            if isinstance(p.ant, SComma) and c == DisplaySequent(
                p.ant.left, SGt(p.ant.right, p.suc)
            ):
                return True
            return isinstance(p.suc, SGt) and c == DisplaySequent(
                SComma(p.suc.left, p.ant), p.suc.right
            )
        case "drp_down":
            (p,) = ps
            if isinstance(p.ant, SLt) and c == DisplaySequent(
                p.ant.left, SComma(p.ant.right, p.suc)
            ):
                return True
            return isinstance(p.suc, SComma) and c == DisplaySequent(
                SLt(p.ant, p.suc.right), p.suc.left
            )
        case "drp_up":
            (p,) = ps
            if isinstance(p.suc, SComma) and c == DisplaySequent(
                SLt(p.ant, p.suc.left), p.suc.right
            ):
                return True
            return isinstance(p.ant, SLt) and c == DisplaySequent(
                p.ant.left, SComma(p.suc, p.ant.right)
            )
        case "phi_l_down":
            (p,) = ps
            return p == DisplaySequent(SComma(c.ant, SPhi()), c.suc)
        case "phi_l_up":
            (p,) = ps
            return c == DisplaySequent(SComma(p.ant, SPhi()), p.suc)
        case "phi_r_down":
            (p,) = ps
            return p == DisplaySequent(c.ant, SComma(SPhi(), c.suc))
        case "phi_r_up":
            (p,) = ps
            return c == DisplaySequent(p.ant, SComma(SPhi(), p.suc))
        case "assoc_l":
            (p,) = ps
            return p.suc == c.suc and (_reassoc_l(p.ant, c.ant) or _reassoc_l(c.ant, p.ant))
        case "assoc_r":
            (p,) = ps
            return p.ant == c.ant and (_reassoc_r(p.suc, c.suc) or _reassoc_r(c.suc, p.suc))
        case "com_l":
            (p,) = ps
            return isinstance(p.ant, SComma) and c == DisplaySequent(
                SComma(p.ant.right, p.ant.left), p.suc
            )
        case "com_r":
            (p,) = ps
            return isinstance(p.suc, SComma) and c == DisplaySequent(
                p.ant, SComma(p.suc.right, p.suc.left)
            )
        case "mixed_assoc_l":
            (p,) = ps
            match p.ant:
                case SComma(left=w, right=SLt(left=x, right=y)):
                    return c == DisplaySequent(SLt(SComma(w, x), y), p.suc)
            return False
        case "mixed_assoc_r":
            (p,) = ps
            match p.suc:
                case SComma(left=SGt(left=x, right=y), right=z):
                    return c == DisplaySequent(p.ant, SGt(x, SComma(y, z)))
            return False
    raise CheckError(f"unknown rule {_clip(rule)}")


def _verify_dc(node: ProofNode, logic: str, c: DisplaySequent) -> None:
    # `c` is the node's conclusion through strip_display, so each
    # conclusion is stripped once: here as a premise of its parent
    rule = node.rule
    if rule not in DC_RULES:
        raise CheckError(f"unknown rule {_clip(rule)}")
    if len(node.premises) != DC_RULES[rule]:
        raise CheckError(
            f"rule {rule} expects {DC_RULES[rule]} premises, got {len(node.premises)}"
        )
    if logic == "fill":
        if rule in DC_FILL_EXCLUDED:
            raise CheckError(f"rule {rule} is not available in FILL")
        if not is_fill_display(c):
            raise CheckError(f"sequent leaves FILL: {_clip(display_text(c))}")
    ps = tuple(strip_display(p.conclusion) for p in node.premises)
    if not dc_rule_applies(rule, c, ps):
        raise CheckError(f"rule {rule} does not derive {_clip(display_text(c))} from its premises")
    for p, pc in zip(node.premises, ps):
        _verify_dc(p, logic, pc)


def check_dc_proof(root: ProofNode, logic: str = "biill", expect: DisplaySequent | None = None) -> None:
    """Validate a display-calculus derivation.  Raises CheckError on the
    first offending node; returns None when the tree is a proof."""
    if logic not in LOGICS:
        raise CheckError(f"unknown logic {logic!r}")
    c = strip_display(root.conclusion)
    if expect is not None and strip_display(expect) != c:
        raise CheckError("root conclusion does not match the expected sequent")
    with stack_room(20 * proof_size(root) + 2000):
        _verify_dc(root, logic, c)


def display_substructure(
    ds: DisplaySequent, side: str, path: tuple[int, ...]
) -> list[tuple[str, DisplaySequent]]:
    """Residuation chain exhibiting one part of a sequent as a whole side.

    ``side`` names the side the walk starts on ("ant" or "suc") and ``path``
    picks an operand, 0 for left or 1 for right, of the focused structure at
    each level.  Each returned (rule, sequent) step derives the sequent
    before it from the one listed, so the chain reads bottom-up from ``ds``
    and a proof of the last entry extends to a proof of ``ds``.  An empty
    path returns an empty chain.

    Crossing a comma costs one step, as does entering the major operand of a
    residual (the left of ``<``, the right of ``>``).  Entering the minor
    operand costs two steps and lands the part on the opposite side.
    Raises ValueError when the path runs into a formula, an empty-side
    marker, or a residual of the wrong polarity for its side.
    """
    if side not in ("ant", "suc"):
        raise ValueError(f"side must be 'ant' or 'suc', not {side!r}")
    steps: list[tuple[str, DisplaySequent]] = []
    cur = ds
    for idx in path:
        if idx not in (0, 1):
            raise ValueError(f"path component must be 0 or 1, not {idx!r}")
        focus = cur.ant if side == "ant" else cur.suc
        match side, focus:
            case "ant", SComma(left=a, right=b):
                if idx == 0:
                    cur = DisplaySequent(a, SGt(b, cur.suc))
                    steps.append(("rp_down", cur))
                else:
                    cur = DisplaySequent(b, SGt(a, cur.suc))
                    steps.append(("rp_up", cur))
            case "ant", SLt(left=a, right=b):
                cur = DisplaySequent(a, SComma(b, cur.suc))
                steps.append(("drp_up", cur))
                if idx == 1:
                    # the minor operand surfaces inside the succedent pair;
                    # one more step makes it the whole succedent
                    cur = DisplaySequent(SLt(cur.ant, cur.suc.right), b)
                    steps.append(("drp_up", cur))
                    side = "suc"
            case "suc", SComma(left=a, right=b):
                if idx == 0:
                    cur = DisplaySequent(SLt(cur.ant, b), a)
                    steps.append(("drp_up", cur))
                else:
                    cur = DisplaySequent(SLt(cur.ant, a), b)
                    steps.append(("drp_down", cur))
            case "suc", SGt(left=a, right=b):
                cur = DisplaySequent(SComma(a, cur.ant), b)
                steps.append(("rp_down", cur))
                if idx == 0:
                    cur = DisplaySequent(a, SGt(cur.ant.right, b))
                    steps.append(("rp_down", cur))
                    side = "ant"
            case _:
                raise ValueError(
                    f"path enters no displayable position in {structure_text(focus)}"
                )
    return steps
