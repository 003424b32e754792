"""Nested sequents: finite trees whose nodes are two-sided formula multisets.

A node `S => T` holds formula occurrences on both sides plus child sequents.
Each child carries an integer `origin`.  Every child that a rule spawns has
origin 0; another origin comes only from sequent text, such as an
endsequent `a => a, [=>]@1` given by a user, and is then read, kept and
compared like any other part of the tree.  Items are tagged tuples, as
formulas are (`formula.py`), with tags above the formulas' own: `Occ` is
`(7, formula)`, `Sequent` is `(8, origin, left, right)` and a hole is
`(9,)`.  So tuple order is the canonical order, equality is structural,
the interpreter computes the hash, and no formula equals an item.  A
`Sequent` sorts each side when it is built, so equality of `Sequent` values
is multiset equality and the values are usable as search keys directly.
Display structures take the tags above these (`display.py`).

Text syntax: `Gamma => Delta` with comma-separated items; a child sequent is
written in brackets with its origin as a suffix, `[a => b]@2` (`@0` is
omitted); `_` marks the hole of a context.  The text is read by the parser
core in `formula.py` (`_tokenize`), which bounds how deep it nests;
`display.nesting`, the one nesting measure, counts a sequent's brackets as
that reader does.

The shallow calculus compares sequents with every origin set to 0
(`shallow.zero_origins`).  That walk is check-first: one read-only pass
looks for an origin to zero, and when there is none the walk returns its
argument itself and builds nothing, so on a sequent with nothing to drop
the walk is that one pass.

A context is a nested sequent with exactly one hole standing for a whole
node; `plug` substitutes a sequent for the hole.  `HOLE` itself is the empty
context.  The resource splitting of the branching rules two-colours every
formula occurrence of the tree, so both halves keep the tree shape and
origins; the deep search generates the splits (`deep.deep_moves`).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Union

from .formula import (
    Formula,
    Lolli,
    Excl,
    Par,
    ParseError,
    Tensor,
    UnitBot,
    UnitI,
    _ATOM,
    _BOT,
    _EXCL,
    _LOLLI,
    _ONE,
    _PAR,
    _TENSOR,
    _Tagged,
    _clip,
    _end,
    _formula_at,
    _tokenize,
    formula_text,
    is_fill_formula,
)

__all__ = [
    "Occ",
    "Hole",
    "HOLE",
    "Sequent",
    "Item",
    "Context",
    "parse_sequent",
    "sequent_text",
    "side_remove",
    "occs",
    "child_seqs",
    "children_by_origin",
    "sequent_node_count",
    "is_hollow",
    "is_fill_sequent",
    "hole_count",
    "plug",
    "context_decompose",
    "tau_s",
    "tau_a",
    "SignedCounts",
    "signed_counts",
]


# item tags, above the formula tags, in the canonical order of the kinds
_OCC, _SEQUENT, _HOLE = 7, 8, 9


class Occ(_Tagged):
    """One formula occurrence in a sequent."""

    __slots__ = ()
    formula = property(itemgetter(1))

    def __new__(cls, formula: Formula):
        return tuple.__new__(cls, (_OCC, formula))

    def __str__(self) -> str:
        return formula_text(self.formula)


class Hole(_Tagged):
    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, (_HOLE,))

    def __str__(self) -> str:
        return "_"


HOLE = Hole()


class Sequent(_Tagged):
    __slots__ = ()
    origin = property(itemgetter(1))
    left = property(itemgetter(2))
    right = property(itemgetter(3))

    def __new__(cls, left: tuple = (), right: tuple = (), origin: int = 0):
        return tuple.__new__(cls, (_SEQUENT, origin, tuple(sorted(left)), tuple(sorted(right))))

    def __init__(self, left: tuple = (), right: tuple = (), origin: int = 0):
        # `__new__` builds the value; this stays so that a wrapper of
        # `__init__`, such as perfbench's construction counter, can pass
        # the constructor's arguments on
        pass

    def __str__(self) -> str:
        return sequent_text(self)


Item = Union[Occ, Sequent, Hole]
Context = Union[Hole, Sequent]


# ------------------------------------------------------- basic inspection

def occs(items) -> tuple[Occ, ...]:
    return tuple(it for it in items if isinstance(it, Occ))


def child_seqs(items) -> tuple[Sequent, ...]:
    return tuple(it for it in items if isinstance(it, Sequent))


def children_by_origin(items) -> dict[int, list[Sequent]]:
    groups: dict[int, list[Sequent]] = {}
    for it in items:
        if isinstance(it, Sequent):
            groups.setdefault(it.origin, []).append(it)
    return groups


def sequent_node_count(s: Sequent) -> int:
    n = 1
    for it in chain(s.left, s.right):
        if isinstance(it, Sequent):
            n += sequent_node_count(it)
    return n


def is_hollow(s: Sequent) -> bool:
    """No formula occurrences anywhere, child nodes included."""
    return all(
        isinstance(it, Sequent) and is_hollow(it) for it in chain(s.left, s.right)
    )


def is_fill_sequent(s: Sequent) -> bool:
    """Right-nested only, and every formula stays inside FILL."""
    for it in s.left:
        if not (isinstance(it, Occ) and is_fill_formula(it.formula)):
            return False
    for it in s.right:
        if isinstance(it, Occ):
            if not is_fill_formula(it.formula):
                return False
        elif isinstance(it, Sequent):
            if not is_fill_sequent(it):
                return False
        else:
            return False
    return True


def side_remove(items, gone) -> tuple:
    """Multiset difference; raises ValueError when an item is absent."""
    out = list(items)
    for g in gone:
        out.remove(g)
    return tuple(out)


# ----------------------------------------------------------------- parsing

def _side(toks: list[str], i: int, table: dict) -> tuple[list[Item], int]:
    """The items of the side whose tokens start at `toks[i]`, and the index
    past them.  A side is empty when `=>`, `]`, an origin or the end comes
    first."""
    items: list[Item] = []
    n = len(toks)
    if i == n or toks[i] == "=>" or toks[i] == "]" or toks[i][0] == "@":
        return items, i
    while True:
        tok = toks[i] if i < n else None
        if tok == "_":
            items.append(HOLE)
            i += 1
        elif tok == "[":
            child, i = _child(toks, i + 1, table)
            items.append(child)
        else:
            f, i = _formula_at(toks, i, table)
            items.append(Occ(f))
        if i == n or toks[i] != ",":
            return items, i
        i += 1


def _sides(toks: list[str], i: int, table: dict) -> tuple[list[Item], list[Item], int]:
    """The two sides of a sequent, read up to the origin that may follow."""
    left, i = _side(toks, i, table)
    if i == len(toks) or toks[i] != "=>":
        raise ParseError("expected '=>'")
    right, i = _side(toks, i + 1, table)
    return left, right, i


def _child(toks: list[str], i: int, table: dict) -> tuple[Sequent, int]:
    """The child sequent whose tokens start at `toks[i]`, past its `[`, and
    the index past its `]` and origin."""
    left, right, i = _sides(toks, i, table)
    if i == len(toks) or toks[i] != "]":
        raise ParseError("unbalanced '['")
    origin, i = _origin(toks, i + 1)
    return Sequent(left, right, origin), i


def _origin(toks: list[str], i: int) -> tuple[int, int]:
    """The optional `@n` origin after a sequent, 0 when absent, and the
    index past it."""
    if i == len(toks) or toks[i][0] != "@":
        return 0, i
    try:
        return int(toks[i][1:]), i + 1
    except ValueError:  # past the interpreter's limit on digits
        raise ParseError(f"origin of {len(toks[i]) - 1} digits is too long") from None


def _read_sequent(text: str, table: dict) -> Sequent:
    """The sequent `text`, its formulas read through `table`."""
    toks = _tokenize(text)
    left, right, i = _sides(toks, 0, table)
    origin, i = _origin(toks, i)
    _end(toks, i)
    return Sequent(left, right, origin)


def _read_context(text: str, table: dict) -> Context:
    """The context `text`: `_` alone, or a sequent with exactly one hole."""
    if text.strip() == "_":
        return HOLE
    ctx = _read_sequent(text, table)
    if hole_count(ctx) != 1:
        raise ParseError(f"context needs exactly one hole: {_clip(text)}")
    return ctx


def parse_sequent(text: str) -> Sequent:
    return _read_sequent(text, {})


def _core_text(s: Sequent) -> str:
    left = ", ".join(_item_text(it) for it in s.left)
    right = ", ".join(_item_text(it) for it in s.right)
    if left and right:
        return f"{left} => {right}"
    if left:
        return f"{left} =>"
    if right:
        return f"=> {right}"
    return "=>"


def _item_text(it: Item) -> str:
    match it:
        case Occ(formula=f):
            return formula_text(f)
        case Sequent(origin=g):
            inner = _core_text(it)
            return f"[{inner}]@{g}" if g else f"[{inner}]"
        case Hole():
            return "_"
    raise TypeError(f"not a sequent item: {it!r}")


def sequent_text(s: Sequent) -> str:
    """Canonical rendering: items in canonical order, child origins as `@n`
    suffixes."""
    t = _core_text(s)
    return f"{t} @{s.origin}" if s.origin else t


# ---------------------------------------------------------------- contexts

def hole_count(x) -> int:
    tag = x[0]
    if tag == _SEQUENT:
        return sum(map(hole_count, x[2])) + sum(map(hole_count, x[3]))
    if tag == _OCC:
        return 0
    if tag == _HOLE:
        return 1
    raise TypeError(f"not a sequent item: {x!r}")


def _has_hole(x: Item) -> bool:
    """Whether a hole occurs in the item `x`; stops at the first."""
    tag = x[0]
    if tag == _SEQUENT:
        return any(map(_has_hole, x[2])) or any(map(_has_hole, x[3]))
    return tag == _HOLE


def _holder(ctx: Sequent) -> tuple[str, Item] | None:
    """The side of the root of `ctx` whose item holds the hole, with that
    item; None when no item does."""
    for side in ("left", "right"):
        for it in getattr(ctx, side):
            if _has_hole(it):
                return side, it
    return None


def plug(ctx: Context, s: Sequent) -> Sequent:
    """Substitute `s` for the hole.  The plugged node keeps the origin carried
    by `s` itself; the hole is position only."""
    if isinstance(ctx, Hole):
        return s

    def subst(items):
        out = []
        for it in items:
            if isinstance(it, Hole):
                out.append(s)
            elif isinstance(it, Sequent):
                out.append(subst_seq(it))
            else:
                out.append(it)
        return tuple(out)

    def subst_seq(node: Sequent) -> Sequent:
        return Sequent(subst(node.left), subst(node.right), node.origin)

    return subst_seq(ctx)


def _subtract(items: tuple, gone: list) -> list | None:
    out = list(items)
    for g in gone:
        if g in out:
            out.remove(g)
        else:
            return None
    return out


def context_decompose(ctx: Context, tree: Sequent) -> Sequent | None:
    """The unique sequent `n` with `plug(ctx, n) == tree`, or None."""
    if isinstance(ctx, Hole):
        return tree
    if not isinstance(tree, Sequent) or ctx.origin != tree.origin:
        return None
    held = _holder(ctx)
    if held is None:
        return None
    carrier, special = held
    other = "right" if carrier == "left" else "left"
    if getattr(ctx, other) != getattr(tree, other):
        return None
    c_items = list(getattr(ctx, carrier))
    c_items.remove(special)
    leftover = _subtract(getattr(tree, carrier), c_items)
    if leftover is None or len(leftover) != 1:
        return None
    t = leftover[0]
    if not isinstance(t, Sequent):
        return None
    if isinstance(special, Hole):
        return t
    return context_decompose(special, t)


# ------------------------------------------------- formula interpretations

def _join(fs: list[Formula], make, empty: Formula) -> Formula:
    if not fs:
        return empty
    out = fs[0]
    for f in fs[1:]:
        out = make(out, f)
    return out


def _tau(s: Sequent, arrow) -> Formula:
    ant = []
    for it in s.left:
        if isinstance(it, Occ):
            ant.append(it.formula)
        elif isinstance(it, Sequent):
            ant.append(_tau(it, Excl))
        else:
            raise ValueError("cannot interpret a context hole as a formula")
    suc = []
    for it in s.right:
        if isinstance(it, Occ):
            suc.append(it.formula)
        elif isinstance(it, Sequent):
            suc.append(_tau(it, Lolli))
        else:
            raise ValueError("cannot interpret a context hole as a formula")
    return arrow(_join(ant, Tensor, UnitI()), _join(suc, Par, UnitBot()))


def tau_s(s: Sequent) -> Formula:
    """Read a sequent as an implication: tensor of the left side implies par
    of the right side, children interpreted recursively (left-nested children
    as exclusions, right-nested as implications)."""
    return _tau(s, Lolli)


def tau_a(s: Sequent) -> Formula:
    """Read a sequent as an exclusion, same treatment of the sides."""
    return _tau(s, Excl)


class SignedCounts(NamedTuple):
    """What `signed_counts` finds in the whole tree of a sequent."""

    atoms: dict[str, tuple[int, int]]  # name -> (negative, positive) occurrences
    leaves: int  # positive atoms and positive units
    branches: int  # branching connectives

    @property
    def deficit(self) -> int:
        return self.leaves - self.branches - 1


def signed_counts(s: Sequent | Formula) -> SignedCounts:
    """Count, in one walk over the whole tree, each atom's negative and
    positive occurrences, the positive leaves and the branching connectives.
    An item on a node's left side is negative and one on its right side is
    positive, at every depth; the antecedent of `-o` and the right argument
    of `-<` flip the polarity, every other argument keeps it.  So a
    left-nested child reads as `-<` and a right-nested one as `-o`, as under
    `tau_s`.  A positive leaf is a positive atom, a positive `1` or a
    negative `bot`; a branching connective is a positive `*` or `-<`, or a
    negative `|` or `-o`, the principal formulas of the four branch rules.
    Child structures count nothing.  A bare formula counts as the sole
    succedent of an otherwise empty sequent.  Origins play no part.  Every provable sequent is balanced, each atom occurring
    as often negatively as positively, and has deficit 0, the deficit being
    `leaves - branches - 1` (the counting lemma in the `prover`
    module docstring).

    The walk (`_tally`) recurses once per formula node, occurrence and
    child sequent, so it needs as many interpreter frames as the tree is
    deep.  What a parser builds is at most `formula._MAX_NESTING` (100)
    deep in its brackets and again in each formula tree, so it counts at
    the default recursion limit."""
    atoms: dict[str, list[int]] = {}
    sums = [0, 0]
    _tally(s, 1, atoms, sums)
    return SignedCounts({n: (c[0], c[1]) for n, c in atoms.items()}, sums[0], sums[1])


def _tally(x, pol: int, atoms: dict, sums: list) -> None:
    """Add the counts of the formula or item `x`, at polarity `pol` (0
    negative, 1 positive; a sequent ignores it), to `atoms`, each atom's
    `[negative, positive]` occurrences by name, and to `sums`, `[positive
    leaves, branching connectives]`.  The one encoding of the polarity rules
    of `signed_counts`; counts add, so the counts of a tree are the sums of
    its parts' counts, whichever node a part is plugged into."""
    tag = x[0]
    if tag == _ATOM:
        c = atoms.get(x[1])
        if c is None:
            c = atoms[x[1]] = [0, 0]
        c[pol] += 1
        sums[0] += pol
    elif tag == _OCC:
        _tally(x[1], pol, atoms, sums)
    elif tag == _SEQUENT:
        for it in x[2]:
            _tally(it, 0, atoms, sums)
        for it in x[3]:
            _tally(it, 1, atoms, sums)
    elif tag == _TENSOR:
        sums[1] += pol
        _tally(x[1], pol, atoms, sums)
        _tally(x[2], pol, atoms, sums)
    elif tag == _PAR:
        sums[1] += 1 - pol
        _tally(x[1], pol, atoms, sums)
        _tally(x[2], pol, atoms, sums)
    elif tag == _LOLLI:
        sums[1] += 1 - pol
        _tally(x[1], 1 - pol, atoms, sums)
        _tally(x[2], pol, atoms, sums)
    elif tag == _EXCL:
        sums[1] += pol
        _tally(x[1], pol, atoms, sums)
        _tally(x[2], 1 - pol, atoms, sums)
    elif tag == _ONE:
        sums[0] += pol
    elif tag == _BOT:
        sums[0] += 1 - pol
