"""Translations between the three proof calculi.

deep_to_shallow rebuilds a deep proof as a root-rule-only proof.  Each deep
inference is redone by bringing the rewritten node to the root with a
wrap/dissolve chain, firing the matching root rule there, and lowering the
result back down.  The chain packs the rest of the tree into one wrapper
child, built only at the levels that carry something, so no wrapper is
empty.  A branch rule displays both premises and its conclusion so, and
then merges the root children the two premises bring: the two copies of
each child of the context, and the two wrappers, level by level, with the
merge expansion.  A wrapper that only one premise has, at a level where
the other premise has nothing, is already the conclusion's and stays as it
is.  Propagation steps become a short pull or push sandwich around the
child boundary they cross.  The output never uses cut.

shallow_to_display makes the bookkeeping the shallow checker does with
multisets explicit.  Each shallow step becomes a short block of display
steps that works on whatever binary structure the steps above it left: it
brings the operands the rule works on to the end of their side, parks the
rest on the other side with a residuation move, fires the matching display
rule, and brings the parked material back.  A conclusion only has to read,
as a nested sequent, as the shallow one, so no comma order is restored
after a step; one arrangement at the end makes the endsequent exactly the
canonical structure of the input's (items in canonical order,
comma-joined).  The shapes of the display rules live in
`display.dc_conclusions`, which the dc checker uses too: each step names a
rule and a reading of it, and its conclusion is derived from its premises
there, so a step that does not fit raises TranslationError at once.

display_to_shallow goes the other way by reading each structure as a
nested sequent again: associativity, commutativity and empty-structure
moves disappear, the residuation moves become wrap and dissolve steps,
and each logical rule maps to its multiset-level counterpart (plus a wrap
when the display version builds structure the shallow version keeps at
the root).  Cut-bearing inputs are rejected everywhere.

shallow_to_deep pushes each structural step of a shallow proof upward
through the subproof above it until it disappears: a wrap step turns into
a walk that refires every rule of the subproof at the right depth inside
the new child, inserting propagation steps whenever material crosses the
child boundary, and absorbing closures at the axioms; a dissolve step is
the inverse walk that flattens the child everywhere, dropping the boundary
propagations it meets; pull and push steps factor through one dissolve
and one wrap.  Logical rules map one for one.

Every rule that has a mirror image in `deep._MIRROR` (the wraps, dissolves,
pull and push, the propagations, and `lolli_l` with `excl_r`) is
translated by one body, parametrised by side: it is written for one rule of
the pair and names the other with `deep._on`.

Every checker judges each node locally (`certs.check_tree`).  So a
translator reads each node of its checked input on its own: a deep witness
context locates the rewritten node exactly, and the principal and the
child crossed, which a witness may leave open, are found from the node's
premises.

Each translation ends by running the checker of its target calculus on its
result, against the input's endsequent.  Checks are BiILL checks: a
translation may use left-nested structure even for a FILL endsequent, and
the FILL fragment pass is for the caller to run.  A result the checker
rejects, or a step that no case of a translator fits, raises
TranslationError; that check, not per-step assertions, guards the output.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import NamedTuple

from .certs import CheckError, ProofNode, Witness, cut_loops, postorder, proof_size, stack_room
from .deep import (
    _FLIP,
    _LOGICAL,
    _PROP_SHAPE,
    _SPLIT,
    _branch_conclusion,
    _edit,
    _on,
    _principals,
    _prop_sites,
    _propagate,
    _sided,
    _split_premises,
    _unfolding,
    check_dn_proof,
)
from .deep import LEAF_RULES, UNARY_LOGICAL_RULES, BRANCH_RULES
from .display import _COMMA, _GT, _LEAF, _LT, _PHI
from .display import (
    DisplaySequent,
    SComma,
    SGt,
    SLeaf,
    SLt,
    SPhi,
    Structure,
    check_dc_proof,
    dc_conclusions,
    sequent_to_display,
    structure_text,
)
from .formula import _EXCL
from .sequent import (
    HOLE,
    Hole,
    Sequent,
    child_seqs,
    context_decompose,
    occs,
    plug,
    side_remove,
)
from .shallow import (
    _merge_plan,
    check_sn_proof,
    display_in_sn,
    expand_deep_leaf,
    expand_merge,
    invert_display_chain,
    sn_rule_applies,
    stack_chain,
)

__all__ = [
    "deep_to_shallow",
    "shallow_to_display",
    "display_to_shallow",
    "shallow_to_deep",
    "TranslationError",
]


class TranslationError(Exception):
    """Raised when a translator builds no proof of its input's endsequent."""


def _cut_free(root: ProofNode, check) -> None:
    check(root)
    if any(node.rule == "cut" for node in postorder(root)):
        raise ValueError("cannot translate a proof that uses cut")


def _checked(stage: str, check, out: ProofNode, expect) -> ProofNode:
    """`out` with its loops cut (`cut_loops`, which keeps a proof a proof),
    once the target calculus's checker accepts it as a proof of `expect`.
    Every translator leaves through here, so none can skip the cut, and
    the checker judges the cut proof, not the one the translator built."""
    out = cut_loops(out)
    try:
        check(out, expect)
    except CheckError as e:
        raise TranslationError(f"{stage}: output rejected: {e.located()}") from None
    return out


# ------------------------------------------------- deep to shallow

def deep_to_shallow(root: ProofNode) -> ProofNode:
    """Rebuild a deep proof as a shallow (root-rule-only) proof of the same
    endsequent.  The input is checked first and the output last; the
    output is cut-free by construction.  Each node of the input is
    translated from its premises' translations, in postorder, so no walk
    recurses on the proof.  A checked witness locates each rewritten node
    exactly; the principal and the crossed child it may leave open are
    found from the node's premises."""
    check_dn_proof(root)
    done: list[ProofNode] = []  # translations of the finished subtrees, in order
    for node in postorder(root):
        k = len(done) - len(node.premises)
        done[k:] = [_dts(node, tuple(done[k:]))]
    return _checked("dn -> sn", check_sn_proof, done[0], root.conclusion)


def _shown(ctx, s: Sequent):
    """The wrap/dissolve chain displaying the node of `s` that `ctx`
    locates, and the sequent the chain ends in."""
    redex = context_decompose(ctx, s)
    steps = display_in_sn(ctx, redex)
    return steps, steps[-1][1] if steps else redex


def _dts(node: ProofNode, subs: tuple) -> ProofNode:
    """The shallow proof of the deep node's conclusion, given shallow
    proofs `subs` of its premises: a proof of the displayed conclusion,
    lowered back down."""
    rule = node.rule
    ctx = node.witness.context
    if rule in LEAF_RULES:
        return expand_deep_leaf(rule, ctx, context_decompose(ctx, node.conclusion))
    steps_c, d_c = _shown(ctx, node.conclusion)
    if rule in UNARY_LOGICAL_RULES:
        cur = ProofNode(rule, d_c, (stack_chain(subs[0], _shown(ctx, node.premises[0].conclusion)[0]),))
    elif rule in BRANCH_RULES:
        cur = _dts_branch(node, d_c, subs)
    else:
        cur = _dts_prop(node, subs)
    return stack_chain(cur, invert_display_chain(steps_c, node.conclusion))


def _dts_branch(node: ProofNode, d_c: Sequent, subs: tuple) -> ProofNode:
    w = node.witness
    rule = node.rule
    p_side = _LOGICAL[rule][0]
    a_side, b_side = _SPLIT[rule]
    (steps1, d1), (steps2, d2) = (_shown(c, p.conclusion) for c, p in zip((w.ctx1, w.ctx2), node.premises))

    def plan(f):
        # removing the principal and its two halves must leave a merge of
        # what the displayed premises keep beside their active halves
        try:
            rest1 = _edit(d1, a_side, (f.left,))
            rest2 = _edit(d2, b_side, (f.right,))
        except ValueError:
            return None
        return _merge_plan(rest1, rest2, _edit(d_c, p_side, (f,)))

    # which occurrence of the principal the deep step consumed: the merge's
    # plan names the root children to fuse; a wrapper only one premise has
    # stays as it is
    f, merges = next((f, m) for f in _principals(rule, d_c) if (m := plan(f)) is not None)
    mid = _branch_conclusion(rule, d1, f.left, d2, f.right)
    cur = ProofNode(rule, mid, (stack_chain(subs[0], steps1), stack_chain(subs[1], steps2)))
    for side, x, y, z in merges:
        cur = expand_merge(x, y, z, cur, side)
    return cur


def _dts_prop(node: ProofNode, subs: tuple) -> ProofNode:
    ctx = node.witness.context
    premise = node.premises[0].conclusion
    redex_c = context_decompose(ctx, node.conclusion)
    # which occurrence moved, across which child: the move must give the
    # premise; the child as the premise has it comes with it
    k_c, a, k_p = next(
        (kid, occ, moved[1])
        for kid, occ in _prop_sites(node.rule, redex_c)
        if plug(ctx, (moved := _propagate(node.rule, redex_c, kid, occ))[0]) == premise
    )
    steps_p, d_p = _shown(ctx, premise)
    return stack_chain(stack_chain(subs[0], steps_p), _prop_recipe(node.rule, d_p, k_p, k_c, a))


def _prop_recipe(rule: str, d_p: Sequent, k_p: Sequent, k_c: Sequent, a):
    """The structural steps lowering the displayed premise of a propagation
    move of `a` to its displayed conclusion.  Crossing into a child needs a five
    step sandwich (display the child, pull or push the occurrence across,
    reassemble); crossing out needs three.  The steps are those of
    `prop_left_in` and `prop_right_out`, whose child sits on the right,
    mirrored for the other two."""
    _, kid_side, inward = _PROP_SHAPE[rule]
    side = _FLIP[kid_side]
    near = getattr(d_p, side)
    if inward:
        rest = side_remove(getattr(d_p, kid_side), [k_p])
        w0 = _sided(side, near, rest)
        w1 = _sided(side, near + (a,), rest)
        steps = [
            ("wrap_left", _sided(side, (w0,), (k_p,))),
            ("dissolve_right", _sided(side, (w0,) + getattr(k_p, side), getattr(k_p, kid_side))),
            ("wrap_right", _sided(side, (w0, a), (k_c,))),
            ("pull_left", _sided(side, (w1,), (k_c,))),
            ("dissolve_left", _sided(side, near + (a,), rest + (k_c,))),
        ]
    else:
        rest = side_remove(getattr(d_p, kid_side), [a, k_p])
        w0 = _sided(side, near, rest)
        steps = [
            ("wrap_left", _sided(side, (w0,), (a, k_p))),
            ("push_right", _sided(side, (w0,), (k_c,))),
            ("dissolve_left", _sided(side, near, rest + (k_c,))),
        ]
    return [(_on(side, r), s) for r, s in steps]


# --------------------------------------------------- shallow -> display

def _pool(tree: Structure) -> list[Structure]:
    # comma operands, left to right; a bare Phi counts as one operand
    if isinstance(tree, SComma):
        return _pool(tree.left) + _pool(tree.right)
    return [tree]


_SN_SIDE = {"ant": "left", "suc": "right"}
_DC_SIDE = {"left": "ant", "right": "suc"}
_OTHER = {"ant": "suc", "suc": "ant"}


def _reads_as(item, side: str):
    """Test for an operand of `side` whose nested reading is the item."""
    if not isinstance(item, Sequent):
        leaf = SLeaf(item)
        return lambda op: op == leaf
    return lambda op: isinstance(op, (SLt, SGt)) and _read_side(op, _SN_SIDE[side], {}) == [item]


def _path(tree: Structure, fits) -> list[int]:
    # comma path (0 left, 1 right) to the shallowest operand that fits,
    # right operands first since they need no swap
    level = [(tree, [])]
    while level:
        deeper = []
        for t, path in level:
            if isinstance(t, SComma):
                deeper += [(t.right, path + [1]), (t.left, path + [0])]
            elif fits(t):
                return path
        level = deeper
    raise ValueError(f"no operand to display in {structure_text(tree)}")


# The residuation moves of each side: `_PARK` parks the right operand of
# the side's comma on the other side (reading 0) and brings a parked operand
# back at the left end (reading 1); `_BRING` brings one back at the right
# end (reading 0) and parks the left operand (reading 1).
_PARK = {"ant": "rp_up", "suc": "drp_down"}
_BRING = {"ant": "rp_down", "suc": "drp_up"}


def _fire(rule: str, ps: tuple[DisplaySequent, ...], reading: int = 0) -> DisplaySequent:
    """The conclusion `reading` of `rule` derives from `ps`."""
    c = dc_conclusions(rule, ps)[reading]
    if c is None:
        raise TranslationError(f"sn -> dc: {rule} does not fit its premises")
    return c


class _DChain:
    """Top-down accumulator of display steps.

    Every move acts at the root of one side.  `to_end` brings an operand to
    the right end of a side with swap and reassoc; a residuation move then
    parks the rightmost operand (`stash`) or the leftmost one
    (`stash_first`) on the other side, and its inverse brings it back
    (`unstash`, `unstash_first`).  Displaying an operand this way costs
    about as many steps as it is deep, and no order of the operands is ever
    restored.  Each conclusion is kept tidy: `Phi` is never a comma operand,
    so a side that reads as one item is exactly that item's structure.
    Every move is a `step`, whose conclusion `display.dc_conclusions`
    derives from the current one.
    """

    def __init__(self, start: DisplaySequent):
        self.cur = start
        self.steps: list[tuple[str, DisplaySequent]] = []

    def step(self, rule: str, reading: int = 0) -> None:
        self.cur = _fire(rule, (self.cur,), reading)
        self.steps.append((rule, self.cur))

    def side(self, side: str) -> Structure:
        return self.cur.ant if side == "ant" else self.cur.suc

    def com(self, side: str) -> None:
        self.step("com_l" if side == "ant" else "com_r")

    def reassoc(self, side: str, reading: int) -> None:
        # reading 0 makes W, (X, Y) into (W, X), Y; reading 1 undoes it
        self.step("assoc_l" if side == "ant" else "assoc_r", reading)

    def mixed_assoc(self, side: str) -> None:
        # W, (X < Y) becomes (W, X) < Y;  (X > Y), Z becomes X > (Y, Z)
        self.step("mixed_assoc_l" if side == "ant" else "mixed_assoc_r")

    def stash(self, side: str) -> None:
        self.step(_PARK[side], 0)

    def stash_first(self, side: str) -> None:
        self.step(_BRING[side], 1)

    def unstash(self, side: str) -> None:
        self.step(_BRING[side], 0)

    def unstash_first(self, side: str) -> None:
        self.step(_PARK[side], 1)

    def pad(self, side: str) -> None:
        # an empty operand at the right of an antecedent, the left of a succedent
        self.step("phi_l_up" if side == "ant" else "phi_r_up")

    def tidy(self, side: str) -> None:
        """Drop every empty operand of the side."""
        while isinstance(self.side(side), SComma) and SPhi() in _pool(self.side(side)):
            self.to_end(side, lambda op: op == SPhi())
            if side == "suc":
                self.com("suc")
            self.step("phi_l_down" if side == "ant" else "phi_r_down")

    def to_end(self, side: str, fits) -> None:
        """Make an operand that `fits` the right operand of the side's root
        comma, or leave it be when it is the whole side."""
        path = _path(self.side(side), fits)
        while path and path != [1]:
            if path[0] == 0:
                self.com(side)
                path[0] = 1
            else:
                self.reassoc(side, 0)
                path = ([0, 1] if path[1] == 0 else [1]) + path[2:]

    def gather(self, side: str, items) -> bool:
        """Bring operands reading as `items` to the right end of the side as
        one block, in order; returns whether other operands stay on its left."""
        for it in reversed(items[1:]):
            self.to_end(side, _reads_as(it, side))
            self.stash(side)
        self.to_end(side, _reads_as(items[0], side))
        rest = isinstance(self.side(side), SComma)
        for _ in items[1:]:
            self.unstash(side)
        if rest:
            for _ in items[1:]:
                self.reassoc(side, 1)
        return rest

    def isolate(self, side: str, items) -> bool:
        """Make the side exactly the block `items` (`Phi` when there are
        none), parking the rest of it on the other side as one operand that
        `unstash_first` brings back; returns whether anything was parked."""
        if items:
            if not self.gather(side, items):
                return False
            self.stash_first(side)
        elif self.side(side) == SPhi():
            return False
        else:
            self.pad(side)
            (self.stash_first if side == "ant" else self.stash)(side)
        return True

    def release(self, side: str, parked: Structure) -> None:
        """`parked` is an operand of the side that holds, as its minor part,
        material `isolate` parked from the other side: send it back."""
        other = _OTHER[side]
        self.to_end(side, lambda op: op == parked)
        whole = self.side(side) == parked
        if not whole:
            self.stash_first(side)
        if side == "ant":
            self.unstash(other)
        else:
            self.unstash_first(other)
        if not whole:
            self.mixed_assoc(other)
            self.unstash(side)

    def arrange(self, side: str, target: Structure) -> None:
        """Rebuild the side as exactly `target`, a tidy structure with the
        same reading: park the target's operands from the last to the
        second, settle the first, and bring the others back in order."""
        if self.side(side) == target:
            return
        parts = _pool(target)
        for part in reversed(parts[1:]):
            self.to_end(side, _reads_as(_read_side(part, _SN_SIDE[side], {})[0], side))
            if self.side(side).right != part:
                self.stash_first(side)
                self.settle(side, part)
                self.unstash_first(side)
            self.stash(side)
        self.settle(side, parts[0])
        for _ in parts[1:]:
            self.unstash(side)

    def settle(self, side: str, part: Structure) -> None:
        # the side is one operand reading as `part`: a nested child whose two
        # sides are displayed and arranged in turn, major one first
        if self.side(side) == part:
            return
        other = _OTHER[side]
        self.unstash(other)
        self.arrange(side, part.left if side == "ant" else part.right)
        self.stash_first(other)
        self.arrange(other, part.right if side == "ant" else part.left)
        self.unstash_first(other)
        self.stash(other)


def _gained(cn: Sequent, pns, side: str, cls=object):
    """The formula of class `cls` that `cn` has on `side` beyond what the
    premises `pns` have there."""
    have = Counter(occs(getattr(cn, side)))
    for pn in pns:
        have.subtract(occs(getattr(pn, side)))
    return next(f for f, v in have.items() if v > 0 and isinstance(f, cls))


def shallow_to_display(root: ProofNode) -> ProofNode:
    """Rebuild a root-rule-only proof in the display calculus.

    Each shallow step becomes a few display steps that work on whatever
    structure the step above left: they display the material the rule
    needs, fire the matching display rule, and send the parked material
    back.  So each conclusion reads, as a nested sequent, as the matching
    shallow conclusion, in no fixed comma order.  One arrangement at the end
    makes the result a display proof of exactly ``sequent_to_display`` of the
    input's endsequent.  Cut-bearing proofs are rejected: cut is not part
    of the display vocabulary here.
    """
    # display structures hash and compare recursively, one level per comma,
    # so the checks run inside the block too
    with stack_room(100 * proof_size(root) + 4000):
        _cut_free(root, check_sn_proof)
        target = sequent_to_display(root.conclusion)
        out = _std(root)
        ch = _DChain(out.conclusion)
        ch.arrange("ant", target.ant)
        ch.arrange("suc", target.suc)
        return _checked("sn -> dc", check_dc_proof, stack_chain(out, ch.steps), target)


def _std(node: ProofNode) -> ProofNode:
    """A display proof of a tidy structure that reads as the node's
    conclusion."""
    rule = node.rule
    if rule in LEAF_RULES:
        return ProofNode(rule, sequent_to_display(node.conclusion))
    cn = node.conclusion
    pns = [p.conclusion for p in node.premises]
    subs = [_std(p) for p in node.premises]

    if rule in UNARY_LOGICAL_RULES:
        ch = _DChain(subs[0].conclusion)
        side = _DC_SIDE[_LOGICAL[rule][0]]
        f = _gained(cn, pns, _LOGICAL[rule][0])
        parked = ch.isolate(side, _unfolding(f))
        ch.step(rule)
        if parked:
            ch.unstash_first(side)
        return stack_chain(subs[0], ch.steps)

    if rule in BRANCH_RULES:
        p_side, cls = _LOGICAL[rule]
        f = _gained(cn, pns, p_side, cls)
        sides = [_DC_SIDE[s] for s in _SPLIT[rule]]
        chs = [_DChain(s.conclusion) for s in subs]
        parked = [c.isolate(s, (a,)) for c, s, a in zip(chs, sides, (f.left, f.right))]
        rests = [c.side(_OTHER[s]) for c, s in zip(chs, sides)]
        mid = _fire(rule, tuple(c.cur for c in chs))
        out = ProofNode(rule, mid, tuple(stack_chain(s, c.steps) for s, c in zip(subs, chs)))
        ch = _DChain(mid)
        if rule == "lolli_l":
            ch.unstash("ant")
        elif rule == "excl_r":
            ch.unstash("suc")
        for rest, s, p in zip(rests, sides, parked):
            if p:
                ch.release(_OTHER[s], rest)
        ch.tidy("ant")
        ch.tidy("suc")
        return stack_chain(out, ch.steps)

    pn = pns[0]
    if cn == pn:
        return subs[0]
    ch = _DChain(subs[0].conclusion)
    if rule in ("wrap_left", "wrap_right"):
        # the new child takes `block` from this side; `rest` stays at the root
        side = "suc" if rule == "wrap_left" else "ant"
        sn_side = _SN_SIDE[side]
        block = getattr(getattr(cn, _SN_SIDE[_OTHER[side]])[0], sn_side)
        if block and getattr(cn, sn_side):
            ch.gather(side, block)
            ch.stash(side)
        else:
            # the pad stands in for the empty part
            ch.pad(side)
            (ch.stash if (side == "ant") == (not block) else ch.stash_first)(side)
    elif rule in ("dissolve_left", "dissolve_right"):
        side = "ant" if rule == "dissolve_right" else "suc"
        ch.unstash(side)
        ch.tidy(side)
    elif rule in ("pull_left", "push_right"):
        # bring the child the other root items join to the end, and merge
        side = "ant" if rule == "pull_left" else "suc"
        sn_side = _SN_SIDE[side]
        items = getattr(pn, sn_side)
        k0 = next(
            k for k in child_seqs(items)
            if _edit(k, sn_side, (), side_remove(items, [k])) == getattr(cn, sn_side)[0]
        )
        ch.to_end(side, _reads_as(k0, side))
        if side == "suc":
            ch.com(side)
        ch.mixed_assoc(side)
        if not getattr(k0, sn_side):
            # the child's empty side became a Phi operand: display it and drop it
            other = _OTHER[side]
            ch.unstash(other)
            ch.tidy(side)
            ch.stash(other)
    else:
        raise ValueError(f"no display translation for rule {rule!r}")
    return stack_chain(subs[0], ch.steps)


# --------------------------------------------------- display -> shallow

def _read_side(st: Structure, side: str, seen: dict) -> list:
    """The items the structure reads as in `side` position, left to right.
    Commas are flattened in one pass, so a chain of n operands costs n steps.
    `seen` maps each residual read before, by identity, to its reading, so
    a residual that many conclusions share is read once; the caller keeps
    the structures alive while `seen` is in use, so no identity is reused."""
    home = _LT if side == "left" else _GT
    items: list = []
    todo = [st]
    while todo:
        x = todo.pop()
        tag = x[0]
        if tag == _COMMA:
            todo += (x[2], x[1])
        elif tag == _LEAF:
            items.append(x[1])
        elif tag == home:
            kid = seen.get(id(x))
            if kid is None:
                kid = seen[id(x)] = Sequent(_read_side(x[1], "left", seen), _read_side(x[2], "right", seen))
            items.append(kid)
        elif tag != _PHI:
            raise ValueError(f"structure {structure_text(x)} has no sequent reading in {side} position")
    return items


def read_display_sequent(ds: DisplaySequent, seen: dict | None = None) -> Sequent:
    """Nested-sequent reading of a display sequent: commas flatten into the
    surrounding multiset, `Phi` vanishes, and the two residuals become
    nested children on their home sides.  Readings that pass one `seen`
    read each residual they share once (`_read_side`)."""
    seen = {} if seen is None else seen
    return Sequent(_read_side(ds[1], "left", seen), _read_side(ds[2], "right", seen))


_DC_SKIP = frozenset((
    "phi_l_up", "phi_l_down", "phi_r_up", "phi_r_down",
    "assoc_l", "assoc_r", "com_l", "com_r",
))

_DC_SAME = frozenset((
    "i_l", "bot_r", "tensor_l", "par_r", "lolli_r", "excl_l",
    "tensor_r", "par_l",
))


def display_to_shallow(root: ProofNode) -> ProofNode:
    """Rebuild a display proof as a root-rule-only proof over the nested
    reading of each structure.  Associativity, commutativity and the empty
    structure leave no trace; residuation steps become wrap or dissolve
    steps; cut-bearing proofs are rejected."""
    with stack_room(40 * proof_size(root) + 4000):
        _cut_free(root, check_dc_proof)
        seen: dict = {}
        out = _dfs_down(root, seen)
        return _checked("dc -> sn", check_sn_proof, out, read_display_sequent(root.conclusion, seen))


def _dfs_down(node: ProofNode, seen: dict) -> ProofNode:
    rule = node.rule
    subs = [_dfs_down(p, seen) for p in node.premises]
    if rule in _DC_SKIP:
        return subs[0]
    cn = read_display_sequent(node.conclusion, seen)
    if rule in ("id", "bot_l", "i_r"):
        return ProofNode(rule, cn)
    prems = tuple(s.conclusion for s in subs)
    if rule in _DC_SAME:
        return ProofNode(rule, cn, tuple(subs))
    if rule in ("lolli_l", "excl_r"):
        # the display rule leaves a residual the sn rule keeps at the root
        side = "left" if rule == "excl_r" else "right"
        other = _FLIP[side]
        k = getattr(cn, side)[0]
        mid = _sided(side, getattr(k, side), getattr(k, other) + getattr(cn, other))
        return ProofNode(_on(side, "wrap_left"), cn, (ProofNode(rule, mid, tuple(subs)),))
    if rule in ("rp_up", "rp_down", "drp_up", "drp_down", "mixed_assoc_l", "mixed_assoc_r"):
        if rule.startswith("rp"):
            cands = ("wrap_right", "dissolve_right")
        elif rule.startswith("drp"):
            cands = ("wrap_left", "dissolve_left")
        else:
            cands = ("pull_left",) if rule.endswith("_l") else ("push_right",)
        for cand in cands:
            if sn_rule_applies(cand, cn, prems):
                return ProofNode(cand, cn, tuple(subs))
        raise TranslationError(f"{rule}: no structural reading fits")
    raise ValueError(f"no shallow translation for rule {rule!r}")


# --------------------------------------------------- shallow -> deep

_SIDES = ("left", "right")

# The walks below name children while they work (see `shallow_to_deep`).  A
# name is an item `(_NAME, n)` on the left side of the child it names: its
# tag lies between the formulas' and the children's, so no formula, child
# or hole equals it, `occs` and `child_seqs` pass it over, and every shared
# helper that rebuilds a node around its items keeps it.
_NAME = _EXCL + 1


def _name_of(s: Sequent):
    """The working name of the child `s`, None for a root."""
    return next((it[1] for it in s.left if it[0] == _NAME), None)


def _bare(items) -> tuple:
    """`items` less the name among them."""
    return tuple(it for it in items if it[0] != _NAME)


def _named(s: Sequent, g) -> Sequent:
    """`s` named `g`, in place of any name it had."""
    return Sequent(_bare(s.left) + ((_NAME, g),), s.right)


def _named_all(s: Sequent, fresh) -> Sequent:
    """`s` with every child, at every depth, named afresh."""

    def go(items):
        return tuple(_named(_named_all(it, fresh), next(fresh)) if isinstance(it, Sequent) else it for it in items)

    return Sequent(go(s.left), go(s.right))


def _unnamed(s):
    """The sequent or context `s` with no name anywhere: the value the
    working one stands for."""
    if not isinstance(s, Sequent):
        return s

    def go(items):
        return tuple(_unnamed(it) if isinstance(it, Sequent) else it for it in items if it[0] != _NAME)

    return Sequent(go(s.left), go(s.right))


def _shifted(counts: dict, side: str, gone=(), added=()) -> dict:
    """Occurrence counts by side, with `gone` taken off `side` and `added`
    put on it."""
    out = Counter(counts[side])
    for v in gone:
        out[v] -= 1
        if not out[v]:
            del out[v]
    for v in added:
        out[v] += 1
    return {**counts, side: out}


def _occ_counts(s: Sequent) -> dict:
    return {side: Counter(occs(getattr(s, side))) for side in _SIDES}


class _Enclosed(NamedTuple):
    """Which root items of a flat sequent belong inside the child a wrap step
    creates, side by side: occurrence values by count, nested children by
    name."""

    occ: dict
    kids: dict

    def moved(self, side: str, gone=(), added=(), kids=frozenset()) -> "_Enclosed":
        """The spec with the occurrences `gone` taken off `side`, and the
        occurrences `added` and the children named in `kids` put on it."""
        return _Enclosed(
            _shifted(self.occ, side, gone, added), {**self.kids, side: self.kids[side] | kids}
        )


def _enclose_all(kid: Sequent) -> _Enclosed:
    return _Enclosed(
        _occ_counts(kid),
        {side: frozenset(map(_name_of, child_seqs(getattr(kid, side)))) for side in _SIDES},
    )


def _greedy_split(want: Counter, avail1: Counter, avail2: Counter):
    """Split `want` into two halves bounded by the availabilities; equal
    occurrences are interchangeable, so any consistent split works."""
    c1: Counter = Counter()
    c2: Counter = Counter()
    for v, n in want.items():
        a = min(n, avail1.get(v, 0))
        if a:
            c1[v] = a
        if n - a:
            c2[v] = n - a
    return c1, c2


def _color_spec(spec: _Enclosed, avail1: dict, avail2: dict):
    """Split an enclosure spec across the two premises of a branch step,
    bounded by the occurrences each premise has on each side.  Children
    keep full skeleton, and their names, in both halves, so the named sets
    carry over."""
    halves = {side: _greedy_split(spec.occ[side], avail1[side], avail2[side]) for side in _SIDES}
    return tuple(_Enclosed({side: h[i] for side, h in halves.items()}, spec.kids) for i in (0, 1))


def _take_items(items, cnt: Counter, names, hole_name):
    """The items the new child takes, by `cnt` for occurrences and `names`
    for children and, as `hole_name`, for the hole, and the items left."""
    need = Counter(cnt)
    taken, rest = [], []
    for it in items:
        if it[0] <= _EXCL:
            if need.get(it, 0) > 0:
                need[it] -= 1
                taken.append(it)
            else:
                rest.append(it)
        elif isinstance(it, Sequent):
            (taken if _name_of(it) in names else rest).append(it)
        else:
            (taken if hole_name in names else rest).append(it)
    return tuple(taken), tuple(rest)


def _wrap_image(s: Sequent, spec: _Enclosed, g, wside: str, hole_name=None) -> Sequent:
    """The sequent with the enclosed items moved into a child node named
    `g` on side `wside` of the root."""
    parts = {
        side: _take_items(getattr(s, side), spec.occ[side], spec.kids[side], hole_name)
        for side in _SIDES
    }
    kid = Sequent(parts["left"][0] + ((_NAME, g),), parts["right"][0])
    return _sided(wside, parts[wside][1] + (kid,), parts[_FLIP[wside]][1])


def _kid_at(s: Sequent, side: str, g):
    """The root child named `g` on `side`, and the other items there."""
    items = getattr(s, side)
    kid = next(it for it in child_seqs(items) if _name_of(it) == g)
    return kid, side_remove(items, [kid])


def _flat_image(s: Sequent, dside: str, g) -> Sequent:
    """The sequent with the root child named `g` on side `dside`
    dissolved into the root."""
    kid, rest = _kid_at(s, dside, g)
    other = _FLIP[dside]
    far = getattr(s, other) + _bare(getattr(kid, other))
    return _sided(dside, rest + _bare(getattr(kid, dside)), far)


def _holed_at(s: Sequent, g, side: str) -> Sequent:
    """Context selecting the root child named `g` as the redex."""
    return _sided(side, _kid_at(s, side, g)[1] + (HOLE,), getattr(s, _FLIP[side]))


def _hollow_copy(s: Sequent) -> Sequent:
    """`s` with every formula occurrence gone, names kept."""

    def go(items):
        return tuple(_hollow_copy(it) if isinstance(it, Sequent) else it for it in items if it[0] > _EXCL)

    return Sequent(go(s.left), go(s.right))


def _match_by_norm(items, wanted):
    """Pick live items realising the unnamed multiset `wanted`; returns
    (picked, rest).  Occurrences match by formula, children by unnamed
    content; a name is never wanted."""
    want = Counter(wanted)
    picked, rest = [], []
    for it in items:
        key = _unnamed(it) if isinstance(it, Sequent) else it
        if want[key] > 0:
            want[key] -= 1
            picked.append(it)
        else:
            rest.append(it)
    return tuple(picked), tuple(rest)


def _add_root_items(node: ProofNode, extra_left: tuple, extra_right: tuple) -> ProofNode:
    """Thread extra hollow root items through every node of a deep proof.
    Inert skeleton transposes with every rule, so the shape is unchanged."""
    if not extra_left and not extra_right:
        return node
    c = node.conclusion
    conc = Sequent(c.left + extra_left, c.right + extra_right)
    w = node.witness

    def pad(k):
        if k is None or isinstance(k, Hole):
            return k
        return Sequent(k.left + extra_left, k.right + extra_right)

    ww = Witness(context=pad(w.context), principal=w.principal, ctx1=pad(w.ctx1), ctx2=pad(w.ctx2))
    subs = tuple(_add_root_items(p, extra_left, extra_right) for p in node.premises)
    return ProofNode(node.rule, conc, subs, ww)


def _crossed(node: ProofNode):
    """The name of the child a propagation at the root crosses: the one
    child on its side that the premise does not keep as it is."""
    side = _PROP_SHAPE[node.rule][1]
    kept = getattr(node.premises[0].conclusion, side)
    return next(_name_of(k) for k in child_seqs(getattr(node.conclusion, side)) if k not in kept)


def _admit_wrap(node: ProofNode, spec: _Enclosed, g, wside: str) -> ProofNode:
    """Rewrite a deep proof of a flat sequent into one of its wrapped image,
    with the enclosed items gathered into a new child named `g` on side
    `wside`.  Rules refire at the right depth; material crossing the new
    boundary picks up propagation steps; closures straddling it get the
    closing occurrence propagated inside first."""
    c = node.conclusion
    w = node.witness
    rule = node.rule
    ctx = w.context
    tc = _wrap_image(c, spec, g, wside)
    # the cases below are written for a new child on the right, where the
    # other side `away` is "left" and `_on(away, rule)` is `rule` itself
    away = _FLIP[wside]
    into_k = _on(away, "prop_left_in")

    if not isinstance(ctx, Hole):
        # redex strictly below the root: the rule transposes unchanged
        wctx = _wrap_image(ctx, spec, g, wside, _name_of(context_decompose(ctx, c)))
        if rule in BRANCH_RULES:
            s1, s2 = _color_spec(spec, _occ_counts(w.ctx1), _occ_counts(w.ctx2))
            r1 = context_decompose(w.ctx1, node.premises[0].conclusion)
            r2 = context_decompose(w.ctx2, node.premises[1].conclusion)
            subs = (
                _admit_wrap(node.premises[0], s1, g, wside),
                _admit_wrap(node.premises[1], s2, g, wside),
            )
            ww = Witness(
                context=wctx,
                principal=w.principal,
                ctx1=_wrap_image(w.ctx1, s1, g, wside, _name_of(r1)),
                ctx2=_wrap_image(w.ctx2, s2, g, wside, _name_of(r2)),
            )
            return ProofNode(rule, tc, subs, ww)
        subs = tuple(_admit_wrap(p, spec, g, wside) for p in node.premises)
        return ProofNode(rule, tc, subs, Witness(context=wctx, principal=w.principal))

    at_kid = lambda s: _holed_at(s, g, wside)
    f = w.principal

    if rule == "id":
        # an occurrence the child leaves out is propagated into it first
        side = next((s for s in _SIDES if spec.occ[s].get(f, 0) == 0), None)
        if side is None:
            return ProofNode(rule, tc, (), Witness(context=at_kid(tc), principal=f))
        tmid = _wrap_image(c, spec.moved(side, added=(f,)), g, wside)
        leaf = ProofNode(rule, tmid, (), Witness(context=at_kid(tmid), principal=f))
        return ProofNode(into_k, tc, (leaf,), Witness(context=HOLE, principal=f))

    if rule in LEAF_RULES:
        # bot_l / i_r close on one occurrence; outside the child it fires at
        # the root since the rest of the tree is hollow either way
        side = "left" if rule == "bot_l" else "right"
        kctx = at_kid(tc) if spec.occ[side].get(f, 0) > 0 else HOLE
        return ProofNode(rule, tc, (), Witness(context=kctx, principal=f))

    if rule in UNARY_LOGICAL_RULES:
        side = _LOGICAL[rule][0]
        inner = spec.occ[side].get(f, 0) > 0
        spec2 = spec
        if inner:
            # what the rule puts in place of `f`, a spawned child named
            added = side_remove(getattr(node.premises[0].conclusion, side), side_remove(getattr(c, side), (f,)))
            spec2 = spec.moved(side, (f,), occs(added), frozenset(map(_name_of, child_seqs(added))))
        sub = _admit_wrap(node.premises[0], spec2, g, wside)
        kctx = at_kid(tc) if inner else HOLE
        return ProofNode(rule, tc, (sub,), Witness(context=kctx, principal=f))

    if rule in BRANCH_RULES:
        p_side = _LOGICAL[rule][0]
        a_side, b_side = _SPLIT[rule]
        avail = [
            _shifted(_occ_counts(p.conclusion), m_side, (minted,))
            for p, minted, m_side in zip(node.premises, (f.left, f.right), (a_side, b_side))
        ]
        inner = spec.occ[p_side].get(f, 0) > 0
        restructure = not inner and rule == _on(wside, "excl_r")
        s1, s2 = _color_spec(spec.moved(p_side, (f,)) if inner else spec, *avail)
        if inner or restructure:
            # the branch fires at the child; minted halves stay inside it
            s1 = s1.moved(a_side, added=(f.left,))
            s2 = s2.moved(b_side, added=(f.right,))
        sub1 = _admit_wrap(node.premises[0], s1, g, wside)
        sub2 = _admit_wrap(node.premises[1], s2, g, wside)
        if inner or restructure:
            base = _wrap_image(c, spec.moved(p_side, added=(f,)), g, wside) if restructure else tc
            ww = Witness(
                context=at_kid(base),
                principal=f,
                ctx1=at_kid(sub1.conclusion),
                ctx2=at_kid(sub2.conclusion),
            )
            out = ProofNode(rule, base, (sub1, sub2), ww)
            if restructure:
                out = ProofNode(into_k, tc, (out,), Witness(context=HOLE, principal=f))
            return out
        ww = Witness(context=HOLE, principal=f, ctx1=HOLE, ctx2=HOLE)
        return ProofNode(rule, tc, (sub1, sub2), ww)

    # propagation at the root: relocate relative to the new child
    g0 = _crossed(node)
    sub_node = node.premises[0]

    def one_step(spec2):
        sub = _admit_wrap(sub_node, spec2, g, wside)
        return ProofNode(rule, tc, (sub,), Witness(context=at_kid(tc), principal=f))

    match _on(away, rule):
        case "prop_left_in":
            if spec.occ[away].get(f, 0) > 0:
                return one_step(spec.moved(away, (f,)))
            tmid = _wrap_image(c, spec.moved(away, added=(f,)), g, wside)
            sub = _admit_wrap(sub_node, spec, g, wside)
            inner_node = ProofNode(rule, tmid, (sub,), Witness(context=at_kid(tmid), principal=f))
            return ProofNode(into_k, tc, (inner_node,), Witness(context=HOLE, principal=f))
        case "prop_right_out":
            return one_step(spec.moved(wside, added=(f,)))
        case "prop_right_in":
            spec2 = spec.moved(wside, (f,))
            if g0 in spec.kids[away]:
                return one_step(spec2)
            tmid = _wrap_image(c, spec2, g, wside)
            sub = _admit_wrap(sub_node, spec2, g, wside)
            step2 = ProofNode(rule, tmid, (sub,), Witness(context=HOLE, principal=f))
            return ProofNode(_on(away, "prop_right_out"), tc, (step2,), Witness(context=HOLE, principal=f))
        case "prop_left_out":
            if g0 in spec.kids[away]:
                return one_step(spec.moved(away, added=(f,)))
            sub = _admit_wrap(sub_node, spec, g, wside)
            return ProofNode(rule, tc, (sub,), Witness(context=HOLE, principal=f))
    raise TranslationError(f"unhandled rule {rule!r} in wrap admissibility")


def _admit_dissolve(node: ProofNode, dside: str, g) -> ProofNode:
    """Rewrite a deep proof so the root child named `g` on side `dside` is
    dissolved into the root everywhere.  Rules transpose; propagation steps
    across the dissolving boundary disappear."""
    c = node.conclusion
    w = node.witness
    rule = node.rule
    ctx = w.context
    at_root = isinstance(ctx, Hole)
    # a propagation across the boundary of the dissolving child disappears
    if at_root and rule in _PROP_SHAPE and _PROP_SHAPE[rule][1] == dside and _crossed(node) == g:
        return _admit_dissolve(node.premises[0], dside, g)
    tc = _flat_image(c, dside, g)
    subs = tuple(_admit_dissolve(p, dside, g) for p in node.premises)
    if at_root or not any(isinstance(it, Sequent) and _name_of(it) == g for it in getattr(ctx, dside)):
        # at the root, or the redex is the dissolving child itself: refire at the root
        if rule in BRANCH_RULES:
            ww = Witness(context=HOLE, principal=w.principal, ctx1=HOLE, ctx2=HOLE)
        else:
            ww = Witness(context=HOLE, principal=w.principal)
        return ProofNode(rule, tc, subs, ww)
    wctx = _flat_image(ctx, dside, g)
    if rule in BRANCH_RULES:
        ww = Witness(
            context=wctx,
            principal=w.principal,
            ctx1=_flat_image(w.ctx1, dside, g),
            ctx2=_flat_image(w.ctx2, dside, g),
        )
    else:
        ww = Witness(context=wctx, principal=w.principal)
    return ProofNode(rule, tc, subs, ww)


def _snd_branch(node: ProofNode, target: Sequent, fresh) -> ProofNode:
    rule = node.rule
    p1n, p2n = (p.conclusion for p in node.premises)
    for f in _principals(rule, target):
        plan = _branch_plan(rule, target, f, p1n, p2n)
        if plan is None:
            continue
        subs = []
        for sn_prem, (pruned, hollow_l, hollow_r) in zip(node.premises, plan):
            subs.append(_add_root_items(_snd(sn_prem, pruned, fresh), hollow_l, hollow_r))
        ww = Witness(context=HOLE, principal=f, ctx1=HOLE, ctx2=HOLE)
        return ProofNode(rule, target, tuple(subs), ww)
    raise TranslationError(f"{rule}: no principal matches the premises")


def _branch_plan(rule, target, f, p1n, p2n):
    """Colour the root material around the principal occurrence `f` so each
    half realises one premise; the other half's children stay as hollow
    skeleton.  Returns per-premise (skeleton-free claim, hollow extras)."""
    rest = _edit(target, _LOGICAL[rule][0], (f,))
    wants = []
    for pn, half, side in zip((p1n, p2n), (f.left, f.right), _SPLIT[rule]):
        try:
            wants.append(_edit(pn, side, (half,)))
        except ValueError:
            return None

    # each item goes to the first half that still wants it, in item order
    halves = ([], [])
    for side in _SIDES:
        items = getattr(rest, side)
        for half, want in zip(halves, wants):
            picked, items = _match_by_norm(items, getattr(want, side))
            if len(picked) != len(getattr(want, side)):
                return None
            half.append(picked)
        if items:
            return None
    own = [Sequent(l, r) for l, r in halves]
    pruned = _split_premises(rule, f, HOLE, own[0], HOLE, own[1])
    plan = []
    for which in (0, 1):
        sk_l, sk_r = (tuple(_hollow_copy(k) for k in child_seqs(items)) for items in halves[1 - which])
        plan.append((pruned[which], sk_l, sk_r))
    return plan


def _snd(node: ProofNode, target: Sequent, fresh) -> ProofNode:
    """Deep proof of `target`, which reads as the shallow node's conclusion
    once its names are dropped.  Wrap and dissolve steps dissolve into the
    walks above."""
    rule = node.rule

    if rule in ("id", "bot_l", "i_r"):
        f = occs(target.right)[0] if rule == "i_r" else occs(target.left)[0]
        return ProofNode(rule, target, (), Witness(context=HOLE, principal=f))

    if rule in UNARY_LOGICAL_RULES:
        # a spawned child is named afresh
        want = node.premises[0].conclusion
        g = next(fresh)
        side = _LOGICAL[rule][0]
        for f in _principals(rule, target):
            added = tuple(_named(k, g) if isinstance(k, Sequent) else k for k in _unfolding(f))
            cand = _edit(target, side, (f,), added)
            if _unnamed(cand) != want:
                continue
            sub = _snd(node.premises[0], cand, fresh)
            return ProofNode(rule, target, (sub,), Witness(context=HOLE, principal=f))
        raise TranslationError(f"{rule}: no principal matches the premise")

    if rule in BRANCH_RULES:
        return _snd_branch(node, target, fresh)

    prem = node.premises[0]
    kind, _, side = rule.partition("_")
    other = _FLIP.get(side)

    if kind == "wrap":
        (kid,) = child_seqs(getattr(target, side))
        flat = _sided(side, _bare(getattr(kid, side)), _bare(getattr(kid, other)) + getattr(target, other))
        return _admit_wrap(_snd(prem, flat, fresh), _enclose_all(kid), _name_of(kid), side)

    if kind == "dissolve":
        (kidn,) = child_seqs(getattr(prem.conclusion, side))
        picked, rest = _match_by_norm(getattr(target, other), getattr(kidn, other))
        g = next(fresh)
        wrapped = _sided(side, (_named(_sided(side, getattr(target, side), picked), g),), rest)
        return _admit_dissolve(_snd(prem, wrapped, fresh), side, g)

    if kind in ("pull", "push"):
        (k1,) = child_seqs(getattr(target, side))
        items = getattr(prem.conclusion, side)
        for k0n in child_seqs(items):
            movedn = side_remove(items, [k0n])
            if _unnamed(k1) != _sided(side, getattr(k0n, side) + movedn, getattr(k0n, other)):
                continue
            # `k1`'s own name stays behind with `k0`, which `_named` renames
            moved, k0_near = _match_by_norm(getattr(k1, side), movedn)
            g = next(fresh)
            k0 = _named(_sided(side, k0_near, getattr(k1, other)), g)
            tp = _sided(side, (k0,) + moved, getattr(target, other))
            mid = _admit_dissolve(_snd(prem, tp, fresh), side, g)
            return _admit_wrap(mid, _enclose_all(k1), _name_of(k1), side)
        raise TranslationError(f"{kind} step does not match its premise")

    raise ValueError(f"no deep translation for rule {rule!r}")


def _settled(node: ProofNode) -> ProofNode:
    """The working proof with every name dropped."""
    w = node.witness
    ww = Witness(
        context=_unnamed(w.context),
        principal=w.principal,
        ctx1=_unnamed(w.ctx1),
        ctx2=_unnamed(w.ctx2),
    )
    subs = tuple(_settled(p) for p in node.premises)
    return ProofNode(node.rule, _unnamed(node.conclusion), subs, ww)


def shallow_to_deep(root: ProofNode) -> ProofNode:
    """Rebuild a cut-free shallow proof as a deep proof of the same
    endsequent.  Logical rules map one for one, refired at whatever depth
    their material sits after the structural steps below are accounted for;
    wrap and dissolve steps are permuted upward until they vanish, leaving
    propagation steps at the boundaries they created; pull and push steps
    factor through one dissolve and one wrap.  Proofs that use cut are
    rejected with ValueError.

    The walks must tell apart children that may be equal: which children a
    wrap encloses, which child a dissolve flattens, which child a
    propagation crosses.  So while they work, and only here, every child
    carries a name of its own: each child of the endsequent, each child a
    rule spawns and each child a structural step makes.  Values alone
    cannot follow a child from step to step: a branch rule splits every
    child of its context between its premises, which sort their halves
    each on their own, and where two children are equal, one enclosed and
    one not, nothing in the premises says which half came from which.
    A name is an item
    `(_NAME, n)` on the child's left side, so `plug`, `deep._edit` and the
    other shared helpers, which rebuild a node around its items, keep it
    without knowing of it.  The finished proof drops every name
    (`_settled`), so no proof that leaves here, and no other module, has
    one."""
    _cut_free(root, check_sn_proof)
    end = root.conclusion
    fresh = count()
    with stack_room(120 * proof_size(root) + 4000):
        out = _settled(_snd(root, _named_all(end, fresh), fresh))
    return _checked("sn -> dn", check_dn_proof, out, end)
