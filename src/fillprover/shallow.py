"""Shallow rules on nested sequents: every rule works at the root node.

The sequents are the same nested trees the deep calculus uses, but here a
rule may only touch root-level items.  Child origins are invisible to this
calculus: conclusions are compared with every origin set to 0.

Six structural rules move material between the root and a root-level child:
`wrap_left` packs the whole antecedent of the root and part of its
succedent into a new left child, `dissolve_left` undoes the packing, and
`pull_left` shifts root antecedent items into an existing left child.  Their mirror
images `wrap_right`, `dissolve_right` and `push_right` do the same with the
two sides of every node exchanged.  The ten logical rules are the deep ones
fired at the root node, and are checked with the rule-shape builders the
deep calculus shares between search and checking.  `cut` is available as
well.

Each mirror pair, here and in the translators, is written once, for the
rule on the left, with the sequents built by side (`deep._sided`); the
rule for the other side is named by the one mirror table, `deep._MIRROR`.

The second half of this module builds derivation fragments from those
rules: a chain that brings an arbitrary node of a tree to the root and
packs the rest of the tree into one wrapper child, never an empty one
(`display_in_sn`), and its inverse; a fragment fusing two root children
into one (`expand_dist`); the recursive version that re-pairs grandchildren
by a merge plan, where a child of origin 0 with no partner, such as a
wrapper only one of the two has, stays as it is (`expand_merge`);
weakening by a hollow subtree (`expand_weaken_hollow`); and complete proofs
for trees that are hollow except for one axiom node (`expand_deep_leaf`).
These are the building blocks for turning deep proofs into shallow ones.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .certs import CheckError, ProofNode, check_tree
from .deep import (
    _FLIP,
    _LOGICAL,
    _SPLIT,
    _axiom_move,
    _branch_conclusion,
    _on,
    _principals,
    _sided,
    _unfold,
)
from .formula import Atom, UnitBot, UnitI, _clip
from .sequent import (
    Context,
    Hole,
    Occ,
    Sequent,
    _holder,
    child_seqs,
    children_by_origin,
    is_hollow,
    occs,
    plug,
    sequent_text,
    side_remove,
)

__all__ = [
    "SN_RULES",
    "SN_FILL_EXCLUDED",
    "zero_origins",
    "sn_rule_applies",
    "check_sn_proof",
    "display_in_sn",
    "invert_display_chain",
    "stack_chain",
    "expand_dist",
    "expand_merge",
    "expand_weaken_hollow",
    "expand_deep_leaf",
]


# name -> premise count
SN_RULES: dict[str, int] = {
    "id": 0,
    "bot_l": 0,
    "i_r": 0,
    "i_l": 1,
    "bot_r": 1,
    "tensor_l": 1,
    "par_r": 1,
    "lolli_r": 1,
    "excl_l": 1,
    "tensor_r": 2,
    "par_l": 2,
    "lolli_l": 2,
    "excl_r": 2,
    "cut": 2,
    "wrap_left": 1,
    "wrap_right": 1,
    "dissolve_left": 1,
    "dissolve_right": 1,
    "pull_left": 1,
    "push_right": 1,
}

# Exclusion rules plus everything that makes or uses a left-nested child.
SN_FILL_EXCLUDED = frozenset(
    {"excl_l", "excl_r", "wrap_left", "dissolve_left", "pull_left"}
)


def zero_origins(s: Sequent) -> Sequent:
    """`s` with every origin 0.  Check-first: one read-only pass (`_normal`)
    looks for an origin other than 0, and when there is none `s` itself
    comes back, with nothing built.  Only otherwise is the tree rebuilt,
    every item without one reused as it is."""
    return s if _normal(s) else _rebuild(s)


def _normal(s: Sequent) -> bool:
    """True when no node of `s`, the root included, has an origin other
    than 0.  Reads the tree only, and stops at the first such origin."""
    if s.origin:
        return False
    for it in chain(s.left, s.right):
        if isinstance(it, Sequent) and not _normal(it):
            return False
    return True


def _rebuild(s: Sequent) -> Sequent:
    """`s` built anew with origin 0, each child through `zero_origins`.
    Called only once `_normal` has found an origin to zero."""

    def go(items):
        return tuple(zero_origins(it) if isinstance(it, Sequent) else it for it in items)

    return Sequent(go(s.left), go(s.right))


def _single_child(items) -> Sequent | None:
    if len(items) == 1 and isinstance(items[0], Sequent):
        return items[0]
    return None


def sn_rule_applies(rule: str, c: Sequent, ps: tuple[Sequent, ...]) -> bool:
    """Schema check for one rule instance; conclusion `c`, premises `ps` in
    order.  Origins are ignored."""
    return _applies(rule, zero_origins(c), tuple(zero_origins(p) for p in ps))


def _applies(rule: str, c: Sequent, ps: tuple[Sequent, ...]) -> bool:
    # sn_rule_applies on sequents without origins
    if rule in _SPLIT:
        p1, p2 = ps
        a_side, b_side = _SPLIT[rule]
        return any(
            c == _branch_conclusion(rule, p1, a, p2, b)
            for a in occs(getattr(p1, a_side))
            for b in occs(getattr(p2, b_side))
        )
    if rule in _LOGICAL:
        (p,) = ps
        return any(p == _unfold(rule, c, o) for o in _principals(rule, c))
    match rule:
        case "id":
            return (
                len(c.left) == 1
                and len(c.right) == 1
                and isinstance(c.left[0], Occ)
                and isinstance(c.left[0].formula, Atom)
                and c.left == c.right
            )
        case "bot_l":
            return c == Sequent((Occ(UnitBot()),), ())
        case "i_r":
            return c == Sequent((), (Occ(UnitI()),))
        case "cut":
            p1, p2 = ps
            return any(
                a.formula == b.formula
                and c
                == Sequent(
                    p1.left + side_remove(p2.left, [b]),
                    side_remove(p1.right, [a]) + p2.right,
                )
                for a in occs(p1.right)
                for b in occs(p2.left)
            )
        case "wrap_left" | "wrap_right" | "dissolve_left" | "dissolve_right":
            # the lone child on the named side spills into the root: going
            # up for a wrap, going down for a dissolve
            (p,) = ps
            kind, _, side = rule.partition("_")
            other = _FLIP[side]
            nested, flat = (c, p) if kind == "wrap" else (p, c)
            k = _single_child(getattr(nested, side))
            return k is not None and flat == _sided(
                side, getattr(k, side), getattr(k, other) + getattr(nested, other)
            )
        case "pull_left" | "push_right":
            (p,) = ps
            side = rule.partition("_")[2]
            other = _FLIP[side]
            k1 = _single_child(getattr(c, side))
            if k1 is None or getattr(c, other) != getattr(p, other):
                return False
            items = getattr(p, side)
            return any(
                k1 == _sided(side, getattr(k0, side) + side_remove(items, [k0]), getattr(k0, other))
                for k0 in child_seqs(items)
            )
    raise CheckError(f"unknown rule {_clip(rule)}")


def check_sn_proof(root: ProofNode, expect: Sequent | None = None) -> None:
    """Validate a shallow derivation.  Raises CheckError on the first
    offending node; returns None when the tree is a proof."""
    check_tree(root, SN_RULES, lambda node, c, ps: _applies(node.rule, c, ps), zero_origins, expect)


# -------------------------------------------------- bringing a node to root

def display_in_sn(ctx: Context, node: Sequent) -> list[tuple[str, Sequent]]:
    """Steps taking `plug(ctx, node)` (top) down to a sequent whose root
    carries `node`'s own items, plus at most one wrapper child holding
    everything else.  Each entry is (rule, sequent-below-that-step); the
    wrapper lands on the left when the node sat in a succedent, on the
    right when it sat in an antecedent.  A level of the context that holds
    nothing beside the path to the hole, and gets no wrapper from the
    levels nearer the root, gets no wrapper either: the chain only
    dissolves its way through it, so no wrapper is ever empty."""
    steps: list[tuple[str, Sequent]] = []
    while not isinstance(ctx, Hole):
        held = _holder(ctx)
        if held is None:
            raise ValueError("context has no hole")
        side, special = held
        other = _FLIP[side]
        k_tree = plug(special, node) if isinstance(special, Sequent) else node
        rest = side_remove(getattr(ctx, side), [special])
        extra: tuple = ()
        if rest or getattr(ctx, other):
            extra = (_sided(side, rest, getattr(ctx, other)),)
            steps.append((_on(side, "wrap_right"), _sided(side, (k_tree,), extra)))
        near, far = getattr(k_tree, side), getattr(k_tree, other)
        steps.append((_on(side, "dissolve_left"), _sided(side, near, far + extra)))
        if isinstance(special, Hole):
            break
        ctx = _sided(side, getattr(special, side), getattr(special, other) + extra)
    return steps


_UNWRAP = {
    "wrap_left": "dissolve_left",
    "dissolve_left": "wrap_left",
    "wrap_right": "dissolve_right",
    "dissolve_right": "wrap_right",
}


def invert_display_chain(
    steps: list[tuple[str, Sequent]], start: Sequent
) -> list[tuple[str, Sequent]]:
    """Run a wrap/dissolve chain backwards: from the chain's last sequent
    (as premise, at the top) back down to `start`, the sequent the forward
    chain began from."""
    seqs = [start] + [s for _, s in steps]
    return [(_UNWRAP[steps[i][0]], seqs[i]) for i in range(len(steps) - 1, -1, -1)]


def stack_chain(top: ProofNode, steps: list[tuple[str, Sequent]]) -> ProofNode:
    node = top
    for rule, s in steps:
        node = ProofNode(rule, s, (node,))
    return node


# ----------------------------------------------------- derived-rule bodies

def expand_dist(x: Sequent, y: Sequent, top: ProofNode, side: str = "left", origin: int = 0) -> ProofNode:
    """Fuse root children `x` and `y` of `top`'s conclusion into the single
    child `(x.left, y.left => x.right, y.right)`, tagged `origin`.  Their
    grandchildren pile up unpaired inside the fused child.  Nine structural
    steps; on the right they mirror the left-hand ones with `x` and `y`
    exchanged."""
    base = top.conclusion
    combined = Sequent(x.left + y.left, x.right + y.right, origin)
    if side == "right":
        x, y = y, x
    other = _FLIP[side]
    xs, xo, ys, yo = getattr(x, side), getattr(x, other), getattr(y, side), getattr(y, other)
    u = side_remove(getattr(base, side), [x, y])
    v = getattr(base, other)
    uw = _sided(side, u, v)
    v1 = _sided(side, (y,), (uw,))
    v1b = _sided(side, (y,), (uw,) + xo)
    k1 = _sided(side, ys + xs, yo)
    steps = [
        ("wrap_right", _sided(side, (x, y), (uw,))),
        ("wrap_right", _sided(side, (x,), (v1,))),
        ("dissolve_left", _sided(side, xs, xo + (v1,))),
        ("push_right", _sided(side, xs, (v1b,))),
        ("dissolve_right", _sided(side, xs + (y,), (uw,) + xo)),
        ("pull_left", _sided(side, (k1,), (uw,) + xo)),
        ("dissolve_left", _sided(side, ys + xs, yo + (uw,) + xo)),
        ("wrap_left", _sided(side, (combined,), (uw,))),
        ("dissolve_right", _sided(side, (combined,) + u, v)),
    ]
    return stack_chain(top, [(_on(side, rule), s) for rule, s in steps])


def _merge_plan(x: Sequent, y: Sequent, z: Sequent):
    """Pairing of children under which `z` is a merge of `x` and `y`:
    a list of (side, x_child, y_child, z_child) with matching recursive
    plans, or None.  Formula occurrences must union up exactly, and children
    pair up by origin.  A child of origin 0 may also stand on its own for an
    equal child of `z`, and has no entry: that is a display wrapper that
    only one premise of a branch step has (`display_in_sn`).  A child of
    another origin is named by the endsequent and sits in both halves of
    every split, so it always pairs."""
    if not (x.origin == y.origin == z.origin):
        return None
    plan: list[tuple[str, Sequent, Sequent, Sequent]] = []
    for side in ("left", "right"):
        xi, yi, zi = getattr(x, side), getattr(y, side), getattr(z, side)
        if any(isinstance(it, Hole) for it in chain(xi, yi, zi)):
            return None
        if Counter(occs(xi)) + Counter(occs(yi)) != Counter(occs(zi)):
            return None
        xg, yg, zg = (children_by_origin(t) for t in (xi, yi, zi))
        for g in sorted(xg.keys() | yg.keys() | zg.keys()):
            sub = _pair_group(xg.get(g, []), yg.get(g, []), zg.get(g, []), side, g == 0)
            if sub is None:
                return None
            plan.extend(sub)
    return plan


def _pair_group(xs: list, ys: list, zs: list, side: str, alone: bool):
    """Plan entries covering every child in `zs`, in order, each by an x and
    a y child that merge into it or, when `alone`, by an equal x or y child
    on its own.  The three counts fix how many children of each stand alone.
    No alternative equal to one tried before for the same child is tried
    again, so equal children cost no backtracking."""
    alone_x, alone_y = len(zs) - len(ys), len(zs) - len(xs)
    if min(alone_x, alone_y, len(xs) - alone_x) < 0 or (alone_x or alone_y) and not alone:
        return None
    if not zs:
        return []
    z0, zr = zs[0], zs[1:]

    def covers():
        # (x children left, y children left, entry) for each way to cover z0
        if alone_x and z0 in xs:
            yield _without(xs, z0), ys, []
        if alone_y and z0 in ys:
            yield xs, _without(ys, z0), []
        for xc in dict.fromkeys(xs):
            for yc in dict.fromkeys(ys):
                if _merge_plan(xc, yc, z0) is not None:
                    yield _without(xs, xc), _without(ys, yc), [(side, xc, yc, z0)]

    for xr, yr, entry in covers():
        rest = _pair_group(xr, yr, zr, side, alone)
        if rest is not None:
            return entry + rest
    return None


def _without(items: list, item) -> list:
    i = items.index(item)
    return items[:i] + items[i + 1 :]


def expand_merge(x: Sequent, y: Sequent, z: Sequent, top: ProofNode, side: str = "left") -> ProofNode:
    """Replace root children `x` and `y` of `top`'s conclusion by their
    merge `z`: fuse them, then recursively merge the grandchild pairs the
    merge plan dictates; a grandchild the plan leaves alone is already one
    of `z`'s.  Raises ValueError when `z` is not a merge of the two."""
    plan = _merge_plan(x, y, z)
    if plan is None:
        raise ValueError(
            f"{sequent_text(z)} is not a merge of {sequent_text(x)} and {sequent_text(y)}"
        )
    base = top.conclusion
    other = _FLIP[side]
    u = side_remove(getattr(base, side), [x, y])
    v = getattr(base, other)
    uw = _sided(side, u, v)
    node = ProofNode(_on(side, "wrap_right"), _sided(side, (x, y), (uw,)), (top,))
    node = expand_dist(x, y, node, side, origin=z.origin)
    if plan:
        fused = Sequent(x.left + y.left, x.right + y.right)
        opened = _sided(side, getattr(fused, side), getattr(fused, other) + (uw,))
        node = ProofNode(_on(side, "dissolve_left"), opened, (node,))
        for kside, xc, yc, zc in plan:
            node = expand_merge(xc, yc, zc, node, kside)
        node = ProofNode(_on(side, "wrap_left"), _sided(side, (z,), (uw,)), (node,))
    return ProofNode(_on(side, "dissolve_right"), _sided(side, (z,) + u, v), (node,))


def expand_weaken_hollow(x: Sequent, side: str, top: ProofNode) -> ProofNode:
    """Add the hollow sequent `x` as a root child on the given side of
    `top`'s conclusion."""
    if not is_hollow(x):
        raise ValueError(f"cannot weaken by non-hollow {sequent_text(x)}")
    base = top.conclusion
    uw = Sequent(base.left, base.right, 0)
    node = ProofNode(_on(side, "wrap_right"), _sided(side, (), (uw,)), (top,))
    for kside in ("left", "right"):
        for k in child_seqs(getattr(x, kside)):
            node = expand_weaken_hollow(k, kside, node)
    node = ProofNode(_on(side, "wrap_left"), _sided(side, (x,), (uw,)), (node,))
    near, far = getattr(base, side), getattr(base, _FLIP[side])
    return ProofNode(_on(side, "dissolve_right"), _sided(side, (x,) + near, far), (node,))


def expand_deep_leaf(rule: str, ctx: Context, node: Sequent) -> ProofNode:
    """Complete shallow proof of `plug(ctx, node)` for a tree that is
    hollow except for the axiom node: the axiom `rule` that
    `deep._axiom_move` finds closing the tree must close it at `node`, or
    ValueError."""
    ax = _axiom_move(plug(ctx, node))
    if ax is None or ax.rule != rule or ax.witness.context != ctx:
        raise ValueError(f"no {rule} axiom closes the tree at {_clip(sequent_text(node))}")
    occ = Occ(ax.witness.principal)
    taken = {"left": () if rule == "i_r" else (occ,), "right": () if rule == "bot_l" else (occ,)}
    out = ProofNode(rule, Sequent(taken["left"], taken["right"]))
    steps = display_in_sn(ctx, node)
    shown = steps[-1][1] if steps else plug(ctx, node)
    # what else the displayed root holds is hollow: the node's own children,
    # then the wrapper of the rest of the tree
    for side, gone in taken.items():
        near = getattr(node, side)
        for it in chain(side_remove(near, gone), side_remove(getattr(shown, side), near)):
            out = expand_weaken_hollow(it, side, out)
    return stack_chain(out, invert_display_chain(steps, plug(ctx, node)))
