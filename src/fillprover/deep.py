"""The deep nested sequent calculus: rules rewrite one node anywhere in the
tree, read bottom-up from conclusion to premises.

Axioms close a branch only when the rest of the whole tree is hollow.  Unary
rules unfold a connective in place; the two implication-like connectives
spawn a child sequent, of origin 0 like every child a rule makes.  Branching
rules split the surrounding context and the remaining material of the
rewritten node between two premises.  Search walks the tree once per
state, charges each occurrence once, and sums those charges over every
colouring, so it builds only the splits whose first premise balances
(`deep_moves`).  Propagation rules move one formula occurrence across one
parent/child boundary; search needs no cap on them and no loop check,
since no occurrence can pass through a node twice (`prover`).

The checker judges each node on its own, as the sn and dc checkers do: a
deep rule instance relates one conclusion to its premises (Brünnler, *Deep
sequent systems for modal logic*, 2009).  The witness context locates the
rewritten node, and the stated premises must be among those of the rule's
instances there.  A branching rule's witness records only the two context
halves; the split of the node's own material is recovered by lifting the
stated premises' halves onto it.

The shape of each logical rule is encoded once, in the rule-shape helpers
below; search, the checker, the shallow checker and the translators all
build premises and conclusions with them.

FILL drops exclusion and left-nested children, and with them the rules of
`FILL_EXCLUDED`; a FILL proof is a BiILL proof that passes
`check_separation`.  Search has no FILL mode: on a FILL goal, `excl_l` and
`excl_r` lack an exclusion (by the subformula property), and `prop_right_in`
and `prop_left_out` a left-nested child, which only `excl_l` makes.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, NamedTuple, Optional

from .certs import CheckError, ProofNode, Witness, check_fragment, check_tree
from .formula import (
    Atom,
    Excl,
    Formula,
    Lolli,
    Par,
    Tensor,
    UnitBot,
    UnitI,
    _clip,
    formula_text,
)
from .sequent import (
    HOLE,
    Context,
    Hole,
    Occ,
    Sequent,
    _tally,
    child_seqs,
    children_by_origin,
    context_decompose,
    is_fill_sequent,
    occs,
    plug,
    sequent_text,
    side_remove,
)

__all__ = [
    "LEAF_RULES",
    "BRANCH_RULES",
    "PROP_RULES",
    "DN_RULES",
    "FILL_EXCLUDED",
    "Move",
    "endsequent_for",
    "deep_moves",
    "check_dn_proof",
    "check_separation",
]

LEAF_RULES = ("id", "bot_l", "i_r")
UNARY_LOGICAL_RULES = ("i_l", "bot_r", "tensor_l", "par_r", "lolli_r", "excl_l")
BRANCH_RULES = ("tensor_r", "par_l", "lolli_l", "excl_r")
PROP_RULES = ("prop_left_in", "prop_right_in", "prop_left_out", "prop_right_out")
# rule: premise count
DN_RULES = {rule: n for n, group in enumerate((LEAF_RULES, UNARY_LOGICAL_RULES + PROP_RULES, BRANCH_RULES))
            for rule in group}

FILL_EXCLUDED = frozenset({"excl_l", "excl_r", "prop_right_in", "prop_left_out"})


class Move(NamedTuple):
    rule: str
    premises: tuple[Sequent, ...]
    witness: Witness


def endsequent_for(formula: Formula) -> Sequent:
    """The root sequent asserting the formula."""
    return Sequent((), (Occ(formula),))


def _edit(s: Sequent, side: str, gone: tuple = (), added: tuple = ()) -> Sequent:
    """`s` with the items `gone` taken off one side and `added` put on it."""
    items = side_remove(getattr(s, side), gone) + added
    if side == "left":
        return Sequent(items, s.right, s.origin)
    return Sequent(s.left, items, s.origin)


# ------------------------------------------------------------- rule shapes
#
# An sn logical rule is the dn rule fired at the root node, so the shallow
# checker and the translators build with these helpers too.

# rule: (side of the principal occurrence, its connective)
_LOGICAL = {
    "i_l": ("left", UnitI),
    "bot_r": ("right", UnitBot),
    "tensor_l": ("left", Tensor),
    "par_r": ("right", Par),
    "lolli_r": ("right", Lolli),
    "excl_l": ("left", Excl),
    "tensor_r": ("right", Tensor),
    "par_l": ("left", Par),
    "lolli_l": ("left", Lolli),
    "excl_r": ("right", Excl),
}
_RULE_AT = {shape: rule for rule, shape in _LOGICAL.items()}
# the unit axioms: (side of the unit, its kind)
_UNIT_AXIOM = {("left", UnitBot): "bot_l", ("right", UnitI): "i_r"}

# branch rule: (where A goes in premise 1, where B goes in premise 2)
_SPLIT = {
    "tensor_r": ("right", "right"),
    "par_l": ("left", "left"),
    "lolli_l": ("right", "left"),
    "excl_r": ("right", "left"),
}

# propagation rule, in search order: (side the moving occurrence sits on,
# side of the node the child sits on, whether the occurrence enters the child)
_PROP_SHAPE = {
    "prop_left_in": ("left", "right", True),
    "prop_right_out": ("right", "right", False),
    "prop_right_in": ("right", "left", True),
    "prop_left_out": ("left", "left", False),
}

# BiILL is symmetric: each rule below acts as its partner would with the two
# sides of every node exchanged.  A mirror pair is written once, for the
# first rule of the pair, and `_on` names the rule for the other side.
_MIRROR = {
    rule: partner
    for pair in (
        ("wrap_left", "wrap_right"),
        ("dissolve_left", "dissolve_right"),
        ("pull_left", "push_right"),
        ("prop_left_in", "prop_right_in"),
        ("prop_right_out", "prop_left_out"),
        ("lolli_l", "excl_r"),
    )
    for rule, partner in (pair, pair[::-1])
}
_FLIP = {"left": "right", "right": "left"}


def _on(side: str, rule: str) -> str:
    """`rule` as it is, on the left side; its mirror image on the right."""
    return rule if side == "left" else _MIRROR[rule]


def _sided(side: str, near: tuple, far: tuple, origin: int = 0) -> Sequent:
    """The sequent with `near` on `side` and `far` on the other side."""
    if side == "left":
        return Sequent(near, far, origin)
    return Sequent(far, near, origin)


def _principals(rule: str, node: Sequent) -> Iterator[Occ]:
    """The occurrences of the node that `rule` can act on."""
    side, connective = _LOGICAL[rule]
    return (occ for occ in occs(getattr(node, side)) if type(occ.formula) is connective)


def _unfolding(f: Formula, origin: int = 0) -> tuple:
    """What an unfolding rule leaves in place of its principal formula: a
    unit vanishes, * on the left and | on the right leave both halves, and
    -o on the right or -< on the left leave the child `[A => B]`.  Search
    and the checker spawn that child with origin 0; the sn->dn translator
    gives it an origin of its own while it works."""
    if isinstance(f, (UnitI, UnitBot)):
        return ()
    if isinstance(f, (Tensor, Par)):
        return (Occ(f.left), Occ(f.right))
    return (Sequent((Occ(f.left),), (Occ(f.right),), origin),)


def _unfold(rule: str, node: Sequent, occ: Occ, origin: int = 0) -> Sequent:
    """The node after the unfolding rule acts on `occ`."""
    return _edit(node, _LOGICAL[rule][0], (occ,), _unfolding(occ.formula, origin))


def _split_premises(
    rule: str, f: Formula, c1: Context, r1: Sequent, c2: Context, r2: Sequent
) -> tuple[Sequent, Sequent]:
    """Premises of a branch rule on `f` whose context splits into c1 and c2
    and whose rewritten node, less `f`, splits into r1 and r2."""
    a_side, b_side = _SPLIT[rule]
    return (
        plug(c1, _edit(r1, a_side, (), (Occ(f.left),))),
        plug(c2, _edit(r2, b_side, (), (Occ(f.right),))),
    )


def _branch_conclusion(
    rule: str, p1: Sequent, a: Occ, p2: Sequent, b: Occ, principal: Optional[Occ] = None
) -> Sequent:
    """Root-level conclusion of a branch rule whose premises have active
    occurrences `a` and `b`: both premises' other material plus the principal
    occurrence, by default the rule's connective over the two."""
    side, connective = _LOGICAL[rule]
    a_side, b_side = _SPLIT[rule]
    if principal is None:
        principal = Occ(connective(a.formula, b.formula))
    items = {"left": p1.left + p2.left, "right": p1.right + p2.right}
    items[a_side] = side_remove(items[a_side], (a,))
    items[b_side] = side_remove(items[b_side], (b,))
    items[side] += (principal,)
    return Sequent(items["left"], items["right"])


def _prop_sites(rule: str, node: Sequent) -> Iterator[tuple[Sequent, Occ]]:
    """(child, occurrence) pairs the propagation rule can move at the node."""
    occ_side, kid_side, inward = _PROP_SHAPE[rule]
    kids = child_seqs(getattr(node, kid_side))
    if inward:
        for occ in occs(getattr(node, occ_side)):
            for kid in kids:
                yield kid, occ
    else:
        for kid in kids:
            for occ in occs(getattr(kid, occ_side)):
                yield kid, occ


def _propagate(rule: str, node: Sequent, kid: Sequent, occ: Occ) -> tuple[Sequent, Sequent]:
    """The node after `occ` crosses the boundary of its child `kid`, and that
    child as it then stands."""
    occ_side, kid_side, inward = _PROP_SHAPE[rule]
    items = {"left": node.left, "right": node.right}
    if inward:
        kid2 = _edit(kid, occ_side, (), (occ,))
        items[occ_side] = side_remove(items[occ_side], (occ,))
    else:
        kid2 = _edit(kid, occ_side, (occ,))
        items[occ_side] += (occ,)
    items[kid_side] = side_remove(items[kid_side], (kid,)) + (kid2,)
    return Sequent(items["left"], items["right"], node.origin), kid2


# ------------------------------------------------------------------ moves
#
# A trail locates a node of a tree: () at the root, else (the parent's
# trail, the parent, the side of the parent the node sits on, the node).

def _put(trail: tuple, x: Context) -> Context:
    """The tree the trail was read from, with `x` in place of the node the
    trail leads to; only the nodes on the way up are built anew."""
    while trail:
        trail, parent, side, node = trail
        x = _edit(parent, side, (node,), (x,))
    return x


def _axiom_move(s: Sequent) -> Optional[Move]:
    """The axiom that closes `s`, or None.  An axiom needs the rest of the
    tree hollow, so `s` holds one or two formula occurrences in all, both
    at one node: `bot` on its left or `1` on its right closes by `bot_l` or
    `i_r`, and an atom on each side by `id`.  One walk of the tree finds
    them, and stops at a third occurrence or at a second one elsewhere.
    Only the node that closes gets its witness context, built from the
    walk's trail (`_put`).  Search and the dn checker's axiom step both
    ask here."""
    found: list = []  # (side, formula) of each occurrence, all at one node
    at = None  # that node's trail
    todo: list = [(s, ())]
    while todo:
        node, trail = todo.pop()
        for side, items in (("left", node.left), ("right", node.right)):
            for it in items:
                if isinstance(it, Sequent):
                    todo.append((it, (trail, node, side, it)))
                elif isinstance(it, Occ):
                    if found and (at is not trail or len(found) == 2):
                        return None
                    found.append((side, it.formula))
                    at = trail
    rule = None
    if len(found) == 1:
        ((side, f),) = found
        rule = _UNIT_AXIOM.get((side, type(f)))
    elif len(found) == 2:
        (side, f), (other, g) = found
        if side != other and f == g and isinstance(f, Atom):
            rule = "id"
    if rule is None:
        return None
    return Move(rule, (), Witness(context=_put(at, HOLE), principal=f))


# A charge packs the counts of `signed_counts` that decide balance into one
# integer, 64 bits to a count.  A sum of charges of one state's occurrences
# has each count below the state's size, far inside its field, so charges
# add as integers, and a sum is 1 exactly when its leaves exceed its
# branching connectives by 1 and every atom's net is 0.
_FIELD = 64


def _charge_of(f: Formula, pol: int, fields: dict) -> int:
    """The charge of `f` at polarity `pol` (0 negative, 1 positive): its
    positive leaves less its branching connectives, plus each atom's
    positive less negative occurrences, shifted to the atom's field.
    `fields` numbers the atoms from 1 as they are first met.  Counts add
    across `plug` and `_edit`, so a sequent put together from parts passes
    `prover._balanced` exactly when their charges sum to 1."""
    atoms: dict = {}
    sums = [0, 0]
    _tally(f, pol, atoms, sums)
    c = sums[0] - sums[1]
    for name, (neg, pos) in atoms.items():
        c += (pos - neg) << _FIELD * fields.setdefault(name, len(fields) + 1)
    return c


def _charges(x: Context, fields: dict) -> list[int]:
    """The charge of each occurrence of `x`, at its side's polarity, in the
    digit order of the colourings: the left side of a node before its
    right, and on each side the node's own occurrences, last to first, then
    each child's in turn."""
    out: list = []
    if isinstance(x, Sequent):
        for pol, items in enumerate((x.left, x.right)):
            out += [_charge_of(o.formula, pol, fields) for o in reversed(occs(items))]
            for kid in child_seqs(items):
                out += _charges(kid, fields)
    return out


def _sums(charges: list[int]) -> list[int]:
    """The charge of the first half of every colouring, in colouring order.
    Colouring `j` reads `j` in binary, a digit for each charge, the first
    the most significant, and sends each occurrence whose digit is 0 to the
    first half: on each side, the masks over the node's own occurrences
    come first, then its children's colourings in product order."""
    sums = [0]
    for c in charges:
        sums = [t for s in sums for t in (s + c, s)]
    return sums


def _halves(x: Context, digits: Iterator[int]) -> tuple[Context, Context]:
    """The two halves of `x` under the colouring whose digits, in the order
    of `_charges`, `digits` gives.  Both halves keep every child, with its
    origin, and the hole."""
    if not isinstance(x, Sequent):
        return x, x
    halves = (([], []), ([], []))  # each half's left and right items
    for k, items in enumerate((x.left, x.right)):
        for o in reversed(occs(items)):
            halves[next(digits)][k].append(o)
        for it in items:
            if not isinstance(it, Occ):
                for half, part in zip(halves, _halves(it, digits)):
                    half[k].append(part)
    return tuple(Sequent(left, right, x.origin) for left, right in halves)


def _colouring(j: int, charges: list) -> Iterator[int]:
    """The digits of colouring `j` of the occurrences `charges` counts."""
    return map(int, f"{j:0{len(charges)}b}")


def deep_moves(s: Sequent) -> Iterator[Move]:
    """Candidate rule applications with `s` as conclusion, most constrained
    first: axioms, then in-place unfolding, then branching, then propagation.

    Two kinds of move are committed to, so nothing else is generated after
    them: an axiom, and the first unfolding by a unary logical rule (`i_l`,
    `bot_r`, `tensor_l`, `par_r`, `lolli_r`, `excl_l`) in node order, root
    first, antecedent first.  The unary rules are invertible: `tau_s` reads
    the premise as a formula equivalent in BiILL to the reading of the
    conclusion, so by soundness and completeness the premise is provable
    exactly when the conclusion is, and when the premise fails no other move
    can succeed (the argument is in the `prover` module docstring).  Branch
    and propagation moves are built only for states no unary rule applies
    to.

    After the axiom walk, one preorder walk visits the nodes, root first,
    then each child's subtree in item order, left side before right, and
    keeps each node's trail; the first unary site returns at once.  A
    premise and its witness context are built from the trail only where a
    move is yielded, and a branch site's context also where its colourings
    are counted, since its sorted items fix their order.

    Branch moves are only the splits whose first premise balances: atoms
    balanced and deficit 0, as `prover._balanced` asks, since no other
    first premise is provable.  Each occurrence of the context and of the
    node's rest is charged once (`_charge_of`), and the first half of every
    colouring is charged by summing (`_sums`); a split is built (`_halves`)
    only when its context half, its rest half and the active formula charge
    premise 1 with exactly 1.  The splits come in the order of the
    colourings of the context, then of the rest, each distinct pair of
    premises once."""
    ax = _axiom_move(s)
    if ax is not None:
        yield ax
        return

    spots = []  # (trail, node, its branch sites as (rule, side, occurrence)), in preorder
    todo: list = [(s, ())]
    while todo:
        node, trail = todo.pop()
        sites, kids = [], []
        for side, items in (("left", node.left), ("right", node.right)):
            for it in items:
                if isinstance(it, Sequent):
                    kids.append((it, (trail, node, side, it)))
                    continue
                rule = _RULE_AT.get((side, type(it.formula)))
                if rule in UNARY_LOGICAL_RULES:
                    premise = _put(trail, _unfold(rule, node, it))
                    yield Move(rule, (premise,), Witness(context=_put(trail, HOLE), principal=it.formula))
                    return
                if rule is not None:
                    sites.append((rule, side, it))
        spots.append((trail, node, sites))
        todo += reversed(kids)

    fields: dict = {}
    for trail, node, sites in spots:
        ctx = None
        for rule, side, occ in sites:
            if ctx is None:
                ctx = _put(trail, HOLE)
                outer = _charges(ctx, fields)
                outer_sums = _sums(outer)
            f = occ.formula
            rest = _edit(node, side, (occ,))
            inner = _charges(rest, fields)
            fitting: dict = {}
            for i, c in enumerate(_sums(inner)):
                fitting.setdefault(c, []).append(i)
            # premise 1 is c1 plugged with r1 plus A, at its side's polarity
            need = 1 - _charge_of(f.left, int(_SPLIT[rule][0] == "right"), fields)
            seen: set = set()
            for j, c in enumerate(outer_sums):
                fits = fitting.get(need - c)
                if fits is None:
                    continue
                c1, c2 = _halves(ctx, _colouring(j, outer))
                for i in fits:
                    r1, r2 = _halves(rest, _colouring(i, inner))
                    pair = _split_premises(rule, f, c1, r1, c2, r2)
                    if pair not in seen:
                        seen.add(pair)
                        yield Move(rule, pair, Witness(context=ctx, principal=f, ctx1=c1, ctx2=c2))

    for trail, node, _ in spots:
        yield from _prop_moves(trail, node)


def _prop_moves(trail: tuple, node: Sequent) -> Iterator[Move]:
    """The propagations at the node the trail leads to, each rule's distinct
    premises once, in the order of `_PROP_SHAPE`."""
    ctx = None
    seen: set = set()
    for rule in _PROP_SHAPE:
        for kid, occ in _prop_sites(rule, node):
            new = _propagate(rule, node, kid, occ)[0]
            if (rule, new) in seen:
                continue
            seen.add((rule, new))
            ctx = _put(trail, HOLE) if ctx is None else ctx
            yield Move(rule, (_put(trail, new),), Witness(context=ctx, principal=occ.formula, child_origin=kid.origin))


# ---------------------------------------------------------------- checking

def _quoted(s: Sequent) -> str:
    """The text of `s` for a checker message, clipped so that a huge
    certificate still gets a short message."""
    return _clip(sequent_text(s))


def _lift_items(lab: tuple, c1: tuple, c2: tuple) -> Iterator[tuple[tuple, tuple]]:
    """Ways to split the items so the halves lift onto exactly the two
    claimed item multisets: the same occurrences, and each child lifted
    onto one claimed child of its origin (`_lift_kids`)."""
    lab_holes = [it for it in lab if isinstance(it, Hole)]
    if any(
        len([it for it in items if isinstance(it, Hole)]) != len(lab_holes)
        for items in (c1, c2)
    ):
        return

    groups: dict = {}
    for it in lab:
        if isinstance(it, Occ):
            groups.setdefault(it.formula, []).append(it)
    want1: dict = {}
    want2: dict = {}
    for items, want in ((c1, want1), (c2, want2)):
        for it in items:
            if isinstance(it, Occ):
                want[it.formula] = want.get(it.formula, 0) + 1
    keys = set(groups) | set(want1) | set(want2)
    if any(len(groups.get(t, ())) != want1.get(t, 0) + want2.get(t, 0) for t in keys):
        return

    lab_kids = children_by_origin(lab)
    kids1 = children_by_origin(c1)
    kids2 = children_by_origin(c2)
    origins = set(lab_kids) | set(kids1) | set(kids2)
    if any(
        len(lab_kids.get(g, ())) != len(kids1.get(g, ())) or len(lab_kids.get(g, ())) != len(kids2.get(g, ()))
        for g in origins
    ):
        return

    occ_choices = []
    for t in sorted(groups, key=formula_text):
        group = groups[t]
        picks = []
        for idx_sel in combinations(range(len(group)), want1.get(t, 0)):
            chosen = set(idx_sel)
            pick = ([group[i] for i in idx_sel], [group[i] for i in range(len(group)) if i not in chosen])
            if pick not in picks:
                picks.append(pick)
        occ_choices.append(picks)

    kid_choices = []
    for g in sorted(origins):
        options = _lift_kids(lab_kids.get(g, []), kids1.get(g, []), kids2.get(g, []))
        if not options:
            return
        kid_choices.append(options)

    for occ_combo in product(*occ_choices):
        first_occs = [o for sel, _ in occ_combo for o in sel]
        second_occs = [o for _, rest in occ_combo for o in rest]
        for kid_combo in product(*kid_choices):
            first_kids = [k for kk, _ in kid_combo for k in kk]
            second_kids = [k for _, kk in kid_combo for k in kk]
            yield (
                tuple(first_occs + first_kids + lab_holes),
                tuple(second_occs + second_kids + lab_holes),
            )


def _lift_kids(labs: list, a_kids: list, b_kids: list) -> list[tuple[tuple, tuple]]:
    """The distinct ways to lift the children `labs`, which share an origin,
    each onto one child of `a_kids` and one of `b_kids`, in the order of the
    pairs of index permutations that give them.  A prefix that pairs a child
    with claims it cannot lift onto is dropped with every permutation
    extending it, so children that differ from each other cost little; equal
    claims are still tried in every order."""
    m = len(labs)
    lifts: dict = {}

    def lift(i: int, j: int, k: int) -> list:
        if (i, j, k) not in lifts:
            lifts[i, j, k] = list(_lift_seq(labs[i], a_kids[j], b_kids[k]))
        return lifts[i, j, k]

    def perms(fits, used: tuple = ()) -> Iterator[tuple]:
        i = len(used)
        if i == m:
            yield used
            return
        for j in range(m):
            if j not in used and fits(i, j):
                yield from perms(fits, used + (j,))

    options: list = []
    seen: set = set()
    for pa in perms(lambda i, j: any(lift(i, j, k) for k in range(m))):
        for pb in perms(lambda i, k: bool(lift(i, pa[i], k))):
            for combo in product(*(lift(i, pa[i], pb[i]) for i in range(m))):
                option = (tuple(c[0] for c in combo), tuple(c[1] for c in combo))
                if option not in seen:
                    seen.add(option)
                    options.append(option)
    return options


def _lift_seq(lab: Sequent, c1: Sequent, c2: Sequent) -> Iterator[tuple[Sequent, Sequent]]:
    if not (lab.origin == c1.origin == c2.origin):
        return
    for l1, l2 in _lift_items(lab.left, c1.left, c2.left):
        for r1, r2 in _lift_items(lab.right, c1.right, c2.right):
            yield Sequent(l1, r1, lab.origin), Sequent(l2, r2, lab.origin)


def _lift_context(lab: Context, c1: Context, c2: Context) -> Iterator[tuple[Context, Context]]:
    if isinstance(lab, Hole):
        if isinstance(c1, Hole) and isinstance(c2, Hole):
            yield HOLE, HOLE
        return
    if isinstance(c1, Hole) or isinstance(c2, Hole):
        return
    yield from _lift_seq(lab, c1, c2)


def _instances(
    rule: str, ctx: Context, redex: Sequent, w: Witness, claims: tuple[Sequent, ...]
) -> Iterator[tuple[Sequent, ...]]:
    """The premises of each application of `rule` at `redex` in `ctx` that
    the witness allows."""
    if rule in LEAF_RULES:
        # at most one axiom applies anywhere: the rest of the tree is hollow
        ax = _axiom_move(plug(ctx, redex))
        if ax is not None and ax.rule == rule and ax.witness.context == ctx:
            if w.principal in (None, ax.witness.principal):
                yield ()
    elif rule in BRANCH_RULES:
        yield from _branch_instances(rule, ctx, redex, w, claims)
    elif rule in UNARY_LOGICAL_RULES:
        for occ in _principals(rule, redex):
            if w.principal in (None, occ.formula):
                yield (plug(ctx, _unfold(rule, redex, occ)),)
    else:
        for kid, occ in _prop_sites(rule, redex):
            if w.principal in (None, occ.formula) and w.child_origin in (None, kid.origin):
                yield (plug(ctx, _propagate(rule, redex, kid, occ)[0]),)


def _branch_instances(
    rule: str, ctx: Context, redex: Sequent, w: Witness, claims: tuple[Sequent, ...]
) -> Iterator[tuple[Sequent, Sequent]]:
    if w.ctx1 is None or w.ctx2 is None:
        raise CheckError(f"{rule} needs ctx1 and ctx2 in its witness")
    a_side, b_side = _SPLIT[rule]
    sredex1 = context_decompose(w.ctx1, claims[0])
    sredex2 = context_decompose(w.ctx2, claims[1])
    if sredex1 is None or sredex2 is None:
        return
    for occ in _principals(rule, redex):
        f = occ.formula
        if w.principal not in (None, f):
            continue
        rest = _edit(redex, _LOGICAL[rule][0], (occ,))
        try:
            crest1 = _edit(sredex1, a_side, (Occ(f.left),))
            crest2 = _edit(sredex2, b_side, (Occ(f.right),))
        except ValueError:
            continue
        # the witness pins only the context halves; the rewritten node's own
        # material is split by lifting the claimed premises' halves
        for l1, l2 in _lift_context(ctx, w.ctx1, w.ctx2):
            for r1, r2 in _lift_seq(rest, crest1, crest2):
                yield _split_premises(rule, f, l1, r1, l2, r2)


def _derives(node: ProofNode, c: Sequent, claims: tuple[Sequent, ...]) -> bool:
    """The `check_tree` step of the dn checker: True when the stated premises
    `claims` are those of an instance of the node's rule at the node of `c`
    that the witness context locates.  A node no instance fits is rejected
    here, with the premises the first instance derives when there is one."""
    rule = node.rule
    w = node.witness
    if w is None or w.context is None:
        raise CheckError(f"{rule} needs a witness context")
    redex = context_decompose(w.context, c)
    derived: Optional[tuple] = None  # the premises of the first instance
    if redex is not None:
        for premises in _instances(rule, w.context, redex, w, claims):
            if premises == claims:
                return True
            derived = derived or premises
    if derived is not None:
        stated, got = ("; ".join(map(_quoted, ps)) for ps in (claims, derived))
        raise CheckError(f"premise mismatch at {rule}: stated {stated}, derived {got}")
    raise CheckError(f"rule {rule} does not apply to {_quoted(c)} with the given witness")


def check_dn_proof(root: ProofNode, expect: Optional[Sequent] = None) -> None:
    """Validate a proof tree in the deep calculus: `certs.check_tree` with
    the local step `_derives`, after comparing the root conclusion with
    `expect` when one is given.  Sequents compare exactly, origins included;
    a child that `lolli_r` or `excl_l` spawns has origin 0, so a certificate
    writes it without an `@` suffix.  Raises CheckError with a reason on any
    defect."""
    check_tree(root, DN_RULES, _derives, expect=expect)


def check_separation(root: ProofNode) -> None:
    """The FILL fragment pass, `certs.check_fragment`, with the deep tables."""
    check_fragment(root, FILL_EXCLUDED, is_fill_sequent)
