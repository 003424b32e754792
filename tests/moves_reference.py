"""References for the counting in the deep search, to test the package's own.

`reference_moves` yields the moves of `deep.deep_moves` as reading the tree
as every context-plus-node pair (`hole_contexts`) and building every
colouring gives them: for each branch rule on each occurrence, every
colouring of the context and of the rewritten node
(`enumerate_context_partitions`, `enumerate_partitions`), both premises
built, the pairs deduplicated, and only then each kept when its first
premise passes `prover._balanced`.  `deep_moves` instead walks the tree
once, charges each occurrence once, sums the charges of every colouring
and builds only the pairs whose first premise balances; both must yield
the same moves in the same order.  The axiom move is
`reference_axiom_move`, which tests each node that `hole_contexts` gives,
where `deep._axiom_move` walks the tree once.  The unary and propagation
moves are built here by plugging each node's premise into its context,
with the package's rule shapes.  `_charge` counts a whole part by walking
it, for the test that charges add.

`formula_occurrence_count` counts the occurrences of a tree, and
`reference_counts` is the explicit-stack walk that `sequent.signed_counts`
once was, for the recursive walk to be compared with.

`searched_calls` records the states a decision visits,
`fill_excluded_offers` names any rule outside FILL those states offer, and
`size4_sample` draws seeded formulas of four connectives that pass the
counting prunes.  Nothing in the package imports this module.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator

from fillprover import prover
from fillprover.certs import Witness
from fillprover.cli import corpus_formulas
from fillprover.deep import (
    _PROP_SHAPE,
    _RULE_AT,
    BRANCH_RULES,
    FILL_EXCLUDED,
    UNARY_LOGICAL_RULES,
    Move,
    deep_moves,
    _edit,
    _propagate,
    _prop_sites,
    _split_premises,
    _unfold,
)
from fillprover.formula import (
    _ATOM,
    Atom,
    _BOT,
    _EXCL,
    _LOLLI,
    _ONE,
    _PAR,
    _TENSOR,
    Excl,
    Formula,
    Lolli,
    Par,
    Tensor,
    UnitBot,
    UnitI,
    connective_count,
    is_fill_formula,
)
from fillprover.sequent import (
    _SEQUENT,
    HOLE,
    Context,
    Hole,
    Sequent,
    SignedCounts,
    _tally,
    child_seqs,
    occs,
    plug,
)


def hole_contexts(s: Sequent) -> Iterator[tuple[Context, Sequent]]:
    """Every way to read `s` as context-plus-node: each node of the tree in
    turn becomes the plugged sequent.  Root first, then children in canonical
    order, left side before right."""
    yield HOLE, s
    for side_name in ("left", "right"):
        items = getattr(s, side_name)
        for idx, it in enumerate(items):
            if not isinstance(it, Sequent):
                continue
            for sub_ctx, node in hole_contexts(it):
                replaced = items[:idx] + (HOLE if isinstance(sub_ctx, Hole) else sub_ctx,) + items[idx + 1 :]
                if side_name == "left":
                    ctx = Sequent(replaced, s.right)
                else:
                    ctx = Sequent(s.left, replaced)
                yield ctx, node


def enumerate_partitions(s: Sequent) -> list[tuple[Sequent, Sequent]]:
    """Every two-colouring of the formula occurrences; both halves keep the
    full child shape, child contents partitioned recursively.
    Exactly 2**n pairs for the n occurrences of the tree, with multiplicity,
    ordered so the first half starts maximal."""
    return [
        (Sequent(l1, r1), Sequent(l2, r2))
        for (l1, l2), (r1, r2) in product(_split_items(s.left), _split_items(s.right))
    ]


def enumerate_context_partitions(ctx: Context) -> list[tuple[Context, Context]]:
    if isinstance(ctx, Hole):
        return [(HOLE, HOLE)]
    return enumerate_partitions(ctx)


def _split_items(items: tuple) -> list[tuple[tuple, tuple]]:
    occ_list = list(occs(items))
    holes = [it for it in items if isinstance(it, Hole)]
    kid_splits = [enumerate_partitions(k) for k in child_seqs(items)]
    results = []
    for mask in range(2 ** len(occ_list)):
        first = [o for j, o in enumerate(occ_list) if not mask >> j & 1]
        second = [o for j, o in enumerate(occ_list) if mask >> j & 1]
        for combo in product(*kid_splits):
            k1 = [c[0] for c in combo]
            k2 = [c[1] for c in combo]
            results.append(
                (tuple(first + k1 + holes), tuple(second + k2 + holes))
            )
    return results


def _charge(*parts: tuple) -> tuple:
    """The counts of `signed_counts` that decide balance, over the items
    `parts`, each an (item, polarity) pair: the positive leaves less the
    branching connectives, and each atom's positive less negative
    occurrences, where they differ.  A sequent passes `prover._balanced`
    exactly when its charge is `(1, frozenset())`."""
    atoms: dict = {}
    sums = [0, 0]
    for x, pol in parts:
        _tally(x, pol, atoms, sums)
    return sums[0] - sums[1], frozenset((n, pos - neg) for n, (neg, pos) in atoms.items() if pos != neg)


def rules_at(node: Sequent) -> Iterator[tuple[str, str, Formula]]:
    """(rule, side, occurrence) for every logical rule that can act on an
    occurrence of the node, antecedent first."""
    for side in ("left", "right"):
        for occ in occs(getattr(node, side)):
            rule = _RULE_AT.get((side, type(occ)))
            if rule is not None:
                yield rule, side, occ


def formula_occurrence_count(s: Sequent) -> int:
    """The formula occurrences in the whole tree of `s`."""
    n = 0
    for it in s.left + s.right:
        if isinstance(it, Sequent):
            n += formula_occurrence_count(it)
        else:
            n += 1
    return n


def reference_axiom_move(s: Sequent) -> Move | None:
    """`deep._axiom_move(s)`, found by counting every occurrence of the
    tree and then testing each node that `hole_contexts` reads it as, with
    the context it gives."""
    total = formula_occurrence_count(s)
    if total == 1:
        for ctx, node in hole_contexts(s):
            for occ in occs(node.left):
                if isinstance(occ, UnitBot):
                    return Move("bot_l", (), Witness(context=ctx, principal=occ))
            for occ in occs(node.right):
                if isinstance(occ, UnitI):
                    return Move("i_r", (), Witness(context=ctx, principal=occ))
    if total == 2:
        for ctx, node in hole_contexts(s):
            for lo in occs(node.left):
                if not isinstance(lo, Atom):
                    continue
                for ro in occs(node.right):
                    if ro == lo:
                        return Move("id", (), Witness(context=ctx, principal=lo))
    return None


def reference_moves(s: Sequent) -> Iterator[Move]:
    """The moves of `deep_moves(s)`, the axiom found by
    `reference_axiom_move` and each branch split built from its colouring
    before its first premise is tested."""
    ax = reference_axiom_move(s)
    if ax is not None:
        yield ax
        return

    spots = []
    for ctx, node in hole_contexts(s):
        acts = list(rules_at(node))
        for rule, _, occ in acts:
            if rule in UNARY_LOGICAL_RULES:
                premise = plug(ctx, _unfold(rule, node, occ))
                yield Move(rule, (premise,), Witness(context=ctx, principal=occ))
                return
        spots.append((ctx, node, acts))

    for ctx, node, acts in spots:
        for rule, side, occ in acts:
            if rule not in BRANCH_RULES:
                continue
            f = occ
            rest = _edit(node, side, (occ,))
            seen: set = set()
            for c1, c2 in enumerate_context_partitions(ctx):
                for r1, r2 in enumerate_partitions(rest):
                    pair = _split_premises(rule, f, c1, r1, c2, r2)
                    if pair in seen:
                        continue
                    seen.add(pair)
                    if prover._balanced(pair[0]):
                        yield Move(rule, pair, Witness(context=ctx, principal=f, ctx1=c1, ctx2=c2))

    for ctx, node, _ in spots:
        seen = set()
        for rule in _PROP_SHAPE:
            for kid, occ in _prop_sites(rule, node):
                premise = plug(ctx, _propagate(rule, node, kid, occ)[0])
                if (rule, premise) not in seen:
                    seen.add((rule, premise))
                    yield Move(rule, (premise,), Witness(context=ctx, principal=occ))


def reference_counts(s: Sequent | Formula) -> SignedCounts:
    """`signed_counts(s)`, walked over an explicit stack of (item, polarity)
    pairs, 0 negative and 1 positive."""
    counts: dict[str, list[int]] = {}
    leaves = branches = 0
    todo: list = [(s, 1)]
    while todo:
        x, pol = todo.pop()
        tag = x[0]
        if tag == _SEQUENT:
            todo.extend((it, 0) for it in x[1])
            todo.extend((it, 1) for it in x[2])
        elif tag == _ATOM:
            counts.setdefault(x[1], [0, 0])[pol] += 1
            leaves += pol
        elif tag == _TENSOR:
            todo += ((x[1], pol), (x[2], pol))
            branches += pol
        elif tag == _PAR:
            todo += ((x[1], pol), (x[2], pol))
            branches += 1 - pol
        elif tag == _LOLLI:
            todo += ((x[1], 1 - pol), (x[2], pol))
            branches += 1 - pol
        elif tag == _EXCL:
            todo += ((x[1], pol), (x[2], 1 - pol))
            branches += pol
        elif tag == _ONE:
            leaves += pol
        elif tag == _BOT:
            leaves += 1 - pol
    return SignedCounts({n: (c[0], c[1]) for n, c in counts.items()}, leaves, branches)


def searched_calls(f: Formula) -> list[Sequent]:
    """The state of every `deep_moves` call that deciding `f` makes, in the
    order it makes them: in FILL when `f` has no exclusion, as
    `cli.corpus_record` decides it, else in BiILL."""
    calls: list[Sequent] = []
    real = prover.deep_moves

    def recording(s):
        calls.append(s)
        return real(s)

    prover.deep_moves = recording
    try:
        prover.decide_formula(f, "fill" if is_fill_formula(f) else "biill")
    finally:
        prover.deep_moves = real
    return calls


def first_disagreement(calls: list[Sequent]) -> tuple | None:
    """The first of the `deep_moves` calls (as `searched_calls` gives them)
    for which `deep_moves` and `reference_moves` yield other moves or
    another order, with both lists; None when they agree on every call."""
    for s in calls:
        got = list(deep_moves(s))
        want = list(reference_moves(s))
        if got != want:
            return s, got, want
    return None


def fill_excluded_offers(calls: list[Sequent]) -> list[tuple]:
    """`(state, rule)` for every rule of `FILL_EXCLUDED` that a state of the
    `deep_moves` calls offers: a move it yields, a logical rule `rules_at`
    finds at one of its nodes, or a site `_prop_sites` finds there.  Empty
    for the calls of an exclusion-free goal, as the `deep` module docstring
    argues."""
    found = []
    for s in calls:
        rules = {m.rule for m in deep_moves(s)}
        for _, node in hole_contexts(s):
            rules.update(rule for rule, _, _ in rules_at(node))
            rules.update(rule for rule in _PROP_SHAPE if any(_prop_sites(rule, node)))
        found += [(s, rule) for rule in sorted(rules & FILL_EXCLUDED)]
    return found


def size4_sample(seed: int, n: int, variables=("p", "q")) -> list[Formula]:
    """`n` distinct formulas of four connectives over `variables` and the
    units, drawn with `random.Random(seed)`, each passing
    `prover._balanced`, so that each reaches the search unless S4 refutes
    it: a connective at the root over a formula of `i` connectives and one
    of `3 - i`, from the size-3 corpus."""
    strata: list[list[Formula]] = [[] for _ in range(4)]
    for f in corpus_formulas(list(variables), 3):
        strata[connective_count(f)].append(f)
    rng = random.Random(seed)
    picked: dict = {}
    while len(picked) < n:
        i = rng.randrange(4)
        make = rng.choice((Tensor, Par, Lolli, Excl))
        f = make(rng.choice(strata[i]), rng.choice(strata[3 - i]))
        if prover._balanced(f):
            picked.setdefault(f, None)
    return list(picked)
