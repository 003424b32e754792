"""Proof search in the deep nested calculus.

Backward search from the goal sequent, trying axioms first, then in-place
unfolding, then branching splits, then propagation.  Search states are whole
labelled sequents (hop counters included), so success and failure both
memoize soundly.  Two budgets shape the search: a per-occurrence propagation
cap equal to the number of arrows in the goal, and a branch-length bound
that is linear-times-arrow-count in the goal size.  The derived budget is a
completeness bound: every provable goal has a proof inside it, so exhausting
it refutes.  Only when a caller supplies a smaller budget does a failure
that hit the cutoff come back as `budget_limited` instead of `refuted`,
and such failures never enter the failure cache.  Two further cuts need no
budget at all: unary rules are committed to, and states whose atoms do not
balance are never searched (both argued below).

Invertible rules first.  Where a unary logical rule (`i_l`, `bot_r`,
`tensor_l`, `par_r`, `lolli_r`, `excl_l`) applies anywhere in a state,
`deep_moves` offers only the first such unfolding, so the search commits to
it: when its premise fails, the state fails, with no backtracking into
branch splits or propagations.  That first unfolding was already tried
before anything else, so the commitment only prunes the alternatives tried
after it has failed; when none of them could have succeeded either, the
search finds the same proofs as before.  Why none could, and where the
argument stops:

- The two sequents read as equivalent formulas.  `tau_s` reads a node
  `Gamma => Delta` as the tensor of `Gamma` (`1` when empty) implying the par
  of `Delta` (`bot` when empty), a right child as `-o` and a left child as
  `-<`.  `i_l` and `bot_r` drop a unit from that tensor or par (the unit
  laws); `tensor_l` and `par_r` put `A, B` in place of `A*B` or `A|B`
  (associativity, and commutativity because sides are sorted multisets);
  `lolli_r` and `excl_l` put the child `[A => B]` in place of `A -o B` or
  `A -< B`, which `tau_s` reads back as that very formula.  So the node's
  reading in the premise and in the conclusion are provably equivalent in
  BiILL, and since every connective of the surrounding context is monotone
  or antitone in each argument, so are the readings of the whole trees.
- By the paper's soundness and completeness of the deep calculus for BiILL
  (a sequent is dn-provable exactly when its `tau_s` reading is a BiILL
  theorem), the premise is provable exactly when the conclusion is.  The
  FILL search agrees because the FILL fragment is conservative: a FILL
  sequent that BiILL proves has a dn proof inside FILL.
- The budgets are not covered by that argument.  For the hop cap the
  unfolding does no harm: the premise keeps every other occurrence with its
  counter and its new occurrences start at 0.  But a proof of the
  conclusion within the branch-length budget may propagate the principal
  formula before unfolding it, and a `-o` or `-<` unfolded first leaves a
  child that no rule moves, so that proof need not permute into a proof of
  the premise one step shorter.  That the derived budget still suffices
  after the commitment is therefore not proved here; it rests on evidence:
  the 39,420 formulas of the size-3 corpus over `p, q` get the same BiILL
  verdicts (and the 12,460 without exclusion the same FILL verdicts), and
  their BiILL proofs the same size and branch length, as with full
  backtracking, and Bierman's formula gets the same FILL proof (in 7,668
  states, 12,887 before the commitment, and 16 once the balance prune
  below is added).
  Under a caller's smaller budget the commitment can only turn more
  searches into `budget_limited`, never a provable goal into `refuted`
  by a cutoff, because a failure that hit the cutoff still taints every
  state on its path back to the root.

Atom balance.  `signed_atom_count` gives each atom of a sequent its
negative and positive occurrences, counted over the whole tree:

    position of the occurrence          polarity
    item on a node's left side          negative, at every depth
    item on a node's right side         positive, at every depth
    either argument of `*` or `|`       that of the connective
    antecedent of `-o`                  flipped
    consequent of `-o`                  that of the connective
    left argument of `-<`               that of the connective
    right argument of `-<`              flipped

A sequent is balanced when every atom occurs as often negatively as
positively.  Lemma: every provable sequent is balanced.  Proof, by
induction on the dn proof, reading each rule bottom-up:

- Unary logical rules keep the count.  `i_l` and `bot_r` drop a unit,
  which holds no atom.  `tensor_l` and `par_r` put `A, B` on the side that
  held `A*B` or `A|B`, where both keep the polarity.  `lolli_r` puts
  `A -o B` (positive) as a right child `[A => B]`: `A` was flipped to
  negative and now sits on a left side, `B` stays positive on a right
  side.  `excl_l` puts `A -< B` (negative) as a left child `[A => B]`: `A`
  stays negative on a left side, `B` was flipped to positive and now sits
  on a right side.
- Propagation rules keep the count: the occurrence crosses one boundary
  but stays on a left side or a right side, and nothing else moves.
- Branch rules split it: each item of the context and of the rewritten
  node goes to exactly one premise, `A` and `B` go to the sides `_SPLIT`
  names, and those sides carry the polarity the principal formula gave
  them (for `lolli_l` on the left, `A` flipped to positive on a right side
  and `B` negative on a left side; for `excl_r` on the right, `A` positive
  on a right side and `B` flipped to negative on a left side).  So the two
  premises' counts add up to the conclusion's.
- Axioms: `bot_l` and `i_r` close a tree whose only occurrence is a unit,
  so it holds no atom; `id` closes a tree whose only occurrences are one
  atom on a left side and the same atom on the right side of that node,
  one negative and one positive.  Every leaf is balanced.

So whenever all premises of a rule are balanced, its conclusion is too,
and balance climbs from the leaves of any proof to its root.

The search applies the lemma twice.  An unbalanced goal is refuted before
any state is visited; `decide_formula` counts the atoms of the formula as
given, so such a goal is never labelled.  In `dfs`, a branch move whose
first premise is unbalanced is skipped before either premise is searched.
Every state `dfs` visits is balanced (the goal is, unary and propagation
premises keep the count, and a branch move is taken only with a balanced
first premise), so the second premise is balanced exactly when the first
is, and checking the first suffices.  Only unprovable premises are
skipped, and the moves of a state are still tried in the same order, so
the first move whose premises all succeed, and with it every proof,
verdict and certificate, stays the same.  The memo tables may now meet a
state first by another path, which changes nothing either: a state's proof
is its first move whose premises all succeed, whichever path reaches it,
unless the depth cutoff fires inside its search (at the derived budget it
fires, across the size-3 corpus and Bierman, only at the empty sequent,
which has no move).  A skipped move is never searched, so it never taints
its state.  Under a caller's smaller budget (`--budget-override`) a goal
can therefore come back `refuted` where it used to come back
`budget_limited`: an unbalanced goal always, and a balanced one whose
searches hit the cutoff only inside unbalanced branch premises.  That
answer is right, since the skipped premises are unprovable at any budget.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from .certs import ProofNode
from .deep import BRANCH_RULES, deep_moves, endsequent_for
from .formula import Formula, arrow_count, formula_size, is_fill_formula
from .sequent import (
    Sequent,
    is_fill_sequent,
    label_sequent,
    signed_atom_count,
    strip_sequent,
    tau_s,
)

__all__ = ["SearchBudget", "Decision", "decide_formula", "decide_sequent"]


@dataclass(frozen=True)
class SearchBudget:
    max_branch_length: int
    hop_cap: int

    @classmethod
    def for_formula(cls, f: Formula) -> "SearchBudget":
        size = formula_size(f)
        k = arrow_count(f)
        return cls(size + (size // 2) * k * size, k)


@dataclass(frozen=True)
class Decision:
    status: str  # "proved" | "refuted" | "budget_limited"
    proof: Optional[ProofNode]
    budget: SearchBudget
    visited: int

    @property
    def proved(self) -> bool:
        return self.status == "proved"


def decide_formula(f: Formula, logic: str = "biill", budget: Optional[SearchBudget] = None) -> Decision:
    """Decide provability of a single formula (as the sole succedent of an
    otherwise empty sequent)."""
    if logic not in ("fill", "biill"):
        raise ValueError(f"unknown logic {logic!r}")
    if logic == "fill" and not is_fill_formula(f):
        raise ValueError("formula uses exclusion, which FILL does not have")
    derived = SearchBudget.for_formula(f)
    if budget is None:
        budget = derived
    if not _balanced(f):
        return Decision("refuted", None, budget, 0)
    return _search(endsequent_for(f), logic, budget, _covers(budget, derived))


def decide_sequent(s: Sequent, logic: str = "biill", budget: Optional[SearchBudget] = None) -> Decision:
    """Decide provability of a nested sequent.  The default budget is taken
    from the sequent's formula reading."""
    if logic not in ("fill", "biill"):
        raise ValueError(f"unknown logic {logic!r}")
    if logic == "fill" and not is_fill_sequent(strip_sequent(s)):
        raise ValueError("sequent lies outside the FILL fragment")
    derived = SearchBudget.for_formula(tau_s(s))
    if budget is None:
        budget = derived
    if not _balanced(s):
        return Decision("refuted", None, budget, 0)
    return _search(label_sequent(strip_sequent(s)), logic, budget, _covers(budget, derived))


def _covers(budget: SearchBudget, derived: SearchBudget) -> bool:
    # at or above the derived bound the search is complete and exhaustion
    # refutes; below it, exhaustion proves nothing
    return (
        budget.max_branch_length >= derived.max_branch_length
        and budget.hop_cap >= derived.hop_cap
    )


def _balanced(s: Sequent | Formula) -> bool:
    return all(neg == pos for neg, pos in signed_atom_count(s).values())


def _search(s0: Sequent, logic: str, budget: SearchBudget, complete: bool) -> Decision:
    # s0 is balanced: both callers refute an unbalanced goal themselves
    success: dict[Sequent, ProofNode] = {}
    failed: set[Sequent] = set()
    visited = 0

    def dfs(s: Sequent, depth: int) -> tuple[Optional[ProofNode], bool]:
        nonlocal visited
        hit = success.get(s)
        if hit is not None:
            return hit, False
        if s in failed:
            return None, False
        if depth <= 0:
            return None, True
        visited += 1
        tainted_any = False
        for move in deep_moves(s, logic, budget.hop_cap):
            # s is balanced, so the second premise is when the first is
            if move.rule in BRANCH_RULES and not _balanced(move.premises[0]):
                continue
            subproofs = []
            ok = True
            tainted_move = False
            for p in move.premises:
                pr, t = dfs(p, depth - 1)
                tainted_move = tainted_move or t
                if pr is None:
                    ok = False
                    break
                subproofs.append(pr)
            if ok:
                node = ProofNode(move.rule, s, tuple(subproofs), move.witness)
                success[s] = node
                return node, False
            tainted_any = tainted_any or tainted_move
        if not tainted_any:
            failed.add(s)
        return None, tainted_any

    floor = 40 * budget.max_branch_length + 1000
    limit = sys.getrecursionlimit()
    if limit < floor:
        sys.setrecursionlimit(floor)
    try:
        proof, tainted = dfs(s0, budget.max_branch_length)
    finally:
        if limit < floor:
            sys.setrecursionlimit(limit)
    if proof is not None:
        status = "proved"
    elif tainted and not complete:
        status = "budget_limited"
    else:
        status = "refuted"
    return Decision(status, proof, budget, visited)
