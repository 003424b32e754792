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
and such failures never enter the failure cache.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from .certs import ProofNode
from .deep import deep_moves, endsequent_for
from .formula import Formula, arrow_count, formula_size, is_fill_formula
from .sequent import Sequent, is_fill_sequent, label_sequent, strip_sequent, tau_s

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
    return _search(label_sequent(strip_sequent(s)), logic, budget, _covers(budget, derived))


def _covers(budget: SearchBudget, derived: SearchBudget) -> bool:
    # at or above the derived bound the search is complete and exhaustion
    # refutes; below it, exhaustion proves nothing
    return (
        budget.max_branch_length >= derived.max_branch_length
        and budget.hop_cap >= derived.hop_cap
    )


def _search(s0: Sequent, logic: str, budget: SearchBudget, complete: bool) -> Decision:
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
