"""Proof search in the deep nested calculus.

Backward search from the goal sequent, trying axioms first, then in-place
unfolding, then branching splits, then propagation.  Search states are the
sequents themselves, so success and failure both memoize soundly, and each
proof node is built from its state and the witness of its move.  A state
carries nothing the calculus lacks, such as a counter on an occurrence, and
search has no cap on propagation and no loop check.  No branch is cut short
by its length either: by the two lemmas below every branch ends, and a
state whose moves all fail is refuted and enters the failure memo.  Three further cuts are
argued below, the last two by one soundness fact: unary rules are committed
to, states whose counts the integer models refute (atoms that do not
balance, or a leaf count that is off) are never searched, and neither is a
goal that a four-element model refutes.

Propagation paths are simple.  Let `k` be the arrow count (`arrow_count`)
of the goal's formula reading, `goal_reading`.  A left occurrence moves
only into a right child (`prop_left_in`) or out of a left child
(`prop_left_out`); a right occurrence moves the mirror image, into a left
child or out of a right one.  Once an occurrence has moved down, it sits in
a child it cannot leave upward, so along a branch its moves go up zero or
more times, then down zero or more times, and never pass through a node
twice.  No rule removes a node, and only `lolli_r` and `excl_l` add one,
each using up one arrow of a formula occurrence; a branch rule shares the
occurrences out between premises that both keep every node.  So the nodes
of a tree plus the arrows of its occurrences never grow along a branch.  At
the goal they number at most `k + 1`: `=> F` has one node and `k` arrows,
and `tau_s` reads any other goal with one arrow per node, its root's
included, besides its occurrences' arrows.  So every tree on a branch has
at most `k + 1` nodes, all of them nodes of the branch's last tree, and no
occurrence moves more than `k` times on a branch.

The measure.  Give an occurrence of a formula `A` that has made `h` moves
on the branch so far the weight `(k+1)*|A| - h`, where `|A|` is
`formula_size`, and a state the sum of the weights of the occurrences in
its whole tree.  The weight belongs to the branch, not to the state: it
counts moves the state does not record.  By the path lemma `h <= k`, so
every occurrence weighs at least `(k+1) - k = 1`.  Lemma: every premise of
every rule weighs at least 1 less than the conclusion.  Proof, rule by
rule:

- A propagation moves one occurrence one move further, so its weight falls
  by exactly 1; nothing else changes.
- A unary logical rule acts on one occurrence of `A*B`, `A|B`, `A -o B`
  or `A -< B` with `h <= k` moves, weighing `(k+1)*(|A|+|B|+1) - h`, which
  is at least `(k+1)*(|A|+|B|) + 1`.  The premise holds `A` and `B` in its
  place, side by side or as the child `[A => B]`, both new occurrences with
  no moves, weighing `(k+1)*(|A|+|B|)`; `i_l` and `bot_r` just drop a unit,
  which weighs at least 1.  Every other occurrence keeps its moves.
- A branch rule sends each other occurrence, with its moves, to one of the
  two premises, and puts `A` in the first and `B` in the second, each with
  no moves.  The first premise weighs at most the conclusion less the
  principal formula's weight, plus `(k+1)*|A|`, so at least
  `(k+1)*|B| + 1` less than the conclusion; the second likewise.
- An axiom has no premise, and its conclusion holds an occurrence, so it
  weighs at least 1.

So along any branch of the search, from the goal through premise after
premise, the weight falls by at least 1 per rule.  A state with a move
holds an occurrence (every rule acts on one), so it weighs at least 1, and
a branch passes through at most `W` states that have a move, where `W` is
the goal's weight, plus at most one formula-free state at its end, which
has none.  For `decide_formula` the goal `=> F` weighs `(k+1)*|F|`, and
so does a root `=> F` for `decide_sequent`, whose `goal_reading` is `F`;
any other goal `s` weighs at most `(k+1)*|tau_s(s)|`, since that reading
adds connectives and units to the occurrences it joins.  Every node of a
proof has a move, so no proof branch holds more than `(k+1)*|F|` sequents,
`F` the goal's reading; `branch_bound` gives this bound, and `dfs` recurses
at most one frame per state on a branch.  The bound is tight on the size-3
corpus: some of its BiILL proofs meet it.  Both lemmas hold for a branch
from any state taken as its goal, so the chains of moves from any state are
bounded too, and with finitely many moves per state, each state has a
longest chain, which every premise of its moves undercuts.

Invertible rules first.  Where a unary logical rule (`i_l`, `bot_r`,
`tensor_l`, `par_r`, `lolli_r`, `excl_l`) applies anywhere in a state,
`deep_moves` offers only the first such unfolding, so the search commits to
it: when its premise fails, the state fails, with no backtracking into
branch splits or propagations.  That loses no proof:

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
  theorem), the premise is provable exactly when the conclusion is.
- So search finds a proof of every provable state, by induction on the
  longest chain of moves from it.  A state a unary rule applies to is
  provable exactly when the premise of its first unfolding is, and search
  takes that premise.  Any other provable state has a proof whose last rule
  is one of its moves: an axiom, a propagation, none of which search cuts,
  or a branch split, whose first premise is provable and so balances (the
  counting lemma below).  Search tries each such move in turn until one
  has premises it proves.

Counting.  `signed_counts` gives each atom of a sequent its negative and
positive occurrences, counted over the whole tree:

    position of the occurrence          polarity
    item on a node's left side          negative, at every depth
    item on a node's right side         positive, at every depth
    either argument of `*` or `|`       that of the connective
    antecedent of `-o`                  flipped
    consequent of `-o`                  that of the connective
    left argument of `-<`               that of the connective
    right argument of `-<`              flipped

With the same polarities it counts the positive leaves, positive atoms and
units (`1` positive, `bot` negative), and the branching connectives (`*`
and `-<` positive, `|` and `-o` negative), which are exactly the principal
formulas of `tensor_r`, `excl_r`, `par_l` and `lolli_l`.  Child structures
count nothing.  A sequent is balanced when every atom occurs as often
negatively as positively, and its deficit is its leaves less its branching
connectives less 1.  These are the counts of its reading `tau_s` too: the
units, joins and arrows that the reading adds are neither leaves nor
branching connectives, and it gives every item the polarity of its side.

Lemma: every provable sequent is balanced and has deficit 0.  Proof, by
soundness in one family of models.  The paper proves every rule of the
deep calculus sound for the algebraic semantics of BiILL through `tau_s`:
in a *-autonomous poset in which `-<` is the left adjoint of `|`, under
every valuation, when the readings of a rule's premises are valid (at
least the unit), so is the reading of its conclusion.  So every provable
sequent's reading is valid in every such model, under every valuation.
Fix an integer `d` and read the integers in their order with `x*y = x + y`,
the unit `1` as 0, `bot` as `d` and `~x = d - x`, so that `x|y = x + y - d`,
`x -o y = y - x` and `x -< y = x - y + d`.  This is such a model: `+` is
commutative, associative and monotone with unit 0, `~` reverses the order
and `~~x = x`, `bot = ~1`, `x + y <= z` exactly when `y <= z - x`, and
`x - y + d <= z` exactly when `x <= y + z - d`.  A reading is valid when its
value is 0 or more.

The value is linear in the counts: a formula read at positive polarity
takes `sum(n_a * v(a)) - d * deficit`, where `n_a` is the atom's positive
less negative occurrences and `v(a)` its value.  By induction on the
formula, with `x` and `y` the values of `A` and `B`, one row per symbol:

    formula     value        deficit
    atom a      v(a)         0
    1           0            0
    bot         d            -1
    A*B         x + y        deficit(A) + deficit(B)
    A|B         x + y - d    deficit(A) + deficit(B) + 1
    A -o B      y - x        deficit(B) - deficit(A)
    A -< B      x - y + d    deficit(A) - deficit(B) - 1

The deficits follow from the counts: `*` and `-<` are one branching
connective, and reading an argument negatively flips each of its counts,
so that its leaves less its branching connectives become minus its
deficit.  So a provable sequent has `sum(n_a * v(a)) - d * deficit >= 0`
for every `d` and every `v`.  At `d = 0` and `v(a) = -n_a` the sum is
minus the sum of the squares `n_a**2`, so every `n_a` is 0: the sequent
is balanced.  Then `d = 1` and `d = -1` give `deficit <= 0` and
`deficit >= 0`.  Linearity is also why charges add (`deep._charge_of`):
the counts of a sequent, and with them its value in every such model, are
the sums of its parts' counts, wherever each part is plugged in.

Read from a proof: no rule weakens or contracts, so each axiom consumes one
positive leaf and each branch rule one branching connective, and a tree
with `b` nodes of two premises has `b + 1` leaves.  This is the counting
half of the multiplicative proof-net criterion (Girard, *Linear logic*,
1987; Danos and Regnier, *The structure of multiplicatives*, 1989).  It
sees units, which atom balance cannot, and proofs that would need more or
fewer branches than the leaves allow: `a*b -o a|b` is balanced and has
deficit 1.

The search applies the counting lemma twice.  A goal that fails it is refuted
by `_balanced` before any state is visited; `decide_formula` counts the
formula as given, so such a goal never becomes a sequent, and its bounds
are never derived.  And `deep_moves` builds a branch split only when its
first premise is balanced with deficit 0: it charges each occurrence once,
sums the charges of the pieces premise 1 is made of, and skips a split
whose sum fails before building either premise.  Every
state `dfs` visits passes both tests (the goal does, unary and propagation
premises keep both counts, and every branch move has a first premise that
passes), so the second premise's net atom counts and deficit are minus the
first's, it passes exactly when the first does, and testing the first
suffices.  Counts add across `plug` and `_edit`, so the sum is premise 1's
own count, and `deep_moves` yields the surviving splits in the order of the
colourings: its moves are exactly those that building every split and then
testing its first premise would keep, in the same order (the test helper
`tests/moves_reference.py` keeps that enumeration as the reference).  Only
unprovable premises are skipped, so the first move of a state whose
premises all succeed, and with it every proof, verdict and certificate, is
the one a search without either test would find.  The memo tables may meet
a state first by another path than without the tests, which changes
nothing either: a state's proof is its first move whose premises all
succeed, whichever path reaches it.

Countermodel.  S4, the four-element even Sugihara monoid, has the
elements `-2 < -1 < 1 < 2`.  `x*y` is the operand with the larger absolute
value, or the smaller operand when the absolute values tie; `~x` is `-x`,
the unit `1` is 1 and `bot` is -1; `x|y = ~(~x * ~y)`, `x -o y = ~(x * ~y)`
and `x -< y = x * ~y`.  A value of 1 or more is valid.  `_S4_TABLES` holds
the four tables as literals, each element by its index in `_S4`:

    x*y   -2 -1  1  2    x|y   -2 -1  1  2
     -2   -2 -2 -2 -2     -2   -2 -2 -2  2
     -1   -2 -1 -1  2     -1   -2 -1  1  2
      1   -2 -1  1  2      1   -2  1  1  2
      2   -2  2  2  2      2    2  2  2  2

    x -o y -2 -1  1  2   x -< y -2 -1  1  2
     -2     2  2  2  2     -2   -2 -2 -2 -2
     -1    -2  1  1  2     -1    2 -1 -1 -2
      1    -2 -1  1  2      1    2  1 -1 -2
      2    -2 -2 -2  2      2    2  2  2 -2

Lemma: S4 is a *-autonomous poset with `bot = ~1`, and in it `-<` is the
left adjoint of `|`.  That is, `*` is commutative, associative, monotone
and has unit 1, `~` reverses the order and `~~x = x`, `x*y <= z` exactly
when `y <= x -o z`, and `x -< y <= z` exactly when `x <= y|z`.  Proof:

- Order the elements as `1, -1, 2, -2`, absolute value first and the
  negative one above its positive twin.  `x*y` is the later of its
  operands in that chain, so `*` is a chain's join: commutative and
  associative, with unit 1, the first element.  Each row of the `*` table
  is nondecreasing, so `*` is monotone in each argument.  `~` is negation.
- For all `u` and `z`: `u <= z` exactly when `u * ~z <= -1`.  When
  `|u| > |z|`, `u * ~z` is `u`, and both sides say `u < 0`.  When
  `|z| > |u|`, it is `-z`, and both say `z > 0`.  When `|u| = |z|`, either
  `u = z`, and `u * ~z` is `-|u|`, so both hold; or `u = -z`, and it is
  `u`, so both say `u < 0`.
- So `x*y <= z` exactly when `y * (x * ~z) <= -1`, by associativity and
  commutativity, that is `y * ~(x -o z) <= -1`, that is `y <= x -o z`.
- And `x -< y <= z`, that is `x * ~y <= z`, holds exactly when
  `x <= ~y -o z = ~(~y * ~z) = y|z`, by the adjunction just shown.

The tier-1 tests check every instance of each law over the whole domain.
Such a poset is a model of BiILL.  `(*, 1, -o)` is a commutative residuated
poset and `(|, bot, -<)` its order dual, by the two adjunctions.  Grishin's
weak distributivity `x*(y|z) <= (x*y)|z` holds too: by the `-<` adjunction
it says `x*(y|z) -< z <= x*y`, that is `x * ((y|z) * ~z) <= x*y`, and
`(y|z) * ~z <= y` holds because `y|z <= ~z -o y = z|y`.  So, by the
soundness the counting lemma rests on, every provable sequent's reading is
valid under every valuation into S4, as into the integers (Galatos,
Jipsen, Kowalski and Ono, *Residuated lattices*, 2007; Lafont, *The finite
model property for various fragments of linear logic*, 1997).

So a single valuation that gives the goal's reading a value below 1
proves the goal unprovable, and `decide_formula` and `decide_sequent` refute
such a goal before any state is visited, as they refute an unbalanced one.
`_countermodel` evaluates the reading, `goal_reading` of the goal, under
every valuation of its `n` atoms when `n <= 3`, and else under the first
64 in a fixed order: the atoms by name, each running through `1, -1, 2,
-2`, the last atom fastest, so that every atom before the last three
stands for the unit 1.  Every valuation is sound alone, so the cap gives
up refutations and never soundness, and it bounds the cost at 64 table
lookups per symbol of the reading.  Only goals the search would
refute are skipped, so every proof, certificate and state count of a
theorem is as before.  S4 satisfies laws BiILL lacks, such as the
double negation `((a -o bot) -o bot) -o a`, so it refutes fewer goals than
the search does: `(p -o q|r) -o (p -o q)|r` is valid in S4 and refuted
only by the search.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .certs import ProofNode, stack_room
from .deep import check_separation, deep_moves, endsequent_for
from .formula import _ATOM, _BOT, _EXCL, _LOLLI, _ONE, _PAR, _TENSOR, Formula, arrow_count, formula_size, is_fill_formula
from .sequent import Sequent, _tally, is_fill_sequent, tau_s

__all__ = ["Decision", "goal_reading", "branch_bound", "decide_formula", "decide_sequent"]

# S4, the model of the countermodel lemma: element i is _S4[i], and each
# table gives `x op y` at [x][y], elements by index; `~` takes i to 3 - i
_S4 = (-2, -1, 1, 2)
_S4_UNITS = {_ONE: 2, _BOT: 1}
_S4_TABLES = {
    _TENSOR: ((0, 0, 0, 0), (0, 1, 1, 3), (0, 1, 2, 3), (0, 3, 3, 3)),
    _PAR: ((0, 0, 0, 3), (0, 1, 2, 3), (0, 2, 2, 3), (3, 3, 3, 3)),
    _LOLLI: ((3, 3, 3, 3), (0, 2, 2, 3), (0, 1, 2, 3), (0, 0, 0, 3)),
    _EXCL: ((0, 0, 0, 0), (3, 1, 1, 0), (3, 2, 1, 0), (3, 3, 3, 0)),
}
# the least valid element, 1, by index
_S4_VALID = 2
# the order in which each atom runs through S4, by index: 1, -1, 2, -2
_S4_RUN = (2, 1, 3, 0)


class Decision(NamedTuple):
    status: str  # "proved" | "refuted"
    proof: Optional[ProofNode]
    visited: int

    @property
    def proved(self) -> bool:
        return self.status == "proved"


# every goal refuted before search gets this one decision
_REFUTED = Decision("refuted", None, 0)


def goal_reading(s: Sequent) -> Formula:
    """The formula whose bounds a search for the sequent uses: `F` for a
    root `=> F`, as `decide_formula` searches it, else `tau_s(s)`."""
    if not s.left and len(s.right) == 1 and not isinstance(s.right[0], Sequent):
        return s.right[0]
    return tau_s(s)


def branch_bound(f: Formula) -> int:
    """The most sequents a branch of a search whose goal reads as `f` can
    hold, `(k+1) * formula_size(f)` with `k` its arrow count (the path and
    measure lemmas above)."""
    return (arrow_count(f) + 1) * formula_size(f)


def decide_formula(f: Formula, logic: str = "biill") -> Decision:
    """Decide provability of a single formula (as the sole succedent of an
    otherwise empty sequent).  A formula whose counts do not balance, or
    that a valuation into S4 takes below 1, is refuted before any state is
    visited (the counting and countermodel lemmas above); any other is searched.  FILL runs the same
    search on a formula without exclusion (ValueError otherwise), then
    raises, never masks, the CheckError of `check_separation` on a proof
    outside FILL."""
    if logic not in ("fill", "biill"):
        raise ValueError(f"unknown logic {logic!r}")
    if logic == "fill" and not is_fill_formula(f):
        raise ValueError("formula uses exclusion, which FILL does not have")
    if not _balanced(f) or _countermodel(f) is not None:
        return _REFUTED
    return _separated(_search(endsequent_for(f), f), logic)


def decide_sequent(s: Sequent, logic: str = "biill") -> Decision:
    """Decide provability of a nested sequent.  The branch bound is that of
    its formula reading, `goal_reading(s)`, and the countermodel test
    evaluates that reading; the counts are taken over the
    sequent's tree.  FILL is as for `decide_formula`, on a sequent that
    `is_fill_sequent` accepts."""
    if logic not in ("fill", "biill"):
        raise ValueError(f"unknown logic {logic!r}")
    if logic == "fill" and not is_fill_sequent(s):
        raise ValueError("sequent lies outside the FILL fragment")
    if not _balanced(s):
        return _REFUTED
    reading = goal_reading(s)
    if _countermodel(reading) is not None:
        return _REFUTED
    return _separated(_search(s, reading), logic)


def _separated(d: Decision, logic: str) -> Decision:
    """`d`, once a FILL proof has passed `check_separation`, as the paper's theorem says it must."""
    if logic == "fill" and d.proof is not None:
        check_separation(d.proof)
    return d


def _balanced(s: Sequent | Formula) -> bool:
    """Balanced atoms and deficit 0, as the counting lemma above asks of a provable
    sequent: the counts of `signed_counts`, read from its walk's
    accumulators."""
    atoms: dict = {}
    sums = [0, 0]
    _tally(s, 1, atoms, sums)
    return sums[0] - sums[1] == 1 and all(neg == pos for neg, pos in atoms.values())


def _countermodel(f: Formula) -> Optional[dict[str, int]]:
    """The first valuation, atom name to element of S4 in name order, that
    takes `f` below 1, or None when every valuation tried leaves it valid:
    all `4**n` valuations of its `n` atoms when `n <= 3`, else the first 64
    (the countermodel lemma above).  One walk evaluates every valuation at
    once: each symbol gets the tuple of its values, one per valuation."""
    order = []  # f's symbols, each before its arguments, the right one first
    atoms = set()
    todo = [f]
    while todo:
        x = todo.pop()
        order.append(x)
        if x[0] >= _TENSOR:
            todo += x[1:]
        elif x[0] == _ATOM:
            atoms.add(x[1])
    names = sorted(atoms)
    n = len(names)
    count = 4 ** min(n, 3)
    # valuation j gives the atom of rank r the element that base-4 digit
    # n-1-r of j picks from _S4_RUN, so the last atom runs fastest and all
    # but the last three stay at 1
    column = {
        name: tuple(_S4_RUN[j >> 2 * (n - 1 - r) & 3] for j in range(count)) for r, name in enumerate(names)
    }
    values = []  # a stack of value tuples: `order` reversed is a postorder
    for x in reversed(order):
        tag = x[0]
        if tag == _ATOM:
            values.append(column[x[1]])
        elif tag in _S4_UNITS:
            values.append((_S4_UNITS[tag],) * count)
        else:
            table = _S4_TABLES[tag]
            right = values.pop()
            values[-1] = [table[a][b] for a, b in zip(values[-1], right)]
    for j, v in enumerate(values[0]):
        if v < _S4_VALID:
            return {name: _S4[column[name][j]] for name in names}
    return None


def _search(s0: Sequent, reading: Formula) -> Decision:
    # s0 is balanced with deficit 0: both callers refute any other goal
    bound = branch_bound(reading)
    success: dict[Sequent, ProofNode] = {}
    failed: set[Sequent] = set()
    visited = 0

    def dfs(s: Sequent) -> Optional[ProofNode]:
        nonlocal visited
        hit = success.get(s)
        if hit is not None or s in failed:
            return hit
        visited += 1
        for move in deep_moves(s):
            subproofs = []
            for p in move.premises:
                pr = dfs(p)
                if pr is None:
                    break
                subproofs.append(pr)
            else:
                node = success[s] = ProofNode(move.rule, s, tuple(subproofs), move.witness)
                return node
        failed.add(s)
        return None

    # one dfs frame per state on a branch, and room below the deepest for
    # the walks its moves make
    with stack_room(bound + 2000):
        proof = dfs(s0)
    return Decision("proved" if proof is not None else "refuted", proof, visited)
