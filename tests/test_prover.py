"""The decision procedure: known theorems, known non-theorems, the measure
that bounds every branch, and the atom balance and leaf count that every
provable sequent has."""

import gzip
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover.deep import BRANCH_RULES, LEAF_RULES, DN_RULES, check_dn_proof, check_separation, deep_moves, endsequent_for
from fillprover.certs import CheckError, certificate_text, proof_size
from fillprover.formula import (
    _BOT,
    _EXCL,
    _LOLLI,
    _ONE,
    _PAR,
    _TENSOR,
    Atom,
    Excl,
    Lolli,
    Par,
    Tensor,
    UnitBot,
    UnitI,
    _MAX_NESTING,
    arrow_count,
    formula_size,
    formula_text,
    parse_formula,
)
from fillprover import prover
from fillprover.prover import branch_bound, decide_formula, decide_sequent, goal_reading
from fillprover.sequent import HOLE, Sequent, parse_sequent, signed_counts
from fillprover.cli import corpus_formulas, main
from moves_reference import reference_counts

VERDICTS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "corpus_p_q_3.tsv.gz"

# theorems of FILL (so of BiILL too)
FILL_THEOREMS = [
    "a -o a",
    "1",
    "1 -o 1",
    "bot -o bot",
    "bot|1",
    "a*b -o a*b",
    "a*b -o b*a",
    "a|b -o b|a",
    "(a -o b) -o (b -o c) -o a -o c",
    "(p*(q|r)) -o (p*q)|r",
    "((p -o q)|r) -o p -o q|r",
    "((b -o bot)|c) -o b -o c",
    "a*(b*c) -o (a*b)*c",
    "a -o b -o a*b",
    "(a|b)|c -o a|(b|c)",
]

BIERMAN_TEXT = "(a|b)|c -o a|((b|c -o d)|e -o d|e)"

# not provable in either logic
NON_THEOREMS = [
    "bot -o 1",
    "1 -o bot",
    "p -o p*p",
    "p*p -o p",
    "a*b -o a|b",
    "a|b -o a*b",
    "(p -o q|r) -o (p -o q)|r",
    "(b -o c) -o (b -o bot)|c",
    "a -o b",
]

# provable only once exclusion is available
BIILL_ONLY = [
    "p -o q|(p -< q)",
    "(a -< a) -o bot|bot",
]


@pytest.mark.parametrize("text", FILL_THEOREMS)
def test_fill_theorems_prove_in_both_logics(text):
    f = parse_formula(text)
    for logic in ("fill", "biill"):
        d = decide_formula(f, logic)
        assert d.status == "proved"
        check_dn_proof(d.proof)
    # deciding a FILL goal in the larger logic stays inside the fragment
    check_separation(decide_formula(f, "biill").proof)


@pytest.mark.parametrize("text", NON_THEOREMS)
def test_non_theorems_are_refuted_not_budget_limited(text):
    f = parse_formula(text)
    assert decide_formula(f, "biill").status == "refuted"
    if "-<" not in text:
        assert decide_formula(f, "fill").status == "refuted"


@pytest.mark.parametrize("text", BIILL_ONLY)
def test_biill_only_theorems(text):
    f = parse_formula(text)
    d = decide_formula(f, "biill")
    assert d.status == "proved"
    check_dn_proof(d.proof)
    with pytest.raises(CheckError):
        check_separation(d.proof)


def test_fill_mode_rejects_exclusion():
    with pytest.raises(ValueError):
        decide_formula(parse_formula("p -o q|(p -< q)"), "fill")


def test_fill_proof_outside_the_fragment_raises(monkeypatch):
    # the search proves a FILL goal inside FILL (separation); were it ever
    # to hand back a proof that leaves the fragment, deciding in FILL must
    # raise, not report the verdict
    outside = decide_formula(parse_formula(BIILL_ONLY[0]), "biill")
    monkeypatch.setattr(prover, "_search", lambda s0, reading: outside)
    assert decide_formula(parse_formula("a -o a"), "biill") is outside
    with pytest.raises(CheckError):
        decide_formula(parse_formula("a -o a"), "fill")
    with pytest.raises(CheckError):
        decide_sequent(parse_sequent("a => a"), "fill")


@pytest.mark.parametrize(
    "text, status",
    [
        ("a => a, [=>]@1", "proved"),
        ("a => b, [c => d]@1", "refuted"),
        ("a => [b => a*b]@1", "proved"),
        ("b -o c => [b => c]@1", "proved"),
        ("c => [a => [b => a*b*c]@2]@1", "proved"),
    ],
)
def test_fill_sequents_with_right_nested_children_decide_as_in_biill(text, status):
    # one search for both logics: the same decision, and a FILL proof that
    # checks in FILL and separates
    s = parse_sequent(text)
    d = decide_sequent(s, "fill")
    assert d.status == status
    assert d == decide_sequent(s, "biill")
    if d.proof is not None:
        check_dn_proof(d.proof, expect=s)
        check_separation(d.proof)


def test_nested_example_proves():
    f = parse_formula("(a|b)|c -o a|((b|c -o d)|e -o d|e)")
    d = decide_formula(f, "fill")
    assert d.status == "proved"
    check_dn_proof(d.proof)
    check_separation(d.proof)
    assert proof_size(d.proof) <= 4 * formula_size(f) ** 4
    # the unary rules are committed to, so their alternatives are never
    # tried, and branch splits whose atoms do not balance are skipped
    assert d.visited == 16


@pytest.mark.parametrize(
    "text, states",
    [
        ("(bot -o bot -o 1)*((bot -o bot -o 1) -o bot -o bot -o 1) -o bot -o bot -o 1", 258),
        ("(bot -< 1 -o 1)*((bot -< 1 -o 1) -o bot -< 1 -o 1) -o bot -< 1 -o 1", 23),
        ("(bot -o a -o a)*((bot -o a -o a) -o bot -o a -o a) -o bot -o a -o a", 112),
        ("(a -o a -o a)*((a -o a -o a) -o a -o a -o a) -o a -o a -o a", 61),
    ],
)
def test_unit_heavy_theorems_are_cut_by_the_leaf_count(text, states):
    # each took thousands of states with the atom balance as the only prune
    d = decide_formula(parse_formula(text), "biill")
    assert d.status == "proved" and d.visited == states
    check_dn_proof(d.proof)


def test_decide_sequent():
    assert decide_sequent(parse_sequent("a, b => a*b")).proved
    assert decide_sequent(parse_sequent("a => a, [=>]@1")).proved
    assert decide_sequent(parse_sequent("a => b")).status == "refuted"
    with pytest.raises(ValueError):
        decide_sequent(parse_sequent("[a => b] => c"), "fill")


@pytest.mark.parametrize(
    "text, logic, states",
    [
        ("(a|b)|c -o a|((b|c -o d)|e -o d|e)", "fill", 16),
        ("(a -o b) -o (b -o c) -o a -o c", "fill", 26),
        ("(a -< b) -< c -o a -< (b|c)", "biill", 28),
    ],
)
def test_a_root_formula_sequent_is_searched_as_its_formula(text, logic, states):
    # `=> F` reads as `F`, not as `1 -o F`, so both searches get F's bound
    f = parse_formula(text)
    s = parse_sequent(f"=> {text}")
    assert branch_bound(goal_reading(s)) == branch_bound(f)
    by_formula = decide_formula(f, logic)
    by_sequent = decide_sequent(s, logic)
    assert by_sequent.visited == by_formula.visited == states
    assert certificate_text("dn", logic, by_sequent.proof) == certificate_text("dn", logic, by_formula.proof)


def test_proof_sizes_within_quartic_bound():
    for text in FILL_THEOREMS:
        f = parse_formula(text)
        d = decide_formula(f, "biill")
        assert proof_size(d.proof) <= 4 * formula_size(f) ** 4


# ---------------------------------------------------------------- measure

def read_verdicts():
    return gzip.decompress(VERDICTS.read_bytes()).decode("utf-8").splitlines()


def test_proof_branches_within_the_measure_bound():
    """The measure lemma in the `prover` docstring: no branch of a proof of
    `F` holds more than `(k+1) * |F|` sequents, `k` the arrows of `F`.  The
    committed table records each BiILL proof's longest branch."""
    proofs = tight = 0
    for row in read_verdicts():
        text, _, biill, _, max_branch = row.split("\t")
        if biill != "proved":
            continue
        f = parse_formula(text)
        bound = (arrow_count(f) + 1) * formula_size(f)
        proofs += 1
        tight += int(max_branch) == bound
        assert int(max_branch) <= bound, text
    assert proofs == 1258 and tight > 0


def balanced_tree(connective, leaves):
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    return connective(balanced_tree(connective, leaves[:mid]), balanced_tree(connective, leaves[mid:]))


def test_a_long_invertible_chain_needs_no_raised_recursion_limit():
    # 1*...*1 => bot|...|bot|1, 150 units a side, balanced with deficit 0,
    # unfolds by tensor_l, i_l, par_r and bot_r alone and closes by i_r: one
    # dfs frame per state, 598 states deep, more than the limit the caller
    # left
    n = 150
    s = Sequent(
        (balanced_tree(Tensor, [UnitI()] * n),),
        (balanced_tree(Par, [UnitBot()] * (n - 1) + [UnitI()]),),
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(500)
    try:
        d = decide_sequent(s)
    finally:
        sys.setrecursionlimit(limit)
    assert d.status == "proved" and d.visited == 598


# ------------------------------------------- atom balance and leaf count

def net_count(s):
    """Atom -> positive minus negative occurrences, zeros left out."""
    return {a: pos - neg for a, (neg, pos) in signed_counts(s).atoms.items() if pos != neg}


def deficit(s):
    return signed_counts(s).deficit


def added(counts):
    total = {}
    for c in counts:
        for a, n in c.items():
            total[a] = total.get(a, 0) + n
    return {a: n for a, n in total.items() if n}


def test_signed_atom_count_polarities():
    s = signed_counts(parse_sequent("a -o b, c -< d, [e => f -o g]@1 => h -< i, [j => k]@2"))
    assert s.atoms == {
        "a": (0, 1), "b": (1, 0), "c": (1, 0), "d": (0, 1),
        "e": (1, 0), "f": (1, 0), "g": (0, 1),
        "h": (0, 1), "i": (1, 0), "j": (1, 0), "k": (0, 1),
    }
    # positive leaves a, d, g, h, k; branching the negative -o, the positive -<
    assert (s.leaves, s.branches, s.deficit) == (5, 2, 2)
    s = signed_counts(parse_sequent("a*b, a|1 => a, bot"))
    assert s == ({"a": (2, 1), "b": (1, 0)}, 1, 1) and s.deficit == -1
    # positive leaves the negative bot, the positive 1, c and d; a child's
    # negative * and positive | do not branch
    assert signed_counts(parse_sequent("bot, 1 => 1, bot, [a*b => c|d]@1")) == (
        {"a": (1, 0), "b": (1, 0), "c": (0, 1), "d": (0, 1)}, 4, 0
    )
    # a bare formula is the sole succedent: the positive * and -< and the
    # negative -o branch, and the negative bot is a leaf
    assert signed_counts(parse_formula("(a*b) -< (c -o bot)")) == (
        {"a": (0, 1), "b": (0, 1), "c": (0, 1)}, 4, 3
    )


def walk_moves(s0, limit):
    """Check every move `deep_moves` yields from `s0` and from the states its
    premises reach, breadth first, up to `limit` states: the premises' net
    atom counts add up to the conclusion's; a branch rule's two premises'
    deficits add up to the conclusion's, a unary or propagation premise has
    the conclusion's, and an axiom's conclusion is balanced with deficit 0.
    Return the rules seen."""
    seen_rules, seen, todo = set(), {s0}, [s0]
    while todo and len(seen) <= limit:
        s = todo.pop(0)
        for move in deep_moves(s):
            seen_rules.add(move.rule)
            assert added(net_count(p) for p in move.premises) == net_count(s), move.rule
            deficits = [deficit(p) for p in move.premises]
            if move.rule in LEAF_RULES:
                assert net_count(s) == {} and deficit(s) == 0, move.rule
            elif move.rule in BRANCH_RULES:
                assert len(deficits) == 2 and sum(deficits) == deficit(s), move.rule
            else:
                assert deficits == [deficit(s)], move.rule
            for p in move.premises:
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
    return seen_rules


_leaf_formulas = st.one_of(st.sampled_from("a b".split()).map(Atom), st.just(UnitI()), st.just(UnitBot()))
_small_formulas = st.recursive(
    _leaf_formulas,
    lambda ch: st.one_of(
        st.builds(Tensor, ch, ch),
        st.builds(Par, ch, ch),
        st.builds(Lolli, ch, ch),
        st.builds(Excl, ch, ch),
    ),
    max_leaves=3,
)
_sides = st.lists(_small_formulas, max_size=2)
def _node(kids):
    return st.builds(
        lambda l, r, lk, rk: Sequent(tuple(l + lk), tuple(r + rk)),
        _sides,
        _sides,
        st.lists(kids, max_size=1),
        st.lists(kids, max_size=1),
    )


_trees = st.recursive(st.builds(lambda l, r: Sequent(tuple(l), tuple(r)), _sides, _sides), _node, max_leaves=2)


def material(s):
    """Total formula size in the tree.  Unfolding never adds to it, so it
    bounds how many occurrences a branch rule can split."""
    return sum(
        material(it) if isinstance(it, Sequent) else formula_size(it) for it in s.left + s.right
    )


@settings(max_examples=100, deadline=None)
@given(_trees.filter(lambda s: material(s) <= 12))
def test_every_move_keeps_the_signed_atom_count(tree):
    walk_moves(tree, 40)


def test_the_recursive_count_walk_equals_the_explicit_stack_walk_on_the_size_3_corpus():
    n = 0
    for f in corpus_formulas(["p", "q"], 3):
        assert signed_counts(f) == reference_counts(f), f
        n += 1
    assert n == 39420


_counted_items = st.recursive(
    _small_formulas | st.just(HOLE),
    lambda kids: st.builds(
        lambda l, r: Sequent(tuple(l), tuple(r)),
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3),
    ),
    max_leaves=6,
)


@settings(max_examples=50, deadline=None)
@given(st.lists(_counted_items, max_size=3), st.lists(_counted_items, max_size=3))
def test_the_recursive_count_walk_equals_the_explicit_stack_walk_on_sequents(left, right):
    # children and holes, neither of which changes a count
    s = Sequent(tuple(left), tuple(right))
    assert signed_counts(s) == reference_counts(s)


def test_counts_at_the_nesting_bound_need_no_more_than_the_default_recursion_limit(capsys):
    # a formula tree _MAX_NESTING deep, a -o (a -o ( ... -o a)), alone and
    # inside children whose brackets nest _MAX_NESTING deep: both unbalanced,
    # so the count is all that decides them
    chain = " -o ".join(["a"] * (_MAX_NESTING + 1))
    deep = "=> [" * (_MAX_NESTING - 1) + "=> [b => " + chain + "]" + "]" * (_MAX_NESTING - 1)
    s = parse_sequent(deep)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        counts = signed_counts(s)
        d = decide_sequent(s)
        code = main(["prove", chain])
    finally:
        sys.setrecursionlimit(limit)
    assert counts == reference_counts(s) and counts.atoms == {"a": (_MAX_NESTING, 1), "b": (1, 0)}
    assert d.status == "refuted" and d.visited == 0
    assert code == 1
    assert capsys.readouterr().err == f"Unprovable: atom a occurs {_MAX_NESTING} times negatively, 1 time positively\n"


FIXED_STARTS = [
    "(a -o b) -o a -o b",
    "bot -o bot",
    "bot|1",
    "a*b -o b*a",
    "(a -< b) -< c -o a -< (b|c)",
    "1 -o a|(bot*b) -o (a -o c) -< b",
    "[a => b]@9, c -< a => [b*c => a]@8, a -o 1, bot|b",
]


def test_fixed_walks_keep_the_signed_atom_count_under_every_rule():
    rules = set()
    for text in FIXED_STARTS:
        s = parse_sequent(text) if "=>" in text else endsequent_for(parse_formula(text))
        rules |= walk_moves(s, 60)
    assert rules == set(DN_RULES)


def test_unbalanced_corpus_formulas_are_refuted_at_once():
    """The committed size-3 table was decided by the search without the
    balance and leaf-count prunes; every formula it holds whose atoms do not
    balance, or whose deficit is not 0, is unprovable there in both logics,
    and the search refutes it now without visiting a state."""
    rows = read_verdicts()
    unbalanced = balanced_non_theorems = off_count = 0
    for row in rows:
        text, fill, biill = row.split("\t")[:3]
        f = parse_formula(text)
        c = signed_counts(f)
        if any(neg != pos for neg, pos in c.atoms.values()):
            unbalanced += 1
        else:
            balanced_non_theorems += biill == "unprovable"
            if c.deficit == 0:
                continue
            off_count += 1
        assert biill == "unprovable" and fill in ("unprovable", "-"), text
        d = decide_formula(f, "biill")
        assert d.status == "refuted" and d.visited == 0, text
    assert unbalanced > len(rows) // 2
    # every theorem has deficit 0, and the leaf count refutes most of the
    # non-theorems that atom balance lets through
    assert (balanced_non_theorems, off_count) == (5888, 5007)


# ------------------------------------------------------------ countermodel

def s4(tag):
    """The S4 operation of the connective `tag`, on elements."""
    table = prover._S4_TABLES[tag]
    return lambda x, y: prover._S4[table[prover._S4.index(x)][prover._S4.index(y)]]


def test_s4_is_a_star_autonomous_poset_in_which_exclusion_is_left_adjoint_to_par():
    """The countermodel lemma in the `prover` docstring: each table is the
    operation it names, and each law holds over the whole domain."""
    elements = prover._S4
    times, par, lolli, excl = (s4(tag) for tag in (_TENSOR, _PAR, _LOLLI, _EXCL))
    one, bot = (elements[prover._S4_UNITS[tag]] for tag in (_ONE, _BOT))
    assert elements == (-2, -1, 1, 2) and (one, bot) == (1, -1)
    assert elements[prover._S4_VALID] == 1
    for x in elements:
        assert -x in elements and -(-x) == x and times(one, x) == x
        for y in elements:
            bigger = x if abs(x) > abs(y) else y if abs(y) > abs(x) else min(x, y)
            assert times(x, y) == bigger == times(y, x)
            assert par(x, y) == -times(-x, -y)
            assert lolli(x, y) == -times(x, -y)
            assert excl(x, y) == times(x, -y)
            assert (x <= y) == (-y <= -x)
            for z in elements:
                assert times(times(x, y), z) == times(x, times(y, z))
                if x <= y:
                    assert times(x, z) <= times(y, z)
                assert (times(x, y) <= z) == (y <= lolli(x, z))
                assert (excl(x, y) <= z) == (x <= par(y, z))
    # bot is the negation of 1
    assert bot == -one


def corpus_rows():
    """(formula, fill verdict, biill verdict) for each row of the table."""
    for row in read_verdicts():
        text, fill, biill = row.split("\t")[:3]
        yield parse_formula(text), fill, biill


def test_every_theorem_is_valid_in_s4_and_every_formula_it_refutes_is_unprovable():
    theorems = refuted = 0
    for f, fill, biill in corpus_rows():
        valuation = prover._countermodel(f)
        if biill == "proved":
            assert valuation is None, formula_text(f)
            theorems += 1
        elif valuation is not None:
            assert biill == "unprovable" and fill in ("unprovable", "-"), formula_text(f)
            refuted += 1
    assert (theorems, refuted) == (1258, 35947)


def test_the_search_refutes_every_balanced_formula_that_s4_refutes():
    # the search, called directly, past the prune that keeps these formulas
    # from it: a differential of the model against the calculus
    refuted = 0
    for f, _, _ in corpus_rows():
        if prover._balanced(f) and prover._countermodel(f) is not None:
            assert prover._search(endsequent_for(f), f).status == "refuted", formula_text(f)
            assert decide_formula(f).visited == 0
            refuted += 1
    assert refuted == 803


def test_past_three_atoms_only_the_last_three_run_through_s4():
    # each atom runs through 1, -1, 2, -2, the last fastest, and an atom
    # before the last three stays at 1, the unit
    refute = prover._countermodel
    assert refute(parse_formula("(a -o b) -o (b -o c) -o c -o d")) == {"a": 1, "b": 1, "c": 1, "d": -1}
    assert refute(parse_formula("a -o b -o c -o d -o e")) == {"a": 1, "b": 1, "c": 1, "d": 1, "e": -1}
    assert refute(parse_formula("(d -o 1)*(a -o a)*(b -o b)*(c -o c)")) == {"a": 1, "b": 1, "c": 1, "d": 2}
    # `a -o 1` is false only at a = 2, which the 64 valuations never give `a`
    assert refute(parse_formula("(a -o 1)*(b -o b)*(c -o c)*(d -o d)")) is None
    assert refute(parse_formula(BIERMAN_TEXT)) is None
