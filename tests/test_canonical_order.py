"""Formulas and sequent items are their own sort keys.

The reference below is the explicit key the package once sorted by: each
value mapped to a tuple of plain tuples, kinds in the order atom, `1`,
`bot`, `*`, `|`, `-o`, `-<`, and items in the order formula, child
sequent, hole.  The values themselves must order, compare and stay apart
exactly as those keys do."""

import random
from itertools import chain, pairwise, product

from fillprover.formula import Atom, Excl, Lolli, Par, Tensor, UnitBot, UnitI
from fillprover.sequent import HOLE, Hole, Sequent


def formula_key(f):
    match f:
        case Atom(name=n):
            return (0, n)
        case UnitI():
            return (1,)
        case UnitBot():
            return (2,)
        case Tensor(left=l, right=r):
            return (3, formula_key(l), formula_key(r))
        case Par(left=l, right=r):
            return (4, formula_key(l), formula_key(r))
        case Lolli(left=l, right=r):
            return (5, formula_key(l), formula_key(r))
        case Excl(left=l, right=r):
            return (6, formula_key(l), formula_key(r))
    raise TypeError(f)


def item_key(it):
    match it:
        case Sequent(left=l, right=r):
            return (1, tuple(item_key(x) for x in l), tuple(item_key(x) for x in r))
        case Hole():
            return (2,)
    return (0, formula_key(it))


def small_formulas():
    """Every formula over `p, q` with at most two connectives."""
    leaves = [Atom("p"), Atom("q"), UnitI(), UnitBot()]
    binary = (Tensor, Par, Lolli, Excl)
    ones = [make(a, b) for make in binary for a, b in product(leaves, leaves)]
    twos = [make(a, b) for make in binary for a, b in chain(product(leaves, ones), product(ones, leaves))]
    return leaves + ones + twos


def random_items(rng, formulas, depth):
    items = []
    for _ in range(rng.randrange(4)):
        roll = rng.random()
        if roll < 0.6 or depth == 0:
            items.append(rng.choice(formulas))
        elif roll < 0.9:
            items.append(random_sequent(rng, formulas, depth - 1))
        else:
            items.append(HOLE)
    return items


def random_sequent(rng, formulas, depth=2):
    return Sequent(random_items(rng, formulas, depth), random_items(rng, formulas, depth))


def assert_ordered_as(values, key):
    assert sorted(values) == sorted(values, key=key)
    by_key = sorted(values, key=key)
    for x, y in pairwise(by_key):
        assert (x == y) == (key(x) == key(y)), (x, y)
        assert (x < y) == (key(x) < key(y)), (x, y)


FORMULAS = small_formulas()


def test_formulas_order_and_compare_as_their_keys():
    assert len(FORMULAS) == 2116
    assert_ordered_as(FORMULAS, formula_key)
    # equal values have equal keys and distinct ones distinct keys
    assert len(set(FORMULAS)) == len({formula_key(f) for f in FORMULAS})
    rng = random.Random(1)
    for _ in range(20000):
        f, g = rng.choice(FORMULAS), rng.choice(FORMULAS)
        assert (f == g) == (formula_key(f) == formula_key(g))
        assert (f < g) == (formula_key(f) < formula_key(g))


def test_sequent_items_order_and_compare_as_their_keys():
    rng = random.Random(2)
    sequents = [random_sequent(rng, FORMULAS) for _ in range(1500)]
    items = [HOLE] + sequents + [it for s in sequents for it in s.left + s.right]
    assert {Sequent, Hole, Atom, Lolli} <= {type(it) for it in items}
    for s in sequents:
        assert list(s.left) == sorted(s.left, key=item_key)
        assert list(s.right) == sorted(s.right, key=item_key)
    assert_ordered_as(items, item_key)
    assert len(set(items)) == len({item_key(it) for it in items})


def test_no_formula_equals_a_sequent_item():
    # the items that are not formulas: children and the hole
    rng = random.Random(3)
    sequents = [random_sequent(rng, FORMULAS) for _ in range(500)]
    items = {HOLE, Sequent(), *sequents, *(it for s in sequents for it in s.left + s.right)}
    items = {it for it in items if isinstance(it, (Sequent, Hole))}
    assert len(items) > 500
    assert set(FORMULAS).isdisjoint(items)
    assert HOLE != UnitBot() and Sequent() != UnitI()
