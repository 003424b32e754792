"""Relations that judge a verdict of the search without a second prover.

`dual` is the duality map.  It swaps `*` with `|` and `1` with `bot`, sends
`A -o B` to `B^d -< A^d` and `A -< B` to `B^d -o A^d`, and keeps atoms.
BiILL is symmetric under it: `=> F` is provable exactly when `F^d =>` is.
Over the size-3 corpus, proofs of the dual goals use `prop_left_out`, which
no proof of a goal `=> F` there does.

`nested_sequent` draws a seeded nested sequent with at least one child,
its occurrences atoms and units, for the relation between a sequent and
its formula reading: `s` is provable exactly when `tau_s(s)` is.  Nothing in the package imports this
module.
"""

from __future__ import annotations

import random

from fillprover.formula import Atom, Excl, Formula, Lolli, Par, Tensor, UnitBot, UnitI
from fillprover.sequent import Occ, Sequent, child_seqs


def dual(f: Formula) -> Formula:
    """The dual `f^d` of the formula `f`."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, UnitI):
        return UnitBot()
    if isinstance(f, UnitBot):
        return UnitI()
    a, b = dual(f.left), dual(f.right)
    if isinstance(f, Tensor):
        return Par(a, b)
    if isinstance(f, Par):
        return Tensor(a, b)
    if isinstance(f, Lolli):
        return Excl(b, a)
    return Lolli(b, a)


# the formulas a drawn sequent holds, so that its structure makes its
# reading's arrows
_LEAVES = [Atom("p"), Atom("q"), UnitI(), UnitBot()]


def nested_sequent(rng: random.Random, depth: int = 2, width: int = 3) -> Sequent:
    """A sequent whose brackets nest at most `depth` deep, with at most
    `width` items at each node and at least one child, drawn with `rng`."""
    while True:
        s = _node(rng, depth, width)
        if child_seqs(s.left + s.right):
            return s


def _node(rng: random.Random, depth: int, width: int) -> Sequent:
    sides = ([], [])
    for _ in range(rng.randrange(width + 1)):
        if depth and rng.random() < 0.3:
            item = _node(rng, depth - 1, width)
        else:
            item = Occ(rng.choice(_LEAVES))
        rng.choice(sides).append(item)
    return Sequent(*sides)
