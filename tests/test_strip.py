"""The walks that normalise away hop counts and origins hand back their
argument itself when it has nothing to drop, and otherwise agree with walks
that rebuild every node, kept here as the reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover.formula import Atom, Excl, Lolli, Par, Tensor, UnitBot, UnitI
from fillprover.sequent import Occ, Sequent, parse_sequent, sequent_text, strip_sequent
from fillprover.shallow import zero_origins

# ------------------------------------------------------------ reference

def ref_strip_sequent(s):
    def go(items):
        return tuple(Occ(it.formula) if isinstance(it, Occ) else ref_strip_sequent(it) for it in items)

    return Sequent(go(s.left), go(s.right), s.origin)


def ref_zero_origins(s):
    def go(items):
        return tuple(ref_zero_origins(it) if isinstance(it, Sequent) else it for it in items)

    return Sequent(go(s.left), go(s.right), 0)


# ------------------------------------------------------------ random input

# hops and origins are mostly 0, so many subtrees have nothing to drop
_marks = st.sampled_from([0, 0, 0, 1, 2])
_formulas = st.recursive(
    st.one_of(st.sampled_from("ab").map(Atom), st.just(UnitI()), st.just(UnitBot())),
    lambda ch: st.one_of(
        st.builds(Tensor, ch, ch),
        st.builds(Par, ch, ch),
        st.builds(Lolli, ch, ch),
        st.builds(Excl, ch, ch),
    ),
    max_leaves=5,
)
_occs = st.builds(Occ, _formulas, _marks)
_sequents = st.recursive(
    st.builds(lambda l, r: Sequent(tuple(l), tuple(r)), st.lists(_occs, max_size=2), st.lists(_occs, max_size=2)),
    lambda kids: st.builds(
        lambda l, r, cs, g: Sequent(tuple(l), tuple(r) + tuple(cs), g),
        st.lists(st.one_of(_occs, kids), max_size=2),
        st.lists(_occs, max_size=2),
        st.lists(kids, max_size=2),
        _marks,
    ),
    max_leaves=4,
)


def _agrees(walk, ref, x):
    out = walk(x)
    assert out == ref(x)
    # the argument itself comes back exactly when nothing was dropped
    assert (out is x) == (out == x)
    assert walk(out) is out


# ------------------------------------------------------------ the walks

@settings(max_examples=100, deadline=None)
@given(_sequents)
def test_sequent_walks_agree_with_the_rebuilding_walks(s):
    _agrees(strip_sequent, ref_strip_sequent, s)
    _agrees(zero_origins, ref_zero_origins, s)
    _agrees(
        lambda x: zero_origins(strip_sequent(x)),
        lambda x: ref_zero_origins(ref_strip_sequent(x)),
        s,
    )


def test_an_unchanged_child_is_reused():
    kept = parse_sequent("a => b")
    s = Sequent((), (Occ(Lolli(Atom("a"), Atom("b")), 3), kept))
    out = strip_sequent(s)
    assert out is not s
    assert any(it is kept for it in out.right)


# ------------------------------------------------------------ parsed text

@settings(max_examples=60, deadline=None)
@given(_sequents)
def test_walks_return_freshly_parsed_text_itself(s):
    # text keeps origins but not hops
    p = parse_sequent(sequent_text(s))
    assert strip_sequent(p) is p
    q = parse_sequent(sequent_text(ref_zero_origins(s)))
    assert zero_origins(strip_sequent(q)) is q
