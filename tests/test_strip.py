"""The walk that normalises away origins hands back its argument itself when
it has nothing to drop, and otherwise agrees with a walk that rebuilds every
node, kept here as the reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover import shallow
from fillprover.formula import Atom, Excl, Lolli, Par, Tensor, UnitBot, UnitI
from fillprover.sequent import Occ, Sequent, parse_sequent, sequent_text
from fillprover.shallow import _normal, zero_origins
from round_trip_corpus import round_trip
from test_translate import CLOSURE_CASES, proved

# ------------------------------------------------------------ reference

def ref_zero_origins(s):
    def go(items):
        return tuple(ref_zero_origins(it) if isinstance(it, Sequent) else it for it in items)

    return Sequent(go(s.left), go(s.right), 0)


# ------------------------------------------------------------ random input

# origins are mostly 0, so many subtrees have nothing to drop
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
_occs = st.builds(Occ, _formulas)
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


# ------------------------------------------------------------ the walk

@settings(max_examples=100, deadline=None)
@given(_sequents)
def test_sequent_walks_agree_with_the_rebuilding_walks(s):
    out = zero_origins(s)
    assert out == ref_zero_origins(s)
    # the argument itself comes back exactly when nothing was dropped
    assert (out is s) == (out == s)
    assert zero_origins(out) is out


@settings(max_examples=100, deadline=None)
@given(_sequents)
def test_the_read_only_test_finds_exactly_what_the_walks_drop(s):
    assert _normal(s) == (ref_zero_origins(s) == s)


def test_an_unchanged_child_is_reused():
    kept = parse_sequent("a => b")
    s = Sequent((), (Occ(Lolli(Atom("a"), Atom("b"))), kept, parse_sequent("b => a @3")))
    out = zero_origins(s)
    assert out is not s
    assert any(it is kept for it in out.right)


# ------------------------------------------------------------ parsed text

@settings(max_examples=60, deadline=None)
@given(_sequents)
def test_walks_return_freshly_parsed_text_itself(s):
    q = parse_sequent(sequent_text(ref_zero_origins(s)))
    assert zero_origins(q) is q


# ------------------------------------------------------------ the chain

def test_the_closure_chain_rebuilds_only_what_has_marks(monkeypatch):
    # every rebuild the dn -> sn -> dc -> sn -> dn chain makes is of an
    # argument with an origin to drop: on a normal one the walk returns it
    # after the read-only test alone
    real = shallow._rebuild
    rebuilt = []

    def counted(s):
        rebuilt.append(ref_zero_origins(s) == s)
        return real(s)

    monkeypatch.setattr(shallow, "_rebuild", counted)
    for case in CLOSURE_CASES:
        text, logic, _ = case.values
        round_trip(proved(text, logic))
    # sn -> dn's working origins are dropped, so the counter is reached
    assert rebuilt
    assert not any(rebuilt), f"{sum(rebuilt)} of {len(rebuilt)} rebuilds had nothing to drop"
