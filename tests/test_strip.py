"""The walks that normalise away hop counts and origins hand back their
argument itself when it has nothing to drop, and otherwise agree with walks
that rebuild every node, kept here as the reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover import sequent, shallow
from fillprover.formula import Atom, Excl, Lolli, Par, Tensor, UnitBot, UnitI
from fillprover.sequent import (
    HOLE,
    Occ,
    Sequent,
    _normal,
    parse_sequent,
    sequent_text,
    strip_context,
    strip_sequent,
)
from fillprover.shallow import zero_origins
from round_trip_corpus import round_trip
from test_translate import CLOSURE_CASES, proved

# ------------------------------------------------------------ reference

def ref_strip_sequent(s):
    def go(items):
        return tuple(Occ(it.formula) if isinstance(it, Occ) else ref_strip_sequent(it) for it in items)

    return Sequent(go(s.left), go(s.right), s.origin)


def ref_zero_origins(s):
    def go(items):
        return tuple(ref_zero_origins(it) if isinstance(it, Sequent) else it for it in items)

    return Sequent(go(s.left), go(s.right), 0)


def ref_norm(s):
    return ref_zero_origins(ref_strip_sequent(s))


# the reference walk for each pair of flags `_normal` takes
REFS = {(True, False): ref_strip_sequent, (False, True): ref_zero_origins, (True, True): ref_norm}


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
    _agrees(lambda x: zero_origins(strip_sequent(x)), ref_norm, s)
    _agrees(strip_context, ref_strip_sequent, s)
    assert strip_context(HOLE) is HOLE


@settings(max_examples=100, deadline=None)
@given(_sequents)
def test_the_read_only_test_finds_exactly_what_the_walks_drop(s):
    for (hops, origins), ref in REFS.items():
        assert _normal(s, hops, origins) == (ref(s) == s)


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


# ------------------------------------------------------------ the chain

def test_the_closure_chain_rebuilds_only_what_has_marks(monkeypatch):
    # every rebuild the dn -> sn -> dc -> sn -> dn chain makes is of an
    # argument with a mark to drop: on a normal one the walks return it
    # after the read-only test alone
    real = sequent._rebuild
    rebuilt = []

    def counted(s, hops, origins):
        rebuilt.append(REFS[hops, origins](s) == s)
        return real(s, hops, origins)

    for module in (sequent, shallow):
        monkeypatch.setattr(module, "_rebuild", counted)
    for case in CLOSURE_CASES:
        text, logic, _ = case.values
        round_trip(proved(text, logic))
    # sn -> dn's working origins are dropped, so the counter is reached
    assert rebuilt
    assert not any(rebuilt), f"{sum(rebuilt)} of {len(rebuilt)} rebuilds had nothing to drop"
