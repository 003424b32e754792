"""The walks that normalise away labels, hop counts and origins hand back
their argument itself when it has nothing to drop, and otherwise agree with
walks that rebuild every node, kept here as the reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover.display import (
    DisplaySequent,
    SComma,
    SGt,
    SLeaf,
    SLt,
    SPhi,
    display_text,
    parse_display,
    strip_display,
    strip_structure,
)
from fillprover.formula import (
    Atom,
    Excl,
    Lolli,
    Par,
    Tensor,
    UnitBot,
    UnitI,
    formula_text,
    parse_formula,
    strip_labels,
)
from fillprover.sequent import Occ, Sequent, parse_sequent, sequent_text, strip_sequent
from fillprover.shallow import zero_origins

# ------------------------------------------------------------ reference

def ref_strip_labels(f):
    match f:
        case Atom() | UnitI() | UnitBot():
            return f
        case Tensor(left=l, right=r):
            return Tensor(ref_strip_labels(l), ref_strip_labels(r))
        case Par(left=l, right=r):
            return Par(ref_strip_labels(l), ref_strip_labels(r))
        case Lolli(left=l, right=r):
            return Lolli(ref_strip_labels(l), ref_strip_labels(r))
        case Excl(left=l, right=r):
            return Excl(ref_strip_labels(l), ref_strip_labels(r))


def ref_strip_sequent(s):
    def go(items):
        return tuple(
            Occ(ref_strip_labels(it.formula)) if isinstance(it, Occ) else ref_strip_sequent(it)
            for it in items
        )

    return Sequent(go(s.left), go(s.right), s.origin)


def ref_zero_origins(s):
    def go(items):
        return tuple(ref_zero_origins(it) if isinstance(it, Sequent) else it for it in items)

    return Sequent(go(s.left), go(s.right), 0)


def ref_strip_structure(x):
    match x:
        case SLeaf(formula=f):
            return SLeaf(ref_strip_labels(f))
        case SPhi():
            return x
        case SComma(left=l, right=r):
            return SComma(ref_strip_structure(l), ref_strip_structure(r))
        case SGt(left=l, right=r):
            return SGt(ref_strip_structure(l), ref_strip_structure(r))
        case SLt(left=l, right=r):
            return SLt(ref_strip_structure(l), ref_strip_structure(r))


def ref_strip_display(ds):
    return DisplaySequent(ref_strip_structure(ds.ant), ref_strip_structure(ds.suc))


# ------------------------------------------------------------ random input

# labels, hops and origins are mostly 0, so many subtrees have nothing to drop
_marks = st.sampled_from([0, 0, 0, 1, 2])
_formulas = st.recursive(
    st.one_of(st.sampled_from("ab").map(Atom), st.just(UnitI()), st.just(UnitBot())),
    lambda ch: st.one_of(
        st.builds(Tensor, ch, ch),
        st.builds(Par, ch, ch),
        st.builds(Lolli, ch, ch, _marks),
        st.builds(Excl, ch, ch, _marks),
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
_structures = st.recursive(
    st.one_of(_formulas.map(SLeaf), st.just(SPhi())),
    lambda ch: st.one_of(st.builds(SComma, ch, ch), st.builds(SGt, ch, ch), st.builds(SLt, ch, ch)),
    max_leaves=5,
)
_displays = st.builds(DisplaySequent, _structures, _structures)


def _agrees(walk, ref, x):
    out = walk(x)
    assert out == ref(x)
    # the argument itself comes back exactly when nothing was dropped
    assert (out is x) == (out == x)
    assert walk(out) is out


# ------------------------------------------------------------ the walks

@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_strip_labels_agrees_with_the_rebuilding_walk(f):
    _agrees(strip_labels, ref_strip_labels, f)


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


@settings(max_examples=100, deadline=None)
@given(_displays)
def test_display_walks_agree_with_the_rebuilding_walks(ds):
    _agrees(strip_display, ref_strip_display, ds)
    _agrees(strip_structure, ref_strip_structure, ds.ant)


def test_an_unchanged_child_is_reused():
    kept = parse_sequent("a => b")
    s = Sequent((), (Occ(Lolli(Atom("a"), Atom("b"), 3)), kept))
    out = strip_sequent(s)
    assert out is not s
    assert any(it is kept for it in out.right)


# ------------------------------------------------------------ parsed text

@settings(max_examples=60, deadline=None)
@given(_formulas, _sequents, _displays)
def test_walks_return_freshly_parsed_text_itself(f, s, ds):
    g = parse_formula(formula_text(f))
    assert strip_labels(g) is g
    # text keeps origins but neither labels nor hops
    p = parse_sequent(sequent_text(s))
    assert strip_sequent(p) is p
    q = parse_sequent(sequent_text(ref_zero_origins(s)))
    assert zero_origins(strip_sequent(q)) is q
    d = parse_display(display_text(ds))
    assert strip_display(d) is d
