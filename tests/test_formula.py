"""Formula parsing and printing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillprover.certs import context_text, parse_context
from fillprover.display import display_text, parse_display, parse_structure, structure_text
from fillprover.formula import (
    Atom,
    Excl,
    Lolli,
    Par,
    ParseError,
    Tensor,
    UnitBot,
    UnitI,
    arrow_count,
    connective_count,
    formula_size,
    formula_text,
    is_fill_formula,
    parse_formula,
)
from fillprover.sequent import parse_sequent, sequent_text

import parse_reference as reference

a, b, c, p, q, r = (Atom(x) for x in "abcpqr")


def test_atoms_and_units():
    assert parse_formula("p") == p
    assert parse_formula("1") == UnitI()
    assert parse_formula("bot") == UnitBot()
    # 'bot' is reserved but longer identifiers starting with it are atoms
    assert parse_formula("bottom") == Atom("bottom")
    assert parse_formula("bot1") == Atom("bot1")
    assert parse_formula("x_2") == Atom("x_2")


def test_precedence_and_associativity():
    assert parse_formula("a*b|c") == Par(Tensor(a, b), c)
    assert parse_formula("a|b*c") == Tensor(Par(a, b), c)
    assert parse_formula("a*(b|c)") == Tensor(a, Par(b, c))
    assert parse_formula("a -o b -o c") == Lolli(a, Lolli(b, c))
    assert parse_formula("a -< b -< c") == Excl(Excl(a, b), c)
    # exclusion binds tighter than implication
    assert parse_formula("a -< b -o c") == Lolli(Excl(a, b), c)
    assert parse_formula("a -o b -< c") == Lolli(a, Excl(b, c))
    assert parse_formula("a*b -o c|d") == Lolli(Tensor(a, b), Par(c, Atom("d")))


def test_rendering_minimal_parens():
    cases = [
        (Tensor(Tensor(a, b), c), "a*b*c"),
        (Tensor(a, Tensor(b, c)), "a*(b*c)"),
        (Par(Tensor(a, b), c), "(a*b)|c"),
        (Tensor(a, Par(b, c)), "a*(b|c)"),
        (Lolli(a, Lolli(b, c)), "a -o b -o c"),
        (Lolli(Lolli(a, b), c), "(a -o b) -o c"),
        (Excl(Excl(a, b), c), "a -< b -< c"),
        (Excl(a, Excl(b, c)), "a -< (b -< c)"),
        (Lolli(Excl(a, b), c), "a -< b -o c"),
        (Excl(Lolli(a, b), c), "(a -o b) -< c"),
        (Tensor(Lolli(a, b), c), "(a -o b)*c"),
        (Par(UnitBot(), UnitI()), "bot|1"),
    ]
    for f, text in cases:
        assert formula_text(f) == text
        assert parse_formula(text) == f


@pytest.mark.parametrize(
    "bad",
    ["", "a -o", "* a", "(a", "a)", "a b", "A", "a -", "a ->", "2", "a & b", "()", "a²"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


def test_size_and_counts():
    f = parse_formula("(p*(q|r)) -o (p*q)|r")
    assert formula_size(f) == 11
    assert connective_count(f) == 5
    assert arrow_count(f) == 1
    assert connective_count(parse_formula("p")) == 0
    assert arrow_count(parse_formula("a -< b -o c*d")) == 2


def test_fill_membership():
    assert is_fill_formula(parse_formula("(p*(q|r)) -o (p*q)|r"))
    assert is_fill_formula(parse_formula("bot -o 1"))
    assert not is_fill_formula(parse_formula("p -o q|(p -< q)"))
    assert not is_fill_formula(parse_formula("(a -< b) -o c"))


names = st.sampled_from(["a", "b", "c", "p", "q", "r", "x_1"])
leaves = st.one_of(names.map(Atom), st.just(UnitI()), st.just(UnitBot()))
formulas = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(Tensor, kids, kids),
        st.builds(Par, kids, kids),
        st.builds(Lolli, kids, kids),
        st.builds(Excl, kids, kids),
    ),
    max_leaves=12,
)


@given(formulas)
def test_text_round_trip(f):
    assert parse_formula(formula_text(f)) == f


@given(formulas)
def test_key_respects_equality(f):
    # a formula is its own sort key: the re-read formula sorts and hashes
    # as the original
    g = parse_formula(formula_text(f))
    assert not f < g and not g < f and hash(g) == hash(f)


# Every token of the shared tokenizer, some whole items, stray characters and
# spaces; pieces glued without a space can also fuse into longer tokens.
TOKEN_PIECES = [
    "a", "b", "bot", "1", "(", ")", "*", "|", "-o", "-<", "=>", "[", "]", ",", "_", "@0", "@2",
    "|-", ">", "<", "Phi", " ", "-", "@", "=", "[a => b]@1", "a -o b", "a, b |- c",
]
# each reader, how it renders what it reads, and the reference reader of
# `parse_reference.py`
ENTRY_POINTS = [
    (parse_formula, formula_text, reference.parse_formula),
    (parse_sequent, sequent_text, reference.parse_sequent),
    (parse_structure, structure_text, reference.parse_structure),
    (parse_display, display_text, reference.parse_display),
    (parse_context, context_text, reference.parse_context),
]


def agree_with_the_reference(text):
    """Each reader either rejects `text`, as the reference does, or reads
    the value the reference reads, which reads back from its rendering."""
    for parse, render, read_reference in ENTRY_POINTS:
        try:
            value = parse(text)
        except ParseError:
            with pytest.raises(ParseError):
                read_reference(text)
            continue
        assert read_reference(text) == value
        assert parse(render(value)) == value


@settings(max_examples=400)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=20).map("".join))
def test_every_grammar_rejects_or_round_trips(text):
    agree_with_the_reference(text)


def joined(ops):
    """Two texts joined by one of `ops`, in brackets or not."""
    return lambda kids: st.tuples(kids, st.sampled_from(ops), kids, st.booleans()).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})" if t[3] else f"{t[0]}{t[1]}{t[2]}"
    )


# texts with brackets everywhere a reader must tell a formula bracket from a
# structure bracket, and many that are close to valid but are not
formula_texts = st.recursive(st.sampled_from(["a", "b", "bot", "1", "(a)"]), joined(["*", "|", " -o ", " -< "]), max_leaves=6)
structure_texts = st.recursive(st.one_of(formula_texts, st.just("Phi")), joined([", ", " > ", " < "]), max_leaves=6)
item_texts = st.recursive(
    st.one_of(formula_texts, st.just("_")),
    lambda kids: st.tuples(st.lists(kids, max_size=2), st.lists(kids, max_size=2), st.sampled_from(["", "@1"])).map(
        lambda t: f"[{', '.join(t[0])} => {', '.join(t[1])}]{t[2]}"
    ),
    max_leaves=6,
)
TEXTS = st.one_of(
    formula_texts,
    structure_texts,
    st.tuples(structure_texts, structure_texts).map(" |- ".join),
    st.tuples(st.lists(item_texts, max_size=3), st.lists(item_texts, max_size=3)).map(
        lambda t: f"{', '.join(t[0])} => {', '.join(t[1])}"
    ),
)


@settings(max_examples=400)
@given(TEXTS)
def test_every_grammar_reads_bracketed_text_as_the_reference_does(text):
    agree_with_the_reference(text)
