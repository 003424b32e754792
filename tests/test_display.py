"""Display sequents: syntax round-trips, rule schemas, whole derivations."""

import time

import pytest
from hypothesis import given, strategies as st

from fillprover.certs import (
    CheckError,
    ProofNode,
    certificate_text,
    proof_size,
    read_certificate,
)
from fillprover.cli import _FILL
from fillprover.display import (
    DisplaySequent,
    SComma,
    SGt,
    SLeaf,
    SLt,
    SPhi,
    check_dc_proof,
    dc_conclusions,
    dc_rule_applies,
    display_text,
    is_fill_display,
    parse_display,
    parse_structure,
    sequent_to_display,
    structure_text,
)
from fillprover.formula import Atom, Excl, Lolli, Par, ParseError, Tensor, UnitBot, UnitI, parse_formula
from fillprover.sequent import parse_sequent


def D(rule, conclusion, *premises):
    return ProofNode(rule, parse_display(conclusion), tuple(premises))


in_fill = _FILL["dc"]  # the display calculus's FILL fragment pass


# ------------------------------------------------------------------ syntax

def test_parse_basic_shapes():
    ds = parse_display("a, b |- c > d")
    assert ds == DisplaySequent(
        SComma(SLeaf(Atom("a")), SLeaf(Atom("b"))),
        SGt(SLeaf(Atom("c")), SLeaf(Atom("d"))),
    )


def test_comma_is_left_associative():
    assert parse_structure("a, b, c") == SComma(
        SComma(SLeaf(Atom("a")), SLeaf(Atom("b"))), SLeaf(Atom("c"))
    )
    assert parse_structure("a, (b, c)") == SComma(
        SLeaf(Atom("a")), SComma(SLeaf(Atom("b")), SLeaf(Atom("c")))
    )


def test_residuals_do_not_associate():
    with pytest.raises(ParseError):
        parse_structure("a > b > c")
    assert parse_structure("a > (b > c)") == SGt(
        SLeaf(Atom("a")), SGt(SLeaf(Atom("b")), SLeaf(Atom("c")))
    )


def test_parenthesised_formula_stays_a_leaf():
    assert parse_structure("(a -o b)") == SLeaf(Lolli(Atom("a"), Atom("b")))
    assert parse_structure("(a, b)") == SComma(SLeaf(Atom("a")), SLeaf(Atom("b")))
    assert parse_structure("(a -o b) * c") == SLeaf(
        Tensor(Lolli(Atom("a"), Atom("b")), Atom("c"))
    )


def test_structure_brackets_around_a_big_formula_read_it_once():
    # a balanced tensor of 4,096 atoms, 24,573 characters, inside 80
    # structure brackets: a reader that tried each `(` as a formula first
    # and rewound read the formula once per bracket, seconds in all
    f = "abc"
    for _ in range(12):
        f = f"({f}*{f})"
    text = "(" * 80 + f + ", b" + ")" * 80 + " |- c"
    start = time.perf_counter()
    ds = parse_display(text)
    assert time.perf_counter() - start < 0.5
    assert ds == DisplaySequent(SComma(SLeaf(parse_formula(f)), SLeaf(Atom("b"))), SLeaf(Atom("c")))


def test_leaf_formula_stops_at_structure_tokens():
    assert parse_structure("(a|b)|c < a") == SLt(
        SLeaf(Par(Par(Atom("a"), Atom("b")), Atom("c"))), SLeaf(Atom("a"))
    )


def test_phi_is_reserved_but_lowercase_phi_is_an_atom():
    assert parse_structure("Phi") == SPhi()
    assert parse_structure("phi") == SLeaf(Atom("phi"))
    with pytest.raises(ParseError):
        parse_structure("Phix")


def test_parse_display_needs_turnstile():
    with pytest.raises(ParseError):
        parse_display("a, b")
    with pytest.raises(ParseError):
        parse_display("a |- b |- c")


def test_render_minimal_parens():
    a, b, c = SLeaf(Atom("a")), SLeaf(Atom("b")), SLeaf(Atom("c"))
    assert structure_text(SGt(SComma(a, b), c)) == "(a, b) > c"
    assert structure_text(SComma(SGt(a, b), c)) == "a > b, c"
    assert structure_text(SComma(a, SComma(b, c))) == "a, (b, c)"
    assert structure_text(SComma(SComma(a, b), c)) == "a, b, c"
    assert structure_text(SComma(c, SLt(a, b))) == "c, a < b"
    assert structure_text(SGt(SLt(a, b), c)) == "(a < b) > c"


_formulas = st.recursive(
    st.one_of(
        st.sampled_from("a b c d".split()).map(Atom),
        st.just(UnitI()),
        st.just(UnitBot()),
    ),
    lambda ch: st.one_of(
        st.builds(Tensor, ch, ch),
        st.builds(Par, ch, ch),
        st.builds(Lolli, ch, ch),
        st.builds(Excl, ch, ch),
    ),
    max_leaves=6,
)

_structures = st.recursive(
    st.one_of(_formulas.map(SLeaf), st.just(SPhi())),
    lambda ch: st.one_of(
        st.builds(SComma, ch, ch),
        st.builds(SGt, ch, ch),
        st.builds(SLt, ch, ch),
    ),
    max_leaves=5,
)


@given(st.builds(DisplaySequent, _structures, _structures))
def test_display_text_round_trips(ds):
    assert parse_display(display_text(ds)) == ds


# ------------------------------------------------------------ rule schemas

_SCHEMA_CASES = [
    ("id", "a |- a", (), True),
    ("id", "a |- b", (), False),
    ("id", "a*b |- a*b", (), False),
    ("cut", "a |- c", ("a |- b", "b |- c"), True),
    ("cut", "a |- c", ("a |- b, d", "b, d |- c"), False),
    ("i_l", "1 |- a", ("Phi |- a",), True),
    ("i_l", "1 |- a", ("1 |- a",), False),
    ("i_r", "Phi |- 1", (), True),
    ("i_r", "1 |- 1", (), False),
    ("bot_l", "bot |- Phi", (), True),
    ("bot_l", "bot |- a", (), False),
    ("bot_r", "a |- bot", ("a |- Phi",), True),
    ("tensor_l", "a*b |- c", ("a, b |- c",), True),
    ("tensor_l", "a*b |- c", ("b, a |- c",), False),
    ("tensor_r", "a, b |- a*b", ("a |- a", "b |- b"), True),
    ("tensor_r", "a, b |- a*b", ("b |- b", "a |- a"), False),
    ("par_l", "a|b |- a, b", ("a |- a", "b |- b"), True),
    ("par_r", "c |- a|b", ("c |- a, b",), True),
    ("par_r", "c |- a|b", ("c |- b, a",), False),
    ("lolli_l", "a -o b |- a > b", ("a |- a", "b |- b"), True),
    ("lolli_r", "c |- a -o b", ("c |- a > b",), True),
    ("excl_l", "a -< b |- c", ("a < b |- c",), True),
    ("excl_r", "a < b |- a -< b", ("a |- a", "b |- b"), True),
    ("rp_down", "a, b |- c", ("a |- b > c",), True),
    ("rp_down", "b |- a > c", ("a, b |- c",), True),
    ("rp_down", "a, b |- c", ("b |- a > c",), False),
    ("rp_up", "a |- b > c", ("a, b |- c",), True),
    ("rp_up", "a, b |- c", ("b |- a > c",), True),
    ("rp_up", "b |- a > c", ("a, b |- c",), False),
    ("drp_down", "a |- b, c", ("a < b |- c",), True),
    ("drp_down", "a < c |- b", ("a |- b, c",), True),
    ("drp_down", "a < b |- c", ("a |- b, c",), False),
    ("drp_up", "a < b |- c", ("a |- b, c",), True),
    ("drp_up", "a |- b, c", ("a < c |- b",), True),
    ("drp_up", "a |- b, c", ("a < b |- c",), False),
    ("phi_l_down", "a |- b", ("a, Phi |- b",), True),
    ("phi_l_up", "a, Phi |- b", ("a |- b",), True),
    ("phi_r_down", "a |- b", ("a |- Phi, b",), True),
    ("phi_r_up", "a |- Phi, b", ("a |- b",), True),
    ("phi_l_down", "a |- b", ("Phi, a |- b",), False),
    ("assoc_l", "(w, x), y |- z", ("w, (x, y) |- z",), True),
    ("assoc_l", "w, (x, y) |- z", ("(w, x), y |- z",), True),
    ("assoc_l", "(w, x), y |- z", ("(x, w), y |- z",), False),
    ("assoc_r", "w |- x, (y, z)", ("w |- (x, y), z",), True),
    ("assoc_r", "w |- (x, y), z", ("w |- x, (y, z)",), True),
    ("com_l", "b, a |- c", ("a, b |- c",), True),
    ("com_r", "a |- c, b", ("a |- b, c",), True),
    ("com_l", "b, a |- c", ("b, a |- c",), False),
    ("mixed_assoc_l", "(w, x) < y |- z", ("w, (x < y) |- z",), True),
    ("mixed_assoc_l", "w, (x < y) |- z", ("(w, x) < y |- z",), False),
    ("mixed_assoc_r", "w |- x > (y, z)", ("w |- (x > y), z",), True),
    ("mixed_assoc_r", "w |- (x > y), z", ("w |- x > (y, z)",), False),
    ("bot_r", "a |- bot", ("b |- Phi",), False),
    ("par_l", "a|b |- a, b", ("b |- b", "a |- a"), False),
    ("lolli_l", "a -o b |- a > b", ("b |- b", "a |- a"), False),
    ("lolli_r", "c |- a -o b", ("c |- b > a",), False),
    ("excl_l", "a -< b |- c", ("b < a |- c",), False),
    ("excl_r", "a < b |- a -< b", ("b |- b", "a |- a"), False),
]


@pytest.mark.parametrize("rule, conclusion, premises, ok", _SCHEMA_CASES)
def test_rule_schema(rule, conclusion, premises, ok):
    c = parse_display(conclusion)
    ps = tuple(parse_display(p) for p in premises)
    assert dc_rule_applies(rule, c, ps) is ok


_STRUCTURAL = (
    "rp_down", "rp_up", "drp_down", "drp_up", "phi_l_down", "phi_l_up", "phi_r_down",
    "phi_r_up", "assoc_l", "assoc_r", "com_l", "com_r", "mixed_assoc_l", "mixed_assoc_r",
)


@given(st.builds(DisplaySequent, _structures, _structures))
def test_structural_readings_check_and_residuations_undo_each_other(p):
    for rule in _STRUCTURAL:
        readings = dc_conclusions(rule, (p,))
        assert len(readings) == (2 if rule.startswith(("rp_", "drp_", "assoc_")) else 1)
        for c in readings:
            if c is not None:
                assert dc_rule_applies(rule, c, (p,))
    # each reading of a residuation move is undone by the same reading of
    # its opposite
    for a, b in (("rp_up", "rp_down"), ("rp_down", "rp_up"), ("drp_up", "drp_down"), ("drp_down", "drp_up")):
        for i, c in enumerate(dc_conclusions(a, (p,))):
            if c is not None:
                assert dc_conclusions(b, (c,))[i] == p


def test_unknown_rule_and_arity():
    with pytest.raises(CheckError):
        check_dc_proof(D("mystery", "a |- a"))
    with pytest.raises(CheckError):
        check_dc_proof(D("id", "a |- a", D("id", "a |- a")))


# ------------------------------------------------------- whole derivations

def tensor_swap_proof():
    return D(
        "tensor_l",
        "a*b |- b*a",
        D(
            "com_l",
            "a, b |- b*a",
            D("tensor_r", "b, a |- b*a", D("id", "b |- b"), D("id", "a |- a")),
        ),
    )


def test_tensor_swap_checks_in_both_logics():
    p = tensor_swap_proof()
    check_dc_proof(p)
    in_fill(p)
    assert proof_size(p) == 5


def test_unit_derivations():
    one = D("i_l", "1 |- 1", D("i_r", "Phi |- 1"))
    check_dc_proof(one, expect=parse_display("1 |- 1"))
    in_fill(one)
    bot = D("bot_r", "bot |- bot", D("bot_l", "bot |- Phi"))
    check_dc_proof(bot)
    in_fill(bot)


def test_cut_derivation():
    p = D(
        "cut",
        "Phi |- 1",
        D("i_r", "Phi |- 1"),
        D("i_l", "1 |- 1", D("i_r", "Phi |- 1")),
    )
    check_dc_proof(p)


def test_exclusion_identity_needs_biill():
    p = D(
        "excl_l",
        "a -< b |- a -< b",
        D("excl_r", "a < b |- a -< b", D("id", "a |- a"), D("id", "b |- b")),
    )
    check_dc_proof(p)
    with pytest.raises(CheckError, match="^rule excl_l lies outside FILL$") as e:
        in_fill(p)
    assert (e.value.path, e.value.rule) == ((), "excl_l")


def test_phi_bounce():
    p = D("phi_r_down", "a |- a", D("phi_r_up", "a |- Phi, a", D("id", "a |- a")))
    check_dc_proof(p)
    in_fill(p)


_FIXTURE_END = "Phi |- (a|b)|c -o a|((b|c -o d)|e -o d|e)"


def nested_example_display_proof():
    """Hand-built derivation of the running example; result frozen at 22
    nodes.  The antecedent-side residual is essential in the middle even
    though the end formula never mentions exclusion."""
    top = D(
        "par_l",
        "(a|b)|c |- (a, b), c",
        D("par_l", "a|b |- a, b", D("id", "a |- a"), D("id", "b |- b")),
        D("id", "c |- c"),
    )
    mid = D(
        "lolli_l",
        "b|c -o d |- ((a|b)|c < a) > d",
        D(
            "par_r",
            "(a|b)|c < a |- b|c",
            D(
                "drp_up",
                "(a|b)|c < a |- b, c",
                D("assoc_r", "(a|b)|c |- a, (b, c)", top),
            ),
        ),
        D("id", "d |- d"),
    )
    inner = D(
        "rp_up",
        "(a|b)|c < a |- (b|c -o d)|e > d|e",
        D(
            "par_r",
            "((a|b)|c < a), (b|c -o d)|e |- d|e",
            D(
                "rp_up",
                "((a|b)|c < a), (b|c -o d)|e |- d, e",
                D(
                    "mixed_assoc_r",
                    "(b|c -o d)|e |- ((a|b)|c < a) > (d, e)",
                    D(
                        "par_l",
                        "(b|c -o d)|e |- (((a|b)|c < a) > d), e",
                        mid,
                        D("id", "e |- e"),
                    ),
                ),
            ),
        ),
    )
    return D(
        "lolli_r",
        _FIXTURE_END,
        D(
            "rp_down",
            "Phi |- (a|b)|c > a|((b|c -o d)|e -o d|e)",
            D(
                "phi_l_up",
                "(a|b)|c, Phi |- a|((b|c -o d)|e -o d|e)",
                D(
                    "par_r",
                    "(a|b)|c |- a|((b|c -o d)|e -o d|e)",
                    D(
                        "drp_down",
                        "(a|b)|c |- a, ((b|c -o d)|e -o d|e)",
                        D(
                            "lolli_r",
                            "(a|b)|c < a |- (b|c -o d)|e -o d|e",
                            inner,
                        ),
                    ),
                ),
            ),
        ),
    )


def test_nested_example_display_proof_checks():
    p = nested_example_display_proof()
    check_dc_proof(p, expect=parse_display(_FIXTURE_END))
    assert proof_size(p) == 22


def test_nested_example_needs_antecedent_residual():
    # the endsequent stays inside FILL, the derivation does not
    p = nested_example_display_proof()
    assert is_fill_display(p.conclusion)
    check_dc_proof(p)
    with pytest.raises(CheckError, match="^rule drp_down lies outside FILL$") as e:
        in_fill(p)
    assert (e.value.path, e.value.rule) == ((0, 0, 0, 0), "drp_down")


def test_fixture_rejects_tampering():
    p = nested_example_display_proof()
    bad_rule = ProofNode("par_r", p.conclusion, p.premises)
    with pytest.raises(CheckError):
        check_dc_proof(bad_rule)
    bad_seq = ProofNode(p.rule, parse_display("Phi |- (a|b)|c -o a|(d|e)"), p.premises)
    with pytest.raises(CheckError):
        check_dc_proof(bad_seq)
    with pytest.raises(CheckError):
        check_dc_proof(p, expect=parse_display("Phi |- 1"))


# -------------------------------------------------- embeddings and formats

def test_sequent_to_display_flat():
    assert display_text(sequent_to_display(parse_sequent("a, b => c"))) == "a, b |- c"
    assert display_text(sequent_to_display(parse_sequent("=>"))) == "Phi |- Phi"


def test_sequent_to_display_nested():
    s = parse_sequent("a => b, [c => d]@1")
    assert display_text(sequent_to_display(s)) == "a |- b, c > d"
    t = parse_sequent("[a => b]@1, c => d")
    # canonical item order puts plain occurrences first
    assert display_text(sequent_to_display(t)) == "c, a < b |- d"


def test_dc_certificate_round_trip():
    p = tensor_swap_proof()
    text = certificate_text("dc", "fill", p)
    back = read_certificate(text)
    assert back.calculus == "dc"
    assert back.endsequent == "a*b |- b*a"
    assert back.logic == "fill"
    check_dc_proof(back.root, expect=parse_display(back.endsequent))
    in_fill(back.root)
