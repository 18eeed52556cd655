"""Lexer, parser, and canonical printer for the formula language."""

import pytest
from hypothesis import given, settings, strategies as st

from ledgerlint.audit import run_rules
from ledgerlint.formula import (
    EMPTY,
    Binary,
    Call,
    CellRef,
    ErrorKind,
    ErrorValue,
    NumberLit,
    ParseError,
    PercentLit,
    RangeRef,
    Sheet,
    TextLit,
    TokenKind,
    Unary,
    parse,
    to_source,
    tokenize,
)
from ledgerlint.formula import parser as formula_parser
from ledgerlint.formula.parser import MAX_DEPTH


def kinds_and_texts(source):
    return [(token.kind, token.text) for token in tokenize(source)]


def test_tokenize_call_with_range():
    assert kinds_and_texts("=NPV(B1,A2:A10)+A1") == [
        (TokenKind.IDENT, "NPV"),
        (TokenKind.LPAREN, "("),
        (TokenKind.REF, "B1"),
        (TokenKind.COMMA, ","),
        (TokenKind.REF, "A2"),
        (TokenKind.COLON, ":"),
        (TokenKind.REF, "A10"),
        (TokenKind.RPAREN, ")"),
        (TokenKind.OP, "+"),
        (TokenKind.REF, "A1"),
    ]


def test_tokenize_percent_literal():
    assert kinds_and_texts("=12%") == [
        (TokenKind.NUMBER, "12"),
        (TokenKind.OP, "%"),
    ]


def test_tokenize_positions():
    tokens = tokenize("=1 + A2")
    assert [token.pos for token in tokens] == [1, 3, 5]


def test_a_token_is_the_tuple_of_its_fields():
    (token,) = tokenize("=a1")
    assert token == (TokenKind.REF, "A1", 1, None)
    assert repr(token) == "Token(kind=<TokenKind.REF: 'ref'>, text='A1', pos=1, value=None)"


# every token kind, both anchors and the lookahead that makes A1( a call
NO_TOKEN_SOURCES = ['=SUM($A1:B$2,-1.5%)&"x""y"', "=(A1(2)<=3)^2", "=$C$3*4E2/(5)"]
NO_TOKEN_ERRORS = ["=SUM(A1,", "=(1", "=A1:", "=1 2"]


def test_parse_builds_no_token(monkeypatch):
    def outcome(source):
        try:
            return repr(parse(source))
        except ParseError as exc:
            return str(exc), exc.position

    sources = NO_TOKEN_SOURCES + NO_TOKEN_ERRORS
    expected = [outcome(source) for source in sources]

    def no_token(*args, **kwargs):
        raise AssertionError("parse() built a Token")

    monkeypatch.setattr(formula_parser, "Token", no_token)
    assert [outcome(source) for source in sources] == expected
    assert all(isinstance(got, tuple) for got in expected[len(NO_TOKEN_SOURCES):])


def test_tokenize_rejects_illegal_character():
    with pytest.raises(ParseError) as excinfo:
        tokenize("=1+@2")
    assert excinfo.value.position == 3
    assert "3" in str(excinfo.value)


@pytest.mark.parametrize(
    "source,position", [("=1+é", 3), ("=²", 1), ("=.²", 1), ("=1١", 2), ("=Aé1", 2)]
)
def test_tokenize_rejects_non_ascii_letters_and_digits(source, position):
    with pytest.raises(ParseError, match="illegal character") as excinfo:
        tokenize(source)
    assert excinfo.value.position == position


def test_tokenize_requires_leading_equals():
    with pytest.raises(ParseError):
        tokenize("1+2")


def test_parse_division_chain_is_left_associative():
    node = parse("=1/1/80")
    assert node == Binary("/", Binary("/", NumberLit(1.0), NumberLit(1.0)), NumberLit(80.0))


def test_parse_unary_minus_binds_looser_than_power():
    assert parse("=-2^2") == Unary("-", Binary("^", NumberLit(2.0), NumberLit(2.0)))
    assert parse("=(-2)^2") == Binary("^", Unary("-", NumberLit(2.0)), NumberLit(2.0))


def test_parse_power_right_associative():
    assert parse("=2^3^2") == Binary(
        "^", NumberLit(2.0), Binary("^", NumberLit(3.0), NumberLit(2.0))
    )


def test_parse_cell_ref():
    assert parse("=A1") == CellRef("A", 1)
    assert parse("=zz42") == CellRef("ZZ", 42)


def test_parse_percent_binds_tighter_than_unary_minus():
    assert parse("=-12%") == Unary("-", PercentLit(12.0))


def test_parse_empty_argument_slots():
    node = parse("=DB(C1,C2,C3,1,)")
    assert node == Call(
        "DB",
        (CellRef("C", 1), CellRef("C", 2), CellRef("C", 3), NumberLit(1.0), EMPTY),
    )
    assert parse("=F()") == Call("F", ())
    assert parse("=F(,)") == Call("F", (EMPTY, EMPTY))
    assert parse("=NPV(,1)") == Call("NPV", (EMPTY, NumberLit(1.0)))


def test_parse_function_names_case_insensitive():
    assert parse("=npv(b1)") == Call("NPV", (CellRef("B", 1),))
    assert to_source(parse("=npv(b1, a2:a10)+a1")) == "=NPV(B1,A2:A10)+A1"


def test_parse_string_literals_with_escapes():
    assert parse('="he said ""hi"""') == TextLit('he said "hi"')


def test_parse_comparison_and_concat_precedence():
    # & binds tighter than =, + tighter than &
    node = parse('="a"&"b"="ab"')
    assert node == Binary("=", Binary("&", TextLit("a"), TextLit("b")), TextLit("ab"))
    node = parse('=1+2&"x"')
    assert node == Binary("&", Binary("+", NumberLit(1.0), NumberLit(2.0)), TextLit("x"))


def test_parse_anchored_refs():
    assert kinds_and_texts("=$a$1+B$2") == [
        (TokenKind.REF, "$A$1"), (TokenKind.OP, "+"), (TokenKind.REF, "B$2")
    ]
    assert parse("=$A$1") == CellRef("A", 1, column_absolute=True, row_absolute=True)
    assert parse("=a$3") == CellRef("A", 3, row_absolute=True)
    assert parse("=$ZZ42") == CellRef("ZZ", 42, column_absolute=True)
    assert parse("=$A$1") != parse("=A1")
    assert repr(parse("=A1")) == "CellRef(column='A', row=1)"
    assert parse("=A1") == CellRef("A", 1, False, False)
    assert to_source(parse("=PMT($A$1/12,A$2,$B3)")) == "=PMT($A$1/12,A$2,$B3)"
    # each corner keeps its column's and its row's anchor when a range normalizes
    assert to_source(parse("=SUM($B5:A$1)")) == "=SUM(A$1:$B5)"
    assert to_source(parse("=SUM($B$5:$A$1)")) == "=SUM($A$1:$B$5)"
    for source in ("=$", "=$$A1", "=A$$1", "=$A1(2)", "=$1"):
        with pytest.raises(ParseError):
            parse(source)


def test_anchors_do_not_change_values():
    sheet = Sheet.from_rows([["2", "3", "=$A$1*B$1+$A1"]])
    assert sheet.value("C1") == 8.0
    with pytest.raises(ValueError, match="not a cell address"):
        sheet.value("$C$1")


def test_range_normalization():
    assert to_source(parse("=B2:A1")) == "=A1:B2"
    assert to_source(parse("=A2:B1")) == "=A1:B2"
    node = parse("=SUM(B2:A1)")
    assert node.args[0] == RangeRef(CellRef("A", 1), CellRef("B", 2))


def test_canonical_printer_drops_redundant_parens():
    assert to_source(parse("= 1 + 2 ")) == "=1+2"
    assert to_source(parse("=1+(2*3)")) == "=1+2*3"
    assert to_source(parse("=(1+2)*3")) == "=(1+2)*3"
    assert to_source(parse("=((A1))")) == "=A1"
    assert to_source(parse("=2^(3^2)")) == "=2^3^2"
    assert to_source(parse("=(2^3)^2")) == "=(2^3)^2"
    assert to_source(parse("=1-(2-3)")) == "=1-(2-3)"
    assert to_source(parse("=1-2-3")) == "=1-2-3"


def test_parse_errors_carry_positions():
    for source, fragment in [
        ("=NPV(1,2", "expected"),
        ("=1+", "end"),
        ("=A1:", "reference"),
        ("=A1:7", "reference"),
        ("=1 2", "unexpected"),
        ("=", "end"),
        ("=)", "unexpected"),
        ("=FOO", "unexpected"),
    ]:
        with pytest.raises(ParseError, match=fragment):
            parse(source)
    with pytest.raises(ParseError) as excinfo:
        parse("=1+@2")
    assert excinfo.value.position == 3


def test_parse_percent_only_on_number_literals():
    with pytest.raises(ParseError):
        parse("=A1%")
    with pytest.raises(ParseError):
        parse("=12%%")


def test_parse_depth_cap():
    deep = "=" + "(" * 500 + "1" + ")" * 500
    with pytest.raises(ParseError, match="nest"):
        parse(deep)


def test_parse_scientific_notation():
    assert parse("=1e-05") == NumberLit(1e-05)
    assert parse("=1.5E+16") == NumberLit(1.5e16)
    assert parse("=.5") == NumberLit(0.5)


@pytest.mark.parametrize(
    "source,position", [("=1e999", 1), ("=1+.1e400", 3), ("=SUM(1,2e308)", 7)]
)
def test_number_literal_that_overflows_is_a_parse_error(source, position):
    with pytest.raises(ParseError, match="too large") as excinfo:
        parse(source)
    assert excinfo.value.position == position
    assert parse("=1.7976931348623157e308") == NumberLit(1.7976931348623157e308)


# each shape at depth n, and the column of the operator or call that takes it
# one level past the bound
DEEP_SHAPES = {
    "unary": (lambda n: "=" + "-" * n + "1", MAX_DEPTH + 1),
    "power": (lambda n: "=" + "2^" * n + "1", 2 * MAX_DEPTH + 2),
    "chain": (lambda n: "=1" + "+1" * n, 2 * MAX_DEPTH + 2),
    "call": (lambda n: "=PMT(0.01" + "+0.01" * (n - 1) + ",12,100)", 1),
    "nested": (lambda n: "=" + "(" * 64 + "-" * n + "1" + ")" * 64, 64 + MAX_DEPTH + 1),
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_depth_bound(shape):
    formula, column = DEEP_SHAPES[shape]
    source = formula(MAX_DEPTH)
    node = parse(source)
    assert parse(to_source(node)) == node
    sheet = Sheet.from_rows([[source]])
    value = sheet.evaluate_all()["A1"]
    assert not (isinstance(value, ErrorValue) and value.kind is ErrorKind.PARSE)
    run_rules(sheet)
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} ") as excinfo:
        parse(formula(MAX_DEPTH + 1))
    assert excinfo.value.position == column
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} "):
        parse(formula(3000))


refs = st.builds(
    CellRef,
    column=st.from_regex(r"[A-Z]{1,2}", fullmatch=True),
    row=st.integers(min_value=1, max_value=999),
    column_absolute=st.booleans(),
    row_absolute=st.booleans(),
)

numbers = st.one_of(
    st.integers(min_value=0, max_value=10**9).map(float),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
)

leaves = st.one_of(
    st.builds(NumberLit, value=numbers),
    st.builds(PercentLit, value=numbers),
    st.builds(
        TextLit,
        value=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
        ),
    ),
    refs,
    st.builds(RangeRef, start=refs, end=refs),
)

binary_ops = st.sampled_from(["+", "-", "*", "/", "^", "&", "=", "<>", "<", ">", "<=", ">="])


def compound(children):
    args = (
        st.lists(st.one_of(children, st.just(EMPTY)), min_size=0, max_size=4)
        .map(tuple)
        .filter(lambda t: t != (EMPTY,))
    )
    return st.one_of(
        st.builds(Unary, op=st.just("-"), child=children),
        st.builds(Binary, op=binary_ops, left=children, right=children),
        st.builds(
            Call,
            name=st.sampled_from(["NPV", "SUM", "DB", "FOO", "DAYS360", "XY"]),
            args=args,
        ),
    )


formula_asts = st.recursive(leaves, compound, max_leaves=25)


@settings(max_examples=500, deadline=None)
@given(formula_asts)
def test_print_parse_round_trip(node):
    assert parse(to_source(node)) == node


@settings(max_examples=200, deadline=None)
@given(formula_asts)
def test_printer_is_canonical_fixed_point(node):
    source = to_source(node)
    assert to_source(parse(source)) == source
