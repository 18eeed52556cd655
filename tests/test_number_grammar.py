"""One number grammar: a cell, a published table field and a formula read the
same texts as numbers, the lexer's number alternative with an optional sign."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ledgerlint.formula import ParseError, Sheet, TokenKind, tokenize
from ledgerlint.loan import load_published


@pytest.mark.parametrize("text", ["1_000", "-1_0", "1_0.5", "١٢٣", "１２", "1e1_0", "²"])
def test_a_cell_number_is_written_as_a_formula_writes_one(text):
    # float() reads each of these; a spreadsheet keeps them as text
    sheet = Sheet.from_rows([[text, "=A1*2"]])
    assert sheet.cells["A1"].literal == text
    assert sheet.value("B1").code == "#VALUE!"


def _cell(text):
    cell = Sheet.from_rows([[text]]).cells.get("A1")
    return cell.literal if cell is not None and isinstance(cell.literal, float) else None


def _formula(text):
    """The value of text as one NUMBER token after an optional sign, else None."""
    text = text.strip()
    sign, body = (text[0], text[1:]) if text[:1] in ("+", "-") else ("", text)
    try:
        tokens = tokenize("=" + body)
    except ParseError:
        return None
    if [(token.kind, token.text) for token in tokens] != [(TokenKind.NUMBER, body)]:
        return None
    return -tokens[0].value if sign == "-" else tokens[0].value


def _published(path, table):
    """The first row of table as load_published reads it, None if it names the row's line."""
    path.write_text(table, encoding="utf-8")
    try:
        return load_published(path)[0]
    except ValueError as exc:
        assert str(exc).startswith("line 2: ")
        return None


NUMBER_TEXTS = st.text(st.sampled_from("0123456789.eE+-_ ainf١٢５²x"), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(NUMBER_TEXTS)
@example("1_0")
@example("١٢٣")
@example("1e999")
@example("-.5E+3")
@example(" 7 ")
@example("nan")
def test_cells_tables_and_formulas_read_numbers_alike(tmp_path_factory, text):
    if not text.strip():
        return  # a blank cell or field states nothing
    number = _formula(text)
    assert _cell(text) == number  # a finite number or text, never a partial read
    path = tmp_path_factory.getbasetemp() / "published.csv"
    row = _published(path, f"month,payment\n1,{text}\n")
    if number is not None:
        assert row.payment == number
    elif row is not None:
        assert not math.isfinite(row.payment)  # nan or inf, which verify_schedule flags
    row = _published(path, f"month\n{text}\n")
    digits = number is not None and text.strip().lstrip("+-").isdigit()
    assert (row and row.month) == (int(number) if digits else None)
