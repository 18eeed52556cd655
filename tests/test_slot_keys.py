"""Formulas that differ only in their numbers or strings share a slot key.

A text whose reference key has no template is read through its slot key's
template (shapes.SlotShape), which reads each number and string from the
cell's own text as it reads references.  Every test compares a sheet with an
oracle whose formula cells are each parsed on their own by parse(): the
trees or parse error messages, the evaluate_all values and the run_rules
findings must be the same.
"""

import collections
import random
import re

import pytest
from hypothesis import given, settings, strategies as st
from sheet_strategies import sheets
from workbooks import assert_read_through_templates, grid_rows, per_cell

from ledgerlint.audit import run_rules
from ledgerlint.formula import ErrorKind, ErrorValue, PercentLit, Sheet, parse, shapes


def assert_as_parsed_per_cell(grid: dict[tuple[int, int], str]) -> Sheet:
    sheet, oracle = Sheet(grid_rows(grid)), per_cell(grid)
    assert_read_through_templates(sheet)
    # repr, so that nan values compare equal
    assert repr(list(sheet.evaluate_all().items())) == repr(list(oracle.evaluate_all().items()))
    assert run_rules(sheet) == run_rules(oracle)
    assert list(sheet.cells.items()) == list(oracle.cells.items())
    return sheet


@pytest.fixture
def parsed(monkeypatch):
    """How often each text reaches parse()."""
    counts = collections.Counter()

    def counted(text):
        counts[text] += 1
        return parse(text)

    monkeypatch.setattr(shapes, "parse", counted)
    return counts


def test_a_label_with_a_reference_in_it_parses_at_most_twice_in_three_books(parsed):
    # "Q1" inside the string makes the reference key unshareable; the slot
    # key reads the string whole
    for _ in range(3):
        grid = {(1, r): str(r) for r in range(1, 1001)}
        grid.update({(2, r): f'="Q1 "&A{r}' for r in range(1, 1001)})
        sheet = Sheet(grid_rows(grid))
        assert sheet.cells["B1000"].formula == parse('="Q1 "&A1000')
        assert sheet.evaluate_all()["B7"] == "Q1 7"
    assert sum(parsed.values()) <= 2
    assert_as_parsed_per_cell({(1, 1): "3", (2, 1): '="Q1 "&A1', (2, 2): '="Q2 "&A1'})


def test_a_noted_key_whose_parse_is_no_template_reads_through_its_slot_key(parsed):
    # B2 notes the reference key that "A1" inside its string makes; B3 has
    # that key, so it is parsed, and its tree fails the template check
    grid = {(1, r): str(r) for r in range(1, 5)}
    grid.update({(2, 1): '="x"&A1', (2, 2): '="A1"&A2', (2, 3): '="A2"&A3', (2, 4): '="A3"&A4'})
    sheet = Sheet(grid_rows(grid))
    assert sum(parsed.values()) == 2  # B1, then the noted key's B3
    kinds = [type(sheet.cells[f"B{r}"].shape) for r in range(1, 5)]
    assert kinds == [shapes.Shape, shapes.SlotShape, shapes.SlotShape, shapes.SlotShape]
    assert [sheet.value(f"B{r}") for r in range(1, 5)] == ["x1", "A12", "A23", "A34"]
    assert_as_parsed_per_cell(grid)


def test_a_number_the_lexer_rejects_stays_a_parse_error():
    sheet = assert_as_parsed_per_cell({(2, 1): "=1+A1", (2, 2): "=1E400+A2", (2, 3): "=7+A3"})
    assert sheet.cells["B2"].error == ErrorValue(
        ErrorKind.PARSE, "number 1E400 is too large at column 1"
    )
    assert sheet.cells["B3"].source is not None  # read through the slot key's template


def test_a_reference_key_and_a_slot_key_of_one_tuple_never_share_a_template():
    assert tuple(shapes._REFS.split("=A1+B1")) == tuple(shapes._SLOTS.split("=A1+5")) == ("=", "+", "")
    grid = {(1, r): str(r) for r in range(1, 9)}
    grid.update({(2, r): f"=A{r}+{r}" if r % 2 else f"=A{r}+A{r - 1}" for r in range(1, 9)})
    sheet = assert_as_parsed_per_cell(grid)
    assert type(sheet.cells["B3"].shape) is shapes.SlotShape
    assert type(sheet.cells["B4"].shape) is shapes.Shape


@pytest.mark.parametrize("size", [1, 2, 3])
def test_the_bound_counts_both_kinds_of_key(size, monkeypatch):
    monkeypatch.setattr(shapes, "_table", {})
    monkeypatch.setattr(shapes, "_TABLE_SIZE", size)
    grid = {(1, r): str(r) for r in range(1, 7)}
    grid.update({(2, r): f"=A{r}*{r}+{r % 3}" for r in range(1, 7)})
    assert_as_parsed_per_cell(grid)
    assert len(shapes._table) <= size


def test_a_percent_stays_a_percent_literal():
    sheet = assert_as_parsed_per_cell({(1, 1): "200", (2, 1): "=A1*5%", (2, 2): "=A1*7%"})
    assert sheet.cells["B2"].source is not None
    assert sheet.cells["B2"].formula.right == PercentLit(7.0)
    assert sheet.evaluate_all()["B2"] == 200 * (7.0 / 100)


@pytest.mark.parametrize("texts", [
    ("=DAYS360(A1,A2)+LOG10(A3)+1", "=DAYS360(A1,A2)+LOG10(A3)+2"),
    ("=ATAN2(A1,1)+2", "=ATAN2(A1,1)+3"),
    ("=A1*1E5", "=A1*2.5e-3"),
])
def test_digits_inside_names_are_never_slots(texts):
    assert "360" not in shapes._SLOTS.findall(texts[0])
    assert "10" not in shapes._SLOTS.findall(texts[0])
    grid = {(1, 1): "2024-01-31", (1, 2): "2024-06-30", (1, 3): "100"}
    grid.update({(2, r): text for r, text in enumerate(texts, start=1)})
    assert_as_parsed_per_cell(grid)


@pytest.mark.parametrize("order", [(360, 365), (365, 360)])
def test_a_360_divisor_is_read_per_cell(order):
    grid = {(1, 2): "2024-01-01", (1, 3): "2024-07-01"}
    grid.update({(2, r): f"=(A3-A2)/{divisor}" for r, divisor in enumerate(order, start=1)})
    texts = [grid[2, 1], grid[2, 2]]
    assert shapes._SLOTS.split(texts[0]) == shapes._SLOTS.split(texts[1])
    sheet = assert_as_parsed_per_cell(grid)
    assert [(f.rule_id, f.cell) for f in run_rules(sheet)] == [("R8", f"B{order.index(360) + 1}")]


def test_rate_division_and_date_chains_are_read_per_cell():
    # R2 reads the divisor and R6 the chain's numbers: on a slot shape, per cell
    grid = {(1, r): "0.06" for r in range(1, 5)}
    grid.update({(2, r): "1000" for r in range(1, 5)})
    for r, (divisor, chain) in enumerate([(12, "1/1/80"), (4, "3/0/7"), (12, "2/3/1999"), (6, "5/5/5")], 1):
        grid[3, r] = f"=PMT(A{r}/{divisor},60,B{r})+{chain}"
    sheet = assert_as_parsed_per_cell(grid)
    assert sheet.cells["C4"].source is not None
    assert {(f.rule_id, f.cell) for f in run_rules(sheet) if f.rule_id in ("R2", "R6")} == {
        ("R2", "C1"), ("R6", "C1"), ("R2", "C3"), ("R6", "C3"), ("R6", "C4"),
    }


_NUMBERS = ["0", "1", "12", "360", "365", "100", "2.5", ".5", "1E300", "1E400", "7", "1e-3", "5%"]
_STRINGS = ['""', '"x"', '"A1"', '"Q1 "', '"a""b"', '"12"']
_NUMBER = re.compile(r"(?<![A-Za-z0-9.$])\d+(?:\.\d+)?")
_STRING = re.compile(r'"(?:[^"]|"")*"')


def _with_literals(rows: list[list[str]], rng: random.Random) -> list[list[str]]:
    """rows with each number and string of each formula replaced by one of the lists above."""

    def replace(text: str) -> str:
        if not text.startswith("="):
            return text
        text = _NUMBER.sub(lambda m: rng.choice(_NUMBERS), text)
        return _STRING.sub(lambda m: rng.choice(_STRINGS), text)

    return [[replace(text) for text in row] for row in rows]


@settings(max_examples=200, deadline=None)
@given(
    sheets(max_rows=40),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([4, shapes._TABLE_SIZE]),
)
def test_sheets_with_random_literals_read_as_parsed_per_cell(rows, seed, fresh, size):
    """Values and findings equal those of each formula parsed on its own,
    through an empty table or the one that earlier examples left, with its
    newest size keys; a table of 4 keys drops slot keys and noted keys as it
    loads."""
    rows = _with_literals(rows, random.Random(seed))
    if fresh:
        shapes._table.clear()
    bound = shapes._TABLE_SIZE
    shapes._TABLE_SIZE = size
    try:
        for key in list(shapes._table)[:-size]:
            del shapes._table[key]
        sheet = Sheet.from_rows(rows)
        assert len(shapes._table) <= size
    finally:
        shapes._TABLE_SIZE = bound
    oracle = per_cell(
        {(col, row): text for row, texts in enumerate(rows, 1) for col, text in enumerate(texts, 1)}
    )
    assert repr(list(sheet.evaluate_all().items())) == repr(list(oracle.evaluate_all().items()))
    assert run_rules(sheet) == run_rules(oracle)
