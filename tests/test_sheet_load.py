"""Loading a grid: only populated fields reach the placing loop, with the same sheet."""

import os
from pathlib import Path, PurePath

import pytest
from hypothesis import given, settings, strategies as st

from ledgerlint.formula import Cell, ErrorKind, ErrorValue, ParseError, Sheet, load_workbook, parse
from ledgerlint.formula.ast import index_to_column
from ledgerlint.formula.sheet import MAX_CELLS, _classify_literal, _stem

FIELDS = [
    "", "", "", " ", "\t", " \t ", "x", "total", "1", " 2.5 ", "-3e2", "nan", "2024-01-31",
    "2024-02-30", "=1+1", "=A1+1", " =B2*2", "=SUM(A1:C3)", "=NPV(0.1,A1:A9)", "=1+", "=$A$1",
]


def oracle(rows):
    """cells, _rows and _columns as a loop over every field, empty or not, places them."""
    cells, row_list, columns = {}, [], {}
    for row, fields in enumerate(rows, start=1):
        placed = []
        for col, raw in enumerate(fields, start=1):
            text = raw.strip()
            if not text:
                continue
            address = f"{index_to_column(col)}{row}"
            if text.startswith("="):
                try:
                    cell = Cell(address, formula=parse(text))
                except ParseError as exc:
                    cell = Cell(address, error=ErrorValue(ErrorKind.PARSE, str(exc)))
            else:
                cell = Cell(address, literal=_classify_literal(text))
            cells[address] = cell
            placed.append(col)
        if placed:
            row_list.append(row)
            columns[row] = placed
    return cells, row_list, columns


records = st.one_of(
    st.lists(st.sampled_from(FIELDS), max_size=8),
    st.lists(st.sampled_from(["", " ", "\t"]), max_size=6),  # records with nothing to place
    st.lists(st.sampled_from(FIELDS), max_size=4).map(lambda fields: fields + [""] * 5),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(records, max_size=12))
def test_from_rows_places_the_cells_a_per_field_loop_places(rows):
    sheet = Sheet.from_rows(rows)
    cells, row_list, columns = oracle(rows)
    assert list(sheet.cells) == list(cells)
    assert sheet.cells == cells
    assert [repr(cell) for cell in sheet.cells.values()] == [repr(cell) for cell in cells.values()]
    assert sheet._rows == row_list
    assert sheet._columns == columns


class Empty(str):
    """An empty field that fails the load if the placing loop ever reads it."""

    def strip(self, *chars):
        raise AssertionError("an empty field reached the placing loop")


def test_the_placing_loop_never_reads_an_empty_field():
    rows = [[Empty(), "1", Empty(), Empty()], [Empty(), Empty()], [], [Empty(), " x "]]
    sheet = Sheet.from_rows(rows)
    assert {address: cell.literal for address, cell in sheet.cells.items()} == {"B1": 1.0, "B4": "x"}
    assert sheet._rows == [1, 4]
    assert sheet._columns == {1: [2], 4: [2]}


def counted(rows, seen):
    for record in rows:
        seen.append(record)
        yield record


@pytest.mark.parametrize("last", ["", "7"], ids=["all_empty", "populated"])
def test_max_cells_counts_every_field_read(last):
    width = 1000
    record = [""] * (width - 1) + [last]
    assert MAX_CELLS % width == 0
    full = [record] * (MAX_CELLS // width)
    sheet = Sheet.from_rows(full)  # exactly MAX_CELLS fields
    assert len(sheet.cells) == (len(full) if last else 0)

    seen = []
    with pytest.raises(ValueError, match=f"exceeds {MAX_CELLS} cells"):
        Sheet.from_rows(counted(full + [[""]] + [record], seen))
    assert len(seen) == len(full) + 1  # the one field past the limit stops the load


@pytest.mark.parametrize(
    "filename",
    ["book.csv", "book", "book.tar.csv", ".hidden", ".hidden.csv", "..csv", "a.", "a..b", "...", "é ü.CSV"],
)
def test_a_sheet_is_named_as_pathlib_names_the_file(tmp_path, filename):
    path = tmp_path / filename
    path.write_text("1\n")

    class Location:
        def __fspath__(self):
            return str(path)

    for given_path in (path, str(path), Location(), os.path.relpath(path)):
        assert load_workbook(given_path).name == Path(given_path).stem


@given(st.text(st.sampled_from("ab.- _é"), min_size=1, max_size=8).filter(lambda name: name != "."))
def test_stem_matches_pathlib(name):
    for path in (name, f"dir/{name}", f"/d.x/{name}"):
        assert _stem(path) == PurePath(path).stem
