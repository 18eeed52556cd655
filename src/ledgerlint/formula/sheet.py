"""CSV-backed single-sheet workbooks.

Cells starting with '=' are formulas; other cells become numbers, ISO dates,
or text.  A sheet parses each relative shape of formula once and fills in
each cell's references (shapes.ShapeCache).  Formula parse failures are
recorded on the cell as error values so a bad formula never aborts a
workbook load.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Union

from ..daycount import parse_date
from .ast import CellRef, FormulaNode, column_to_index, format_number, index_to_column
from .parser import ParseError, parse_address
from .shapes import ShapeCache

__all__ = [
    "MAX_CELLS",
    "ErrorKind",
    "ErrorValue",
    "CellValue",
    "Cell",
    "Sheet",
    "format_value",
    "load_workbook",
]

MAX_CELLS = 1_000_000

_DATE_SHAPE_RE = re.compile(r"\d{4}-\d{2}-\d{2}$")


class ErrorKind(str, Enum):
    PARSE = "parse"
    CYCLE = "cycle"
    PROPAGATED = "propagated"
    UNKNOWN_FUNCTION = "unknown_function"
    ARGUMENT = "argument"
    DIV0 = "div0"
    VALUE = "value"


@dataclass(frozen=True)
class ErrorValue:
    kind: ErrorKind
    message: str

    @property
    def code(self) -> str:
        return f"#{self.kind.name}!"

    def __str__(self) -> str:
        return f"{self.code} {self.message}"


CellValue = Union[float, dt.date, str, ErrorValue]


def format_value(value: CellValue) -> str:
    """Display form of a value: shortest number, ISO date, text as is, error code."""
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, ErrorValue):
        return value.code
    return value


@dataclass(frozen=True)
class Cell:
    """One populated cell.  Exactly one of literal/formula/error is set."""

    address: str
    literal: float | dt.date | str | None = None
    formula: FormulaNode | None = None
    error: ErrorValue | None = None


def _classify_literal(text: str) -> float | dt.date | str:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    if _DATE_SHAPE_RE.fullmatch(text):
        try:
            return parse_date(text)
        except ValueError:
            pass
    return text


class Sheet:
    """Immutable cells, a row index of the populated ones, and a value cache.

    The index maps each populated row to its populated column indices in
    ascending order, beside the ascending list of populated rows, so a range
    costs the populated cells inside it rather than its area.
    """

    def __init__(self, rows: Iterable[tuple[int, Iterable[tuple[int, str]]]], name: str = "sheet"):
        """Place raw cell texts given as (row, [(column, text), ...]), counting from 1.

        Rows ascend and come once each, and columns ascend within a row: cells
        keeps that row-major order and the index relies on it.  Blank texts
        are skipped.
        """
        self.cells: dict[str, Cell] = {}
        self.name = name
        self._values: dict[str, CellValue] = {}
        self._rows: list[int] = []
        self._columns: dict[int, list[int]] = {}
        cells, row_list, row_columns = self.cells, self._rows, self._columns
        shapes = ShapeCache()
        for row_index, fields in rows:
            columns = []
            for col_index, raw in fields:
                text = raw.strip()
                if not text:
                    continue
                address = f"{index_to_column(col_index)}{row_index}"
                if text.startswith("="):
                    try:
                        cell = Cell(address, formula=shapes.parse(text, col_index, row_index))
                    except ParseError as exc:
                        cell = Cell(address, error=ErrorValue(ErrorKind.PARSE, str(exc)))
                else:
                    cell = Cell(address, literal=_classify_literal(text))
                cells[address] = cell
                columns.append(col_index)
            if columns:
                row_list.append(row_index)
                row_columns[row_index] = columns

    @classmethod
    def from_rows(cls, rows: Iterable[list[str]], name: str = "sheet") -> "Sheet":
        """Place a grid given as one list of raw texts per row; rows may come lazily."""
        return cls(_numbered(rows), name=name)

    def addresses(self) -> Iterator[str]:
        """Populated addresses in row-major order."""
        return iter(self.cells)

    def range_addresses(self, ref) -> Iterator[str]:
        """Populated addresses inside a RangeRef, row-major.

        Costs O(log rows + populated rows spanned + hits), not the area.
        """
        col_lo = column_to_index(ref.start.column)
        col_hi = column_to_index(ref.end.column)
        letters: dict[int, str] = {}  # each column's letters, made once per call
        rows = self._rows
        for row in rows[bisect_left(rows, ref.start.row):bisect_right(rows, ref.end.row)]:
            columns = self._columns[row]
            for col in columns[bisect_left(columns, col_lo):bisect_right(columns, col_hi)]:
                column = letters.get(col)
                if column is None:
                    column = letters[col] = index_to_column(col)
                yield f"{column}{row}"

    def value(self, address: str) -> CellValue:
        from .evaluator import _Evaluator

        return _Evaluator(self).cell_value(CellRef(*parse_address(address)).address)

    def evaluate_all(self) -> dict[str, CellValue]:
        """Evaluate every populated cell; returns address -> value."""
        from .evaluator import _Evaluator

        evaluator = _Evaluator(self)
        return {address: evaluator.cell_value(address) for address in self.cells}


def _numbered(rows: Iterable[list[str]]) -> Iterator[tuple[int, Iterator[tuple[int, str]]]]:
    """(row, enumerate(fields)) pairs, both counting from 1; stops a grid past MAX_CELLS."""
    scanned = 0
    for row_index, fields in enumerate(rows, start=1):
        scanned += len(fields)
        if scanned > MAX_CELLS:
            raise ValueError(f"workbook exceeds {MAX_CELLS} cells")
        yield row_index, enumerate(fields, start=1)


def load_workbook(path: str | Path) -> Sheet:
    """Load a CSV grid; row 1 is the first CSV record, column A the first field.

    Records are placed as the reader yields them, so only one is held at a
    time, not the whole grid with its empty fields.
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes
    with open(path, newline="", encoding="utf-8-sig") as handle:
        return Sheet.from_rows(csv.reader(handle), name=path.stem)
