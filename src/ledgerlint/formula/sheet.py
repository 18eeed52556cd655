"""CSV-backed single-sheet workbooks.

Cells starting with '=' are formulas; other cells become numbers, ISO dates,
or text.  Formula parse failures are recorded on the cell as error values so
a bad formula never aborts a workbook load.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Union

from ..daycount import parse_date
from .ast import CellRef, FormulaNode, column_to_index, format_number, index_to_column
from .parser import ParseError, parse, parse_address

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
    """Immutable cell grid plus a value cache filled during evaluation."""

    def __init__(self, cells: dict[str, Cell], name: str = "sheet"):
        self.cells = cells  # row-major, as from_rows fills it
        self.name = name
        self._values: dict[str, CellValue] = {}

    @classmethod
    def from_rows(cls, rows: list[list[str]], name: str = "sheet") -> "Sheet":
        cells: dict[str, Cell] = {}
        scanned = 0
        for row_index, row in enumerate(rows, start=1):
            scanned += len(row)
            if scanned > MAX_CELLS:
                raise ValueError(f"workbook exceeds {MAX_CELLS} cells")
            for col_index, raw in enumerate(row, start=1):
                text = raw.strip()
                if not text:
                    continue
                address = f"{index_to_column(col_index)}{row_index}"
                if text.startswith("="):
                    try:
                        cell = Cell(address, formula=parse(text))
                    except ParseError as exc:
                        cell = Cell(address, error=ErrorValue(ErrorKind.PARSE, str(exc)))
                else:
                    cell = Cell(address, literal=_classify_literal(text))
                cells[address] = cell
        return cls(cells, name=name)

    def addresses(self) -> Iterator[str]:
        """Populated addresses in row-major order."""
        return iter(self.cells)

    def range_addresses(self, ref) -> Iterator[str]:
        """Populated addresses inside a RangeRef, row-major."""
        col_lo = column_to_index(ref.start.column)
        col_hi = column_to_index(ref.end.column)
        for row in range(ref.start.row, ref.end.row + 1):
            for col in range(col_lo, col_hi + 1):
                address = f"{index_to_column(col)}{row}"
                if address in self.cells:
                    yield address

    def value(self, address: str) -> CellValue:
        from .evaluator import _Evaluator

        return _Evaluator(self).cell_value(CellRef(*parse_address(address)).address)

    def evaluate_all(self) -> dict[str, CellValue]:
        """Evaluate every populated cell; returns address -> value."""
        from .evaluator import _Evaluator

        evaluator = _Evaluator(self)
        return {address: evaluator.cell_value(address) for address in self.cells}


def load_workbook(path: str | Path) -> Sheet:
    """Load a CSV grid; row 1 is the first CSV record, column A the first field."""
    path = Path(path)
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    return Sheet.from_rows(rows, name=path.stem)
