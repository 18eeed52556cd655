"""CSV-backed single-sheet workbooks.

Cells starting with '=' are formulas; other cells become numbers, ISO dates,
or text.  A sheet parses each shape of formula once (shapes.ShapeCache), and
a cell of a shape that came before keeps the shape and its text: evaluation
and the audit read it through the shape's template, and its own tree, parse()
of its text, is built the first time its formula is read.  A caller that loads
many workbooks, as an audit run does, may pass them all one cache, so that a
shape they share is parsed once for the run.  Formula parse failures are
recorded on the cell as error values so a bad formula never aborts a workbook
load.

A load costs the populated fields of the CSV, not its grid: a record with no
non-empty field, and each empty field of any other record, is passed over in C
(``any`` and ``itertools.compress``), so the Python loop that places cells sees
only fields with text.  ``MAX_CELLS`` still counts every field read.  That
loop looks the cache's ``parse`` up once per sheet and passes each ``Cell`` its
fields by position, the cheaper call.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Union

from ..daycount import ISO_DATE_RE, parse_date, read_number
from .ast import FormulaNode, column_to_index, format_number, index_to_column
from .parser import ParseError, parse, parse_address
from .shapes import Shape, ShapeCache

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


class Cell:
    """One populated cell.  Exactly one of literal/formula/error is set.  A
    cell whose shape came before keeps its text as source: an evaluator reads
    it through the shape's template, and formula, parse(source), is built when
    first read and kept.  Cells compare and print by address, literal, formula
    and error."""

    __slots__ = ("address", "literal", "error", "shape", "source", "_formula")

    def __init__(
        self,
        address: str,
        literal: float | dt.date | str | None = None,
        formula: FormulaNode | None = None,
        error: ErrorValue | None = None,
        shape: Shape | None = None,
        source: str | None = None,
    ) -> None:
        self.address, self.literal, self.error = address, literal, error
        self.shape, self.source, self._formula = shape, source, formula

    @property
    def formula(self) -> FormulaNode | None:
        if self._formula is None and self.source is not None:
            self._formula = parse(self.source)
        return self._formula

    def _fields(self) -> tuple:
        return self.address, self.literal, self.formula, self.error

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is Cell else NotImplemented

    def __repr__(self) -> str:
        return "Cell(address={!r}, literal={!r}, formula={!r}, error={!r})".format(*self._fields())

    def __reduce__(self) -> tuple:
        return Cell, self._fields()  # a pickle holds the tree, not the shape's template


def _classify_literal(text: str) -> float | dt.date | str:
    """A stripped cell text as a number, a date, or the text itself.

    A number is what read_number reads, and finite: nan and inf are text.
    """
    value = read_number(text)
    if value is not None and math.isfinite(value):
        return value
    if ISO_DATE_RE.fullmatch(text):  # a cheap test before parse_date
        try:
            return parse_date(text)
        except ValueError:
            pass
    return text


class Sheet:
    """Immutable cells, a column index of the populated ones, and a value cache.

    The index maps each populated column's index to its letters, its
    populated rows in ascending order and those cells' addresses (the cells
    keys themselves), beside the ascending list of populated columns.  A range
    is a slice of each populated column it spans, so it costs those columns
    and the cells inside it, not its area or its rows.
    """

    def __init__(
        self,
        rows: Iterable[tuple[int, Iterable[tuple[int, str]]]],
        shapes: ShapeCache | None = None,
    ):
        """Place raw cell texts given as (row, [(column, text), ...]), counting from 1.

        Rows ascend and come once each, and columns ascend within a row: cells
        keeps that row-major order and the index relies on it.  Blank texts
        are skipped.  Formulas are parsed through shapes, a fresh cache when
        None.
        """
        self.cells: dict[str, Cell] = {}
        self._values: dict[str, CellValue] = {}
        self._index: dict[int, tuple[str, list[int], list[str]]] = {}
        cells, index = self.cells, self._index
        parse_text = (ShapeCache() if shapes is None else shapes).parse
        for row_index, fields in rows:
            row_text = str(row_index)
            for col_index, raw in fields:
                text = raw.strip()
                if not text:
                    continue
                column = index.get(col_index)
                if column is None:
                    column = index[col_index] = (index_to_column(col_index), [], [])
                address = column[0] + row_text
                if text.startswith("="):
                    try:
                        tree, shape, source = parse_text(text)
                    except ParseError as exc:
                        cell = Cell(address, None, None, ErrorValue(ErrorKind.PARSE, str(exc)))
                    else:
                        cell = Cell(address, None, tree, None, shape, source)
                else:
                    cell = Cell(address, _classify_literal(text))
                cells[address] = cell
                column[1].append(row_index)
                column[2].append(address)
        self._columns = sorted(index)

    @classmethod
    def from_rows(
        cls, rows: Iterable[list[str]], name: object = None, shapes: ShapeCache | None = None
    ) -> "Sheet":
        """Place a grid given as one list of raw texts per row; rows may come lazily.

        A sheet has no name; name is ignored (perfbench/run.py passes one)."""
        return cls(_numbered(rows), shapes=shapes)

    def range_addresses(self, ref) -> list[str]:
        """Populated addresses inside a RangeRef, row-major.

        Costs O(log columns + populated columns spanned * log rows + hits),
        not the area: each spanned column's cells are one slice of it, and
        the slices of several columns are merged by one sort, all in C.
        """
        columns, index = self._columns, self._index
        top, bottom = ref.start.row, ref.end.row
        spanned = columns[
            bisect_left(columns, column_to_index(ref.start.column)):
            bisect_right(columns, column_to_index(ref.end.column))
        ]
        if len(spanned) == 1:
            _, rows, addresses = index[spanned[0]]
            return addresses[bisect_left(rows, top):bisect_right(rows, bottom)]
        cells = []  # (row, column, address); no two tie on row and column
        for col in spanned:
            _, rows, addresses = index[col]
            lo, hi = bisect_left(rows, top), bisect_right(rows, bottom)
            cells += zip(rows[lo:hi], repeat(col), addresses[lo:hi])
        return list(map(itemgetter(2), sorted(cells)))

    def value(self, address: str) -> CellValue:
        from .evaluator import Evaluator

        return Evaluator(self).cell_value("{}{}".format(*parse_address(address)))

    def evaluate_all(self) -> dict[str, CellValue]:
        """Evaluate every populated cell; returns address -> value."""
        from .evaluator import Evaluator

        return Evaluator(self).evaluate_all()


def _numbered(rows: Iterable[list[str]]) -> Iterator[tuple[int, Iterator[tuple[int, str]]]]:
    """(row, (column, text) pairs) for each record with a non-empty field, counting from 1.

    Empty fields are dropped by itertools.compress and empty records by any,
    so no Python code runs for either; a field of only spaces still reaches
    Sheet, which skips it after strip.  Every field read counts toward
    MAX_CELLS, empty or not, so a grid past it stops at the same record.
    """
    scanned = 0
    for row_index, fields in enumerate(rows, start=1):
        scanned += len(fields)
        if scanned > MAX_CELLS:
            raise ValueError(f"workbook exceeds {MAX_CELLS} cells")
        if any(fields):
            yield row_index, compress(enumerate(fields, start=1), fields)


def load_workbook(path: str | os.PathLike, shapes: ShapeCache | None = None) -> Sheet:
    """Load a CSV grid; row 1 is the first CSV record, column A the first field.

    Records are placed as the reader yields them, so only one is held at a
    time, not the whole grid with its empty fields.  Formulas are parsed
    through shapes, a fresh cache when None.
    """
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes
    with open(path, newline="", encoding="utf-8-sig") as handle:
        return Sheet.from_rows(csv.reader(handle), shapes=shapes)
