"""Workbooks for the tests: the benchmark's generated books, grids placed as a
Sheet places them, and per-cell oracle sheets that share no template."""

import importlib.util
import sys
from pathlib import Path

from ledgerlint.formula import Cell, ErrorKind, ErrorValue, ParseError, Sheet, parse
from ledgerlint.formula.ast import index_to_column

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """perfbench/workloads.py, the benchmark's seeded workbook generators (stdlib only)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def grid_rows(grid: dict[tuple[int, int], str]):
    """grid ((column, row) -> text) as the (row, [(column, text), ...]) a Sheet places."""
    rows: dict[int, list[tuple[int, str]]] = {}
    for (col, row), text in sorted(grid.items(), key=lambda item: (item[0][1], item[0][0])):
        rows.setdefault(row, []).append((col, text))
    return rows.items()


def assert_read_through_templates(sheet: Sheet) -> None:
    """A cell has a shape exactly when it is read through the shape's
    template: then it keeps its text, and the shape has a template."""
    for cell in sheet.cells.values():
        assert (cell.shape is None) == (cell.source is None), cell
        assert cell.shape is None or cell.shape.template is not None, cell


def per_cell(grid: dict[tuple[int, int], str]) -> Sheet:
    """The sheet of grid with every formula parsed on its own, sharing nothing:
    each formula cell is its own tree, with no shape, or a PARSE cell."""
    oracle = Sheet(grid_rows(grid))
    for (col, row), text in grid.items():
        text = text.strip()
        if text.startswith("="):
            address = f"{index_to_column(col)}{row}"
            try:
                oracle.cells[address] = Cell(address, formula=parse(text))
            except ParseError as exc:
                oracle.cells[address] = Cell(address, error=ErrorValue(ErrorKind.PARSE, str(exc)))
    return oracle
