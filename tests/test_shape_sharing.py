"""A sheet parses each relative shape once and fills in each cell's references.

Every test compares a sheet with an oracle placed from the same cells, whose
formula cells are each parsed on their own by parse(): the trees or parse
error messages, the evaluate_all values and the run_rules findings must be
the same, in the same order.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from ledgerlint.audit import run_rules
from ledgerlint.formula import (
    Cell,
    ErrorKind,
    ErrorValue,
    ParseError,
    Sheet,
    TokenKind,
    parse,
    tokenize,
)
from ledgerlint.formula import shapes
from ledgerlint.formula.ast import column_to_index, index_to_column

ROOT = Path(__file__).resolve().parent.parent
CORPUS = [
    json.loads(line)["formula"]
    for line in (ROOT / "tests" / "fixtures" / "front_end.jsonl").read_text("utf-8").splitlines()
]


def _load_workloads():
    """perfbench/workloads.py, the benchmark's seeded workbook generators (stdlib only)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sheets(grid: dict[tuple[int, int], str]) -> tuple[Sheet, Sheet]:
    """The sheet of grid ((column, row) -> text) and its per-cell parse oracle."""
    rows: dict[int, list[tuple[int, str]]] = {}
    for (col, row), text in sorted(grid.items(), key=lambda item: (item[0][1], item[0][0])):
        rows.setdefault(row, []).append((col, text))
    sheet, oracle = Sheet(rows.items()), Sheet(rows.items())
    for (col, row), raw in grid.items():
        text = raw.strip()
        if text.startswith("="):
            address = f"{index_to_column(col)}{row}"
            try:
                oracle.cells[address] = Cell(address, formula=parse(text))
            except ParseError as exc:
                oracle.cells[address] = Cell(address, error=ErrorValue(ErrorKind.PARSE, str(exc)))
    return sheet, oracle


def assert_as_parsed_per_cell(grid: dict[tuple[int, int], str]) -> Sheet:
    sheet, oracle = _sheets(grid)
    assert list(sheet.cells.items()) == list(oracle.cells.items())
    # repr, so that nan values compare equal
    assert repr(list(sheet.evaluate_all().items())) == repr(list(oracle.evaluate_all().items()))
    assert run_rules(sheet) == run_rules(oracle)
    return sheet


def filled(text: str, d_col: int, d_row: int) -> str | None:
    """text as filling it d_col columns right and d_row rows down writes it:
    each reference token moves unless '$' anchors it, the rest stays as it is.
    None when a reference would leave the sheet; text itself when it does not lex.
    """
    try:
        tokens = tokenize(text)
    except ParseError:
        return text
    pieces, last = [], 0
    for token in tokens:
        if token.kind is not TokenKind.REF:
            continue
        ref = parse("=" + token.text)
        col = column_to_index(ref.column) + (0 if ref.column_absolute else d_col)
        row = ref.row + (0 if ref.row_absolute else d_row)
        if not (1 <= col <= column_to_index("ZZZ") and row >= 1):
            return None
        column_anchor = "$" if ref.column_absolute else ""
        row_anchor = "$" if ref.row_absolute else ""
        pieces += [text[last:token.pos], f"{column_anchor}{index_to_column(col)}{row_anchor}{row}"]
        last = token.pos + len(token.text)
    return "".join(pieces) + text[last:]


def fill_region(grid, text, col, row, moves):
    """Place text at (col, row) and its fills at each (d_col, d_row) of moves, on free cells."""
    for d_col, d_row in [(0, 0), *moves]:
        copy = filled(text, d_col, d_row)
        if copy is not None and (col + d_col, row + d_row) not in grid:
            grid[col + d_col, row + d_row] = copy


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_golden_corpus_at_random_hosts(seed):
    rng = random.Random(seed)
    grid = {}
    # literals where the corpus mostly points, so most references read values
    for col in range(1, 7):
        for row in range(1, 31):
            grid[col, row] = rng.choice(
                [str(rng.randint(-50, 500)), repr(round(rng.uniform(0, 1), 4)), "2024-03-01", "x"]
            )
    for text in CORPUS:
        moves = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)]
        fill_region(grid, text, rng.randint(8, 60), rng.randint(1, 3000), moves)
    assert_as_parsed_per_cell(grid)


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_books(seed):
    workloads = _load_workloads()
    loanbook = workloads.loanbook(seed, rows=80)
    trapmix = workloads.trapmix(seed, books=40)
    books = loanbook.books + trapmix.books + trapmix.probe
    assert any(book.anchored for book in books)
    for book in books:
        assert_as_parsed_per_cell(book.grid)


EDGE_CASES = [
    '="A1"&A1',  # a reference inside a string stays text
    '=A1&"$B$2 ""C3"""',
    "=LOG10(A1)+ATAN2(B1,1)",  # call names that look like references
    "=A1*1E5+2.5e-3",  # exponents that look like references
    "=a1+b2*Ab3",  # lower-case references
    "=SUM(B5:A1)",  # a reversed range
    "=SUM(A1:B5)+NPV(0.1,$A1:B$5)",
    "=$A1+A$1+$A$1+A1",  # mixed anchors
    "=SUM($B$1:$A$3)+SUM($C1:A$1)",
    "=PMT($A$1/12,60,10000)",
    "=A1 B1",  # unparsable: each cell's message names its own token
    "=A1+",
    "=B1+#",
    "=A1B1",
    "=1",  # no references
    '=" spaces  "&A1',
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_filled_down_and_across(text):
    grid = {(col, row): str(col * 10 + row) for col in range(1, 4) for row in range(1, 6)}
    moves = [(0, d) for d in range(1, 8)] + [(d, 0) for d in range(1, 4)] + [(2, 5), (3, 1)]
    fill_region(grid, text, 5, 2, moves)
    assert_as_parsed_per_cell(grid)


@pytest.mark.parametrize(
    "template",
    [
        '="A{r}"&A{r}',  # the text in the string moves with the cell too
        '="$A${r} ""A{r}"""&$A${r}',
        "=A{r}*1E{r}",
        "=A{r}*1.E{r}+.5e{r}",
        "=SUM(A{r}:B{r}0)-SUM(B{r}:A{r})",
    ],
)
def test_reference_lookalikes_that_move_with_the_cell(template):
    grid = {(1, row): str(row) for row in range(1, 10)}
    grid.update({(3, row): template.format(r=row) for row in range(1, 10)})
    assert_as_parsed_per_cell(grid)


def test_repeated_unparsable_formulas_keep_their_own_messages():
    grid = {}
    fill_region(grid, "=A1 B1", 2, 1, [(0, 1), (0, 2)])
    sheet = assert_as_parsed_per_cell(grid)
    messages = [sheet.cells[address].error.message for address in ("B1", "B2", "B3")]
    assert messages == [f"unexpected token 'B{row}' at column 4" for row in (1, 2, 3)]


def test_a_filled_column_parses_once(monkeypatch):
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(shapes, "parse", counted)
    sheet = Sheet((row, [(2, f"=PMT(AB{row}/12,60,C{row})+$A$1")]) for row in range(1, 101))
    assert parsed == ["=PMT(AB1/12,60,C1)+$A$1"]
    # the cells after the first are filled, and their references share column strings
    second = sheet.cells["B2"].formula.left.args[0].left
    last = sheet.cells["B100"].formula.left.args[0].left
    assert (second.column, second.row, last.row) == ("AB", 2, 100)
    assert second.column is last.column
