"""A cell of a recurring shape parses its own tree on first read, evaluation
and the audit read it through its shape's template instead, and the audit sees
each shape once.

Work is counted, not timed: the trees that reading Cell.formula parses (calls
of parse in the sheet module), the trigger walks run_rules makes, and the
scans of a formula's text for its shape key and its references.
"""

import csv
import gc
import importlib.util
import pickle
import sys
from pathlib import Path

import pytest

from ledgerlint import audit
from ledgerlint.audit import RuleConfig, run_rules
from ledgerlint.cli import RULES_ENV_VAR, main
from ledgerlint.formula import Cell, Sheet, parse, shapes
from ledgerlint.formula.ast import format_number, index_to_column

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    """perfbench/workloads.py, the benchmark's seeded workbook generators (stdlib only)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _rows(grid: dict[tuple[int, int], str]):
    """grid ((column, row) -> text) as the (row, [(column, text), ...]) a Sheet places."""
    rows: dict[int, list[tuple[int, str]]] = {}
    for (col, row), text in sorted(grid.items(), key=lambda item: (item[0][1], item[0][0])):
        rows.setdefault(row, []).append((col, text))
    return rows.items()


def _per_cell(grid: dict[tuple[int, int], str]) -> Sheet:
    """The sheet of grid with every formula parsed on its own, sharing nothing."""
    oracle = Sheet(_rows(grid))
    for (col, row), text in grid.items():
        if text.startswith("="):
            address = f"{index_to_column(col)}{row}"
            oracle.cells[address] = Cell(address, formula=parse(text))
    return oracle


@pytest.fixture
def fills(monkeypatch):
    """The texts whose trees reading Cell.formula parses, in order."""
    texts = []

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr("ledgerlint.formula.sheet.parse", counted)
    return texts


@pytest.fixture
def walks(monkeypatch):
    """The formulas run_rules walks for trigger nodes, in order."""
    formulas = []
    walk = audit._trigger_nodes

    def counted(formula):
        formulas.append(formula)
        return walk(formula)

    monkeypatch.setattr(audit, "_trigger_nodes", counted)
    return formulas


PMT_COLUMN = "=PMT(A{r}/12,60,A{r})+$A$1"


def _pmt_column(rows: int) -> Sheet:
    return Sheet((r, [(1, str(r)), (2, PMT_COLUMN.format(r=r))]) for r in range(1, rows + 1))


def test_a_filled_column_fills_no_tree_until_one_is_read(fills):
    sheet = _pmt_column(1000)
    assert fills == []
    assert sheet.cells["B500"].formula == parse(PMT_COLUMN.format(r=500))
    assert fills == [PMT_COLUMN.format(r=500)]


@pytest.mark.parametrize("first", ["read", "evaluate_all", "run_rules"])
def test_a_filled_tree_is_built_once_and_kept(fills, first):
    sheet = _pmt_column(50)
    if first == "evaluate_all":
        sheet.evaluate_all()
    elif first == "run_rules":
        run_rules(sheet)
    trees = {address: cell.formula for address, cell in sheet.cells.items()}
    sheet.evaluate_all()
    run_rules(sheet)
    for r in range(1, 51):
        tree = sheet.cells[f"B{r}"].formula
        assert tree is trees[f"B{r}"]
        assert tree == parse(PMT_COLUMN.format(r=r))
    # B1 is the shape's first formula, parsed; the others are filled once each
    assert sorted(fills) == sorted(PMT_COLUMN.format(r=r) for r in range(2, 51))


def test_a_sheet_of_filled_cells_pickles_as_its_trees():
    sheet = _pmt_column(20)
    copy = pickle.loads(pickle.dumps(sheet))
    assert list(copy.cells.items()) == list(sheet.cells.items())
    assert all(cell.shape is None for cell in copy.cells.values())
    assert copy.evaluate_all() == sheet.evaluate_all()


def test_the_audit_walks_each_shape_once_and_fills_only_what_it_checks(fills, walks):
    book = _load_workloads().loanbook(1, rows=80).books[0]
    expected = run_rules(_per_cell(book.grid))
    walks.clear()
    sheet = Sheet(_rows(book.grid))
    assert run_rules(sheet) == expected
    run_rules(sheet, RuleConfig(enabled=frozenset({"R5"})))
    # the checks read each shape's template, and each cell's references from
    # its text by slot: no cell's own tree is built
    assert fills == []
    shaped = [cell.shape for cell in sheet.cells.values() if cell.shape is not None]
    assert len(shaped) == sum(text.startswith("=") for text in book.grid.values())
    assert len(walks) == len(set(map(id, shaped))) <= 10


def test_evaluation_fills_no_tree_and_a_later_read_fills_once(fills):
    book = _load_workloads().loanbook(1, rows=80).books[0]
    sheet = Sheet(_rows(book.grid))
    assert sheet.evaluate_all() == _per_cell(book.grid).evaluate_all()
    assert fills == []
    texts = {f"{index_to_column(col)}{row}": text for (col, row), text in book.grid.items()}
    trees = {}
    for address, cell in sheet.cells.items():
        if cell.source is not None:
            trees[address] = cell.formula
            assert trees[address] == parse(texts[address])
    assert trees and sorted(fills) == sorted(texts[address] for address in trees)
    assert all(sheet.cells[address].formula is tree for address, tree in trees.items())
    assert len(fills) == len(trees)


@pytest.mark.parametrize(
    "name,size",
    [("loanbook", {"rows": 120}), ("trapmix", {"books": 40}), ("sparse_wide", {"rows": 400})],
    ids=["loanbook", "trapmix", "sparse_wide"],
)
def test_the_audit_and_evaluation_parse_no_cell_s_tree(fills, name, size):
    workload = _load_workloads().GENERATORS[name](7, **size)
    cache = shapes.ShapeCache()  # one for the run, as ledgerlint audit has it
    shared = 0
    for book in workload.books + workload.probe:
        run_rules(Sheet(_rows(book.grid), shapes=cache))
        sheet = Sheet(_rows(book.grid), shapes=cache)
        sheet.evaluate_all()
        shared += sum(cell.source is not None for cell in sheet.cells.values())
    assert shared and fills == []


@pytest.fixture
def scans(monkeypatch):
    """The key scans (shapes._REFS.split) and reference scans (Shape.refs) made."""
    counts = {"key": 0, "refs": 0}
    pattern, refs = shapes._REFS, shapes.Shape.refs

    class CountedPattern:
        def split(self, text):
            counts["key"] += 1
            return pattern.split(text)

    def counted_refs(text):
        counts["refs"] += 1
        return refs(text)

    monkeypatch.setattr(shapes, "_REFS", CountedPattern())
    monkeypatch.setattr(shapes.Shape, "refs", staticmethod(counted_refs))
    return counts


def test_a_formula_is_scanned_once_for_its_key_and_a_shared_cell_once_for_its_references(scans):
    book = _load_workloads().loanbook(7, rows=120).books[0]
    cache = shapes.ShapeCache()
    sheet = Sheet(_rows(book.grid), shapes=cache)
    formulas = sum(text.startswith("=") for text in book.grid.values())
    shared = [cell for cell in sheet.cells.values() if cell.source is not None]
    checked_shapes = sum(shape._first is None for shape in cache._shapes.values())
    assert len(shared) > 0.9 * formulas and checked_shapes <= 10
    # loading scans each formula's key once, and each shape's references once
    # for its template check
    assert scans == {"key": formulas, "refs": checked_shapes}
    scans.update(key=0, refs=0)
    sheet.evaluate_all()
    assert scans == {"key": 0, "refs": len(shared)}
    scans.update(key=0, refs=0)
    run_rules(sheet)
    # a cell with a per-cell check of its shape's plan is checked: its values
    # are cached, so it is scanned once at most, and no other cell is
    checked = sum(any(found is None for *_, found in cell.shape.rules) for cell in shared)
    assert scans["key"] == 0 and 0 < scans["refs"] <= checked


# Each case's formulas share one key and sit in F1, F2, ...; A to E hold
# numbers, dates and two errors for them to read.
SLOT_CASES = {
    "reversed later range": ["=SUM(A1:A5)", "=SUM(A9:A5)", "=SUM(B9:A2)"],
    # the parser normalizes the first range, so the key is unshareable
    "reversed first range": ["=NPV(0.1,A4:A3)", "=NPV(0.1,B5:A3)"],
    "R1 on a reversed range": ["=NPV(0.1,A1:A3)", "=NPV(0.1,B5:A1)", "=NPV(0.1,B2:A1)"],
    "one reference twice": ["=A1+A1", "=B1+C1", "=C2+C2", "=A2+B2"],
    "range as a scalar": ["=A1:A2+1", "=B3:A1+1", "=C1:C1+1"],
    "anchors": ["=$A$1*B2+SUM($A$1:A2)", "=$A$1*B3+SUM($B$5:$A$1)", "=A$1*$B3+SUM(B$5:$A2)"],
    "propagated errors": ["=E1*2+A1", "=E2*2+A2", "=A3*2+E2"],
    "propagated errors in a range": ["=SUM(E2:E3)", "=SUM(E2:A1)"],
    "evidence": [
        "=PMT(B1,12,100)+INTRATE(C1,D1,100,110)+(D1-C1)/360+DB(1000,100,5,1,B3)",
        "=PMT(B2,12,100)+INTRATE(C3,D3,100,110)+(D2-C2)/360+DB(1000,100,5,1,B4)",
        "=PMT(A1,12,100)+INTRATE(D2,C2,100,110)+(C3-D3)/360+DB(1000,100,5,1,A1)",
    ],
}
# the cell each formula's error message ends with
PROPAGATED_FROM = {"propagated errors": ["E1", "E2", "E2"], "propagated errors in a range": ["E2", "E1"]}


def _slot_case(texts: list[str]) -> dict[tuple[int, int], str]:
    grid = {}
    for row in range(1, 10):
        grid[1, row] = str(-100 if row == 1 else 10 * row)
        grid[2, row] = str(row / 20 if row % 2 else row * 7)
        grid[3, row] = f"2020-0{row}-1{row}"
        grid[4, row] = f"202{row}-0{row}-2{row}"
    grid[5, 1], grid[5, 2] = "=1/0", '="x"*1'
    grid.update({(6, row): text for row, text in enumerate(texts, start=1)})
    return grid


@pytest.mark.parametrize("case", SLOT_CASES)
def test_a_shared_shape_reads_each_cell_s_own_references(fills, case):
    texts = SLOT_CASES[case]
    grid = _slot_case(texts)
    sheet, oracle = Sheet(_rows(grid)), _per_cell(grid)
    later = [sheet.cells[f"F{row}"] for row in range(2, len(texts) + 1)]
    assert all((cell.source is not None) == (case != "reversed first range") for cell in later)
    values = sheet.evaluate_all()
    assert values == oracle.evaluate_all()
    findings = run_rules(sheet)
    assert findings == run_rules(oracle)
    assert fills == []
    if case in PROPAGATED_FROM:
        ends = [str(values[f"F{row}"]).split()[-1] for row in range(1, len(texts) + 1)]
        assert ends == PROPAGATED_FROM[case]
    if case == "R1 on a reversed range":
        assert [f.message.split(" starts")[0] for f in findings if f.rule_id == "R1"] == [
            "NPV range A1:A3", "NPV range A1:B5", "NPV range A1:B2",
        ]


def test_a_key_whose_sheets_are_gone_is_parsed_once_more_then_filled(monkeypatch):
    # an audit run drops each sheet before the next but one: a key that comes
    # once per sheet gets its template from the second sheet that has it
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(shapes, "parse", counted)
    cache = shapes.ShapeCache()
    for row in range(1, 7):
        sheet = Sheet([(row, [(1, "0.05"), (2, PMT_COLUMN.format(r=row))])], shapes=cache)
        assert sheet.cells[f"B{row}"].formula == parse(PMT_COLUMN.format(r=row))
        del sheet
        gc.collect()
    assert parsed == [PMT_COLUMN.format(r=1), PMT_COLUMN.format(r=2)]


def _shared_shape_books(cache: shapes.ShapeCache) -> list[tuple[dict, Sheet]]:
    """Three books whose formulas share shapes with R2, R6 and R7 verdicts."""
    templates = [
        "=PMT(A{r}/12,60,B{r})",  # R2, and R5 per cell
        "=A{r}+1/1/80",  # R6
        "=DAYS360(C{r},D{r})",  # R7
        "=DAYS360(C{r},D{r},1)",  # nothing
        "=NPV(A{r}/12,B{r}:B{s})+B{r}",  # R2, and R1 per cell
        "=-PMT(A{r}/12,B{r},3)*(4/1/1999)",  # R2 and R6 in one formula
    ]
    books = []
    for offset in (1, 7, 40):
        grid = {}
        for r in range(offset, offset + 6):
            grid[1, r] = "0.05" if r % 3 else "5"
            grid[2, r] = str(-r if r % 2 else r)
            grid[3, r], grid[4, r] = "2024-01-31", "2025-03-01"
            for col, template in enumerate(templates, start=5):
                grid[col, r] = template.format(r=r, s=r + 2)
        books.append((grid, Sheet(_rows(grid), shapes=cache)))
    return books


@pytest.mark.parametrize(
    "enabled", [None, {"R2"}, {"R6"}, {"R7"}, {"R2", "R5", "R7"}, {"R1", "R6"}]
)
def test_per_shape_findings_equal_a_per_cell_audit_across_sheets(walks, enabled):
    cache = shapes.ShapeCache()
    books = _shared_shape_books(cache)
    config = RuleConfig() if enabled is None else RuleConfig(enabled=frozenset(enabled))
    for grid, sheet in books:
        findings = run_rules(sheet, config)
        assert findings == run_rules(_per_cell(grid), config)
        if enabled is None:
            assert {f.rule_id for f in findings} >= {"R2", "R6", "R7"}
    (_, first), (_, last) = books[0], books[-1]
    assert first.cells["E1"].shape is last.cells["E40"].shape
    # the per-cell oracles walk their 36 formulas each; the shared sheets, each shape once
    assert len(walks) == len(books) * 36 + 6


@pytest.mark.parametrize(
    "template,step,cells",
    [("=A{n}+1", lambda v: v + 1, 5000), ("=SUM(A{n},2)-1", lambda v: v + 1, 5000)],
    ids=["reference", "sum"],
)
def test_a_downward_chain_of_one_shape_evaluates_and_audits(
    tmp_path, capsys, monkeypatch, template, step, cells
):
    # each cell of the shape is read through its template's kernel, from a
    # chain far deeper than the interpreter's recursion limit
    monkeypatch.delenv(RULES_ENV_VAR, raising=False)
    # A1:A{cells} each read the cell below, down to a 1; B1's rate reads A1
    rows = [[template.format(n=r + 1)] for r in range(1, cells + 1)] + [["1"]]
    rows[0].append("=PMT(A1/100,12,100)")
    top = 1.0
    for _ in range(cells):
        top = step(top)
    sheet = Sheet.from_rows(rows)
    assert sheet.cells["A2"].shape is sheet.cells[f"A{cells}"].shape
    assert sheet.evaluate_all()["A1"] == top
    path = tmp_path / "chain.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    assert main(["audit", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:B1 R5 error rate argument of PMT resolves to {format_number(top / 100)};" in out
