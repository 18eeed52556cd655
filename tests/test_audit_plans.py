"""An audit plan holds what a shape's template alone decides.

run_rules keeps, per shape, a plan of the template's trigger nodes.  A rule's
gate, which reads only the node, runs there once (R1's call form, R8's
divisor), and a rule that reads a call's arguments (R3, R4, R5) keeps a reader
of them, compiled once from the template with the shape's slots by the
kernels' own step builder.  Work is counted, not timed: the evaluator's
catalog lookups (_function) and argument decisions (_argument).  Every reader
is compared with Evaluator.argument, which reads the same template for the
same cell.
"""

import collections
import importlib.util
import sys
from pathlib import Path

import pytest

import ledgerlint.formula.evaluator as evaluator
from ledgerlint.audit import run_rules
from ledgerlint.daycount import DayCountBasis
from ledgerlint.formula import Cell, ErrorKind, ErrorValue, Sheet, parse, shapes
from ledgerlint.formula.ast import index_to_column
from ledgerlint.formula.evaluator import Evaluator

ROOT = Path(__file__).resolve().parent.parent
READING = ("R3", "R4", "R5")  # the rules whose checks read a call's arguments


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
def decisions(monkeypatch):
    """Calls of the evaluator's catalog lookup and argument decision, by name."""
    calls = collections.Counter()
    for name in ("_function", "_argument"):
        def counted(*args, _name=name, _original=getattr(evaluator, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(evaluator, name, counted)
    return calls


def test_a_warm_audit_makes_no_catalog_lookup_and_no_argument_decision(decisions):
    book = _load_workloads().loanbook(1, rows=80).books[0]
    expected = run_rules(Sheet(_rows(book.grid)))  # builds each shape's plan and kernel
    sheet = Sheet(_rows(book.grid))
    formulas = [cell for cell in sheet.cells.values() if cell.shape is not None]
    assert formulas and all(cell.source is not None for cell in formulas)
    decisions.clear()
    assert run_rules(sheet) == expected
    assert decisions == {}
    # the gate leaves out R8 wherever the divisor is no literal 360: B/12 in
    # PMT's rate, C*B/12 and (B-K)/K
    divisions = {id(cell.shape): cell.shape for cell in formulas if "/" in cell.source}
    assert len(divisions) == 3
    for shape in divisions.values():
        assert shape.rules is not None
        assert "R8" not in {spec.rule_id for spec, *_ in shape.rules}
    pmt = sheet.cells["E2"].shape
    [(_, _, read, found)] = [entry for entry in pmt.rules if entry[0].rule_id == "R5"]
    assert read is not None and found is None


def _compare_reads(sheet: Sheet, oracle: Sheet, counts: collections.Counter) -> None:
    """Each R3, R4 and R5 entry's reader over sheet against Evaluator.argument
    over oracle, the same book loaded again, for the same template and cell."""
    values, argument = Evaluator(sheet), Evaluator(oracle)
    for address, cell in sheet.cells.items():
        shape = cell.shape
        if shape is None or shape.rules is None:
            continue
        assert oracle.cells[address].source == cell.source
        at = None if cell.source is None else (shape.refs(cell.source), shape.slots)
        for spec, node, read, _ in shape.rules:
            if spec.rule_id not in READING:
                continue
            got = read(values, at)
            want = [argument.argument(node, index, at) for index in spec.arguments(node)]
            assert list(map(repr, got)) == list(map(repr, want)), (address, spec.rule_id)
            counts[spec.rule_id, at is not None, type(shape).__name__] += 1


@pytest.mark.parametrize("name", ["loanbook", "trapmix"])
def test_a_plan_s_reader_reads_as_evaluator_argument(name):
    workload = _load_workloads().GENERATORS[name](1)
    books = workload.books + workload.probe
    for book in books:  # every key gets its template and its plan
        run_rules(Sheet(_rows(book.grid)))
    counts = collections.Counter()
    for book in books:
        _compare_reads(Sheet(_rows(book.grid)), Sheet(_rows(book.grid)), counts)
    through_templates = {rule for rule, at, _ in counts if at}
    assert through_templates == ({"R5"} if name == "loanbook" else set(READING))


# Rows r = 1..6: A a rate, B a period count, C and D dates, E an error,
# F text; G.. the formulas.  The PMT divisor differs per row, so from row 2 on
# each PMT text is a new reference key read through its slot key's template.
EDGE_FORMULAS = [
    "=DB(1000,100,5,B{r})",  # month omitted: 12
    "=DB(1000,100,5,B{r},)",  # month an empty slot: 12
    "=INTRATE(C{r},D{r},100,110)",  # basis omitted: US 30/360
    "=PMT(A{r},12)",  # too few arguments
    "=DB(1000,100,5,1,B{r},2)",  # too many
    "=PMT(E{r},12,100)",  # an error argument
    "=PMT(F{r},12,100)",  # a text rate
    "=PMT(A{r}:A{s},12,100)",  # a range rate
    "=INTRATE(C{r},D{r},100,110,E{r})",  # an error basis
    "=PMT(A{r}/{n},60,B{r})",  # SlotShape cells
]


def _edge_grid() -> dict[tuple[int, int], str]:
    grid = {}
    for r in range(1, 7):
        grid.update({(1, r): "5" if r % 2 else "0.05", (2, r): str(r), (3, r): "2024-01-31",
                     (4, r): "2027-03-01", (5, r): "=1/0", (6, r): "rate"})
        for col, template in enumerate(EDGE_FORMULAS, start=7):
            grid[col, r] = template.format(r=r, s=r + 1, n=(12, 100, 4, 2, 1, 0.5)[r - 1])
    return grid


def test_readers_of_defaults_errors_wrong_counts_and_slot_shapes():
    grid = _edge_grid()
    sheet = Sheet(_rows(grid))
    assert run_rules(sheet) == run_rules(_per_cell(grid))
    # the oracle is loaded as the sheet was, from an empty table: a second
    # load would parse the keys that the sheet read through a slot key
    sheet._values.clear()
    shapes._table.clear()
    counts = collections.Counter()
    _compare_reads(sheet, Sheet(_rows(grid)), counts)
    assert counts["R5", True, "SlotShape"] == 5 and counts["R4", True, "Shape"] == 15
    values = Evaluator(sheet)

    def reads(address: str, rule_id: str) -> list:
        cell = sheet.cells[address]
        shape = cell.shape
        [read] = [read for spec, _, read, _ in shape.rules if spec.rule_id == rule_id]
        return read(values, (shape.refs(cell.source), shape.slots))

    assert reads("G2", "R4") == reads("H2", "R4") == [12]
    assert reads("I2", "R3")[2] is DayCountBasis.US_30_360
    wrong_count = ErrorValue(ErrorKind.ARGUMENT, "PMT takes 3 to 3 arguments, got 2")
    assert reads("J2", "R5") == [wrong_count]
    assert reads("K2", "R4") == [ErrorValue(ErrorKind.ARGUMENT, "DB takes 4 to 5 arguments, got 6")]
    assert reads("L2", "R5") == [ErrorValue(ErrorKind.PROPAGATED, "error propagated from E2")]
    assert reads("M2", "R5")[0].kind is ErrorKind.ARGUMENT
    assert reads("N2", "R5") == [ErrorValue(ErrorKind.ARGUMENT, "PMT: 'rate' cannot be a range")]
    assert reads("O2", "R3")[2] == ErrorValue(ErrorKind.PROPAGATED, "error propagated from E2")
    # a SlotShape cell reads its own divisor: 0.05/100, not the template's 12
    assert type(sheet.cells["P2"].shape) is shapes.SlotShape
    assert reads("P2", "R5") == [0.05 / 100]


@pytest.mark.parametrize("first,other", [(360, 365), (365, 360)])
def test_r8_fires_on_360_alone_when_360_and_365_share_a_slot_key(first, other):
    books = [(1, [first] * 3), (10, [other, other, first, other])]
    grids = []
    for offset, divisors in books:
        grid = {}
        for r, divisor in enumerate(divisors, start=offset):
            grid.update({(1, r): "2024-01-31", (2, r): "2025-03-01",
                         (3, r): f"=(B{r}-A{r})/{divisor}"})
        grids.append(grid)
    sheets = [Sheet(_rows(grid)) for grid in grids]
    findings = [run_rules(sheet) for sheet in sheets]
    assert findings == [run_rules(_per_cell(grid)) for grid in grids]
    fired = [f.cell for found in findings for f in found if f.rule_id == "R8"]
    assert fired == [f"C{r}" for offset, divisors in books
                     for r, divisor in enumerate(divisors, start=offset) if divisor == 360]
    second = sheets[1].cells
    # C10's divisor is read through the template of the first book's divisor
    slot = second["C10"].shape
    assert type(slot) is shapes.SlotShape and slot.template is sheets[0].cells["C1"].formula
    assert [spec.rule_id for spec, *_ in slot.rules] == ["R6", "R8"]
    # a reference key's own template: the gate leaves R8 out unless it divides by 360
    for address in ("C1", "C11"):
        shape = sheets[0 if address == "C1" else 1].cells[address].shape
        divisor = shape.template.right.value
        assert [spec.rule_id for spec, *_ in shape.rules] == (["R8"] if divisor == 360 else [])


def test_r1_keeps_its_additive_verdicts_across_slot_keys():
    grids = []
    for offset, rate in ((1, "0.1"), (20, "0.07")):
        grid = {}
        for r in range(offset, offset + 4):
            grid[1, r] = str(-100 * r) if r % 2 else str(50 * r)
            grid[2, r] = f"=NPV({rate},A{r}:A{r + 2})+{r}"  # the period-0 flow outside
            grid[3, r] = f"=NPV({rate},A{r}:A{r + 2})"
        grids.append(grid)
    findings = [run_rules(Sheet(_rows(grid))) for grid in grids]
    assert findings == [run_rules(_per_cell(grid)) for grid in grids]
    fired = [f.cell for found in findings for f in found if f.rule_id == "R1"]
    assert fired == ["C1", "C3", "C21", "C23"]
