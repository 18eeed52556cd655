"""An audit plan holds what a shape's template alone decides.

run_rules keeps, per shape, a plan of the template's trigger nodes.  A rule's
gate, which reads only the node, runs there once (R1's call form, R8's
divisor), and a rule that reads a call's arguments (R3, R4, R5) keeps readers
of them, compiled once from the template with the shape's slots by the
kernels' own step builder.  Every cell with a shape, the first of its key too,
is read through them.  Work is counted, not timed: the evaluator's catalog
lookups (_function) and argument decisions (_argument), and the calls of
Evaluator.argument, the read path of a formula with no shape.  Every reader is
compared with Evaluator.argument, which reads the same template for the same
cell.
"""

import collections

import pytest
from workbooks import grid_rows, load_workloads, per_cell

import ledgerlint.formula.evaluator as evaluator
from ledgerlint.audit import run_rules
from ledgerlint.daycount import DayCountBasis
from ledgerlint.formula import ErrorKind, ErrorValue, Sheet, shapes
from ledgerlint.formula.evaluator import Evaluator

READING = ("R3", "R4", "R5")  # the rules whose checks read a call's arguments


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
    book = load_workloads().loanbook(1, rows=80).books[0]
    expected = run_rules(Sheet(grid_rows(book.grid)))  # builds each shape's plan and kernel
    sheet = Sheet(grid_rows(book.grid))
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
    [(_, _, readers, found)] = [entry for entry in pmt.rules if entry[0].rule_id == "R5"]
    assert len(readers) == 1 and found is None


@pytest.mark.parametrize("name", ["loanbook", "trapmix"])
def test_a_cold_audit_reads_every_argument_through_a_plan_s_readers(name, monkeypatch):
    """No benchmark book has a formula without a shape, so an audit from an
    empty table never falls back to Evaluator.argument, not even for the first
    cell of a key."""
    calls = collections.Counter()
    argument = Evaluator.argument

    def counted(self, node, index, at=None):
        calls[node.name] += 1
        return argument(self, node, index, at)

    monkeypatch.setattr(Evaluator, "argument", counted)
    workload = load_workloads().GENERATORS[name](5)
    planned = set()
    for book in workload.books + workload.probe:
        sheet = Sheet(grid_rows(book.grid))
        run_rules(sheet)
        for cell in sheet.cells.values():
            assert (cell.shape is None) == (cell.source is None and cell._formula is None)
            if cell.shape is not None:
                planned.update(spec.rule_id for spec, *_ in cell.shape.rules)
    assert calls == {}
    assert planned & set(READING) == ({"R5"} if name == "loanbook" else set(READING))


def _reads(values: Evaluator, cell, readers) -> list:
    """What readers, of cell's shape's plan, read for cell."""
    return [read(values, cell.shape.refs(cell.source)) for read in readers]


def _compare_reads(sheet: Sheet, oracle: Sheet, counts: collections.Counter) -> None:
    """Each R3, R4 and R5 entry's readers over sheet against Evaluator.argument
    over oracle, the same book loaded again, for the same template and cell."""
    values, argument = Evaluator(sheet), Evaluator(oracle)
    for address, cell in sheet.cells.items():
        shape = cell.shape
        if shape is None or shape.rules is None:
            continue
        assert oracle.cells[address].source == cell.source
        at = shape.refs(cell.source), shape.slots
        for spec, node, readers, _ in shape.rules:
            if spec.rule_id not in READING:
                continue
            want = [argument.argument(node, index, at) for index in spec.arguments[node.name]]
            assert list(map(repr, _reads(values, cell, readers))) == list(map(repr, want)), (
                address, spec.rule_id)
            counts[spec.rule_id, type(shape).__name__] += 1


@pytest.mark.parametrize("name", ["loanbook", "trapmix"])
def test_a_plan_s_reader_reads_as_evaluator_argument(name):
    workload = load_workloads().GENERATORS[name](1)
    books = workload.books + workload.probe
    for book in books:  # every key gets its template and its plan
        run_rules(Sheet(grid_rows(book.grid)))
    counts = collections.Counter()
    for book in books:
        _compare_reads(Sheet(grid_rows(book.grid)), Sheet(grid_rows(book.grid)), counts)
    assert {rule for rule, _ in counts} == ({"R5"} if name == "loanbook" else set(READING))


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
    sheet = Sheet(grid_rows(grid))
    assert run_rules(sheet) == run_rules(per_cell(grid))
    # the oracle is loaded as the sheet was, from an empty table: a second
    # load would parse the keys that the sheet read through a slot key
    sheet._values.clear()
    shapes._table.clear()
    counts = collections.Counter()
    _compare_reads(sheet, Sheet(grid_rows(grid)), counts)
    # every row's cell, the first of each key too, is read through a template
    assert counts["R5", "SlotShape"] == 5 and counts["R4", "Shape"] == 18
    values = Evaluator(sheet)

    def reads(address: str, rule_id: str) -> list:
        cell = sheet.cells[address]
        [readers] = [readers for spec, _, readers, _ in cell.shape.rules if spec.rule_id == rule_id]
        return _reads(values, cell, readers)

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
    sheets = [Sheet(grid_rows(grid)) for grid in grids]
    findings = [run_rules(sheet) for sheet in sheets]
    assert findings == [run_rules(per_cell(grid)) for grid in grids]
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
    findings = [run_rules(Sheet(grid_rows(grid))) for grid in grids]
    assert findings == [run_rules(per_cell(grid)) for grid in grids]
    fired = [f.cell for found in findings for f in found if f.rule_id == "R1"]
    assert fired == ["C1", "C3", "C21", "C23"]
