"""Evaluation by one loop over an explicit stack, with no recursion from cell to cell, and shared
shapes run as compiled kernels.

The recursive evaluator that the loop replaced is kept here (Recursive) as
the oracle, for sheets small enough for it: the loop must match it on
values, on messages (cycle paths and propagated sources included) and on the
order in which formulas are first evaluated.  Long chains, past any
recursion limit, must evaluate and audit.  Work is counted, not timed.
"""

import collections
import csv
import datetime as dt
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sheet_strategies import sheets

from ledgerlint import audit
from ledgerlint.audit import run_rules
from ledgerlint.cli import RULES_ENV_VAR, main
from ledgerlint.formula import ErrorKind, ErrorValue, Sheet, evaluator, shapes
from ledgerlint.formula.ast import CellRef, format_number
from ledgerlint.formula.evaluator import Evaluator, _propagated, _type_name

SRC = Path(__file__).resolve().parent.parent / "src"


class Recursive(Evaluator):
    """The evaluator before the explicit stack: a read of a formula not yet evaluated
    evaluates it there and then, recursing through the tree of each formula
    it reads, and a range is read cell by cell unless all its cells hold
    numbers.  Kernels are never used."""

    def evaluate_all(self):
        return {address: self.cell_value(address) for address in self.sheet.cells}

    def cell_value(self, address):
        value = self.cache.get(address)
        if value is not None:
            return value
        cell = self.sheet.cells.get(address)
        if cell is None:
            return 0.0
        if cell.error is not None:
            self.cache[address] = cell.error
            return cell.error
        if cell.source is None and cell.formula is None:
            self.cache[address] = cell.literal
            return cell.literal
        if address in self.stack:
            members = list(self.stack)
            members = members[members.index(address):]
            path = " -> ".join(members + [address])
            error = ErrorValue(ErrorKind.CYCLE, f"circular reference: {path}")
            for member in members:
                self.cache[member] = error
            return error
        self.stack[address] = None
        bound = self._refs, self._slots
        try:
            result = self.eval_node(self.bind(cell))
        finally:
            del self.stack[address]
            self._refs, self._slots = bound
        marked = self.cache.get(address)
        if marked is not None:
            return marked
        self.cache[address] = result
        return result

    def eval_node(self, node):
        if type(node) is CellRef:
            address = self.ref(node)
            value = self.cell_value(address)
            return _propagated(address) if isinstance(value, ErrorValue) else value
        return super().eval_node(node)

    def _numbers(self, nodes, fname, strict, kind=float, noun="number"):
        values = []
        for node in nodes:
            if isinstance(node, evaluator.EmptyArg):
                return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: empty argument slot")
            if isinstance(node, evaluator.RangeRef):
                addresses = self.sheet.range_addresses(self.ref(node))
                literals = (self.sheet.cells[address].literal for address in addresses)
                known = list(map(self.cache.get, addresses, literals))
                if kind is float and {*map(type, known)} <= {float}:
                    values += known  # a range of numbers, literals or cached, is taken whole
                    continue
                for address in addresses:
                    value = self.cell_value(address)
                    if isinstance(value, ErrorValue):
                        return ErrorValue(ErrorKind.PROPAGATED, f"{fname}: error propagated from {address}")
                    if isinstance(value, kind):
                        values.append(value)
                    elif strict:
                        return ErrorValue(
                            ErrorKind.ARGUMENT,
                            f"{fname}: {address} holds {_type_name(value)}, expected a {noun}",
                        )
                continue
            value = self.eval_node(node)
            if isinstance(value, ErrorValue):
                return value
            if not isinstance(value, float):
                return ErrorValue(
                    ErrorKind.ARGUMENT, f"{fname}: values must be numbers, got {_type_name(value)}"
                )
            values.append(value)
        return values


def _write(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    return path


# the books that broke evaluation's recursion: a running balance read from
# its far end by an NPV above it, and a chain running down from an NPV's rate
REPROS = {
    "running balance": [["1", "=NPV(A400/1000,1,2)"]] + [[f"=A{r - 1}+1"] for r in range(2, 402)],
    "chain down": [[f"=A{r + 1}+1"] for r in range(1, 401)] + [["1"]],
}
REPROS["chain down"][0].append("=NPV(A2/1000,1,2)")


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("name", REPROS)
def test_the_recursion_repros_audit_with_no_traceback(tmp_path, name, fmt):
    path = _write(tmp_path / "book.csv", REPROS[name])
    run = subprocess.run(
        [sys.executable, "-m", "ledgerlint.cli", "audit", "--format", fmt, str(path)],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
    )
    # the rate is 0.4 and the NPV reads no range: nothing to report
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


@pytest.mark.parametrize("name", REPROS)
def test_the_recursion_repros_evaluate(name):
    values = Sheet.from_rows(REPROS[name]).evaluate_all()
    assert values["A400"] == (400.0 if name == "running balance" else 2.0)
    assert values["B1"] == pytest.approx(1 / 1.4 + 2 / 1.4**2)  # a rate of 0.4 either way


CHAIN_ROWS = 100_000


@pytest.mark.parametrize("direction", ["down", "up"])
def test_a_100k_row_chain_evaluates_and_audits(tmp_path, capsys, monkeypatch, direction):
    monkeypatch.delenv(RULES_ENV_VAR, raising=False)
    n = CHAIN_ROWS
    if direction == "down":  # A1 reads A2, ..., A{n} reads the 1 in A{n+1}; B1 reads A1
        rows = [[f"=A{r + 1}+1"] for r in range(1, n + 1)] + [["1"]]
        far = "A1"
    else:  # A{r} reads A{r-1}, down from the 1 in A1; B1 reads A{n+1}
        rows = [["1"]] + [[f"=A{r - 1}+1"] for r in range(2, n + 2)]
        far = f"A{n + 1}"
    rows[0].append(f"=PMT({far}/100,12,100)")
    values = Sheet.from_rows(rows).evaluate_all()
    assert values[far] == n + 1.0
    assert Sheet.from_rows(rows).value(far) == n + 1.0
    path = _write(tmp_path / "chain.csv", rows)
    assert main(["audit", str(path)]) == 1
    rate = format_number((n + 1) / 100)
    assert f"{path}:B1 R5 error rate argument of PMT resolves to {rate};" in capsys.readouterr().out


def _evaluated(sheet):
    """The cache in the order formulas and literals were first read, with messages."""
    return [(address, repr(value)) for address, value in sheet._values.items()]


@settings(max_examples=300, deadline=None)
@given(sheets(max_rows=30, max_cols=3))
def test_the_explicit_stack_matches_the_recursive_evaluator(rows):
    results = []
    for kind in (Evaluator, Recursive):
        sheet = Sheet.from_rows(rows)
        values = kind(sheet).evaluate_all()
        results.append(([repr(v) for v in values.values()], _evaluated(sheet)))
    assert results[0] == results[1]


@settings(max_examples=200, deadline=None)
@given(sheets(max_rows=30, max_cols=3), st.randoms(use_true_random=False))
def test_reads_from_outside_a_formula_match_the_recursive_evaluator(rows, rng):
    """cell_value from outside, in any order, as the audit's checks and
    Sheet.value call it: cycle paths start where the first read entered."""
    results = []
    order = None
    for kind in (Evaluator, Recursive):
        sheet = Sheet.from_rows(rows)
        if order is None:
            order = list(sheet.cells)
            rng.shuffle(order)
        values = kind(sheet)
        results.append(([repr(values.cell_value(a)) for a in order], _evaluated(sheet)))
    assert results[0] == results[1]


@settings(max_examples=150, deadline=None)
@given(sheets(max_rows=30, max_cols=3))
def test_the_audit_matches_the_recursive_evaluator(rows):
    results = []
    for kind in (Evaluator, Recursive):
        sheet = Sheet.from_rows(rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(audit, "Evaluator", kind)
            findings = run_rules(sheet)
        results.append((findings, _evaluated(sheet)))
    assert results[0] == results[1]


@settings(max_examples=100, deadline=None)
@given(sheets(max_rows=300, max_cols=4))
def test_a_kernel_equals_eval_node_over_its_template(rows):
    cache = shapes.ShapeCache()
    sheet = Sheet.from_rows(rows, shapes=cache)
    sheet.evaluate_all()  # every value cached, so neither side reads a formula not yet evaluated
    values = Evaluator(sheet)
    for cell in sheet.cells.values():
        if cell.source is None:
            continue
        shape = cell.shape
        kernel = shape.kernel or evaluator._build_kernel(shape)
        compiled = kernel(values, shape.refs(cell.source))
        assert repr(compiled) == repr(values.eval_node(values.bind(cell))), cell.source


@settings(max_examples=25, deadline=None)
@given(sheets(min_rows=1200, max_rows=3000, max_cols=2))
def test_evaluation_and_the_audit_are_total_on_long_sheets(rows):
    values = Sheet.from_rows(rows).evaluate_all()
    for value in values.values():
        assert isinstance(value, (str, dt.date, ErrorValue)) or (
            isinstance(value, float) and math.isfinite(value)
        )
    run_rules(Sheet.from_rows(rows))


@pytest.fixture
def entries(monkeypatch):
    """Kernel, eval_node and cell_value entries, counted."""
    counts = collections.Counter()
    eval_node, cell_value, build = Evaluator.eval_node, Evaluator.cell_value, evaluator._build_kernel

    def counted_eval_node(self, node):
        counts["eval_node"] += 1
        return eval_node(self, node)

    def counted_cell_value(self, address):
        counts["cell_value"] += 1
        return cell_value(self, address)

    def counted_build(shape):
        kernel = build(shape)

        def counted_kernel(values, refs):
            counts["kernel"] += 1
            return kernel(values, refs)

        shape.kernel = counted_kernel
        return counted_kernel

    monkeypatch.setattr(Evaluator, "eval_node", counted_eval_node)
    monkeypatch.setattr(Evaluator, "cell_value", counted_cell_value)
    monkeypatch.setattr(evaluator, "_build_kernel", counted_build)
    return counts


def _total_over_formulas(n):
    """A1 totals A2:A{n+1}, n formulas that each read a literal beside them."""
    return [[f"=SUM(A2:A{n + 1})"]] + [[f"=B{r}*2", str(r)] for r in range(2, n + 2)]


def _chain_down(n):
    return [[f"=A{r + 1}+1"] for r in range(1, n + 1)] + [["1"]]


@pytest.mark.parametrize("sheet", [_total_over_formulas, _chain_down], ids=["total", "chain"])
@pytest.mark.parametrize("entry", ["evaluate_all", "value"])
def test_work_per_formula_is_bounded(entries, sheet, entry):
    """Doubling the formulas at most doubles the entries, plus a constant:
    a range read that meets formulas not yet evaluated is retried once, not
    once per formula."""
    counts = []
    for n in (100, 200):
        entries.clear()
        built = Sheet.from_rows(sheet(n))
        if entry == "evaluate_all":
            built.evaluate_all()
        else:
            built.value("A1")
        counts.append(sum(entries.values()))
    assert entries["kernel"] > 0
    assert counts[1] <= 2 * counts[0] + 10
