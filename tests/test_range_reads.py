"""Ranges are read from the sheet's column index, and a range whose cells all
hold numbers, as literals or as cached values, is taken whole.

Work is counted, not timed: the calls of Evaluator.cell_value that reading a
filled-down cumulative column makes.  A differential keeps the cell-by-cell
range loop as the oracle for values, messages and evaluation order.
"""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from ledgerlint.audit import run_rules
from ledgerlint.formula import ErrorValue, Sheet, parse
from ledgerlint.formula.ast import EmptyArg, RangeRef, index_to_column
from ledgerlint.formula.evaluator import Evaluator, _type_name
from ledgerlint.formula.sheet import ErrorKind


@pytest.fixture
def reads(monkeypatch):
    """The addresses passed to Evaluator.cell_value, in order."""
    addresses = []
    cell_value = Evaluator.cell_value

    def counted(self, address):
        addresses.append(address)
        return cell_value(self, address)

    monkeypatch.setattr(Evaluator, "cell_value", counted)
    return addresses


def _cumulative(n, feeds_pmt=False):
    """n literals in A, their running total =SUM(A$1:A{i}) in B, and, if
    feeds_pmt, =PMT(B{i}/1e9,12,100) in C, which an audit reads (R5)."""
    rows = []
    for i in range(1, n + 1):
        row = [str(i % 7 - 3), f"=SUM(A$1:A{i})"]
        if feeds_pmt:
            row.append(f"=PMT(B{i}/1e9,12,100)")
        rows.append(row)
    return Sheet.from_rows(rows)


@pytest.mark.parametrize("n", [100, 200])
def test_a_cumulative_column_reads_each_cell_once_in_evaluate_all(reads, n):
    values = _cumulative(n).evaluate_all()
    assert values[f"B{n}"] == float(sum(i % 7 - 3 for i in range(1, n + 1)))
    assert len(reads) <= 2 * n + 2  # one per cell that evaluate_all visits


@pytest.mark.parametrize("n", [100, 200])
def test_an_audit_of_a_cumulative_column_makes_a_bounded_number_of_reads_per_cell(reads, n):
    sheet = _cumulative(n, feeds_pmt=True)
    run_rules(sheet)
    assert len(reads) <= 3 * len(sheet.cells)


def numbers_oracle(self, nodes, fname, strict, kind=float, noun="number"):
    """Evaluator._numbers reading every range cell by cell, as it did before
    a range of numbers was taken whole."""
    values = []
    for node in nodes:
        if isinstance(node, EmptyArg):
            return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: empty argument slot")
        if isinstance(node, RangeRef):
            for address in self.sheet.range_addresses(self.ref(node)):
                value = self.cell_value(address)
                if isinstance(value, ErrorValue):
                    return ErrorValue(
                        ErrorKind.PROPAGATED,
                        f"{fname}: error propagated from {address}",
                    )
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
                ErrorKind.ARGUMENT,
                f"{fname}: values must be numbers, got {_type_name(value)}",
            )
        values.append(value)
    return values


class CellByCell(Evaluator):
    _numbers = numbers_oracle


ROWS, COLUMNS = 5, 3
_address = st.builds(
    lambda col, row: f"{index_to_column(col)}{row}",
    st.integers(1, COLUMNS), st.integers(1, ROWS),
)
_range = st.builds(lambda a, b: f"{a}:{b}", _address, _address)
_numbers = st.sampled_from(["1", "-2.5", "0", "7", "=2*3"])
_texts = st.one_of(
    _numbers,
    _numbers,  # drawn most often, so that whole ranges of numbers are common
    st.sampled_from(["x", "2024-01-31", "2024-06-30", "", "=1/0", "=1+", '="t"']),
    _address.map(lambda address: f"={address}+1"),  # cycles among these and the ranges
    _range.map(lambda rng: f"=SUM({rng})"),
    _range.map(lambda rng: f"=NPV(0.1,{rng})"),
    st.tuples(_range, _range).map(lambda pair: "=XNPV(0.1,{},{})".format(*pair)),
)
_probe = st.one_of(
    _address.map(lambda address: ("cell", address)),
    st.tuples(
        _range,
        st.sampled_from([(False, float, "number"), (True, float, "number"), (True, dt.date, "date")]),
    ).map(lambda pair: ("range",) + pair),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.lists(_texts, max_size=COLUMNS), max_size=ROWS),
    st.lists(_probe, max_size=8),
)
def test_a_range_read_whole_reads_as_cell_by_cell(rows, probes):
    """Probes read cells and ranges in the same order on two sheets, so some
    ranges meet cells not yet evaluated; values, messages and the order in
    which formulas were evaluated must be the same."""
    results = []
    for evaluator_class in (Evaluator, CellByCell):
        sheet = Sheet.from_rows(rows)
        values = evaluator_class(sheet)
        seen = []
        for probe in probes:
            if probe[0] == "cell":
                seen.append(values.cell_value(probe[1]))
            else:
                _, rng, (strict, kind, noun) = probe
                node = parse(f"=SUM({rng})").args[0]
                seen.append(values._numbers([node], "F", strict, kind=kind, noun=noun))
        seen.append({address: values.cell_value(address) for address in sheet.cells})
        # the order in which formulas were evaluated; a literal read whole
        # from its cell is not cached
        evaluated = [item for item in sheet._values.items() if sheet.cells[item[0]].literal is None]
        results.append(repr((seen, evaluated)))
    assert results[0] == results[1]
