"""Evaluator semantics: refs, cycles, operators, and function dispatch."""

import datetime as dt
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ledgerlint.cashflow import CashFlowSeries, npv_legacy, pmt, xnpv
from ledgerlint.daycount import DayCountBasis, days_between
from ledgerlint.depreciation import DepreciationSpec, PrecisionMode, db_period, sln
from ledgerlint.formula import (
    ErrorKind,
    ErrorValue,
    Sheet,
    evaluate,
    load_workbook,
    parse,
    parse_address,
)
from ledgerlint.formula import evaluator
from ledgerlint.formula.ast import column_to_index, index_to_column
from ledgerlint.rates import accrint, effective_rate, intrate, nominal_rate

EMPTY_SHEET = Sheet.from_rows([])


def run(source, rows=None):
    sheet = EMPTY_SHEET if rows is None else Sheet.from_rows(rows)
    return evaluate(parse(source), sheet)


def test_sum_over_range():
    assert run("=SUM(A1:A3)", [["1"], ["2"], ["3"]]) == 6.0


def test_npv_legacy_convention_single_term():
    result = run("=NPV(0.1,A1)", [["110"]])
    assert result == npv_legacy(0.1, [110.0])
    assert result == pytest.approx(100.0)


def test_effect_dispatch():
    assert run("=EFFECT(0.12,12)") == effective_rate(0.12, 12)
    assert run("=EFFECT(0.12,12)") == pytest.approx(0.12682503013196977, abs=1e-15)


def test_db_dispatch_is_compat_mode():
    spec = DepreciationSpec(cost=1_000_000.0, salvage=100_000.0, life=6)
    assert run("=DB(1000000,100000,6,1)") == db_period(spec, 1, PrecisionMode.COMPAT)
    assert run("=DB(1000000,100000,6,1)") == 319_000.0


def test_db_full_write_off_reports_through_its_value_only():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("=DB(1,0,6,1)") == 1.0


def test_db_with_a_salvage_leaves_the_warning_filters_alone(monkeypatch):
    # warnings.catch_warnings swaps the process-wide filter list and is not
    # thread-safe; only a salvage of 0 can warn, so only it may enter one
    seen = []

    def observed(*args):
        seen.append(warnings.filters)
        return db_period(*args)

    monkeypatch.setattr(evaluator, "db_period", observed)
    filters = warnings.filters
    assert run("=DB(1000000,100000,6,1)") == 319_000.0
    assert run("=DB(1,0,6,1)") == 1.0
    assert seen[0] is filters and seen[1] is not filters
    assert warnings.filters is filters


def test_literals_and_percent():
    assert run("=42") == 42.0
    assert run('="text"') == "text"
    assert run("=12%") == 0.12
    assert run("=12%") == run("=12/100")


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_percent_semantics_property(x):
    source_pct = f"={x!r}%"
    source_div = f"={x!r}/100"
    assert run(source_pct) == run(source_div)


def test_arithmetic_and_division_chain():
    assert run("=1/1/80") == 0.0125
    assert run("=-2^2") == -4.0
    assert run("=(-2)^2") == 4.0
    assert run("=2^3^2") == 512.0


def test_comparisons_yield_numbers():
    assert run("=1<2") == 1.0
    assert run("=1>2") == 0.0
    assert run('="a"<>"b"') == 1.0
    assert run('="a"="a"') == 1.0


def test_concat_coercions():
    assert run('="n="&2') == "n=2"
    assert run('="d="&A1', [["2024-01-31"]]) == "d=2024-01-31"
    assert run("=1.5&\"x\"") == "1.5x"


def test_empty_cells_read_as_zero():
    assert run("=A9+1") == 1.0
    assert run("=SUM(B1:B5)") == 0.0


def test_ranges_resolve_row_major_skipping_blanks_and_text():
    rows = [
        ["1", "2"],
        ["", "note"],
        ["3", "4"],
    ]
    assert run("=SUM(A1:B3)", rows) == 10.0


def test_date_subtraction_gives_days():
    rows = [["2024-01-15"], ["2024-03-31"]]
    assert run("=A2-A1", rows) == 76.0


def test_days360_variants():
    rows = [["2024-01-15"], ["2024-03-31"]]
    us = run("=DAYS360(A1,A2)", rows)
    eur = run("=DAYS360(A1,A2,1)", rows)
    assert us == float(days_between(dt.date(2024, 1, 15), dt.date(2024, 3, 31), DayCountBasis.US_30_360))
    assert eur == float(days_between(dt.date(2024, 1, 15), dt.date(2024, 3, 31), DayCountBasis.EUR_30_360))
    assert (us, eur) == (76.0, 75.0)


def test_accrint_basis_defaults_to_us_30_360():
    rows = [["2024-01-15"], ["2024-03-31"]]
    omitted = run("=ACCRINT(A1,A2,0.05,1000)", rows)
    empty_slot = run("=ACCRINT(A1,A2,0.05,1000,)", rows)
    explicit = run("=ACCRINT(A1,A2,0.05,1000,0)", rows)
    direct = accrint(dt.date(2024, 1, 15), dt.date(2024, 3, 31), 0.05, 1000.0,
                     DayCountBasis.US_30_360)
    assert omitted == empty_slot == explicit == direct


def test_error_values_never_raise():
    assert run("=1/0") == ErrorValue(ErrorKind.DIV0, "division by zero")
    assert run("=0^-1").kind is ErrorKind.DIV0
    assert run('=1+"x"').kind is ErrorKind.VALUE
    assert run('=-"x"').kind is ErrorKind.VALUE
    assert run("=1<\"x\"").kind is ErrorKind.VALUE
    assert run("=NOSUCH(1)").kind is ErrorKind.UNKNOWN_FUNCTION
    assert run("=PMT(0.01)").kind is ErrorKind.ARGUMENT
    assert run("=SLN(1,2,3,4)").kind is ErrorKind.ARGUMENT
    assert run('=PMT("x",12,100)').kind is ErrorKind.ARGUMENT
    assert run("=DB(100,10,6,1,13)").kind is ErrorKind.ARGUMENT
    assert run("=INTRATE(A1,A2,100,110,7)", [["2024-01-01"], ["2025-01-01"]]).kind is ErrorKind.ARGUMENT
    assert run("=PMT(0.01,1.5,100)").kind is ErrorKind.ARGUMENT
    assert run("=A1:B2+1").kind is ErrorKind.VALUE
    assert run("=SUM(1,,2)").kind is ErrorKind.ARGUMENT
    overflow = ErrorValue(ErrorKind.VALUE, "numeric overflow in '*'")
    assert run("=PMT(0.1,1e308*10,100)") == overflow
    assert run("=PMT(0.1,1e308*10-1e308*10,100)") == overflow
    assert run("=EFFECT(1e300,2)") == ErrorValue(ErrorKind.VALUE, "EFFECT: numeric overflow")
    assert run("=NPV(1e300,1,2,3)") == ErrorValue(ErrorKind.VALUE, "NPV: numeric overflow")
    # US 30/360 counts no days from the 30th to the 31st
    assert run("=INTRATE(A1,A2,100,110)", [["2024-01-30"], ["2024-01-31"]]) == ErrorValue(
        ErrorKind.DIV0, "INTRATE: division by zero"
    )
    assert run('="x"&(1e308*10)') == overflow


@pytest.mark.parametrize(
    "source, message",
    [
        ("=1e308*10", "numeric overflow in '*'"),
        ("=1e308+1e308", "numeric overflow in '+'"),
        ("=-1e308-1e308", "numeric overflow in '-'"),
        ("=1e308/1e-10", "numeric overflow in '/'"),
        ("=10^400", "numeric overflow in '^'"),
        ("=SUM(1e308,1e308)", "SUM: numeric overflow"),
        ("=SUM(1e308*10,-1e308*10)", "numeric overflow in '*'"),
        ("=PMT(1e308*10,12,100)", "numeric overflow in '*'"),
        ("=EFFECT(1e308*10,2)", "numeric overflow in '*'"),
    ],
)
def test_non_finite_results_are_value_errors(source, message):
    assert run(source) == ErrorValue(ErrorKind.VALUE, message)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["+", "-", "*", "/", "^"]),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_arithmetic_gives_no_non_finite_number(left, op, right):
    value = run(f"={left!r}{op}{right!r}")
    assert not isinstance(value, float) or math.isfinite(value)


def test_argument_errors_name_the_parameter():
    error = run('=PMT("x",12,100)')
    assert "rate" in error.message
    error = run("=DB(100,10,6,1,13)")
    assert "month" in error.message.lower()


GOLDEN_ROWS = [
    ["2024-01-15", "100", "note", "=1/0"],
    ["2025-03-31", "200", "2024-06-30", "0.05"],
    ["", "300", "", ""],
]

# Exact results at each argument-coercion path of every catalog function:
# arity, empty and range slots, wrong types, non-integers, bad basis codes,
# omitted or empty optionals, and ValueErrors raised by the library call.
GOLDEN_ARGUMENTS = [
    ("=NPV(0.1)", "#ARGUMENT! NPV takes 2 or more arguments, got 1"),
    ("=NPV(,1)", "#ARGUMENT! NPV: argument 'rate' is required"),
    ("=NPV(B1:B2,1)", "#ARGUMENT! NPV: 'rate' cannot be a range"),
    ("=NPV(C1,1)", "#ARGUMENT! NPV: 'rate' must be a number, got text"),
    ("=NPV(0.1,1,,2)", "#ARGUMENT! NPV: empty argument slot"),
    ("=NPV(0.1,C1)", "#ARGUMENT! NPV: values must be numbers, got text"),
    ("=NPV(0.1,B1:C3)", "481.59278737791124"),
    ("=NPV(0.1,A1:A2)", "0.0"),
    ("=NPV(-1,1)", "#ARGUMENT! NPV: rate must exceed -1, got -1.0"),
    ("=NPV(D1,1)", "#PROPAGATED! error propagated from D1"),
    ("=NPV(0.1,D1:D2)", "#PROPAGATED! NPV: error propagated from D1"),
    ("=NPV(0.1,1/0)", "#DIV0! division by zero"),
    ("=npv(0.1,B1:B3)", "481.59278737791124"),
    ("=XNPV(0.1,B1:B2)", "#ARGUMENT! XNPV takes 3 to 3 arguments, got 2"),
    ("=XNPV(0.1,B1:B2,A1:A2,1)", "#ARGUMENT! XNPV takes 3 to 3 arguments, got 4"),
    ("=XNPV(,B1:B2,A1:A2)", "#ARGUMENT! XNPV: argument 'rate' is required"),
    ("=XNPV(0.1,,A1:A2)", "#ARGUMENT! XNPV: empty argument slot"),
    ("=XNPV(0.1,B1:B2,)", "#ARGUMENT! XNPV: argument 'dates' is required"),
    ("=XNPV(0.1,B1:C2,A1:A2)", "#ARGUMENT! XNPV: C1 holds text, expected a number"),
    ("=XNPV(0.1,B1:B2,B1:B2)", "#ARGUMENT! XNPV: B1 holds number, expected a date"),
    ("=XNPV(0.1,B1,A1)", "100.0"),
    ("=XNPV(0.1,B1,B1)", "#ARGUMENT! XNPV: 'dates' must be a date, got number"),
    ("=XNPV(0.1,C1,A1)", "#ARGUMENT! XNPV: values must be numbers, got text"),
    ("=XNPV(0.1,B1:B3,A1:A2)", "#ARGUMENT! XNPV: 2 dates for 3 values"),
    ("=XNPV(0.1,B1:B2,A1:A2)", "278.24549392326355"),
    ("=XNPV(0.1,B1:B2,A2:A3)", "#ARGUMENT! XNPV: 1 dates for 2 values"),
    ("=XNPV(0.1,D1:D2,A1:A2)", "#PROPAGATED! XNPV: error propagated from D1"),
    ("=XNPV(0.1,B1:B2,D1:D2)", "#PROPAGATED! XNPV: error propagated from D1"),
    ("=DB(1,2,3)", "#ARGUMENT! DB takes 4 to 5 arguments, got 3"),
    ("=DB(1,2,3,4,5,6)", "#ARGUMENT! DB takes 4 to 5 arguments, got 6"),
    ("=DB(,10,6,1)", "#ARGUMENT! DB: argument 'cost' is required"),
    ("=DB(B1:B2,10,6,1)", "#ARGUMENT! DB: 'cost' cannot be a range"),
    ("=DB(C1,10,6,1)", "#ARGUMENT! DB: 'cost' must be a number, got text"),
    ("=DB(100,10,6.5,1)", "#ARGUMENT! DB: 'life' must be an integer, got 6.5"),
    ("=DB(100,10,6,1.5)", "#ARGUMENT! DB: 'period' must be an integer, got 1.5"),
    ("=DB(100,10,6,1,)", "31.900000000000002"),
    ("=DB(100,10,6,1)", "31.900000000000002"),
    (
        "=DB(100,10,6,7)",
        "#ARGUMENT! DB: period must be in 1..6 (life 6, no extra period because month=12), got 7",
    ),
    ("=DB(100,10,6,1,13)", "#ARGUMENT! DB: month must be in 1..12, got 13"),
    ("=DB(100,10,6,1,A1)", "#ARGUMENT! DB: 'month' must be a number, got date"),
    ("=DB(100,10,6,1,6.5)", "#ARGUMENT! DB: 'month' must be an integer, got 6.5"),
    ("=DB(100,10,6,7,6)", "1.963513830743094"),
    ("=DB(100,200,6,1)", "#ARGUMENT! DB: salvage must be between 0 and cost (100.0), got 200.0"),
    ("=SLN(1,2)", "#ARGUMENT! SLN takes 3 to 3 arguments, got 2"),
    ("=SLN(1,2,3,4)", "#ARGUMENT! SLN takes 3 to 3 arguments, got 4"),
    ("=SLN(100,,5)", "#ARGUMENT! SLN: argument 'salvage' is required"),
    ("=SLN(100,10,C1)", "#ARGUMENT! SLN: 'life' must be a number, got text"),
    ("=SLN(100,10,2.5)", "#ARGUMENT! SLN: 'life' must be an integer, got 2.5"),
    ("=SLN(100,10,0)", "#ARGUMENT! SLN: life must be at least 1 period, got 0"),
    ("=SLN(1e308*10,1,3)", "#VALUE! numeric overflow in '*'"),
    ("=DB(1e308*10,1,3,1)", "#VALUE! numeric overflow in '*'"),
    ("=SLN(100,10,5)", "18.0"),
    ("=SLN(B1:B2,10,5)", "#ARGUMENT! SLN: 'cost' cannot be a range"),
    ("=EFFECT(0.12)", "#ARGUMENT! EFFECT takes 2 to 2 arguments, got 1"),
    ("=EFFECT(0.12,12,1)", "#ARGUMENT! EFFECT takes 2 to 2 arguments, got 3"),
    ("=EFFECT(C1,12)", "#ARGUMENT! EFFECT: 'nominal_rate' must be a number, got text"),
    ("=EFFECT(0.12,12.5)", "#ARGUMENT! EFFECT: 'npery' must be an integer, got 12.5"),
    ("=EFFECT(0.12,0)", "#ARGUMENT! EFFECT: periods_per_year must be >= 1, got 0"),
    ("=EFFECT(-2,12)", "#ARGUMENT! EFFECT: nominal rate must exceed -1, got -2.0"),
    ("=EFFECT(0.12,12)", "0.12682503013196977"),
    ("=EFFECT(0.12,)", "#ARGUMENT! EFFECT: argument 'npery' is required"),
    ("=NOMINAL(0.12)", "#ARGUMENT! NOMINAL takes 2 to 2 arguments, got 1"),
    ("=NOMINAL(0.12,12,1)", "#ARGUMENT! NOMINAL takes 2 to 2 arguments, got 3"),
    ("=NOMINAL(A1,12)", "#ARGUMENT! NOMINAL: 'effective_rate' must be a number, got date"),
    ("=NOMINAL(0.12,1.5)", "#ARGUMENT! NOMINAL: 'npery' must be an integer, got 1.5"),
    ("=NOMINAL(0.12,0)", "#ARGUMENT! NOMINAL: periods_per_year must be >= 1, got 0"),
    ("=NOMINAL(0.12,12)", "0.11386551521499655"),
    ("=NOMINAL(B1:B2,12)", "#ARGUMENT! NOMINAL: 'effective_rate' cannot be a range"),
    ("=INTRATE(A1,A2,100)", "#ARGUMENT! INTRATE takes 4 to 5 arguments, got 3"),
    ("=INTRATE(A1,A2,100,110,0,1)", "#ARGUMENT! INTRATE takes 4 to 5 arguments, got 6"),
    ("=INTRATE(,A2,100,110)", "#ARGUMENT! INTRATE: argument 'settlement' is required"),
    ("=INTRATE(B1,A2,100,110)", "#ARGUMENT! INTRATE: 'settlement' must be a date, got number"),
    ("=INTRATE(A1:A2,A2,100,110)", "#ARGUMENT! INTRATE: 'settlement' cannot be a range"),
    ("=INTRATE(C1,A2,100,110)", "#ARGUMENT! INTRATE: 'settlement' must be a date, got text"),
    ("=INTRATE(A1,A2,C1,110)", "#ARGUMENT! INTRATE: 'investment' must be a number, got text"),
    ("=INTRATE(A1,A2,100,110,7)", "#ARGUMENT! INTRATE: basis code must be 0..4, got 7"),
    ("=INTRATE(A1,A2,100,110,1.5)", "#ARGUMENT! INTRATE: 'basis' must be an integer, got 1.5"),
    ("=INTRATE(A1,A2,100,110,)", "0.08256880733944955"),
    ("=INTRATE(A1,A2,100,110)", "0.08256880733944955"),
    ("=INTRATE(A1,A2,100,110,1)", "0.08287981859410432"),
    (
        "=INTRATE(A2,A1,100,110)",
        "#ARGUMENT! INTRATE: settlement must fall strictly before maturity",
    ),
    ("=INTRATE(A1,A2,-100,110)", "#ARGUMENT! INTRATE: investment must be positive, got -100.0"),
    ("=INTRATE(A1,A2,100,110,C1)", "#ARGUMENT! INTRATE: 'basis' must be a number, got text"),
    ("=INTRATE(A1,A2,100,110,-1)", "#ARGUMENT! INTRATE: basis code must be 0..4, got -1"),
    ("=INTRATE(A1,A2,100,110,B1:B2)", "#ARGUMENT! INTRATE: 'basis' cannot be a range"),
    ("=ACCRINT(A1,A2,0.05)", "#ARGUMENT! ACCRINT takes 4 to 5 arguments, got 3"),
    ("=ACCRINT(A1,A2,0.05,1000,0,1)", "#ARGUMENT! ACCRINT takes 4 to 5 arguments, got 6"),
    ("=ACCRINT(A1,,0.05,1000)", "#ARGUMENT! ACCRINT: argument 'settlement' is required"),
    ("=ACCRINT(A1,A2,C1,1000)", "#ARGUMENT! ACCRINT: 'rate' must be a number, got text"),
    ("=ACCRINT(A1,A2,0.05,1000,5)", "#ARGUMENT! ACCRINT: basis code must be 0..4, got 5"),
    ("=ACCRINT(A1,A2,0.05,1000,0.5)", "#ARGUMENT! ACCRINT: 'basis' must be an integer, got 0.5"),
    ("=ACCRINT(A1,A2,0.05,1000,)", "60.55555555555555"),
    ("=ACCRINT(A1,A2,0.05,1000)", "60.55555555555555"),
    ("=ACCRINT(A1,A2,0.05,1000,3)", "60.41095890410959"),
    ("=ACCRINT(A1,A2,0.05,-1000)", "#ARGUMENT! ACCRINT: par must be positive, got -1000.0"),
    (
        "=ACCRINT(A1,A2,-0.05,1000)",
        "#ARGUMENT! ACCRINT: annual_rate must be non-negative, got -0.05",
    ),
    ("=ACCRINT(A1,C2,0.05,1000,4)", "22.916666666666664"),
    ("=ACCRINT(A1,A2,D2,1000,2)", "61.25000000000001"),
    ("=ACCRINT(A1,A2,D1,1000)", "#PROPAGATED! error propagated from D1"),
    ("=PMT(0.01)", "#ARGUMENT! PMT takes 3 to 3 arguments, got 1"),
    ("=PMT(0.01,12,100,0)", "#ARGUMENT! PMT takes 3 to 3 arguments, got 4"),
    ("=PMT(,12,100)", "#ARGUMENT! PMT: argument 'rate' is required"),
    ("=PMT(0.01,,100)", "#ARGUMENT! PMT: argument 'nper' is required"),
    ("=PMT(C1,12,100)", "#ARGUMENT! PMT: 'rate' must be a number, got text"),
    ("=PMT(B1:B2,12,100)", "#ARGUMENT! PMT: 'rate' cannot be a range"),
    ("=PMT(0.01,12.5,100)", "#ARGUMENT! PMT: 'nper' must be an integer, got 12.5"),
    ("=PMT(0.01,0,100)", "#ARGUMENT! PMT: nper must be >= 1, got 0"),
    ("=PMT(-1,12,100)", "#ARGUMENT! PMT: rate must exceed -1, got -1.0"),
    ("=PMT(0.01,12,100)", "-8.884878867834171"),
    ("=PMT(0,12,100)", "-8.333333333333334"),
    ("=PMT(0.01,12,A1)", "#ARGUMENT! PMT: 'pv' must be a number, got date"),
    ("=PMT(D1,12,100)", "#PROPAGATED! error propagated from D1"),
    ("=PMT(0.01,A1,100)", "#ARGUMENT! PMT: 'nper' must be a number, got date"),
    ("=DAYS360(A1)", "#ARGUMENT! DAYS360 takes 2 to 3 arguments, got 1"),
    ("=DAYS360(A1,A2,1,2)", "#ARGUMENT! DAYS360 takes 2 to 3 arguments, got 4"),
    ("=DAYS360(,A2)", "#ARGUMENT! DAYS360: argument 'start_date' is required"),
    ("=DAYS360(A1,B1)", "#ARGUMENT! DAYS360: 'end_date' must be a date, got number"),
    ("=DAYS360(A1,A2,)", "436.0"),
    ("=DAYS360(A1,A2,C1)", "#ARGUMENT! DAYS360: 'method' must be a number, got text"),
    ("=DAYS360(A1,A2,1)", "435.0"),
    ("=DAYS360(A1,A2,0)", "436.0"),
    ("=DAYS360(A1,A2,0.5)", "435.0"),
    ("=DAYS360(A1,A2)", "436.0"),
    (
        "=DAYS360(A2,A1)",
        "#ARGUMENT! DAYS360: start date 2025-03-31 must be before or equal to end date 2024-01-15",
    ),
    ("=DAYS360(A1:A2,A2)", "#ARGUMENT! DAYS360: 'start_date' cannot be a range"),
    ("=DAYS360(A1,A2,A1)", "#ARGUMENT! DAYS360: 'method' must be a number, got date"),
    ("=DAYS360(A1,A2,B1:B2)", "#ARGUMENT! DAYS360: 'method' cannot be a range"),
    ("=SUM()", "#ARGUMENT! SUM takes 1 or more arguments, got 0"),
    ("=SUM(1,,2)", "#ARGUMENT! SUM: empty argument slot"),
    ('=SUM("a")', "#ARGUMENT! SUM: values must be numbers, got text"),
    ("=SUM(B1:C3)", "600.0"),
    ("=SUM(1,2,3)", "6.0"),
    ("=SUM(A1)", "#ARGUMENT! SUM: values must be numbers, got date"),
    ("=SUM(D1:D2)", "#PROPAGATED! SUM: error propagated from D1"),
    ("=SUM(B1:B3,1)", "601.0"),
    ("=SUM(,)", "#ARGUMENT! SUM: empty argument slot"),
    ("=NOSUCH(1)", "#UNKNOWN_FUNCTION! unknown function NOSUCH"),
    ("=nosuch()", "#UNKNOWN_FUNCTION! unknown function NOSUCH"),
]


@pytest.mark.parametrize("source, expected", GOLDEN_ARGUMENTS)
def test_argument_coercion_golden(source, expected):
    assert str(run(source, GOLDEN_ROWS)) == expected


def test_load_workbook_examples(tmp_path):
    path = tmp_path / "book.csv"
    path.write_text('"=1+1"\n')
    sheet = load_workbook(path)
    assert sheet.value("A1") == 2.0

    path.write_text("2024-01-31\n")
    sheet = load_workbook(path)
    assert sheet.value("A1") == dt.date(2024, 1, 31)
    assert sheet.name == "book"

    path.write_bytes(b"\xef\xbb\xbf=1+1\n")  # Excel's "CSV UTF-8" starts with a BOM
    sheet = load_workbook(path)
    assert sheet.value("A1") == 2.0


def test_mutual_refs_both_cycle():
    sheet = Sheet.from_rows([["=B1", "=A1"]])
    values = sheet.evaluate_all()
    assert values["A1"].kind is ErrorKind.CYCLE
    assert values["B1"].kind is ErrorKind.CYCLE
    assert "A1" in values["A1"].message and "B1" in values["A1"].message


def test_self_reference_is_cycle():
    sheet = Sheet.from_rows([["=A1"]])
    assert sheet.value("A1").kind is ErrorKind.CYCLE


def test_cycle_dependents_are_propagated_not_cycle():
    rows = [["=B1", "=A1", "=A1+1"]]
    for order in (("A1", "B1", "C1"), ("C1", "B1", "A1")):
        sheet = Sheet.from_rows(rows)
        values = {addr: sheet.value(addr) for addr in order}
        assert values["A1"].kind is ErrorKind.CYCLE
        assert values["B1"].kind is ErrorKind.CYCLE
        assert values["C1"].kind is ErrorKind.PROPAGATED


def test_diamond_dependency_is_not_a_cycle():
    rows = [["=B1+C1", "=D1", "=D1", "5"]]
    sheet = Sheet.from_rows(rows)
    assert sheet.value("A1") == 10.0


def test_cycle_through_range():
    sheet = Sheet.from_rows([["=SUM(A1:A2)"], ["1"]])
    assert sheet.value("A1").kind is ErrorKind.CYCLE


def test_cycle_message_names_the_path_in_call_order():
    sheet = Sheet.from_rows([["=B1+1", "=C1*2", "=SUM(A1:A2)"], ["4"]])
    values = sheet.evaluate_all()
    assert str(values["A1"]) == "#CYCLE! circular reference: A1 -> B1 -> C1 -> A1"
    assert values["A1"] == values["B1"] == values["C1"]
    assert str(Sheet.from_rows([["=A1"]]).value("A1")) == "#CYCLE! circular reference: A1 -> A1"


# column indices around the letter-count boundaries: A, B, Z, AA, AZ, BA, ZZ, AAA, ABC
_INDEX_COLUMNS = [1, 2, 26, 27, 52, 53, 702, 703, 731]


@st.composite
def sparse_sheets_and_ranges(draw):
    """A sparse grid (empty rows, blank and whitespace fields) and ranges over it."""
    placed = draw(st.dictionaries(
        st.tuples(st.integers(1, 30), st.sampled_from(_INDEX_COLUMNS)),
        st.sampled_from(["1", "=2", "x", "2024-01-01", " ", ""]),
        max_size=25,
    ))
    rows = [[""] * max((c for (r, c) in placed if r == row), default=0) for row in range(1, 31)]
    for (row, col), text in placed.items():
        rows[row - 1][col - 1] = text
    corner = st.tuples(st.sampled_from(_INDEX_COLUMNS + [18278]), st.integers(1, 40))
    ranges = []
    for start, end in draw(st.lists(st.tuples(corner, corner), min_size=1, max_size=6)):
        if draw(st.booleans()):
            end = start  # a single-cell range
        ranges.append(tuple(f"{index_to_column(col)}{row}" for col, row in (start, end)))
    return Sheet.from_rows(rows), ranges


@settings(max_examples=300, deadline=None)
@given(sparse_sheets_and_ranges())
def test_range_addresses_match_a_rectangle_filter(sheet_and_ranges):
    sheet, ranges = sheet_and_ranges
    for start, end in ranges:
        ref = parse(f"=SUM({start}:{end})").args[0]
        col_lo, col_hi = column_to_index(ref.start.column), column_to_index(ref.end.column)
        expected = [
            address for address in sheet.cells
            if col_lo <= column_to_index(parse_address(address)[0]) <= col_hi
            and ref.start.row <= parse_address(address)[1] <= ref.end.row
        ]
        assert list(sheet.range_addresses(ref)) == expected


def test_whole_sheet_ranges_cost_their_populated_cells():
    # A1:ZZZ999999 has 1.8e10 slots; walking them would not finish.
    one = Sheet.from_rows([["5"]])
    assert evaluate(parse("=SUM(A1:ZZZ999999)"), one) == 5.0
    assert evaluate(parse("=NPV(0.1,A1:ZZZ999999)"), one) == npv_legacy(0.1, [5.0])
    two = Sheet.from_rows([["5"], [], ["", "", "x", "7"]])
    assert evaluate(parse("=SUM(A1:ZZZ999999)"), two) == 12.0
    assert evaluate(parse("=NPV(0.1,A1:ZZZ999999)"), two) == npv_legacy(0.1, [5.0, 7.0])
    assert evaluate(parse("=SUM(E1:ZZZ999999)"), two) == 0.0
    assert list(two.range_addresses(parse("=SUM(ZZZ999999:A1)").args[0])) == ["A1", "C3", "D3"]


def test_parse_failure_recorded_per_cell():
    sheet = Sheet.from_rows([["=1+", "7"]])
    assert sheet.value("A1").kind is ErrorKind.PARSE
    assert sheet.value("B1") == 7.0
    sheet2 = Sheet.from_rows([["=1+", "=A1+1"]])
    assert sheet2.value("B1").kind is ErrorKind.PROPAGATED


def test_cell_limit_guard():
    rows = [[""] * 1001 for _ in range(1000)]
    with pytest.raises(ValueError, match="cells"):
        Sheet.from_rows(rows)


def test_from_rows_reads_rows_as_they_come():
    rows = [["1", "", "=A1+1"], [], [" ", "x"]]
    assert Sheet.from_rows(iter(rows)).cells == Sheet.from_rows(rows).cells

    def too_many_rows():
        for _ in range(1000):
            yield [""] * 1001
        raise AssertionError("read past the cell limit")

    with pytest.raises(ValueError, match="cells"):
        Sheet.from_rows(too_many_rows())


def test_xnpv_dispatch_with_ranges():
    rows = [
        ["-1000", "2024-01-01"],
        ["400", "2024-07-01"],
        ["700", "2025-01-01"],
    ]
    result = run("=XNPV(0.1,A1:A3,B1:B3)", rows)
    series = CashFlowSeries(
        [-1000.0, 400.0, 700.0],
        [dt.date(2024, 1, 1), dt.date(2024, 7, 1), dt.date(2025, 1, 1)],
    )
    assert result == xnpv(0.1, series)


def test_xnpv_mismatched_lengths_is_argument_error():
    rows = [
        ["-1000", "2024-01-01"],
        ["400", "2024-07-01"],
        ["700"],
    ]
    assert run("=XNPV(0.1,A1:A3,B1:B3)", rows).kind is ErrorKind.ARGUMENT


def test_evaluate_all_covers_every_populated_cell():
    rows = [["1", "=A1+1", "x"], ["2024-01-01", "=1/0", ""]]
    sheet = Sheet.from_rows(rows)
    values = sheet.evaluate_all()
    assert set(values) == {"A1", "B1", "C1", "A2", "B2"}
    assert values["B1"] == 2.0
    assert isinstance(values["B2"], ErrorValue)


RNG_FUNCTIONS = [
    "NPV", "XNPV", "DB", "SLN", "EFFECT", "NOMINAL",
    "INTRATE", "ACCRINT", "PMT", "DAYS360", "SUM",
]


def random_date(rng):
    return dt.date(2000, 1, 1) + dt.timedelta(days=rng.randrange(0, 20000))


def build_case(name, rng):
    """Return (formula source, sheet rows, expected value via direct call)."""
    if name == "NPV":
        rate = rng.uniform(-0.5, 0.5)
        values = [rng.uniform(-1e6, 1e6) for _ in range(rng.randrange(1, 8))]
        source = f"=NPV({rate!r},{','.join(repr(v) for v in values)})"
        return source, None, npv_legacy(rate, values)
    if name == "XNPV":
        count = rng.randrange(1, 6)
        values = [rng.uniform(-1e5, 1e5) for _ in range(count)]
        days = sorted(rng.sample(range(0, 5000), count))
        dates = [dt.date(2010, 1, 1) + dt.timedelta(days=d) for d in days]
        rate = rng.uniform(-0.5, 1.0)
        rows = [[repr(v), d.isoformat()] for v, d in zip(values, dates)]
        source = f"=XNPV({rate!r},A1:A{count},B1:B{count})"
        return source, rows, xnpv(rate, CashFlowSeries(values, dates))
    if name == "DB":
        cost = rng.uniform(1.0, 1e7)
        salvage = cost * rng.uniform(0.01, 1.0)
        life = rng.randrange(1, 20)
        month = rng.choice([None, rng.randrange(1, 13)])
        spec = DepreciationSpec(cost=cost, salvage=salvage, life=life,
                                month=12 if month is None else month)
        period = rng.randrange(1, spec.periods + 1)
        args = f"{cost!r},{salvage!r},{life},{period}"
        if month is not None:
            args += f",{month}"
        return f"=DB({args})", None, db_period(spec, period, PrecisionMode.COMPAT)
    if name == "SLN":
        cost = rng.uniform(1.0, 1e6)
        salvage = cost * rng.uniform(0.0, 1.0)
        life = rng.randrange(1, 40)
        return f"=SLN({cost!r},{salvage!r},{life})", None, sln(cost, salvage, life)
    if name == "EFFECT":
        rate = rng.uniform(1e-4, 1.0)
        periods = rng.choice([1, 2, 4, 12, 52, 365])
        return f"=EFFECT({rate!r},{periods})", None, effective_rate(rate, periods)
    if name == "NOMINAL":
        rate = rng.uniform(1e-4, 1.0)
        periods = rng.choice([1, 2, 4, 12, 52, 365])
        return f"=NOMINAL({rate!r},{periods})", None, nominal_rate(rate, periods)
    if name == "INTRATE":
        d1 = random_date(rng)
        d2 = d1 + dt.timedelta(days=rng.randrange(30, 4000))
        investment = rng.uniform(100.0, 1e6)
        redemption = investment * rng.uniform(1.0, 2.0)
        code = rng.choice([None, 0, 1, 2, 3, 4])
        rows = [[d1.isoformat()], [d2.isoformat()]]
        args = f"A1,A2,{investment!r},{redemption!r}"
        basis = DayCountBasis.US_30_360
        if code is not None:
            args += f",{code}"
            basis = {0: DayCountBasis.US_30_360, 1: DayCountBasis.ACTUAL_ACTUAL,
                     2: DayCountBasis.ACTUAL_360, 3: DayCountBasis.ACTUAL_365,
                     4: DayCountBasis.EUR_30_360}[code]
        return f"=INTRATE({args})", rows, intrate(d1, d2, investment, redemption, basis)
    if name == "ACCRINT":
        d1 = random_date(rng)
        d2 = d1 + dt.timedelta(days=rng.randrange(1, 2000))
        rate = rng.uniform(0.0, 0.2)
        par = rng.uniform(100.0, 1e6)
        code = rng.choice([None, 0, 1, 2, 3, 4])
        rows = [[d1.isoformat()], [d2.isoformat()]]
        args = f"A1,A2,{rate!r},{par!r}"
        basis = DayCountBasis.US_30_360
        if code is not None:
            args += f",{code}"
            basis = {0: DayCountBasis.US_30_360, 1: DayCountBasis.ACTUAL_ACTUAL,
                     2: DayCountBasis.ACTUAL_360, 3: DayCountBasis.ACTUAL_365,
                     4: DayCountBasis.EUR_30_360}[code]
        return f"=ACCRINT({args})", rows, accrint(d1, d2, rate, par, basis)
    if name == "PMT":
        rate = rng.uniform(0.0, 0.05)
        nper = rng.randrange(1, 360)
        pv = rng.uniform(100.0, 1e6)
        return f"=PMT({rate!r},{nper},{pv!r})", None, pmt(rate, nper, pv)
    if name == "DAYS360":
        d1 = random_date(rng)
        d2 = d1 + dt.timedelta(days=rng.randrange(0, 3000))
        method = rng.choice([None, 0, 1])
        rows = [[d1.isoformat()], [d2.isoformat()]]
        args = "A1,A2" if method is None else f"A1,A2,{method}"
        basis = DayCountBasis.EUR_30_360 if method == 1 else DayCountBasis.US_30_360
        return f"=DAYS360({args})", rows, float(days_between(d1, d2, basis))
    if name == "SUM":
        values = [rng.uniform(-1e6, 1e6) for _ in range(rng.randrange(1, 10))]
        source = f"=SUM({','.join(repr(v) for v in values)})"
        return source, None, float(sum(values))
    raise AssertionError(name)


@pytest.mark.parametrize("name", RNG_FUNCTIONS)
def test_dispatch_equivalence_random_tuples(name):
    # Formula dispatch must hit the identical code path as the direct call,
    # so equality here is exact, not approximate.
    rng = random.Random(f"dispatch-{name}")
    for _ in range(100):
        source, rows, expected = build_case(name, rng)
        assert run(source, rows) == expected


CELL_POOL = [
    "", "1", "2.5", "-3", "x", "2024-02-29", "0",
    "=A1", "=B2+C1", "=SUM(A1:B2)", "=1/0", "=NPV(0.1,A1:A2)",
    "=XYZ(1)", "=1+", "=(", "=DB(A1,B1,C1,1)", "=A1:B2", "=-B1%",
    "=\"t\"&A1", "=A1=B1", "=2^A1", "=DAYS360(A1,B1)",
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(CELL_POOL), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    )
)
def test_evaluation_is_total_on_fuzzed_workbooks(rows):
    sheet = Sheet.from_rows(rows)
    values = sheet.evaluate_all()
    for value in values.values():
        assert isinstance(value, (float, str, dt.date, ErrorValue))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(CELL_POOL), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    )
)
def test_evaluation_is_deterministic(rows):
    first = Sheet.from_rows(rows).evaluate_all()
    second = Sheet.from_rows(rows).evaluate_all()
    assert first == second
