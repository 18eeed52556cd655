"""The library's records (ledgerlint.record.Record) behave as the frozen dataclasses they replace.

The expected reprs and messages were printed by those dataclasses: a repr,
equality only with a record of the same class, hashing, no assignment,
keyword construction with defaults, the checks' messages, and pickling.  The
__init__ that Record generates takes and refuses arguments as the hand-written
one did: the same signature and the same TypeError texts.
"""

import datetime as dt
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ledgerlint.audit import Finding, RuleConfig, Severity, _rule_r1, _RuleSpec, run_rules
from ledgerlint.cashflow import CashFlowSeries
from ledgerlint.depreciation import (
    DepreciationSchedule,
    DepreciationSpec,
    PrecisionMode,
    ReconcileReport,
    ScheduleRow,
    db_schedule,
    reconcile,
)
from ledgerlint.formula import ErrorKind, ErrorValue, Sheet
from ledgerlint.formula.evaluator import FUNCTION_CATALOG, Param, Role, _FunctionSpec
from ledgerlint.loan import (
    AmortizationRow,
    AmortizationSchedule,
    Discrepancy,
    LoanSpec,
    build_schedule,
)
from ledgerlint.rates import AdvertisedVerdict, ComplianceStatus, PeriodicConvention
from ledgerlint.record import Record

SPEC = DepreciationSpec(1000.0, 100.0, 2, 6)
LOAN = LoanSpec(1000.0, 0.05, 2)

# (record, its repr as the dataclass printed it, with ' at 0x0' for each address)
GOLDEN = [
    (
        ErrorValue(ErrorKind.PARSE, "unexpected end of formula"),
        "ErrorValue(kind=<ErrorKind.PARSE: 'parse'>, message='unexpected end of formula')",
    ),
    (
        Param("rate", Role.RATE),
        "Param(name='rate', role=<Role.RATE: 'rate'>, optional=False, default=None)",
    ),
    (
        Param("basis", Role.BASIS, True, 0),
        "Param(name='basis', role=<Role.BASIS: 'basis'>, optional=True, default=0)",
    ),
    (
        FUNCTION_CATALOG["SLN"],
        "_FunctionSpec(name='SLN', params=(Param(name='cost', role=<Role.NUMBER: 'number'>, "
        "optional=False, default=None), Param(name='salvage', role=<Role.NUMBER: 'number'>, "
        "optional=False, default=None), Param(name='life', role=<Role.INTEGER: 'integer'>, "
        "optional=False, default=None)), compute=<function sln at 0x0>, min_args=3, max_args=3, "
        "steps=((0, 'cost', <function _as_number at 0x0>, None, False, None), (1, 'salvage', "
        "<function _as_number at 0x0>, None, False, None), (2, 'life', <function _as_integer "
        "at 0x0>, None, False, None)))",
    ),
    (
        _FunctionSpec("F", (Param("x", Role.NUMBER), Param("y", Role.VALUES)), math.fsum),
        "_FunctionSpec(name='F', params=(Param(name='x', role=<Role.NUMBER: 'number'>, "
        "optional=False, default=None), Param(name='y', role=<Role.VALUES: 'values'>, "
        "optional=False, default=None)), compute=<built-in function fsum>, min_args=2, "
        "max_args=None, steps=((0, 'x', <function _as_number at 0x0>, None, False, None), "
        "(1, 'y', None, (False, False, <class 'float'>, 'number'), False, None)))",
    ),
    (
        Finding("R1", Severity.WARNING, "C3", "NPV's first value", (("B2", "-1000"),)),
        "Finding(rule_id='R1', severity=<Severity.WARNING: 'warning'>, cell='C3', "
        "message=\"NPV's first value\", evidence=(('B2', '-1000'),))",
    ),
    (
        Finding("R0", Severity.WARNING, "A4", "parse"),
        "Finding(rule_id='R0', severity=<Severity.WARNING: 'warning'>, cell='A4', "
        "message='parse', evidence=())",
    ),
    (
        _RuleSpec("R9", Severity.INFO, "why", frozenset({"NPV"}), _rule_r1, threshold=2.0,
                  arguments={"NPV": (0,)}),
        "_RuleSpec(rule_id='R9', default_severity=<Severity.INFO: 'info'>, explanation='why', "
        "triggers=frozenset({'NPV'}), check=<function _rule_r1 at 0x0>, threshold=2.0, "
        "per_shape=False, gate=None, arguments={'NPV': (0,)})",
    ),
    (
        RuleConfig(frozenset({"R1"}), {"R1": 2.5}, {"R1": Severity.ERROR}),
        "RuleConfig(enabled=frozenset({'R1'}), thresholds={'R1': 2.5}, "
        "severities={'R1': <Severity.ERROR: 'error'>})",
    ),
    (
        CashFlowSeries([-100, 60.5], [dt.date(2024, 1, 1), dt.date(2025, 1, 1)]),
        "CashFlowSeries(values=(-100.0, 60.5), dates=(datetime.date(2024, 1, 1), "
        "datetime.date(2025, 1, 1)))",
    ),
    (CashFlowSeries((1, 2)), "CashFlowSeries(values=(1.0, 2.0), dates=None)"),
    (SPEC, "DepreciationSpec(cost=1000.0, salvage=100.0, life=2, month=6)"),
    (
        db_schedule(SPEC, PrecisionMode.COMPAT),
        "DepreciationSchedule(spec=DepreciationSpec(cost=1000.0, salvage=100.0, life=2, "
        "month=6), mode=<PrecisionMode.COMPAT: 'compat'>, rate=0.684, rows=(ScheduleRow("
        "period=1, depreciation=342.0, book_value_end=658.0), ScheduleRow(period=2, "
        "depreciation=450.07200000000006, book_value_end=207.92799999999994), ScheduleRow("
        "period=3, depreciation=71.11137599999998, book_value_end=136.81662399999996)))",
    ),
    (
        reconcile(
            db_schedule(DepreciationSpec(1000.0, 100.0, 2), PrecisionMode.EXACT),
            DepreciationSpec(1000.0, 100.0, 2),
        ),
        "ReconcileReport(total_depreciation=900.0, residual_book_value=100.0, gap=0.0, "
        "tolerance=0.001, flagged=False)",
    ),
    (
        AdvertisedVerdict(ComplianceStatus.OVERSTATED, 1.5),
        "AdvertisedVerdict(status=<ComplianceStatus.OVERSTATED: 'overstated'>, "
        "gap_basis_points=1.5)",
    ),
    (
        LoanSpec(1000.0, 0.05, 2, 0, PeriodicConvention.US_NOMINAL_DIVIDE),
        "LoanSpec(principal=1000.0, annual_rate=0.05, term_months=2, holiday_months=0, "
        "convention=<PeriodicConvention.US_NOMINAL_DIVIDE: 'us'>)",
    ),
    (
        build_schedule(LOAN),
        "AmortizationSchedule(spec=LoanSpec(principal=1000.0, annual_rate=0.05, term_months=2, "
        "holiday_months=0, convention=<PeriodicConvention.UK_EFFECTIVE_ROOT: 'uk'>), "
        "monthly_rate=0.0040741237836483535, level_payment=503.0576634303864, rows=("
        "AmortizationRow(month=1, opening=1000.0, interest=4.0741237836483535, "
        "payment=503.0576634303864, principal_paid=498.98353964673805, "
        "closing=501.01646035326195), AmortizationRow(month=2, opening=501.01646035326195, "
        "interest=2.041203077124537, payment=503.05766343038647, "
        "principal_paid=501.01646035326195, closing=0.0)))",
    ),
    (
        AmortizationRow(3, closing=12.5),
        "AmortizationRow(month=3, opening=None, interest=None, payment=None, "
        "principal_paid=None, closing=12.5)",
    ),
    (
        Discrepancy(2, "payment", 10.0, 10.5, 0.5),
        "Discrepancy(month=2, field='payment', expected=10.0, actual=10.5, difference=0.5)",
    ),
]
RECORDS = [record for record, _ in GOLDEN]
IDS = [f"{type(record).__name__}-{index}" for index, record in enumerate(RECORDS)]
# every record class of the library, each with one record in GOLDEN
CLASSES = {
    ErrorValue, Param, _FunctionSpec, Finding, _RuleSpec, RuleConfig, CashFlowSeries,
    DepreciationSpec, ScheduleRow, DepreciationSchedule, ReconcileReport, AdvertisedVerdict,
    LoanSpec, AmortizationRow, AmortizationSchedule, Discrepancy,
}


def test_every_record_class_has_a_golden_repr():
    rows = {type(row) for record in RECORDS for row in getattr(record, "rows", ())}
    assert set(map(type, RECORDS)) | rows == CLASSES
    for cls in CLASSES:
        assert issubclass(cls, Record) and cls.__slots__ and "__dict__" not in dir(cls)
        # a subclass of a record class would find its parent's generated __init__
        assert cls.__bases__ == (Record,)
        # Record writes the __init__ of each class in GENERATED; the others check their arguments
        written = cls.__init__.__code__.co_filename
        assert written == ("<string>" if cls in {c for c, *_ in GENERATED} else inspect.getfile(cls))


# (class, its signature, and what its __init__ said to no argument, to one
# positional too many and to its first field twice), as the hand-written
# __init__ printed them, annotations stripped from the signature
GENERATED = [
    (ErrorValue, "(kind, message)",
     "missing 2 required positional arguments: 'kind' and 'message'",
     "takes 3 positional arguments but 4 were given", "'kind'"),
    (Param, "(name, role, optional=False, default=None)",
     "missing 2 required positional arguments: 'name' and 'role'",
     "takes from 3 to 5 positional arguments but 6 were given", "'name'"),
    (Finding, "(rule_id, severity, cell, message, evidence=())",
     "missing 4 required positional arguments: 'rule_id', 'severity', 'cell', and 'message'",
     "takes from 5 to 6 positional arguments but 7 were given", "'rule_id'"),
    (_RuleSpec, "(rule_id, default_severity, explanation, triggers, check, threshold=None, "
     "per_shape=False, gate=None, arguments=None)",
     "missing 5 required positional arguments: 'rule_id', 'default_severity', 'explanation', "
     "'triggers', and 'check'",
     "takes from 6 to 10 positional arguments but 11 were given", "'rule_id'"),
    (ScheduleRow, "(period, depreciation, book_value_end)",
     "missing 3 required positional arguments: 'period', 'depreciation', and 'book_value_end'",
     "takes 4 positional arguments but 5 were given", "'period'"),
    (DepreciationSchedule, "(spec, mode, rate, rows)",
     "missing 4 required positional arguments: 'spec', 'mode', 'rate', and 'rows'",
     "takes 5 positional arguments but 6 were given", "'spec'"),
    (ReconcileReport, "(total_depreciation, residual_book_value, gap, tolerance, flagged=False)",
     "missing 4 required positional arguments: 'total_depreciation', 'residual_book_value', "
     "'gap', and 'tolerance'",
     "takes from 5 to 6 positional arguments but 7 were given", "'total_depreciation'"),
    (AdvertisedVerdict, "(status, gap_basis_points)",
     "missing 2 required positional arguments: 'status' and 'gap_basis_points'",
     "takes 3 positional arguments but 4 were given", "'status'"),
    (AmortizationRow,
     "(month, opening=None, interest=None, payment=None, principal_paid=None, closing=None)",
     "missing 1 required positional argument: 'month'",
     "takes from 2 to 7 positional arguments but 8 were given", "'month'"),
    (AmortizationSchedule, "(spec, monthly_rate, level_payment, rows)",
     "missing 4 required positional arguments: 'spec', 'monthly_rate', 'level_payment', and 'rows'",
     "takes 5 positional arguments but 6 were given", "'spec'"),
    (Discrepancy, "(month, field, expected, actual, difference)",
     "missing 5 required positional arguments: 'month', 'field', 'expected', 'actual', and "
     "'difference'",
     "takes 6 positional arguments but 7 were given", "'month'"),
]


@pytest.mark.parametrize(
    ("cls", "signature", "missing", "too_many", "first"), GENERATED,
    ids=[cls.__name__ for cls, *_ in GENERATED],
)
def test_a_generated_init_takes_and_refuses_what_the_hand_written_one_did(
    cls, signature, missing, too_many, first
):
    calls = [
        (lambda: cls(), missing),
        (lambda: cls(*range(len(cls._fields) + 1)), too_many),
        (lambda: cls(0, **{cls._fields[0]: 0}), f"got multiple values for argument {first}"),
    ]
    for call, message in calls:
        with pytest.raises(TypeError) as refused:
            call()
        assert str(refused.value) == f"{cls.__name__}.__init__() {message}"
    bare = inspect.signature(cls).replace(return_annotation=inspect.Signature.empty)
    params = [param.replace(annotation=param.empty) for param in bare.parameters.values()]
    assert str(bare.replace(parameters=params)) == signature


def test_a_class_builds_its_init_with_its_first_record():
    script = (
        "import ledgerlint.audit, ledgerlint.cli, ledgerlint.loan\n"
        "from ledgerlint.record import Record\n"
        "def built():\n"
        "    return sorted(c.__name__ for c in Record.__subclasses__() if '__init__' in vars(c)"
        " and c.__init__.__code__.co_filename == '<string>')\n"
        "print(built())\n"
        "ledgerlint.loan.build_schedule(ledgerlint.loan.LoanSpec(1000.0, 0.05, 2))\n"
        "print(built())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines() == [
        "['Param', '_RuleSpec']",  # the function catalog and the rule table, at import
        "['AmortizationRow', 'AmortizationSchedule', 'Param', '_RuleSpec']",
    ]


@pytest.mark.parametrize(("record", "golden"), GOLDEN, ids=IDS)
def test_a_record_prints_as_its_dataclass_did(record, golden):
    assert re.sub(r" at 0x[0-9a-f]+", " at 0x0", repr(record)) == golden


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_record_equals_only_a_record_of_its_class_with_equal_fields(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy is not record and copy == record and not copy != record
    assert record != _values(record) and _values(record) != record
    assert all(record != other for other in RECORDS if other is not record)


def test_records_of_two_classes_with_the_same_values_differ():
    finding = Finding("R1", Severity.INFO, "A1", "message")
    assert finding != ("R1", Severity.INFO, "A1", "message", ())
    assert finding != Finding("R1", Severity.INFO, "A1", "message", (("A1", "1"),))
    assert ScheduleRow(1, 2.0, 3.0) != (1, 2.0, 3.0)
    assert AdvertisedVerdict(ErrorKind.VALUE, "x") != ErrorValue(ErrorKind.VALUE, "x")
    assert ErrorValue(ErrorKind.VALUE, "x") != AdvertisedVerdict(ErrorKind.VALUE, "x")
    assert ErrorValue(ErrorKind.VALUE, "x") == ErrorValue(ErrorKind.VALUE, "x")
    assert ErrorValue(ErrorKind.VALUE, "x") != ErrorValue(ErrorKind.DIV0, "x")


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_record_hashes_as_its_dataclass_did(record):
    if type(record) is _FunctionSpec:  # a plain dataclass, unhashable
        with pytest.raises(TypeError, match="unhashable type: '_FunctionSpec'"):
            hash(record)
    elif any(isinstance(value, dict) for value in _values(record)):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(_values(record))
        assert {record, pickle.loads(pickle.dumps(record))} == {record}


def test_a_default_rule_config_is_unhashable_as_before():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(RuleConfig())


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_record_refuses_assignment_and_deletion(record):
    before = repr(record)
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == before


def test_records_take_keywords_and_keep_their_defaults():
    assert Finding("R1", Severity.INFO, "A1", "m").evidence == ()
    assert Finding(
        rule_id="R1", severity=Severity.INFO, cell="A1", message="m", evidence=(("A1", "1"),)
    ) == Finding("R1", Severity.INFO, "A1", "m", (("A1", "1"),))
    assert Param(name="x", role=Role.NUMBER) == Param("x", Role.NUMBER, False, None)
    assert ErrorValue(kind=ErrorKind.DIV0, message="m") == ErrorValue(ErrorKind.DIV0, "m")
    config = RuleConfig()
    assert (config.thresholds, config.severities) == ({}, {})
    assert config.enabled == frozenset(["R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"])
    assert RuleConfig(enabled=frozenset({"R1"})) == RuleConfig(frozenset({"R1"}), {}, {})
    assert RuleConfig(thresholds={"R5": 2.0}).threshold("R5") == 2.0
    assert RuleConfig().threshold("R5") == 1.0
    assert RuleConfig(severities={"R2": Severity.ERROR}).severity("R2") is Severity.ERROR
    assert RuleConfig(enabled=frozenset({"R5"}), thresholds={"R5": 2.0})._active == {
        "R5": (Severity.ERROR, 2.0)
    }
    assert CashFlowSeries(values=[1]) == CashFlowSeries((1.0,), None)
    assert DepreciationSpec(cost=10.0, salvage=1.0, life=3).month == 12
    assert ScheduleRow(period=1, depreciation=2.0, book_value_end=3.0) == ScheduleRow(1, 2.0, 3.0)
    schedule = db_schedule(SPEC, PrecisionMode.EXACT)
    assert DepreciationSchedule(
        spec=SPEC, mode=PrecisionMode.EXACT, rate=schedule.rate, rows=schedule.rows
    ) == schedule
    assert ReconcileReport(1.0, 2.0, 3.0, 4.0).flagged is False
    verdict = AdvertisedVerdict(status=ComplianceStatus.COMPLIANT, gap_basis_points=0.0)
    assert verdict == AdvertisedVerdict(ComplianceStatus.COMPLIANT, 0.0)
    loan = LoanSpec(principal=1000.0, annual_rate=0.05, term_months=2)
    assert (loan.holiday_months, loan.convention) == (0, PeriodicConvention.UK_EFFECTIVE_ROOT)
    assert AmortizationRow(month=1).closing is None
    assert AmortizationSchedule(
        spec=LOAN, monthly_rate=0.1, level_payment=1.0, rows=()
    ) == AmortizationSchedule(LOAN, 0.1, 1.0, ())
    assert Discrepancy(
        month=1, field="payment", expected=1.0, actual=2.0, difference=1.0
    ) == Discrepancy(1, "payment", 1.0, 2.0, 1.0)


@pytest.mark.parametrize(("build", "message"), [
    (lambda: DepreciationSpec(0, 0, 5), "cost must be positive and finite, got 0"),
    (lambda: DepreciationSpec(math.nan, 0, 5), "cost must be positive and finite, got nan"),
    (lambda: DepreciationSpec(100, 150, 5), "salvage must be between 0 and cost (100), got 150"),
    (lambda: DepreciationSpec(100, 10, 0), "life must be at least 1 period, got 0"),
    (lambda: DepreciationSpec(100, 10, 5, 13), "month must be in 1..12, got 13"),
    (lambda: CashFlowSeries([]), "cash-flow series must be non-empty"),
    (lambda: CashFlowSeries([1, 2], [dt.date(2024, 1, 1)]), "1 dates for 2 values"),
    (
        lambda: CashFlowSeries([1, 2], [dt.date(2024, 1, 1), dt.date(2024, 1, 1)]),
        "dates must be strictly increasing",
    ),
    (lambda: LoanSpec(0, 0.05, 12), "principal must be positive and finite, got 0"),
    (lambda: LoanSpec(1000, -1.0, 12), "annual_rate must be finite and exceed -1, got -1.0"),
    (lambda: LoanSpec(1000, 0.05, 0), "term_months must be at least 1, got 0"),
    (lambda: LoanSpec(1000, 0.05, 12, -1), "holiday_months cannot be negative, got -1"),
    (
        lambda: LoanSpec(1000, 0.05, 12, 12),
        "holiday_months (12) must leave at least one repayment month within the 12-month term",
    ),
])
def test_a_record_refuses_what_its_dataclass_refused_with_the_same_message(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_a_sheet_with_a_parse_cell_pickles_with_its_error_value():
    sheet = Sheet([(1, [(1, "=1/0"), (2, "=A1+1"), (3, "=PMT(0.1,12")])])
    error = sheet.cells["C1"].error
    assert error.kind is ErrorKind.PARSE
    copy = pickle.loads(pickle.dumps(sheet))
    assert copy.cells["C1"].error == error and type(copy.cells["C1"].error) is ErrorValue
    assert list(copy.cells.items()) == list(sheet.cells.items())
    assert repr(copy.evaluate_all()) == repr(sheet.evaluate_all())
    assert run_rules(copy) == run_rules(sheet)
    findings = pickle.loads(pickle.dumps(run_rules(sheet)))
    assert [finding.rule_id for finding in findings] == ["R0"]
