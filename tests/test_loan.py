"""Amortization schedules, payment holidays, published-table verification."""

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ledgerlint.cashflow import pmt
from ledgerlint.depreciation import MAX_SCHEDULE_ROWS
from ledgerlint.loan import (
    AmortizationRow,
    LoanSpec,
    _annuity_pv,
    build_schedule,
    implied_monthly_rate,
    load_published,
    verify_schedule,
)
from ledgerlint.rates import (
    ComplianceStatus,
    PeriodicConvention,
    advertised_apr,
    verify_advertised,
)

# Effective annual rate whose 12th root is one percent per month.
EFF_1PCT = 1.01 ** 12 - 1


def make_spec(**overrides):
    base = dict(
        principal=10_000.0,
        annual_rate=EFF_1PCT,
        term_months=12,
        holiday_months=0,
        convention=PeriodicConvention.UK_EFFECTIVE_ROOT,
    )
    base.update(overrides)
    return LoanSpec(**base)


def test_monthly_rate_conventions():
    eff = 0.12682503013196977
    uk = LoanSpec(principal=10_000.0, annual_rate=eff, term_months=60,
                  convention=PeriodicConvention.UK_EFFECTIVE_ROOT)
    us = LoanSpec(principal=10_000.0, annual_rate=eff, term_months=60,
                  convention=PeriodicConvention.US_NOMINAL_DIVIDE)
    assert uk.monthly_rate == pytest.approx(0.01, abs=1e-12)
    assert us.monthly_rate == eff / 12
    assert us.monthly_rate > uk.monthly_rate


def test_divide_convention_overcharges():
    eff = 0.12682503013196977
    uk = build_schedule(LoanSpec(principal=10_000.0, annual_rate=eff, term_months=60,
                                 convention=PeriodicConvention.UK_EFFECTIVE_ROOT))
    us = build_schedule(LoanSpec(principal=10_000.0, annual_rate=eff, term_months=60,
                                 convention=PeriodicConvention.US_NOMINAL_DIVIDE))
    assert us.level_payment == pytest.approx(225.9087373843791, abs=1e-9)
    assert uk.level_payment == pytest.approx(222.4444768490178, abs=1e-9)
    assert us.level_payment > uk.level_payment
    assert us.total_interest > uk.total_interest


def test_holiday_months_capitalize_interest():
    schedule = build_schedule(make_spec(holiday_months=3))
    # Oracle: compound the balance month by month during the holiday.
    balance = 10_000.0
    for row in schedule.rows[:3]:
        assert row.payment == 0.0
        assert row.principal_paid == 0.0
        assert row.opening == balance
        assert row.interest == pytest.approx(balance * 0.01, abs=1e-9)
        balance = balance + row.interest
        assert row.closing == balance
    assert schedule.rows[3].opening == schedule.rows[2].closing
    assert schedule.rows[2].closing == pytest.approx(10_303.01, abs=1e-9)


def test_holiday_raises_repayments():
    plain = build_schedule(make_spec())
    delayed = build_schedule(make_spec(holiday_months=3))
    assert delayed.level_payment > plain.level_payment
    assert len(delayed.rows) == len(plain.rows) == 12


def test_schedule_matches_pmt_and_ends_at_zero():
    schedule = build_schedule(make_spec())
    level = -pmt(schedule.monthly_rate, 12, 10_000.0)
    assert schedule.level_payment == level
    assert schedule.level_payment == pytest.approx(888.4878867834161, abs=1e-9)
    for row in schedule.rows[:-1]:
        assert row.payment == level
    # Final payment absorbs the float residual so the loan closes at exactly 0.
    assert abs(schedule.rows[-1].payment - level) < 1e-7
    assert schedule.rows[-1].closing == 0.0


def test_row_accounting_identity_is_exact():
    schedule = build_schedule(make_spec(holiday_months=2, term_months=18))
    for row in schedule.rows:
        assert row.closing == row.opening + row.interest - row.payment
    for earlier, later in zip(schedule.rows, schedule.rows[1:]):
        assert later.opening == earlier.closing


def test_totals():
    schedule = build_schedule(make_spec())
    total_paid = sum(row.payment for row in schedule.rows)
    assert schedule.total_paid == pytest.approx(total_paid)
    assert schedule.total_interest == pytest.approx(total_paid - 10_000.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(principal=0.0)
    with pytest.raises(ValueError):
        make_spec(term_months=0)
    with pytest.raises(ValueError):
        make_spec(holiday_months=-1)
    with pytest.raises(ValueError):
        make_spec(holiday_months=12)
    with pytest.raises(ValueError):
        make_spec(annual_rate=-1.0)


def test_verify_schedule_clean_round_trip(tmp_path):
    spec = make_spec(holiday_months=3)
    schedule = build_schedule(spec)
    path = tmp_path / "table.csv"
    path.write_text(schedule.to_csv())
    published = load_published(path)
    assert verify_schedule(published, spec) == []


def test_verify_schedule_flags_bad_interest():
    spec = make_spec()
    rows = [
        AmortizationRow(
            month=row.month,
            opening=row.opening,
            interest=row.interest + (1.0 if row.month == 2 else 0.0),
            payment=row.payment,
            closing=row.closing,
        )
        for row in build_schedule(spec).rows
    ]
    findings = verify_schedule(rows, spec)
    assert len(findings) == 1
    assert findings[0].month == 2
    assert findings[0].field == "interest"
    assert findings[0].difference == pytest.approx(1.0)


def test_verify_schedule_tolerates_penny_rounding():
    spec = make_spec()
    rows = [
        AmortizationRow(
            month=row.month,
            opening=round(row.opening, 2),
            interest=round(row.interest, 2),
            payment=round(row.payment, 2),
            closing=row.closing,
        )
        for row in build_schedule(spec).rows
    ]
    assert verify_schedule(rows, spec) == []


def test_verify_schedule_length_mismatch():
    spec = make_spec()
    rows = list(build_schedule(spec).rows)[:-1]
    findings = verify_schedule(rows, spec)
    assert any(f.field == "row_count" for f in findings)


@pytest.mark.parametrize(
    "overrides", [{"annual_rate": math.nan}, {"annual_rate": math.inf}, {"principal": math.inf}]
)
def test_spec_rejects_non_finite_terms(overrides):
    with pytest.raises(ValueError, match="finite"):
        make_spec(**overrides)


def test_verify_schedule_flags_a_nan_row(tmp_path):
    spec = make_spec()
    lines = build_schedule(spec).to_csv().splitlines()
    lines[3] = "3,nan,nan,nan,nan"
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    findings = verify_schedule(load_published(path), spec)
    assert [(f.month, f.field) for f in findings] == [
        (3, "opening"), (3, "interest"), (3, "payment"), (3, "closing")
    ]


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.01])
def test_verify_schedule_rejects_a_tolerance_that_is_not_finite_and_non_negative(tolerance):
    spec = make_spec()
    with pytest.raises(ValueError, match="tolerance"):
        verify_schedule(build_schedule(spec).rows, spec, tolerance=tolerance)


def test_verify_schedule_flags_a_misnumbered_month():
    spec = make_spec()
    rows = list(build_schedule(spec).rows)
    rows[2] = AmortizationRow(month=4, payment=rows[2].payment)
    findings = verify_schedule(rows, spec)
    assert [(f.month, f.field, f.expected, f.actual, f.difference) for f in findings] == [
        (3, "month", 3.0, 4.0, 1.0)
    ]


def test_verify_schedule_skips_unstated_fields():
    spec = make_spec()
    rows = [
        AmortizationRow(month=row.month, payment=row.payment)
        for row in build_schedule(spec).rows
    ]
    assert verify_schedule(rows, spec) == []
    rows[4] = AmortizationRow(month=5, payment=rows[4].payment + 2.0)
    findings = verify_schedule(rows, spec)
    assert [f.field for f in findings] == ["payment"]


def test_implied_monthly_rate_recovers_pmt_rate():
    result = implied_monthly_rate(principal=10_000.0, payment=888.4878867834161, months=12)
    assert result.rate == pytest.approx(0.01, abs=1e-10)
    assert result.iterations > 0


def test_implied_monthly_rate_zero_rate():
    result = implied_monthly_rate(principal=1200.0, payment=100.0, months=12)
    assert result.rate == pytest.approx(0.0, abs=1e-10)
    # below float resolution 1 + rate is 1, and the present value is the plain sum
    assert _annuity_pv(1e-17, 12, 100.0) == _annuity_pv(-1e-17, 12, 100.0) == 1200.0
    assert _annuity_pv(1e-12, 12, 100.0) == pytest.approx(1200.0, rel=1e-10)


def test_implied_monthly_rate_unbracketable():
    with pytest.raises(ValueError, match="bracket"):
        implied_monthly_rate(principal=10_000.0, payment=1.0, months=12)
    with pytest.raises(ValueError):
        implied_monthly_rate(principal=-5.0, payment=100.0, months=12)
    with pytest.raises(ValueError):
        implied_monthly_rate(principal=100.0, payment=-1.0, months=12)


def test_implied_monthly_rate_needs_a_month():
    with pytest.raises(ValueError, match="months must be at least 1, got 0"):
        implied_monthly_rate(principal=100.0, payment=10.0, months=0)


def test_quoted_rate_advertising_loop():
    quoted = 0.11995
    spec = LoanSpec(principal=5_000.0, annual_rate=quoted, term_months=24,
                    convention=PeriodicConvention.UK_EFFECTIVE_ROOT)
    schedule = build_schedule(spec)
    recovered = implied_monthly_rate(
        principal=5_000.0, payment=schedule.level_payment, months=24
    )
    annual = (1.0 + recovered.rate) ** 12 - 1.0
    assert annual == pytest.approx(quoted, abs=1e-9)
    assert advertised_apr(annual) == 0.119
    verdict = verify_advertised(annual, 0.119)
    assert verdict.status is ComplianceStatus.COMPLIANT


@settings(max_examples=200, deadline=None)
@given(
    principal=st.floats(min_value=1_000.0, max_value=1_000_000.0),
    monthly=st.floats(min_value=0.001, max_value=0.03),
    term=st.integers(min_value=6, max_value=120),
    holiday=st.integers(min_value=0, max_value=3),
)
def test_schedule_invariants(principal, monthly, term, holiday):
    annual = (1.0 + monthly) ** 12 - 1.0
    spec = LoanSpec(principal=principal, annual_rate=annual, term_months=term,
                    holiday_months=holiday,
                    convention=PeriodicConvention.UK_EFFECTIVE_ROOT)
    schedule = build_schedule(spec)
    assert len(schedule.rows) == term
    assert [row.month for row in schedule.rows] == list(range(1, term + 1))
    assert schedule.rows[0].opening == principal
    assert schedule.rows[-1].closing == 0.0
    for row in schedule.rows[:holiday]:
        assert row.payment == 0.0
    for row in schedule.rows:
        assert row.closing == row.opening + row.interest - row.payment
    repaid = sum(row.principal_paid for row in schedule.rows)
    capitalized = schedule.rows[holiday].opening if holiday else principal
    assert repaid == pytest.approx(capitalized, rel=1e-9)


def test_load_published_requires_month_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("opening,payment\n100,10\n")
    with pytest.raises(ValueError, match="month"):
        load_published(path)


@pytest.mark.parametrize(
    "table,line",
    [
        ("payment,month\n100\n", 2),
        ("month,payment\n1,100\n1.5,100\n", 3),
        ("month,payment\n1_0,100\n", 2),  # int() reads digit-group underscores
        ("month,payment\n1,100\n١٢,100\n", 3),  # and non-ASCII digits
    ],
)
def test_load_published_names_the_line_of_a_missing_or_non_integer_month(tmp_path, table, line):
    path = tmp_path / "bad.csv"
    path.write_text(table, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^line {line}: month must be an integer"):
        load_published(path)


def test_load_published_rejects_a_repeated_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("month,payment,month,payment,closing\n1,2,3,4,5\n")
    with pytest.raises(ValueError, match=r"^repeated columns in repayment table: \['month', 'payment'\]$"):
        load_published(path)


@pytest.mark.parametrize(
    "table,message",
    [
        ("month,payment\n2,abc\n", "line 2: payment must be a number, got 'abc'"),
        ("month,opening,closing\n1,100,90\n2,90,1.0.0\n", "line 3: closing must be a number, got '1.0.0'"),
        ("month,payment\n1,1_000\n", "line 2: payment must be a number, got '1_000'"),
        ("month,interest\n1,٣.٥\n", "line 2: interest must be a number, got '٣.٥'"),
    ],
    ids=["payment", "closing", "underscore", "non_ascii"],
)
def test_load_published_names_the_line_of_a_value_that_is_not_a_number(tmp_path, table, message):
    path = tmp_path / "bad.csv"
    path.write_text(table, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_published(path)


def test_load_published_partial_columns(tmp_path):
    path = tmp_path / "partial.csv"
    path.write_text("month,payment\n1,100.5\n2,100.5\n")
    rows = load_published(path)
    assert rows == [
        AmortizationRow(month=1, payment=100.5),
        AmortizationRow(month=2, payment=100.5),
    ]
    assert rows[0].opening is None


def test_a_schedule_past_the_row_cap_is_refused_before_its_first_row():
    spec = LoanSpec(principal=1000.0, annual_rate=0.1, term_months=MAX_SCHEDULE_ROWS + 1)
    with pytest.raises(ValueError, match=f"longer than {MAX_SCHEDULE_ROWS}"):
        build_schedule(spec)
    with pytest.raises(ValueError, match=f"longer than {MAX_SCHEDULE_ROWS}"):
        verify_schedule([], spec)


@pytest.mark.parametrize("holiday", [0, 2])
def test_a_schedule_that_overflows_names_its_first_period(holiday):
    spec = LoanSpec(principal=1e308, annual_rate=1e6, term_months=3, holiday_months=holiday)
    with pytest.raises(ValueError, match="numeric overflow in period 1 of the schedule"):
        build_schedule(spec)
