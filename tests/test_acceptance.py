"""Acceptance gate: the package's headline behaviors, one test per criterion.

Each criterion prints a single PASS or FAIL line (visible under ``pytest -s``
or in captured output) in addition to the usual pytest verdict.
"""

import datetime as dt
import random
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerlint.audit import RuleConfig, run_rules
from ledgerlint.cashflow import npv_legacy, npv_t0
from ledgerlint.daycount import DayCountBasis, days_between
from ledgerlint.depreciation import DepreciationSpec, PrecisionMode, db_schedule
from ledgerlint.formula import ErrorKind, ErrorValue, Sheet, parse, to_source
from ledgerlint.loan import LoanSpec, build_schedule, implied_monthly_rate
from ledgerlint.rates import (
    PeriodicConvention,
    accrint,
    advertised_apr,
    effective_rate,
    nominal_rate,
)

from test_formula_parser import formula_asts

FIXTURES = Path(__file__).parent / "fixtures"

TRAPS = [
    ("r1_npv_period0.csv", "R1", "B1"),
    ("r2_rate_div_12.csv", "R2", "A1"),
    ("r3_intrate_compound.csv", "R3", "B1"),
    ("r4_db_month.csv", "R4", "B1"),
    ("r5_rate_magnitude.csv", "R5", "A1"),
    ("r6_date_arithmetic.csv", "R6", "A1"),
    ("r7_basis_default.csv", "R7", "B1"),
    ("r8_divisor_360.csv", "R8", "B1"),
]


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def test_apr_rounding_replication():
    with criterion("APR rounding replication"):
        assert advertised_apr(0.11995) == 0.119


def test_db_reconciliation_shock():
    with criterion("DB reconciliation shock"):
        spec = DepreciationSpec(cost=1_000_000.0, salvage=100_000.0, life=6)
        compat_residual = db_schedule(spec, PrecisionMode.COMPAT).rows[-1].book_value_end
        assert abs(compat_residual - 100_000.0) > 100.0
        exact_residual = db_schedule(spec, PrecisionMode.EXACT).rows[-1].book_value_end
        assert abs(exact_residual - 100_000.0) / 100_000.0 <= 1e-6


def test_month_argument_extra_period():
    with criterion("Month-argument extra period"):
        spec = DepreciationSpec(cost=1_000_000.0, salvage=100_000.0, life=6, month=7)
        schedule = db_schedule(spec, PrecisionMode.COMPAT)
        assert len(schedule.rows) == 7
        first_six = sum(row.depreciation for row in schedule.rows[:6])
        total = sum(row.depreciation for row in schedule.rows)
        assert first_six < total


def test_too_high_trap():
    with criterion('"Too high" trap'):
        effective_annual = 1.01**12 - 1
        by_convention = {}
        for convention in (
            PeriodicConvention.UK_EFFECTIVE_ROOT,
            PeriodicConvention.US_NOMINAL_DIVIDE,
        ):
            spec = LoanSpec(
                principal=10_000.0,
                annual_rate=effective_annual,
                term_months=60,
                convention=convention,
            )
            by_convention[convention] = build_schedule(spec).rows[0].payment
        uk = by_convention[PeriodicConvention.UK_EFFECTIVE_ROOT]
        us = by_convention[PeriodicConvention.US_NOMINAL_DIVIDE]
        assert us > uk
        assert implied_monthly_rate(10_000.0, us, 60).rate == pytest.approx(
            0.010568752510997481, abs=1e-8
        )
        assert implied_monthly_rate(10_000.0, uk, 60).rate == pytest.approx(
            0.01, abs=1e-8
        )


def test_npv_convention_identity():
    with criterion("NPV convention identity"):
        rng = random.Random("npv-identity")
        for _ in range(200):
            rate = rng.uniform(-0.5, 1.0)
            values = [rng.uniform(-1000.0, 1000.0) for _ in range(rng.randint(1, 12))]
            assert npv_t0(rate, values) == values[0] + npv_legacy(rate, values[1:])
            assert npv_legacy(rate, values) == npv_t0(rate, [0.0] + values)


def test_day_count_divergence():
    with criterion("Day-count divergence"):
        start, end = dt.date(2024, 1, 15), dt.date(2024, 3, 31)
        assert days_between(start, end, DayCountBasis.US_30_360) == 76
        assert days_between(start, end, DayCountBasis.EUR_30_360) == 75
        us = accrint(start, end, 0.05, 1000.0, DayCountBasis.US_30_360)
        eur = accrint(start, end, 0.05, 1000.0, DayCountBasis.EUR_30_360)
        assert us != eur
        assert us / eur == pytest.approx(76.0 / 75.0, rel=1e-12)


def test_effective_nominal_round_trip():
    with criterion("Effective/nominal round trip"):
        for periods in (1, 2, 4, 12, 52, 365):
            for rate in (0.0001, 0.005, 0.01, 0.05, 0.1, 0.12, 0.25, 0.5):
                recovered = nominal_rate(effective_rate(rate, periods), periods)
                assert recovered == pytest.approx(rate, abs=1e-12)


def test_audit_fixture_suite():
    with criterion("Audit fixture suite"):
        from ledgerlint.formula import load_workbook

        for filename, rule_id, cell in TRAPS:
            findings = run_rules(load_workbook(FIXTURES / "traps" / filename))
            assert [(f.cell, f.rule_id) for f in findings] == [(cell, rule_id)]
        for path in sorted((FIXTURES / "clean").glob("*.csv")):
            assert run_rules(load_workbook(path)) == []
        for filename, rule_id, _ in TRAPS:
            sheet = load_workbook(FIXTURES / "traps" / filename)
            full = run_rules(sheet)
            subset = run_rules(sheet, RuleConfig(enabled=frozenset({rule_id})))
            assert subset == [f for f in full if f.rule_id == rule_id]


FUZZ_SNIPPETS = [
    "1", "-2.5", "2024-01-15", "text", "=A1", "=B2+C3", "=A1:B2", "=SUM(A1:C3)",
    "=NPV(0.1,A1:A4)", "=1/0", "=A1^B1", "=UNKNOWN(1)", "=1+", "=1%+2",
    "=1+é", "=²", "=.²", "=SUM(A1,١)", "é",
]


def test_parser_robustness():
    with criterion("Parser robustness"):

        @settings(max_examples=500, deadline=None, database=None)
        @given(node=formula_asts)
        def round_trip(node):
            assert parse(to_source(node)) == node

        round_trip()

        @settings(max_examples=200, deadline=None, database=None)
        @given(
            grid=st.lists(
                st.lists(st.sampled_from(FUZZ_SNIPPETS), min_size=1, max_size=4),
                min_size=1,
                max_size=4,
            )
        )
        def never_crashes(grid):
            Sheet.from_rows(grid).evaluate_all()

        never_crashes()

        sheet = Sheet.from_rows([["=B1", "=A1", "=A1+1"]])
        values = sheet.evaluate_all()
        for member in ("A1", "B1"):
            assert isinstance(values[member], ErrorValue)
            assert values[member].kind == ErrorKind.CYCLE
        assert values["C1"].kind == ErrorKind.PROPAGATED


def test_loan_holiday_capitalization():
    with criterion("Loan holiday capitalization"):
        spec = LoanSpec(
            principal=10_000.0,
            annual_rate=1.01**12 - 1,
            term_months=15,
            holiday_months=3,
            convention=PeriodicConvention.UK_EFFECTIVE_ROOT,
        )
        schedule = build_schedule(spec)
        capitalized = schedule.rows[3].opening
        assert capitalized == pytest.approx(10_303.01, abs=0.005)
        repaid = sum(row.principal_paid for row in schedule.rows if row.principal_paid)
        assert repaid == pytest.approx(10_303.01, abs=0.01)
