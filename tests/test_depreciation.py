"""Fixed-declining-balance depreciation, compat rate rounding, reconciliation."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ledgerlint.depreciation import (
    DepreciationSpec,
    FullWriteOffWarning,
    PrecisionMode,
    db_period,
    db_rate,
    db_schedule,
    reconcile,
    sln,
)

MILLION = DepreciationSpec(cost=1_000_000.0, salvage=100_000.0, life=6)
MILLION_M7 = DepreciationSpec(cost=1_000_000.0, salvage=100_000.0, life=6, month=7)


def rolled_schedule(cost, salvage, life, month, rate):
    """Independent oracle: roll the declining-balance recurrence at a given rate."""
    rows = []
    book = cost
    periods = life if month == 12 else life + 1
    for period in range(1, periods + 1):
        if period == 1:
            dep = cost * rate * month / 12
        elif month < 12 and period == periods:
            dep = book * rate * (12 - month) / 12
        else:
            dep = book * rate
        book -= dep
        rows.append((period, dep, book))
    return rows


def test_db_rate_exact_and_compat():
    # Oracle: 1 - 0.1**(1/6) evaluated directly.
    assert db_rate(MILLION, PrecisionMode.EXACT) == pytest.approx(1 - 0.1 ** (1 / 6), abs=1e-15)
    assert db_rate(MILLION, PrecisionMode.EXACT) == pytest.approx(0.31870793094203864, abs=1e-15)
    assert db_rate(MILLION, PrecisionMode.COMPAT) == 0.319


def test_db_rate_salvage_equals_cost():
    spec = DepreciationSpec(cost=500.0, salvage=500.0, life=5)
    assert db_rate(spec, PrecisionMode.EXACT) == 0.0
    assert db_rate(spec, PrecisionMode.COMPAT) == 0.0


def test_db_rate_exact_quarter():
    spec = DepreciationSpec(cost=100.0, salvage=25.0, life=2)
    assert db_rate(spec, PrecisionMode.EXACT) == pytest.approx(0.5, abs=1e-12)
    assert db_rate(spec, PrecisionMode.COMPAT) == 0.5


def test_db_rate_compat_rounds_both_directions():
    # raw 0.09427... rounds down, raw 0.22573... rounds up
    down = DepreciationSpec(cost=1000.0, salvage=500.0, life=7)
    up = DepreciationSpec(cost=1000.0, salvage=100.0, life=9)
    assert db_rate(down, PrecisionMode.COMPAT) == 0.094
    assert db_rate(up, PrecisionMode.COMPAT) == 0.226


def test_db_rate_zero_salvage_flagged():
    spec = DepreciationSpec(cost=1000.0, salvage=0.0, life=4)
    with pytest.warns(FullWriteOffWarning):
        rate = db_rate(spec, PrecisionMode.EXACT)
    assert rate == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        DepreciationSpec(cost=0.0, salvage=0.0, life=3)
    with pytest.raises(ValueError):
        DepreciationSpec(cost=100.0, salvage=200.0, life=3)
    with pytest.raises(ValueError):
        DepreciationSpec(cost=100.0, salvage=10.0, life=0)
    with pytest.raises(ValueError):
        DepreciationSpec(cost=100.0, salvage=10.0, life=3, month=0)
    with pytest.raises(ValueError):
        DepreciationSpec(cost=100.0, salvage=10.0, life=3, month=13)


def test_db_period_first_year_prorated():
    dep = db_period(MILLION_M7, 1, PrecisionMode.COMPAT)
    assert dep == pytest.approx(1_000_000 * 0.319 * 7 / 12, abs=1e-9)
    assert dep == pytest.approx(186_083.3333333, abs=1e-3)


def test_db_period_extra_final_period():
    oracle = rolled_schedule(1_000_000.0, 100_000.0, 6, 7, 0.319)
    dep7 = db_period(MILLION_M7, 7, PrecisionMode.COMPAT)
    assert dep7 == pytest.approx(oracle[6][1], abs=1e-9)
    # Period 7 applies the remaining-months fraction to the remaining book value.
    book_after_6 = oracle[5][2]
    assert dep7 == pytest.approx(book_after_6 * 0.319 * 5 / 12, abs=1e-9)


def test_db_period_zero_when_salvage_equals_cost():
    spec = DepreciationSpec(cost=900.0, salvage=900.0, life=4)
    for period in range(1, 5):
        assert db_period(spec, period, PrecisionMode.EXACT) == 0.0


def test_db_period_range_errors_name_the_extra_period_rule():
    with pytest.raises(ValueError, match="extra"):
        db_period(MILLION, 7, PrecisionMode.COMPAT)
    with pytest.raises(ValueError, match="extra"):
        db_period(MILLION_M7, 8, PrecisionMode.COMPAT)
    with pytest.raises(ValueError):
        db_period(MILLION, 0, PrecisionMode.COMPAT)


def test_db_period_stops_at_the_period_asked_for():
    # every period up to life would be 10**300 of them
    spec = DepreciationSpec(cost=100.0, salvage=10.0, life=10**300)
    for mode in PrecisionMode:
        assert db_period(spec, 1, mode) == spec.cost * db_rate(spec, mode)


def test_db_schedule_exact_simple():
    spec = DepreciationSpec(cost=100.0, salvage=25.0, life=2)
    schedule = db_schedule(spec, PrecisionMode.EXACT)
    deps = [row.depreciation for row in schedule.rows]
    assert deps == pytest.approx([50.0, 25.0], abs=1e-12)
    assert schedule.rows[-1].book_value_end == pytest.approx(25.0, abs=1e-12)


def test_db_schedule_all_zero_when_salvage_equals_cost():
    spec = DepreciationSpec(cost=750.0, salvage=750.0, life=3)
    schedule = db_schedule(spec, PrecisionMode.COMPAT)
    assert all(row.depreciation == 0.0 for row in schedule.rows)
    assert all(row.book_value_end == 750.0 for row in schedule.rows)


def test_db_schedule_month7_has_seven_rows_and_does_not_reconcile():
    schedule = db_schedule(MILLION_M7, PrecisionMode.COMPAT)
    assert len(schedule.rows) == 7
    assert abs(schedule.rows[-1].book_value_end - 100_000.0) > 100.0


def test_compat_schedule_matches_rounded_rate_oracle_exactly():
    schedule = db_schedule(MILLION, PrecisionMode.COMPAT)
    oracle = rolled_schedule(1_000_000.0, 100_000.0, 6, 12, 0.319)
    for row, (period, dep, book) in zip(schedule.rows, oracle):
        assert row.period == period
        assert row.depreciation == dep
        assert row.book_value_end == book


def test_exact_schedule_matches_unrounded_rate_oracle_exactly():
    rate = 1 - (100_000.0 / 1_000_000.0) ** (1 / 6)
    schedule = db_schedule(MILLION, PrecisionMode.EXACT)
    oracle = rolled_schedule(1_000_000.0, 100_000.0, 6, 12, rate)
    for row, (_, dep, book) in zip(schedule.rows, oracle):
        assert row.depreciation == dep
        assert row.book_value_end == book


def test_reconcile_compat_shock():
    schedule = db_schedule(MILLION, PrecisionMode.COMPAT)
    report = reconcile(schedule, MILLION)
    assert abs(report.gap) > 100.0
    assert report.flagged
    # Signed: rounding 0.3187... up to 0.319 over-depreciates, leaving the
    # residual book value short of salvage.
    assert report.gap < 0.0
    assert report.total_depreciation + report.residual_book_value == pytest.approx(1_000_000.0)


def test_reconcile_exact_is_clean():
    schedule = db_schedule(MILLION, PrecisionMode.EXACT)
    report = reconcile(schedule, MILLION)
    assert abs(report.gap) <= 1e-6 * MILLION.cost
    assert not report.flagged


def test_reconcile_trivial_when_salvage_equals_cost():
    spec = DepreciationSpec(cost=80.0, salvage=80.0, life=2)
    report = reconcile(db_schedule(spec, PrecisionMode.COMPAT), spec)
    assert report.gap == 0.0


def test_month_12_and_default_identical():
    explicit = db_schedule(DepreciationSpec(cost=500.0, salvage=50.0, life=4, month=12), PrecisionMode.EXACT)
    default = db_schedule(DepreciationSpec(cost=500.0, salvage=50.0, life=4), PrecisionMode.EXACT)
    assert explicit.rows == default.rows


def test_sln():
    assert sln(1000.0, 100.0, 9) == 100.0
    assert sln(500.0, 500.0, 5) == 0.0
    assert sln(1_000_000.0, 100_000.0, 6) == 150_000.0
    with pytest.raises(ValueError):
        sln(1000.0, 100.0, 0)
    with pytest.raises(ValueError):
        sln(100.0, 200.0, 5)


spec_strategy = st.builds(
    DepreciationSpec,
    cost=st.floats(min_value=1.0, max_value=1e9),
    salvage=st.floats(min_value=1e-3, max_value=1.0),  # scaled below
    life=st.integers(min_value=1, max_value=50),
    month=st.integers(min_value=1, max_value=12),
).map(
    lambda s: DepreciationSpec(cost=s.cost, salvage=s.cost * s.salvage, life=s.life, month=s.month)
)


@settings(max_examples=500, deadline=None)
@given(spec_strategy)
def test_exact_mode_reconciles_to_salvage(spec):
    if spec.month != 12:
        spec = DepreciationSpec(cost=spec.cost, salvage=spec.salvage, life=spec.life)
    schedule = db_schedule(spec, PrecisionMode.EXACT)
    final = schedule.rows[-1].book_value_end
    assert final == pytest.approx(spec.salvage, rel=1e-9, abs=1e-9 * spec.cost)


@given(spec_strategy, st.sampled_from(list(PrecisionMode)))
def test_schedule_shape_invariants(spec, mode):
    schedule = db_schedule(spec, mode)
    expected_len = spec.life if spec.month == 12 else spec.life + 1
    assert len(schedule.rows) == expected_len
    assert [row.period for row in schedule.rows] == list(range(1, expected_len + 1))
    book = spec.cost
    for row in schedule.rows:
        assert row.depreciation >= 0.0
        assert row.book_value_end <= book + 1e-9 * spec.cost
        assert math.isclose(book - row.depreciation, row.book_value_end, rel_tol=1e-12, abs_tol=1e-12)
        book = row.book_value_end


def test_schedule_csv_round_trip(tmp_path):
    schedule = db_schedule(MILLION, PrecisionMode.COMPAT)
    text = schedule.to_csv()
    lines = [line for line in text.splitlines() if line]
    assert lines[0] == "period,depreciation,book_value_end"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == schedule.rows[0].depreciation
