"""Fixed-declining-balance depreciation, compat rate rounding, reconciliation."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ledgerlint import depreciation
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


@pytest.mark.parametrize("cost", [math.inf, math.nan])
def test_spec_rejects_a_cost_that_is_not_finite(cost):
    with pytest.raises(ValueError, match="cost must be positive and finite"):
        DepreciationSpec(cost=cost, salvage=1.0, life=3)
    with pytest.raises(ValueError, match="cost must be positive and finite"):
        sln(cost, 1.0, 3)


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


@pytest.mark.filterwarnings("ignore::ledgerlint.depreciation.FullWriteOffWarning")
def test_db_period_matches_the_full_recurrence():
    # Salvage near cost rounds the compat rate to 0, and a tiny salvage drives
    # the book value into the subnormal range within the life, so both kinds
    # of fixed point are crossed, in every month and in either mode.
    fixed_points = 0
    for cost in (1.0, 1000.0, 1e6, 1e300):
        for share in (0.0, 1e-300, 1e-9, 0.001, 0.1, 0.5, 0.9995, 1.0 - 1e-12, 1.0 - 1e-16, 1.0):
            for life in (1, 2, 5, 60, 1200):
                for month in (1, 7, 12):
                    spec = DepreciationSpec(cost, cost * share, life, month)
                    for mode in PrecisionMode:
                        rate = db_rate(spec, mode)
                        rows = rolled_schedule(cost, spec.salvage, life, month, rate)
                        fixed_points += any(a[2] == b[2] for a, b in zip(rows[1:], rows[2:]))
                        for period in {1, 2, 3, life // 2, life, len(rows) - 1, len(rows)}:
                            if not 1 <= period <= len(rows):
                                continue
                            expected = rows[period - 1][1]
                            got = db_period(spec, period, mode)
                            assert got == expected or math.isnan(got) and math.isnan(expected)
    assert fixed_points > 100


@pytest.mark.filterwarnings("ignore::ledgerlint.depreciation.FullWriteOffWarning")
def test_db_period_is_bounded_by_the_fixed_point(monkeypatch):
    # In compat mode the rounded rate is 0 or at least 0.001, so the book value
    # stops changing long before 10**9 periods; a NaN book stops it too.
    charges = []
    charge = depreciation._charge

    def counted(*args):
        charges.append(args[-1])
        assert len(charges) < 1000, "db_period walked past the fixed point"
        return charge(*args)

    monkeypatch.setattr(depreciation, "_charge", counted)
    for salvage in (10.0, 0.0):
        spec = DepreciationSpec(cost=100.0, salvage=salvage, life=10**9)
        assert db_period(spec, 10**9, PrecisionMode.COMPAT) == 0.0
    # 1.7e308 * 12 overflows in the first period, and the book turns -inf, then NaN
    overflowing = DepreciationSpec(cost=1.7e308, salvage=0.0, life=10**9)
    assert math.isnan(db_period(overflowing, 10**9, PrecisionMode.COMPAT))


def test_db_period_exact_mode_jumps_past_the_walk(monkeypatch):
    # The exact rate of a 10**9-period life is about 2.3e-9, so the book never
    # stops changing and a walk to period 10**6 would take 10**6 steps.
    spec = DepreciationSpec(cost=100.0, salvage=10.0, life=10**9)
    rate = db_rate(spec, PrecisionMode.EXACT)
    charges = []
    charge = depreciation._charge

    def counted(*args):
        charges.append(args[-1])
        return charge(*args)

    monkeypatch.setattr(depreciation, "_charge", counted)
    got = db_period(spec, 10**6, PrecisionMode.EXACT)
    assert len(charges) <= depreciation.EXACT_WALK_PERIODS
    assert math.isclose(got, spec.cost * rate * (1 - rate) ** (10**6 - 1), rel_tol=1e-12)
    # where the walk ends, the closed form continues the recurrence
    seam = depreciation.EXACT_WALK_PERIODS
    for month in (7, 12):
        spec = DepreciationSpec(cost=1e6, salvage=1e5, life=seam + 10, month=month)
        rows = rolled_schedule(1e6, 1e5, spec.life, month, db_rate(spec, PrecisionMode.EXACT))
        for period in (seam - 1, seam, seam + 1, seam + 5, len(rows) - 1, len(rows)):
            expected = rows[period - 1][1]
            got = db_period(spec, period, PrecisionMode.EXACT)
            assert math.isclose(got, expected, rel_tol=1e-12), (month, period)
            if period < seam:
                assert got == expected


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
