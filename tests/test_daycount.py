"""Day-count bases: counts, year fractions, and the 30/360 variant rules."""

import calendar
import datetime as dt
import random

import pytest
from hypothesis import given, strategies as st

from ledgerlint.daycount import (
    ACTUAL_BASES,
    DayCountBasis,
    _is_leap,
    days_between,
    parse_date,
    year_fraction,
)

D = dt.date

ALL_BASES = list(DayCountBasis)

dates_1900_2100 = st.dates(min_value=D(1900, 1, 1), max_value=D(2100, 12, 31))


def iter_days(start: dt.date, end: dt.date) -> int:
    """Independent oracle: count days by walking the calendar one day at a time."""
    n = 0
    d = start
    one = dt.timedelta(days=1)
    while d < end:
        d += one
        n += 1
    return n


@pytest.mark.parametrize("basis", ALL_BASES)
def test_identical_dates_count_zero(basis):
    assert days_between(D(2024, 3, 1), D(2024, 3, 1), basis) == 0
    assert year_fraction(D(2024, 3, 1), D(2024, 3, 1), basis) == 0.0


def test_thirty_360_day31_adjustments_diverge():
    # Hand application of the variant rules to 2024-01-15 -> 2024-03-31:
    # US keeps end-day 31 (start day is neither 30 nor 31): 30*2 + (31-15) = 76.
    # European truncates end-day 31 to 30 unconditionally:  30*2 + (30-15) = 75.
    assert days_between(D(2024, 1, 15), D(2024, 3, 31), DayCountBasis.US_30_360) == 76
    assert days_between(D(2024, 1, 15), D(2024, 3, 31), DayCountBasis.EUR_30_360) == 75


def test_us_30_360_both_days_31():
    # d1=31 -> 30, then d2=31 -> 30 because d1 was adjusted: exactly one 30-day month.
    assert days_between(D(2024, 1, 31), D(2024, 2, 29), DayCountBasis.US_30_360) == 29
    assert days_between(D(2024, 1, 31), D(2024, 3, 31), DayCountBasis.US_30_360) == 60
    # d1=30 also pulls an end-day 31 back to 30 under the US rule.
    assert days_between(D(2024, 1, 30), D(2024, 3, 31), DayCountBasis.US_30_360) == 60
    # ...but d1=15 does not: the end-day 31 stays.
    assert days_between(D(2024, 3, 15), D(2024, 3, 31), DayCountBasis.US_30_360) == 16


def test_actual_actual_full_year():
    start, end = D(2023, 1, 1), D(2024, 1, 1)
    assert days_between(start, end, DayCountBasis.ACTUAL_ACTUAL) == iter_days(start, end) == 365


def test_year_fraction_examples():
    # Leap-year span over a 360 denominator.
    yf = year_fraction(D(2024, 1, 1), D(2025, 1, 1), DayCountBasis.ACTUAL_360)
    assert yf == pytest.approx(366 / 360, rel=1e-15)
    # Plain 30/360 arithmetic: six 30-day months.
    assert year_fraction(D(2024, 1, 1), D(2024, 7, 1), DayCountBasis.EUR_30_360) == 0.5


def test_actual_actual_year_fraction_unit_years():
    assert year_fraction(D(2023, 1, 1), D(2024, 1, 1), DayCountBasis.ACTUAL_ACTUAL) == 1.0
    # Span covering Feb 29 uses the 366 denominator.
    assert year_fraction(D(2024, 1, 1), D(2025, 1, 1), DayCountBasis.ACTUAL_ACTUAL) == 1.0


def test_actual_actual_long_span_uses_mean_year_length():
    # 2023..2025 touched: (365+366+365)/3 days per year.
    yf = year_fraction(D(2023, 6, 1), D(2025, 6, 1), DayCountBasis.ACTUAL_ACTUAL)
    days = iter_days(D(2023, 6, 1), D(2025, 6, 1))
    assert yf == pytest.approx(days / ((365 + 366 + 365) / 3), rel=1e-15)


def test_ordering_error():
    with pytest.raises(ValueError, match="before"):
        days_between(D(2024, 3, 2), D(2024, 3, 1), DayCountBasis.ACTUAL_365)


def test_supported_range_enforced():
    with pytest.raises(ValueError, match="supported range"):
        days_between(D(1899, 12, 31), D(1900, 1, 2), DayCountBasis.ACTUAL_365)
    with pytest.raises(ValueError, match="supported range"):
        days_between(D(2199, 1, 1), D(2200, 1, 1), DayCountBasis.ACTUAL_365)


def test_parse_date():
    assert parse_date("2024-02-29") == D(2024, 2, 29)
    with pytest.raises(ValueError):
        parse_date("2023-02-29")
    with pytest.raises(ValueError):
        parse_date("29/02/2024")
    with pytest.raises(ValueError, match="supported range"):
        parse_date("1899-12-31")


@pytest.mark.parametrize("text", ["20240131", "2024-W05-3"])
def test_parse_date_takes_only_yyyy_mm_dd(text):
    # date.fromisoformat reads both as 2024-01-31 from Python 3.11 on
    with pytest.raises(ValueError, match="expected YYYY-MM-DD"):
        parse_date(text)
    assert parse_date(" 2024-01-31 ") == D(2024, 1, 31)


def test_actual_bases_match_calendar_iteration_oracle():
    rng = random.Random(774431)
    lo = D(1900, 1, 1).toordinal()
    hi = D(2100, 12, 31).toordinal()
    for _ in range(1000):
        a, b = sorted(rng.randint(lo, hi) for _ in range(2))
        start, end = D.fromordinal(a), D.fromordinal(b)
        expected = iter_days(start, end)
        for basis in ACTUAL_BASES:
            assert days_between(start, end, basis) == expected


@given(dates_1900_2100, dates_1900_2100, dates_1900_2100)
def test_actual_bases_are_additive(a, b, c):
    a, b, c = sorted([a, b, c])
    for basis in ACTUAL_BASES:
        assert days_between(a, b, basis) + days_between(b, c, basis) == days_between(a, c, basis)


@given(dates_1900_2100, dates_1900_2100)
def test_thirty_360_counts_are_bounded(a, b):
    a, b = min(a, b), max(a, b)
    actual = (b - a).days
    for basis in (DayCountBasis.US_30_360, DayCountBasis.EUR_30_360):
        n = days_between(a, b, basis)
        assert 0 <= n <= actual + 3


@given(dates_1900_2100, dates_1900_2100)
def test_variants_agree_when_no_day_exceeds_30(a, b):
    a, b = min(a, b), max(a, b)
    if a.day <= 30 and b.day <= 30:
        us = days_between(a, b, DayCountBasis.US_30_360)
        eur = days_between(a, b, DayCountBasis.EUR_30_360)
        assert us == eur


def test_leap_years_follow_the_gregorian_rule():
    assert [year for year in range(1, 10_000) if _is_leap(year)] == [
        year for year in range(1, 10_000) if calendar.isleap(year)
    ]
