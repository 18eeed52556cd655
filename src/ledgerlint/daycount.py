"""Day-count bases and year fractions.

The two 30/360 variants share the numerator formula
``360*(y2-y1) + 30*(m2-m1) + (d2'-d1')`` and differ only in how days 31 are
pulled back to 30:

* US (NASD): if d1 is 31 it becomes 30; if d2 is 31 *and* d1 is 30 (possibly
  after its own adjustment) it becomes 30, otherwise it stays 31.  No
  end-of-February adjustment.
* European: days 31 become 30 on both ends, unconditionally.

Actual bases count true elapsed calendar days.  All dates are proleptic
Gregorian ``datetime.date`` values within 1900-01-01 .. 2199-12-31.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from enum import Enum

MIN_DATE = dt.date(1900, 1, 1)
MAX_DATE = dt.date(2199, 12, 31)

# the one date form read from text; date.fromisoformat alone also takes
# 20240131 and 2024-W05-3 from Python 3.11 on
ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def read_number(text: str, kind: type = float) -> float | int | None:
    """kind(text) when text is a number as the formula lexer writes one, with
    an optional sign and blanks around it, else None: the one number form
    read from text.  float() and int() also read digit-group underscores and
    non-ASCII digits, which are no number here; nan and inf are left to the
    caller."""
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    return None


def format_number(value: float) -> str:
    """Shortest float form; integral values drop the trailing .0."""
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


class DayCountBasis(str, Enum):
    """Supported day-count conventions."""

    US_30_360 = "30/360-US"
    EUR_30_360 = "30/360-EU"
    ACTUAL_ACTUAL = "actual/actual"
    ACTUAL_360 = "actual/360"
    ACTUAL_365 = "actual/365"


ACTUAL_BASES = (
    DayCountBasis.ACTUAL_ACTUAL,
    DayCountBasis.ACTUAL_360,
    DayCountBasis.ACTUAL_365,
)


def _check_supported(d: dt.date) -> None:
    if not MIN_DATE <= d <= MAX_DATE:
        raise ValueError(
            f"date {d.isoformat()} outside supported range "
            f"{MIN_DATE.isoformat()}..{MAX_DATE.isoformat()}"
        )


def _check_ordered(start: dt.date, end: dt.date) -> None:
    _check_supported(start)
    _check_supported(end)
    if start > end:
        raise ValueError(f"start date {start.isoformat()} must be before or equal to end date {end.isoformat()}")


def parse_date(text: str) -> dt.date:
    """Parse a strict ISO 8601 date (YYYY-MM-DD) within the supported range."""
    stripped = text.strip()
    if not ISO_DATE_RE.fullmatch(stripped):
        raise ValueError(f"invalid ISO date {text!r}: expected YYYY-MM-DD")
    try:
        d = dt.date.fromisoformat(stripped)
    except ValueError as exc:
        raise ValueError(f"invalid ISO date {text!r}: {exc}") from None
    _check_supported(d)
    return d


def _days_30_360(start: dt.date, end: dt.date, european: bool) -> int:
    d1, d2 = start.day, end.day
    if european:
        d1 = min(d1, 30)
        d2 = min(d2, 30)
    else:
        if d1 == 31:
            d1 = 30
        if d2 == 31 and d1 == 30:
            d2 = 30
    return 360 * (end.year - start.year) + 30 * (end.month - start.month) + (d2 - d1)


def days_between(start: dt.date, end: dt.date, basis: DayCountBasis) -> int:
    """Day count from ``start`` to ``end`` under ``basis``.

    Actual bases return true elapsed days; the 30/360 bases apply the variant's
    day-of-month adjustments first.
    """
    _check_ordered(start, end)
    if basis == DayCountBasis.US_30_360:
        return _days_30_360(start, end, european=False)
    if basis == DayCountBasis.EUR_30_360:
        return _days_30_360(start, end, european=True)
    return (end - start).days


def _is_leap(year: int) -> bool:
    """Whether a Gregorian year has a Feb 29."""
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _contains_leap_day(start: dt.date, end: dt.date) -> bool:
    # Half-open on the left: a leap day counts when start < Feb 29 <= end,
    # matching the day count's exclusive-start convention.
    for year in range(start.year, end.year + 1):
        if _is_leap(year):
            leap = dt.date(year, 2, 29)
            if start < leap <= end:
                return True
    return False


def _actual_actual_denominator(start: dt.date, end: dt.date) -> float:
    days = (end - start).days
    years = range(start.year, end.year + 1)
    if days <= 366 and len(years) <= 2:
        return 366.0 if _contains_leap_day(start, end) else 365.0
    lengths = [366 if _is_leap(y) else 365 for y in years]
    return sum(lengths) / len(lengths)


def year_fraction(start: dt.date, end: dt.date, basis: DayCountBasis) -> float:
    """Fraction of a year from ``start`` to ``end`` under ``basis``.

    Denominators: 360 for the 30/360 bases and actual/360, 365 for actual/365.
    actual/actual divides by 365, or 366 when the span covers a Feb 29; spans
    longer than a year use the mean length of the calendar years touched.
    """
    n = days_between(start, end, basis)
    if basis == DayCountBasis.ACTUAL_365:
        return n / 365.0
    if basis == DayCountBasis.ACTUAL_ACTUAL:
        return n / _actual_actual_denominator(start, end)
    return n / 360.0
