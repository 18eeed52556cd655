"""Present-value family and annuity payment math.

Two NPV conventions live side by side: the legacy one discounts every supplied
value (the first element is period 1), while the period-0 variant leaves the
first value undiscounted so an initial investment need not be kept out of the
series.  ``npv_t0(r, v) == v[0] + npv_legacy(r, v[1:])`` holds exactly.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Sequence

XNPV_DAYS_PER_YEAR = 365.0  # fixed denominator, leap years ignored on purpose


@dataclass(frozen=True)
class CashFlowSeries:
    """Signed cash flows, optionally paired with strictly increasing dates."""

    values: tuple[float, ...]
    dates: tuple[dt.date, ...] | None = None

    def __init__(self, values: Sequence[float], dates: Sequence[dt.date] | None = None):
        if len(values) == 0:
            raise ValueError("cash-flow series must be non-empty")
        if dates is not None:
            if len(dates) != len(values):
                raise ValueError(f"{len(dates)} dates for {len(values)} values")
            for earlier, later in zip(dates, dates[1:]):
                if later <= earlier:
                    raise ValueError("dates must be strictly increasing")
            object.__setattr__(self, "dates", tuple(dates))
        else:
            object.__setattr__(self, "dates", None)
        object.__setattr__(self, "values", tuple(float(v) for v in values))


def _undated_values(series: Sequence[float] | CashFlowSeries) -> tuple[float, ...]:
    # A bare empty sequence is allowed (PV 0) so that the convention identity
    # npv_t0(r, v) == v[0] + npv_legacy(r, v[1:]) holds for singleton series.
    if isinstance(series, CashFlowSeries):
        if series.dates is not None:
            raise ValueError("series is dated; use xnpv for dated flows")
        return series.values
    return tuple(float(v) for v in series)


def _check_rate(rate: float) -> None:
    if rate <= -1.0:
        raise ValueError(f"rate must exceed -1, got {rate}")


def npv_legacy(rate: float, series: Sequence[float] | CashFlowSeries) -> float:
    """Present value discounting *every* value; the first element is period 1."""
    _check_rate(rate)
    values = _undated_values(series)
    total = 0.0
    for i, v in enumerate(values, start=1):
        total += v / (1.0 + rate) ** i
    return total


def npv_t0(rate: float, series: Sequence[float] | CashFlowSeries) -> float:
    """Present value with the first element at period 0, undiscounted."""
    _check_rate(rate)
    values = _undated_values(series)
    if not values:
        raise ValueError("period-0 convention needs at least one value")
    return values[0] + npv_legacy(rate, values[1:])


def xnpv(rate: float, series: CashFlowSeries) -> float:
    """Dated present value at the first flow's date.

    Exponents are actual days from the first date divided by 365; the first
    flow's exponent is zero, so it is never discounted.
    """
    _check_rate(rate)
    if series.dates is None:
        raise ValueError("xnpv needs a dated series; dates are missing")
    d0 = series.dates[0]
    total = 0.0
    for value, day in zip(series.values, series.dates):
        exponent = (day - d0).days / XNPV_DAYS_PER_YEAR
        total += value / (1.0 + rate) ** exponent
    return total


def pmt(rate: float, nper: int, pv: float) -> float:
    """Level payment amortizing ``pv`` over ``nper`` periods; sign opposite to pv."""
    if nper < 1:
        raise ValueError(f"nper must be >= 1, got {nper}")
    _check_rate(rate)
    if 1.0 + rate == 1.0:  # zero or below float resolution
        return -pv / nper
    # expm1/log1p form stays accurate for tiny rates, where 1 - (1+r)**-n
    # cancels catastrophically.
    return pv * rate / math.expm1(-nper * math.log1p(rate))
