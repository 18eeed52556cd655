"""Fixed-declining-balance and straight-line depreciation schedules.

The declining-balance rate is 1 - (salvage/cost)**(1/life).  In compat mode
that rate is rounded to three decimal places (round half away from zero)
before any period amount is computed, which is how popular spreadsheet DB
implementations behave.  The rounding error compounds across the whole
schedule, so a compat schedule generally does not land on the salvage value.
Exact mode keeps the full-precision rate.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from enum import Enum
from operator import attrgetter

from .record import Record, _set

__all__ = [
    "PrecisionMode",
    "DepreciationSpec",
    "FullWriteOffWarning",
    "ScheduleRow",
    "DepreciationSchedule",
    "ReconcileReport",
    "db_rate",
    "db_period",
    "db_schedule",
    "MAX_SCHEDULE_ROWS",
    "reconcile",
    "sln",
]


class PrecisionMode(str, Enum):
    """Whether computations reproduce spreadsheet rounding or keep full precision."""

    COMPAT = "compat"
    EXACT = "exact"


class FullWriteOffWarning(UserWarning):
    """A zero salvage value forces the declining-balance rate to 1."""


class DepreciationSpec(Record):
    """Asset parameters for a depreciation schedule.

    month is the number of months of depreciation taken in the first year;
    when it is less than 12 the schedule gains an extra final period for the
    remaining months.
    """

    __slots__ = _fields = ("cost", "salvage", "life", "month")

    def __init__(self, cost: float, salvage: float, life: int, month: int = 12) -> None:
        if not 0 < cost < math.inf:  # nan fails too
            raise ValueError(f"cost must be positive and finite, got {cost}")
        if not 0 <= salvage <= cost:
            raise ValueError(f"salvage must be between 0 and cost ({cost}), got {salvage}")
        if life < 1:
            raise ValueError(f"life must be at least 1 period, got {life}")
        if not 1 <= month <= 12:
            raise ValueError(f"month must be in 1..12, got {month}")
        _set(self, "cost", cost)
        _set(self, "salvage", salvage)
        _set(self, "life", life)
        _set(self, "month", month)

    @property
    def periods(self) -> int:
        """Number of schedule rows: life, plus one when the first year is partial."""
        return self.life if self.month == 12 else self.life + 1


class ScheduleRow(Record):
    __slots__ = _fields = ("period", "depreciation", "book_value_end")


class DepreciationSchedule(Record):
    __slots__ = _fields = ("spec", "mode", "rate", "rows")

    def to_csv(self) -> str:
        return _schedule_csv(self.rows, ScheduleRow._fields)


class ReconcileReport(Record):
    """How far a schedule's residual book value is from the target salvage."""

    __slots__ = _fields = (
        "total_depreciation", "residual_book_value", "gap", "tolerance", "flagged"
    )
    _defaults = (False,)


def db_rate(spec: DepreciationSpec, mode: PrecisionMode) -> float:
    """Declining-balance rate for the spec, rounded to 3 decimals in compat mode."""
    if spec.salvage == 0.0:
        warnings.warn(
            "salvage of 0 makes the declining-balance rate 1, writing the asset "
            "off entirely in the first period",
            FullWriteOffWarning,
            stacklevel=2,
        )
        return 1.0
    raw = 1.0 - (spec.salvage / spec.cost) ** (1.0 / spec.life)
    if mode is PrecisionMode.EXACT:
        return raw
    from decimal import ROUND_HALF_UP, Decimal  # here, so that an audit never imports it
    rounded = Decimal(repr(raw)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP)
    return float(rounded)


# Far beyond a century of monthly periods (1,200), so a real schedule's
# periods all come from the walk.
EXACT_WALK_PERIODS = 10_000

# The most rows db_schedule and loan.build_schedule build, checked before the
# first: 8,333 years of monthly payments, so a schedule's memory has a bound.
MAX_SCHEDULE_ROWS = 100_000


def _schedule_csv(rows: tuple, fields: tuple[str, ...]) -> str:
    """A header of fields, then each row's fields by repr, as CSV with '\r\n' line ends."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(fields)
    writer.writerows(map(repr, row) for row in map(attrgetter(*fields), rows))
    return buffer.getvalue()


def _check_rows(periods: int) -> None:
    if periods > MAX_SCHEDULE_ROWS:
        raise ValueError(f"a schedule of {periods} periods is longer than {MAX_SCHEDULE_ROWS}")


def _check_finite(period: int, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"numeric overflow in period {period} of the schedule")


def _charge(spec: DepreciationSpec, rate: float, book: float, period: int) -> float:
    """Depreciation in one period, given the book value it starts from."""
    if period == 1:
        return spec.cost * rate * spec.month / 12
    if spec.month < 12 and period == spec.periods:
        return book * rate * (12 - spec.month) / 12
    return book * rate


def db_period(spec: DepreciationSpec, period: int, mode: PrecisionMode) -> float:
    """Depreciation charged in a single period (1-based).

    The charge is walked period by period, as db_schedule computes it, so the
    two agree bit for bit.  The walk stops once the book value stops
    changing: in compat mode, where the rounded rate is 0 or at least 0.001,
    that takes at most about 1.45 million steps whatever the period.  The
    exact rate can be small enough never to get there, so exact mode walks
    at most EXACT_WALK_PERIODS periods and reaches a later one in closed
    form: each ordinary period multiplies the book value by (1 - rate).
    """
    if not 1 <= period <= spec.periods:
        raise ValueError(
            f"period must be in 1..{spec.periods} (life {spec.life}"
            + (
                f" plus one extra period because month={spec.month} < 12"
                if spec.month < 12
                else ", no extra period because month=12"
            )
            + f"), got {period}"
        )
    rate = db_rate(spec, mode)
    book = spec.cost
    walked = period if mode is PrecisionMode.COMPAT else min(period, EXACT_WALK_PERIODS)
    for earlier in range(1, walked):
        dep = _charge(spec, rate, book, earlier)
        if earlier > 1 and (book - dep == book or book != book):
            # The book stopped changing (or is NaN, which every later charge
            # keeps), so each later ordinary period charges dep again and the
            # asked-for period starts from this book value.
            break
        book -= dep
    else:
        # the ordinary periods walked .. period-1, none once the walk reached period
        book *= (1.0 - rate) ** (period - walked)
    return _charge(spec, rate, book, period)


def db_schedule(spec: DepreciationSpec, mode: PrecisionMode) -> DepreciationSchedule:
    """Full declining-balance schedule for the spec; a ValueError for more
    than MAX_SCHEDULE_ROWS periods or a period whose values are not finite."""
    _check_rows(spec.periods)
    rate = db_rate(spec, mode)
    rows = []
    book = spec.cost
    for period in range(1, spec.periods + 1):
        dep = _charge(spec, rate, book, period)
        book -= dep
        _check_finite(period, dep, book)
        rows.append(ScheduleRow(period=period, depreciation=dep, book_value_end=book))
    return DepreciationSchedule(spec=spec, mode=mode, rate=rate, rows=tuple(rows))


def reconcile(
    schedule: DepreciationSchedule,
    spec: DepreciationSpec,
    tolerance: float | None = None,
) -> ReconcileReport:
    """Compare total depreciation against the depreciable base cost - salvage.

    gap is signed: residual book value minus salvage.  Negative means the
    schedule over-depreciated (residual fell short of salvage).
    """
    if tolerance is None:
        tolerance = 1e-6 * spec.cost
    total = sum(row.depreciation for row in schedule.rows)
    residual = spec.cost - total
    gap = residual - spec.salvage
    return ReconcileReport(
        total_depreciation=total,
        residual_book_value=residual,
        gap=gap,
        tolerance=tolerance,
        flagged=abs(gap) > tolerance,
    )


def sln(cost: float, salvage: float, life: int) -> float:
    """Straight-line depreciation per period; the arguments must make a DepreciationSpec."""
    DepreciationSpec(cost, salvage, life)
    return (cost - salvage) / life
