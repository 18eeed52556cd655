"""Fixed-declining-balance and straight-line depreciation schedules.

The declining-balance rate is 1 - (salvage/cost)**(1/life).  In compat mode
that rate is rounded to three decimal places (round half away from zero)
before any period amount is computed, which is how popular spreadsheet DB
implementations behave.  The rounding error compounds across the whole
schedule, so a compat schedule generally does not land on the salvage value.
Exact mode keeps the full-precision rate.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from itertools import islice
from typing import Iterator

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
    "reconcile",
    "sln",
]


class PrecisionMode(str, Enum):
    """Whether computations reproduce spreadsheet rounding or keep full precision."""

    COMPAT = "compat"
    EXACT = "exact"


class FullWriteOffWarning(UserWarning):
    """A zero salvage value forces the declining-balance rate to 1."""


@dataclass(frozen=True)
class DepreciationSpec:
    """Asset parameters for a depreciation schedule.

    month is the number of months of depreciation taken in the first year;
    when it is less than 12 the schedule gains an extra final period for the
    remaining months.
    """

    cost: float
    salvage: float
    life: int
    month: int = 12

    def __post_init__(self) -> None:
        if not self.cost > 0:
            raise ValueError(f"cost must be positive, got {self.cost}")
        if not 0 <= self.salvage <= self.cost:
            raise ValueError(
                f"salvage must be between 0 and cost ({self.cost}), got {self.salvage}"
            )
        if self.life < 1:
            raise ValueError(f"life must be at least 1 period, got {self.life}")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    @property
    def periods(self) -> int:
        """Number of schedule rows: life, plus one when the first year is partial."""
        return self.life if self.month == 12 else self.life + 1


@dataclass(frozen=True)
class ScheduleRow:
    period: int
    depreciation: float
    book_value_end: float


@dataclass(frozen=True)
class DepreciationSchedule:
    spec: DepreciationSpec
    mode: PrecisionMode
    rate: float
    rows: tuple[ScheduleRow, ...]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        buffer.write("period,depreciation,book_value_end\r\n")
        for row in self.rows:
            buffer.write(f"{row.period},{row.depreciation!r},{row.book_value_end!r}\r\n")
        return buffer.getvalue()


@dataclass(frozen=True)
class ReconcileReport:
    """How far a schedule's residual book value is from the target salvage."""

    total_depreciation: float
    residual_book_value: float
    gap: float
    tolerance: float
    flagged: bool = field(default=False)


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
    rounded = Decimal(repr(raw)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP)
    return float(rounded)


def _period_depreciation(spec: DepreciationSpec, rate: float) -> Iterator[float]:
    book = spec.cost
    last = spec.periods
    for period in range(1, last + 1):
        if period == 1:
            dep = spec.cost * rate * spec.month / 12
        elif spec.month < 12 and period == last:
            dep = book * rate * (12 - spec.month) / 12
        else:
            dep = book * rate
        book -= dep
        yield dep


def db_period(spec: DepreciationSpec, period: int, mode: PrecisionMode) -> float:
    """Depreciation charged in a single period (1-based)."""
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
    # stop at period: life can be far larger than the periods anyone asks for
    return next(islice(_period_depreciation(spec, rate), period - 1, None))


def db_schedule(spec: DepreciationSpec, mode: PrecisionMode) -> DepreciationSchedule:
    """Full declining-balance schedule for the spec."""
    rate = db_rate(spec, mode)
    rows = []
    book = spec.cost
    for period, dep in enumerate(_period_depreciation(spec, rate), start=1):
        book -= dep
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
    """Straight-line depreciation per period."""
    if life < 1:
        raise ValueError(f"life must be at least 1 period, got {life}")
    if not cost > 0:
        raise ValueError(f"cost must be positive, got {cost}")
    if not 0 <= salvage <= cost:
        raise ValueError(f"salvage must be between 0 and cost ({cost}), got {salvage}")
    return (cost - salvage) / life
