"""Monthly loan amortization with payment holidays and table verification.

A payment holiday defers repayments: during holiday months interest accrues
and is capitalized into the balance, so the level payment for the remaining
months is computed on the grown balance.  The overall term does not move.

verify_schedule checks a published repayment table against the schedule this
module would compute, tolerating penny rounding by default.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .cashflow import pmt
from .rates import PeriodicConvention, periodic_rate

__all__ = [
    "LoanSpec",
    "AmortizationRow",
    "AmortizationSchedule",
    "Discrepancy",
    "ImpliedRate",
    "build_schedule",
    "verify_schedule",
    "implied_monthly_rate",
    "load_published",
]

# Fields of a published row that verify_schedule compares when stated.
_VALUE_FIELDS = ("opening", "interest", "payment", "principal_paid", "closing")


@dataclass(frozen=True)
class LoanSpec:
    """Terms of a monthly repayment loan.

    annual_rate is the quoted annual rate; convention controls how it is
    turned into a monthly rate (dividing by 12 versus taking the 12th root).
    """

    principal: float
    annual_rate: float
    term_months: int
    holiday_months: int = 0
    convention: PeriodicConvention = PeriodicConvention.UK_EFFECTIVE_ROOT

    def __post_init__(self) -> None:
        # chained comparisons, so that nan fails them too
        if not 0 < self.principal < math.inf:
            raise ValueError(f"principal must be positive and finite, got {self.principal}")
        if not -1.0 < self.annual_rate < math.inf:
            raise ValueError(f"annual_rate must be finite and exceed -1, got {self.annual_rate}")
        if self.term_months < 1:
            raise ValueError(f"term_months must be at least 1, got {self.term_months}")
        if self.holiday_months < 0:
            raise ValueError(f"holiday_months cannot be negative, got {self.holiday_months}")
        if self.holiday_months >= self.term_months:
            raise ValueError(
                f"holiday_months ({self.holiday_months}) must leave at least one "
                f"repayment month within the {self.term_months}-month term"
            )

    @property
    def monthly_rate(self) -> float:
        return periodic_rate(self.annual_rate, 12, self.convention)


@dataclass(frozen=True)
class AmortizationRow:
    """One month of a repayment table.  None means the field was not stated."""

    month: int
    opening: float | None = None
    interest: float | None = None
    payment: float | None = None
    principal_paid: float | None = None
    closing: float | None = None


@dataclass(frozen=True)
class AmortizationSchedule:
    spec: LoanSpec
    monthly_rate: float
    level_payment: float
    rows: tuple[AmortizationRow, ...]

    @property
    def total_paid(self) -> float:
        return sum(row.payment for row in self.rows)

    @property
    def total_interest(self) -> float:
        return sum(row.interest for row in self.rows)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["month", "opening", "interest", "payment", "closing"])
        for row in self.rows:
            writer.writerow([row.month, repr(row.opening), repr(row.interest),
                             repr(row.payment), repr(row.closing)])
        return buffer.getvalue()


@dataclass(frozen=True)
class Discrepancy:
    month: int
    field: str
    expected: float
    actual: float
    difference: float


class ImpliedRate(NamedTuple):
    rate: float
    iterations: int
    residual: float


def build_schedule(spec: LoanSpec) -> AmortizationSchedule:
    """Compute the full month-by-month table for the spec.

    The last payment absorbs the accumulated float residual so the final
    closing balance is exactly 0.0.
    """
    rate = spec.monthly_rate
    rows: list[AmortizationRow] = []
    balance = spec.principal

    for month in range(1, spec.holiday_months + 1):
        interest = balance * rate
        closing = balance + interest
        rows.append(AmortizationRow(month=month, opening=balance, interest=interest,
                                    payment=0.0, principal_paid=0.0, closing=closing))
        balance = closing

    remaining = spec.term_months - spec.holiday_months
    level = -pmt(rate, remaining, balance)

    for month in range(spec.holiday_months + 1, spec.term_months + 1):
        interest = balance * rate
        if month == spec.term_months:
            payment = balance + interest
        else:
            payment = level
        closing = balance + interest - payment
        rows.append(AmortizationRow(month=month, opening=balance, interest=interest,
                                    payment=payment, principal_paid=payment - interest,
                                    closing=closing))
        balance = closing

    return AmortizationSchedule(spec=spec, monthly_rate=rate, level_payment=level,
                                rows=tuple(rows))


def verify_schedule(
    published: Sequence[AmortizationRow],
    spec: LoanSpec,
    tolerance: float = 0.005,
) -> list[Discrepancy]:
    """Compare a published table against the computed schedule.

    Only fields stated in the published rows (not None) are compared, and a
    stated nan differs from every value.  The default tolerance forgives
    penny rounding.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and not negative, got {tolerance}")
    expected = build_schedule(spec).rows
    findings: list[Discrepancy] = []
    if len(published) != len(expected):
        findings.append(Discrepancy(month=0, field="row_count",
                                    expected=float(len(expected)),
                                    actual=float(len(published)),
                                    difference=float(len(published) - len(expected))))
    for want, got in zip(expected, published):
        if got.month != want.month:
            findings.append(Discrepancy(month=want.month, field="month",
                                        expected=float(want.month),
                                        actual=float(got.month),
                                        difference=float(got.month - want.month)))
            continue
        for name in _VALUE_FIELDS:
            stated = getattr(got, name)
            if stated is None:
                continue
            reference = getattr(want, name)
            diff = stated - reference
            if not abs(diff) <= tolerance:
                findings.append(Discrepancy(month=want.month, field=name,
                                            expected=reference, actual=stated,
                                            difference=diff))
    return findings


def _annuity_pv(rate: float, months: int, payment: float) -> float:
    if 1.0 + rate == 1.0:
        return payment * months
    # expm1/log1p keep the factor accurate near rate 0, where the naive
    # 1 - (1+r)**-n form loses the sign to cancellation.
    return payment * -math.expm1(-months * math.log1p(rate)) / rate


def implied_monthly_rate(principal: float, payment: float, months: int) -> ImpliedRate:
    """Back out the monthly rate from a level payment by bisection.

    Solves present-value(rate) = principal on the interval (-0.5, 1.0) to a
    rate width of 1e-12.
    """
    if not principal > 0:
        raise ValueError(f"principal must be positive, got {principal}")
    if not payment > 0:
        raise ValueError(f"payment must be positive, got {payment}")
    if months < 1:
        raise ValueError(f"months must be at least 1, got {months}")

    def excess(rate: float) -> float:
        return _annuity_pv(rate, months, payment) - principal

    low, high = -0.5 + 1e-9, 1.0
    if excess(low) < 0 or excess(high) > 0:
        raise ValueError(
            "payment does not bracket the principal at any monthly rate in "
            f"(-0.5, 1.0): principal={principal}, payment={payment}, months={months}"
        )
    iterations = 0
    while high - low > 1e-12 and iterations < 200:
        mid = (low + high) / 2.0
        if excess(mid) > 0:
            low = mid
        else:
            high = mid
        iterations += 1
    rate = (low + high) / 2.0
    return ImpliedRate(rate=rate, iterations=iterations, residual=excess(rate))


def load_published(path: str | os.PathLike) -> list[AmortizationRow]:
    """Read a repayment table from CSV.  Requires a header with a month column.

    A leading byte-order mark is dropped, so it is never taken for part of
    the header, and a header that names a column twice is a ValueError.  A
    row whose month is missing or not an integer, or whose value is not a
    number, is a ValueError that names the row's line.  A number is written
    as a formula writes one, with an optional sign and blanks around it; a
    value may also be nan or inf, which verify_schedule flags.
    """
    allowed = {"month", *_VALUE_FIELDS}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        unknown = [name for name in header if name not in allowed]
        if unknown:
            raise ValueError(f"unknown columns in repayment table: {unknown}")
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise ValueError(f"repeated columns in repayment table: {repeated}")
        if "month" not in header:
            raise ValueError("repayment table needs a month column")

        def read(record: dict, name: str, kind: type, noun: str):
            text = record[name]  # None for a short row
            # kind() also reads digit-group underscores and non-ASCII digits,
            # which the formula lexer's number grammar has not
            if text is not None and text.isascii() and "_" not in text:
                try:
                    return kind(text)
                except ValueError:
                    pass
            raise ValueError(f"line {reader.line_num}: {name} must be {noun}, got {text!r}")

        rows = []
        for record in reader:
            month = read(record, "month", int, "an integer")
            values = {
                name: read(record, name, float, "a number")
                for name in _VALUE_FIELDS
                if name in record and record[name] not in (None, "")
            }
            rows.append(AmortizationRow(month=month, **values))
    return rows
