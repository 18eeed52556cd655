"""Interest-rate conversions, APR advertising rules, and simple accrual.

Effective rates include intra-year compounding; nominal rates are the periodic
rate times the number of periods.  UK lenders quote effective annual rates, so
the monthly rate is the twelfth root of the growth factor; dividing an
effective annual rate by 12 (the US nominal habit) lands too high.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from enum import Enum

from .daycount import DayCountBasis, year_fraction

RATE_TOLERANCE = 1e-12


class PeriodicConvention(str, Enum):
    """How a quoted annual rate turns into a per-period rate."""

    US_NOMINAL_DIVIDE = "us"
    UK_EFFECTIVE_ROOT = "uk"


class ComplianceStatus(str, Enum):
    COMPLIANT = "compliant"
    OVERSTATED = "overstated"
    UNDERSTATED_BEYOND_RULE = "understated-beyond-rule"


@dataclass(frozen=True)
class AdvertisedVerdict:
    """Outcome of checking an advertised rate against the truncation rule."""

    status: ComplianceStatus
    gap_basis_points: float


def _check_periods(periods_per_year: int) -> None:
    if periods_per_year < 1:
        raise ValueError(f"periods_per_year must be >= 1, got {periods_per_year}")


def effective_rate(nominal: float, periods_per_year: int) -> float:
    """Effective annual rate for a nominal annual rate compounded n times a year."""
    _check_periods(periods_per_year)
    if nominal <= -1.0:
        raise ValueError(f"nominal rate must exceed -1, got {nominal}")
    return (1.0 + nominal / periods_per_year) ** periods_per_year - 1.0


def nominal_rate(effective: float, periods_per_year: int) -> float:
    """Nominal annual rate whose n-fold compounding yields ``effective``."""
    _check_periods(periods_per_year)
    if effective <= -1.0:
        raise ValueError(f"effective rate must exceed -1, got {effective}")
    return periods_per_year * ((1.0 + effective) ** (1.0 / periods_per_year) - 1.0)


def periodic_rate(annual: float, periods_per_year: int, convention: PeriodicConvention) -> float:
    """Per-period rate derived from an annual quote under the given convention."""
    _check_periods(periods_per_year)
    if annual <= -1.0:
        raise ValueError(f"annual rate must exceed -1, got {annual}")
    if convention == PeriodicConvention.US_NOMINAL_DIVIDE:
        return annual / periods_per_year
    return (1.0 + annual) ** (1.0 / periods_per_year) - 1.0


def advertised_apr(exact_annual: float) -> float:
    """Annual rate truncated to one decimal place of percent (0.11995 -> 0.119).

    Truncation happens in decimal space via the shortest round-tripping decimal
    form of the input, so a rate entered as 0.119 advertises as 0.119 even
    though the binary double sits a hair off the decimal value.
    """
    if not math.isfinite(exact_annual) or exact_annual < 0.0:
        raise ValueError(f"rate must be finite and non-negative, got {exact_annual}")
    from decimal import ROUND_DOWN, Decimal, localcontext  # here, so an audit never imports it
    with localcontext() as ctx:
        ctx.prec = 340
        truncated = Decimal(repr(exact_annual)).quantize(Decimal("0.001"), rounding=ROUND_DOWN)
    return float(truncated)


def verify_advertised(exact_annual: float, advertised: float) -> AdvertisedVerdict:
    """Check an advertised rate against the one-decimal truncation rule.

    Compliant means the advertised figure equals the truncation of the exact
    rate (to absolute tolerance 1e-12).  Anything above is overstated; anything
    below understates beyond what the rule permits.
    """
    if advertised < 0.0:
        raise ValueError(f"advertised rate must be non-negative, got {advertised}")
    allowed = advertised_apr(exact_annual)
    gap_bp = (exact_annual - advertised) * 1e4
    if abs(advertised - allowed) <= RATE_TOLERANCE:
        status = ComplianceStatus.COMPLIANT
    elif advertised > allowed:
        status = ComplianceStatus.OVERSTATED
    else:
        status = ComplianceStatus.UNDERSTATED_BEYOND_RULE
    return AdvertisedVerdict(status=status, gap_basis_points=gap_bp)


def intrate(
    settlement: dt.date,
    maturity: dt.date,
    investment: float,
    redemption: float,
    basis: DayCountBasis,
) -> float:
    """Simple-interest annual rate implied by investment growing to redemption.

    Simple interest only: over multi-year spans this is not the compound
    equivalent rate.
    """
    if investment <= 0.0:
        raise ValueError(f"investment must be positive, got {investment}")
    if settlement >= maturity:
        raise ValueError("settlement must fall strictly before maturity")
    yf = year_fraction(settlement, maturity, basis)
    return ((redemption - investment) / investment) / yf


def accrint(
    issue: dt.date,
    settlement: dt.date,
    annual_rate: float,
    par: float,
    basis: DayCountBasis,
) -> float:
    """Interest accrued on ``par`` from issue to settlement: par * rate * yearfrac.

    Single accrual period; no coupon-schedule splitting.
    """
    if par <= 0.0:
        raise ValueError(f"par must be positive, got {par}")
    if annual_rate < 0.0:
        raise ValueError(f"annual_rate must be non-negative, got {annual_rate}")
    return par * annual_rate * year_fraction(issue, settlement, basis)


def parse_rate(text: str) -> float:
    """Parse "0.119" or "11.9%"; the percent form is divided by 100 exactly once."""
    s = text.strip()
    percent = s.endswith("%")
    if percent:
        s = s[:-1].strip()
    try:
        value = float(s)
    except ValueError:
        raise ValueError(f"invalid rate {text!r}: expected a decimal fraction or percent string") from None
    return value / 100.0 if percent else value
