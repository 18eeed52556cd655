"""Effective/nominal conversions, periodic-rate conventions, APR advertising, accrual."""

import datetime as dt
import math

import pytest
from hypothesis import given, strategies as st

from ledgerlint.daycount import DayCountBasis
from ledgerlint.rates import (
    ComplianceStatus,
    PeriodicConvention,
    accrint,
    advertised_apr,
    effective_rate,
    intrate,
    nominal_rate,
    parse_rate,
    periodic_rate,
    verify_advertised,
)

D = dt.date

COMPOUNDING_GRID = [1, 2, 4, 12, 52, 365]


def test_effective_rate_monthly_example():
    # Oracle: multiply 1.01 together twelve times.
    expected = 1.0
    for _ in range(12):
        expected *= 1.01
    expected -= 1.0
    assert effective_rate(0.12, 12) == pytest.approx(expected, abs=1e-15)
    assert effective_rate(0.12, 12) == pytest.approx(0.12682503013196977, abs=1e-15)


@pytest.mark.parametrize("r", [-0.2, 0.0, 0.07, 1.5])
def test_annual_compounding_is_identity(r):
    assert effective_rate(r, 1) == pytest.approx(r, abs=1e-15)
    assert nominal_rate(r, 1) == pytest.approx(r, abs=1e-15)


def test_zero_rate_stays_zero():
    for n in COMPOUNDING_GRID:
        assert effective_rate(0.0, n) == 0.0
        assert nominal_rate(0.0, n) == 0.0


def test_nominal_inverts_effective_example():
    assert nominal_rate(0.12682503013196977, 12) == pytest.approx(0.12, abs=1e-12)


def test_periods_must_be_positive():
    with pytest.raises(ValueError):
        effective_rate(0.1, 0)
    with pytest.raises(ValueError):
        nominal_rate(0.1, 0)
    with pytest.raises(ValueError):
        periodic_rate(0.1, 0, PeriodicConvention.US_NOMINAL_DIVIDE)


@given(st.floats(min_value=-0.499, max_value=1.0), st.sampled_from(COMPOUNDING_GRID))
def test_effective_nominal_round_trip(r, n):
    assert nominal_rate(effective_rate(r, n), n) == pytest.approx(r, abs=1e-12)


def test_periodic_rate_conventions():
    eff = effective_rate(0.12, 12)
    # UK: the twelfth root of the effective growth factor recovers 1%.
    assert periodic_rate(eff, 12, PeriodicConvention.UK_EFFECTIVE_ROOT) == pytest.approx(0.01, abs=1e-14)
    assert periodic_rate(0.12, 12, PeriodicConvention.US_NOMINAL_DIVIDE) == 0.12 / 12
    # Dividing the *effective* annual rate by 12 lands too high: the trap.
    us = periodic_rate(eff, 12, PeriodicConvention.US_NOMINAL_DIVIDE)
    uk = periodic_rate(eff, 12, PeriodicConvention.UK_EFFECTIVE_ROOT)
    assert us == pytest.approx(0.010568752510997481, abs=1e-15)
    assert us > uk


@given(st.floats(min_value=1e-6, max_value=2.0))
def test_us_division_never_below_uk_root(a):
    for n in (2, 4, 12, 365):
        us = periodic_rate(a, n, PeriodicConvention.US_NOMINAL_DIVIDE)
        uk = periodic_rate(a, n, PeriodicConvention.UK_EFFECTIVE_ROOT)
        assert us >= uk


@given(st.floats(min_value=-0.499, max_value=2.0))
def test_uk_root_compounds_back_to_annual(a):
    r = periodic_rate(a, 12, PeriodicConvention.UK_EFFECTIVE_ROOT)
    assert (1 + r) ** 12 - 1 == pytest.approx(a, abs=1e-12)


def test_advertised_apr_truncates_percent_to_one_decimal():
    assert advertised_apr(0.11995) == 0.119
    assert advertised_apr(0.119) == 0.119
    assert advertised_apr(0.12999) == 0.129
    assert advertised_apr(0.0) == 0.0
    with pytest.raises(ValueError):
        advertised_apr(-0.01)


@given(st.floats(min_value=0.0, max_value=10.0))
def test_advertised_apr_never_exceeds_exact(r):
    adv = advertised_apr(r)
    assert adv <= r
    assert r - adv < 0.001


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_advertised_apr_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert advertised_apr(lo) <= advertised_apr(hi)


def test_advertised_apr_idempotent_on_boundary_neighbours():
    for r in (0.119, 0.001, 0.1, 0.9999):
        assert advertised_apr(advertised_apr(r)) == advertised_apr(r)
    # A float a hair below the boundary must floor down, not up.
    just_below = math.nextafter(0.119, 0.0)
    assert advertised_apr(just_below) == 0.118


def test_verify_advertised_verdicts():
    v = verify_advertised(0.11995, 0.119)
    assert v.status is ComplianceStatus.COMPLIANT
    assert v.gap_basis_points == pytest.approx(9.5, abs=1e-9)

    v = verify_advertised(0.119, 0.119)
    assert v.status is ComplianceStatus.COMPLIANT
    assert v.gap_basis_points == pytest.approx(0.0, abs=1e-9)

    v = verify_advertised(0.11995, 0.118)
    assert v.status is ComplianceStatus.UNDERSTATED_BEYOND_RULE

    v = verify_advertised(0.11995, 0.1199)
    assert v.status is ComplianceStatus.OVERSTATED


def test_rates_outside_their_domain_raise():
    with pytest.raises(ValueError, match="effective rate must exceed -1, got -1"):
        nominal_rate(-1, 12)
    with pytest.raises(ValueError, match="annual rate must exceed -1, got -1"):
        periodic_rate(-1, 12, PeriodicConvention.UK_EFFECTIVE_ROOT)
    with pytest.raises(ValueError, match="advertised rate must be non-negative, got -0.01"):
        verify_advertised(0.1, -0.01)


def test_intrate_simple_interest():
    # One year on actual/365 over a non-leap span.
    r = intrate(D(2023, 1, 1), D(2024, 1, 1), 100.0, 110.0, DayCountBasis.ACTUAL_365)
    assert r == pytest.approx(0.10, abs=1e-12)
    # Two years: simple interest halves the rate; the compound answer differs.
    r2 = intrate(D(2021, 1, 1), D(2023, 1, 1), 100.0, 110.0, DayCountBasis.ACTUAL_365)
    assert r2 == pytest.approx(0.05, abs=1e-12)
    compound = (110.0 / 100.0) ** 0.5 - 1.0
    assert abs(r2 - compound) > 0.001
    # No gain, no rate.
    assert intrate(D(2023, 1, 1), D(2024, 1, 1), 100.0, 100.0, DayCountBasis.ACTUAL_365) == 0.0


def test_intrate_matches_compound_rate_over_unit_year():
    r = intrate(D(2023, 1, 1), D(2024, 1, 1), 250.0, 300.0, DayCountBasis.ACTUAL_365)
    assert r == pytest.approx(300.0 / 250.0 - 1.0, abs=1e-12)


def test_intrate_domain_errors():
    with pytest.raises(ValueError):
        intrate(D(2023, 1, 1), D(2024, 1, 1), 0.0, 110.0, DayCountBasis.ACTUAL_365)
    with pytest.raises(ValueError):
        intrate(D(2024, 1, 1), D(2024, 1, 1), 100.0, 110.0, DayCountBasis.ACTUAL_365)


def test_accrint_half_year_european():
    amount = accrint(D(2024, 1, 1), D(2024, 7, 1), 0.06, 1000.0, DayCountBasis.EUR_30_360)
    assert amount == pytest.approx(30.0, abs=1e-12)


def test_accrint_zero_span():
    assert accrint(D(2024, 1, 1), D(2024, 1, 1), 0.06, 1000.0, DayCountBasis.US_30_360) == 0.0


def test_accrint_basis_divergence():
    # Day counts 76 vs 75 from the daycount module's worked example.
    us = accrint(D(2024, 1, 15), D(2024, 3, 31), 0.06, 1000.0, DayCountBasis.US_30_360)
    eur = accrint(D(2024, 1, 15), D(2024, 3, 31), 0.06, 1000.0, DayCountBasis.EUR_30_360)
    assert us == pytest.approx(1000.0 * 0.06 * 76 / 360, abs=1e-12)
    assert eur == pytest.approx(1000.0 * 0.06 * 75 / 360, abs=1e-12)
    assert us > eur


@given(
    st.dates(min_value=D(1990, 1, 1), max_value=D(2050, 12, 31)),
    st.dates(min_value=D(1990, 1, 1), max_value=D(2050, 12, 31)),
    st.dates(min_value=D(1990, 1, 1), max_value=D(2050, 12, 31)),
)
def test_accrint_additive_over_abutting_periods_actual_bases(a, b, c):
    a, b, c = sorted([a, b, c])
    for basis in (DayCountBasis.ACTUAL_360, DayCountBasis.ACTUAL_365):
        whole = accrint(a, c, 0.05, 1000.0, basis)
        split = accrint(a, b, 0.05, 1000.0, basis) + accrint(b, c, 0.05, 1000.0, basis)
        assert split == pytest.approx(whole, abs=1e-9)


def test_accrint_domain_errors():
    with pytest.raises(ValueError):
        accrint(D(2024, 7, 1), D(2024, 1, 1), 0.06, 1000.0, DayCountBasis.US_30_360)
    with pytest.raises(ValueError):
        accrint(D(2024, 1, 1), D(2024, 7, 1), -0.06, 1000.0, DayCountBasis.US_30_360)
    with pytest.raises(ValueError):
        accrint(D(2024, 1, 1), D(2024, 7, 1), 0.06, 0.0, DayCountBasis.US_30_360)


def test_parse_rate_accepts_fraction_and_percent():
    assert parse_rate("0.119") == 0.119
    assert parse_rate("11.9%") == pytest.approx(0.119, abs=1e-15)
    assert parse_rate(" 12 % ") == pytest.approx(0.12, abs=1e-15)
    with pytest.raises(ValueError):
        parse_rate("twelve")
    with pytest.raises(ValueError):
        parse_rate("")
