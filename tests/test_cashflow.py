"""Present-value conventions, dated XNPV, annuity payments, series loading."""

import datetime as dt
import random

import pytest
from hypothesis import given, strategies as st

from ledgerlint import cashflow
from ledgerlint.cashflow import (
    CashFlowSeries,
    load_series,
    npv_legacy,
    npv_t0,
    pmt,
    xnpv,
)

D = dt.date

money = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_npv_legacy_discounts_the_first_value():
    assert npv_legacy(0.10, [110.0]) == pytest.approx(100.0, rel=1e-12)


def test_npv_zero_rate_is_plain_sum():
    values = [-1000.0, 600.0, 600.0]
    assert npv_legacy(0.0, values) == sum(values)
    assert npv_t0(0.0, values) == values[0] + sum(values[1:])


def test_npv_convention_trap():
    values = [-1000.0, 600.0, 600.0]
    legacy = npv_legacy(0.10, values)
    intuitive = npv_t0(0.10, values)
    # Oracles: write both sums out by hand.
    assert legacy == pytest.approx(-1000 / 1.1 + 600 / 1.1**2 + 600 / 1.1**3, rel=1e-12)
    assert intuitive == pytest.approx(-1000 + 600 / 1.1 + 600 / 1.1**2, rel=1e-12)
    assert legacy == pytest.approx(37.56574004507877, rel=1e-12)
    assert intuitive == pytest.approx(41.322314049586566, rel=1e-12)


def test_npv_t0_single_value_is_undiscounted():
    assert npv_t0(0.35, [123.45]) == 123.45


def test_npv_domain_errors():
    with pytest.raises(ValueError):
        npv_legacy(-1.0, [1.0])
    with pytest.raises(ValueError):
        npv_t0(-1.5, [1.0])
    with pytest.raises(ValueError):
        npv_t0(0.1, [])
    # Empty bare sequence is a zero present value (keeps the identity total).
    assert npv_legacy(0.1, []) == 0.0


def test_npv_rejects_dated_series():
    series = CashFlowSeries(values=[1.0, 2.0], dates=[D(2024, 1, 1), D(2024, 6, 1)])
    with pytest.raises(ValueError, match="dated"):
        npv_legacy(0.1, series)
    assert npv_legacy(0.1, CashFlowSeries(values=[110.0])) == pytest.approx(100.0, rel=1e-12)


def test_convention_identities_on_random_series():
    rng = random.Random(58121)
    for _ in range(200):
        n = rng.randint(1, 12)
        values = [rng.uniform(-5000, 5000) for _ in range(n)]
        rate = rng.uniform(-0.5, 0.5)
        assert npv_t0(rate, values) == values[0] + npv_legacy(rate, values[1:])
        assert npv_legacy(rate, values) == npv_t0(rate, [0.0] + values)


def test_xnpv_first_flow_undiscounted():
    series = CashFlowSeries(
        values=[-1000.0, 1100.0],
        dates=[D(2024, 1, 1), D(2025, 1, 1)],  # 366 days apart
    )
    # Oracle: -1000 + 1100 / 1.1**(366/365).
    expected = -1000.0 + 1100.0 / 1.1 ** (366 / 365)
    got = xnpv(0.10, series)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(-0.26108969043878005, abs=1e-9)


def test_xnpv_zero_rate_sums_values():
    series = CashFlowSeries(
        values=[10.0, 20.0, 30.0],
        dates=[D(2024, 1, 1), D(2024, 5, 1), D(2025, 3, 1)],
    )
    assert xnpv(0.0, series) == pytest.approx(60.0, abs=1e-12)


def test_xnpv_single_flow_is_its_own_value():
    series = CashFlowSeries(values=[42.0], dates=[D(2024, 3, 1)])
    assert xnpv(0.99, series) == 42.0


def test_series_validation():
    with pytest.raises(ValueError):
        CashFlowSeries(values=[])
    with pytest.raises(ValueError):
        CashFlowSeries(values=[1.0, 2.0], dates=[D(2024, 1, 1)])
    with pytest.raises(ValueError, match="strictly increasing"):
        CashFlowSeries(values=[1.0, 2.0], dates=[D(2024, 1, 1), D(2024, 1, 1)])
    with pytest.raises(ValueError, match="strictly increasing"):
        CashFlowSeries(values=[1.0, 2.0], dates=[D(2024, 2, 1), D(2024, 1, 1)])
    with pytest.raises(ValueError, match="dates"):
        xnpv(0.1, CashFlowSeries(values=[1.0]))


@given(st.lists(money, min_size=1, max_size=10), st.floats(min_value=-0.5, max_value=1.0))
def test_prepending_zero_reconciles_conventions(values, rate):
    assert npv_legacy(rate, values) == npv_t0(rate, [0.0] + values)


@given(
    st.lists(money, min_size=1, max_size=8),
    st.floats(min_value=-0.5, max_value=1.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_npv_homogeneous_in_values(values, rate, k):
    scaled = [k * v for v in values]
    assert npv_legacy(rate, scaled) == pytest.approx(k * npv_legacy(rate, values), rel=1e-9, abs=1e-9)
    assert npv_t0(rate, scaled) == pytest.approx(k * npv_t0(rate, values), rel=1e-9, abs=1e-9)


def test_xnpv_on_365_day_grid_matches_npv_t0():
    rng = random.Random(99173)
    start = D(2023, 1, 1)
    for _ in range(50):
        n = rng.randint(1, 8)
        values = [rng.uniform(-5000, 5000) for _ in range(n)]
        rate = rng.uniform(-0.4, 0.9)
        dates = [start + dt.timedelta(days=365 * i) for i in range(n)]
        series = CashFlowSeries(values=values, dates=dates)
        expected = npv_t0(rate, values)
        assert xnpv(rate, series) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_pmt_zero_rate_splits_evenly():
    assert pmt(0.0, 10, 1000.0) == -100.0


def test_pmt_single_period_repays_with_interest():
    assert pmt(0.01, 1, 1000.0) == pytest.approx(-1010.0, rel=1e-12)


def test_pmt_annuity_example_drives_balance_to_zero():
    payment = pmt(0.01, 12, 10000.0)
    assert payment == pytest.approx(-888.4878867834161, rel=1e-12)
    # Oracle: roll a 12-row schedule and check the closing balance.
    balance = 10000.0
    for _ in range(12):
        balance = balance * 1.01 + payment
    assert balance == pytest.approx(0.0, abs=1e-6)


def test_pmt_domain_errors():
    with pytest.raises(ValueError):
        pmt(0.01, 0, 1000.0)
    with pytest.raises(ValueError):
        pmt(-1.0, 12, 1000.0)


@given(st.floats(min_value=0.0, max_value=0.05), st.integers(min_value=1, max_value=360))
def test_pmt_schedule_property(rate, nper):
    payment = pmt(rate, nper, 50_000.0)
    balance = 50_000.0
    for _ in range(nper):
        balance = balance * (1 + rate) + payment
    assert abs(balance) <= 1e-6 * 50_000.0


def test_load_series_two_column(tmp_path):
    p = tmp_path / "flows.csv"
    p.write_text("2024-01-01,-1000\n2024-06-01,400\n2025-01-01,700\n")
    series = load_series(p)
    assert series.values == (-1000.0, 400.0, 700.0)
    assert series.dates == (D(2024, 1, 1), D(2024, 6, 1), D(2025, 1, 1))


def test_load_series_one_column_with_header(tmp_path):
    p = tmp_path / "flows.csv"
    p.write_text("value\n-1000\n600\n600\n")
    series = load_series(p)
    assert series.dates is None
    assert series.values == (-1000.0, 600.0, 600.0)


def test_load_series_rejects_garbage(tmp_path):
    p = tmp_path / "flows.csv"
    p.write_text("2024-01-01,-1000\nnot-a-date,600\n")
    with pytest.raises(ValueError):
        load_series(p)


@pytest.mark.parametrize("dates", [("20200101", "20210101"), ("2020-W01-3", "2021-W01-3")])
def test_load_series_rejects_dates_not_written_yyyy_mm_dd(tmp_path, dates):
    p = tmp_path / "flows.csv"
    p.write_text(f"{dates[0]},-100\n{dates[1]},110\n")
    with pytest.raises(ValueError, match="bad cash-flow row"):
        load_series(p)


BOM = b"\xef\xbb\xbf"  # Excel's "CSV UTF-8" starts with one


def test_load_series_keeps_the_first_flow_after_a_byte_order_mark(tmp_path):
    p = tmp_path / "flows.csv"
    p.write_bytes(BOM + b"2020-01-01,-100\n2021-01-01,60\n2022-01-01,60\n")
    series = load_series(p)
    assert series.values == (-100.0, 60.0, 60.0)
    assert series.dates == (D(2020, 1, 1), D(2021, 1, 1), D(2022, 1, 1))

    p.write_bytes(BOM + b"-100\n60\n60\n")
    series = load_series(str(p))
    assert series.values == (-100.0, 60.0, 60.0)
    assert series.dates is None

    p.write_bytes(BOM + b"date,value\n2020-01-01,-100\n2021-01-01,60\n")
    assert load_series(p).values == (-100.0, 60.0)  # a header after the mark is still skipped


def test_load_series_closes_its_file(tmp_path, monkeypatch):
    opened = []

    def tracking_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(cashflow, "open", tracking_open, raising=False)
    p = tmp_path / "flows.csv"
    p.write_text("-100\n60\n")
    assert load_series(p).values == (-100.0, 60.0)
    p.write_text("2024-01-01,-1000\nnot-a-date,600\n")
    with pytest.raises(ValueError):
        load_series(p)
    assert len(opened) == 2
    assert all(handle.closed for handle in opened)


def test_load_series_rejects_a_mistyped_first_flow(tmp_path):
    # a first row whose value is a number is a flow, not a header to drop
    p = tmp_path / "flows.csv"
    p.write_text("2020-1-01,-100\n2021-01-01,60\n2022-01-01,60\n")
    with pytest.raises(ValueError, match=r"bad cash-flow row \['2020-1-01', '-100'\]"):
        load_series(p)
