"""Synthetic surveillance generator tests (Figures 13-14 properties)."""

import numpy as np
import pytest

from repro.surveillance.truth import generate_region_truth
from repro.synthpop.regions import get_region


@pytest.fixture(scope="module")
def ca_truth():
    return generate_region_truth("CA", n_days=210, seed=1)


def test_shapes(ca_truth):
    region = get_region("CA")
    assert ca_truth.n_counties == region.counties
    assert ca_truth.n_days == 210
    assert ca_truth.daily.shape == (region.counties, 210)


def test_cumulative_monotone(ca_truth):
    assert (np.diff(ca_truth.cumulative, axis=1) >= 0).all()


def test_cumulative_matches_daily(ca_truth):
    np.testing.assert_allclose(
        ca_truth.cumulative, np.cumsum(ca_truth.daily, axis=1))


def test_state_sums_counties(ca_truth):
    np.testing.assert_allclose(
        ca_truth.state_cumulative(), ca_truth.cumulative.sum(axis=0))


def test_counts_nonnegative(ca_truth):
    assert (ca_truth.daily >= 0).all()


def test_epidemic_actually_happens(ca_truth):
    assert ca_truth.state_cumulative()[-1] > 1000
    assert ((ca_truth.cumulative[:, -1] > 0).sum()
            > ca_truth.n_counties * 0.8)


def test_early_days_quiet(ca_truth):
    """Cases start around day ~30+, not at day 0 (Figure 14 take-off)."""
    assert ca_truth.state_cumulative()[10] == 0


def test_counties_span_orders_of_magnitude(ca_truth):
    finals = ca_truth.cumulative[:, -1]
    positive = finals[finals > 0]
    assert positive.max() / max(positive.min(), 1) > 50


def test_latest_by_county(ca_truth):
    latest = ca_truth.latest_by_county()
    assert len(latest) == ca_truth.n_counties
    assert sum(latest.values()) == pytest.approx(
        float(ca_truth.state_cumulative()[-1]))


def test_window(ca_truth):
    w = ca_truth.window(100)
    assert w.n_days == 100
    np.testing.assert_allclose(w.cumulative, ca_truth.cumulative[:, :100])
    with pytest.raises(ValueError):
        ca_truth.window(0)
    with pytest.raises(ValueError):
        ca_truth.window(500)


def test_deterministic():
    a = generate_region_truth("VT", n_days=100, seed=7)
    b = generate_region_truth("VT", n_days=100, seed=7)
    np.testing.assert_array_equal(a.daily, b.daily)


def test_weekend_dip(ca_truth):
    """Weekday reporting effects: weekend days report fewer cases."""
    daily = ca_truth.state_daily()
    days = np.arange(daily.size)
    busy = daily[60:]  # after take-off
    dows = days[60:] % 7
    weekend = busy[np.isin(dows, (5, 6))].mean()
    weekday = busy[~np.isin(dows, (5, 6))].mean()
    assert weekend < weekday
