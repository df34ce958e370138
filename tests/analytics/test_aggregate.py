"""Aggregation tests: individual output -> county/state summaries."""

import numpy as np
import pytest

from repro.analytics.aggregate import (
    county_daily_counts,
    state_cumulative_curve,
    summarize,
)


@pytest.fixture(scope="module")
def summary(va_run, covid_model):
    _pop, _net, result = va_run
    return summarize(result, covid_model)


def test_summary_shapes(summary, covid_model, va_run):
    _pop, _net, result = va_run
    t = result.n_days + 1
    assert summary.new.shape == (t, covid_model.n_states)
    assert summary.current.shape == (t, covid_model.n_states)
    assert summary.cumulative.shape == (t, covid_model.n_states)


def test_conservation(summary, va_run):
    pop, _net, _result = va_run
    # The census always sums to the population size.
    assert (summary.current.sum(axis=1) == pop.size).all()


def test_cumulative_is_running_sum(summary):
    np.testing.assert_array_equal(
        summary.cumulative, np.cumsum(summary.new, axis=0))


def test_new_counts_match_log(summary, va_run, covid_model):
    _pop, _net, result = va_run
    code = covid_model.code("Symptomatic")
    assert summary.new[:, code].sum() == result.log.entering(code).size


def test_summary_bytes_positive(summary):
    assert summary.summary_bytes > 0


def test_series_accessor(summary, covid_model):
    code = covid_model.code("Recovered")
    series = summary.series("current", code)
    assert series.shape[0] == summary.new.shape[0]
    with pytest.raises(KeyError):
        summary.series("bogus", code)


def test_county_daily_counts_sum_to_state(va_run, covid_model):
    pop, _net, result = va_run
    code = covid_model.code("Symptomatic")
    fips, counts = county_daily_counts(result.log, pop, code, result.n_days)
    state = state_cumulative_curve(result.log, code, result.n_days)
    np.testing.assert_array_equal(np.cumsum(counts.sum(axis=0)), state)
    assert fips.shape[0] == counts.shape[0]


def test_county_cumulative_monotone(va_run, covid_model):
    pop, _net, result = va_run
    code = covid_model.code("Symptomatic")
    _fips, daily = county_daily_counts(result.log, pop, code, result.n_days)
    assert (np.diff(np.cumsum(daily, axis=1), axis=1) >= 0).all()


def test_state_curve_total(va_run, covid_model):
    _pop, _net, result = va_run
    code = covid_model.code("Exposed")
    curve = state_cumulative_curve(result.log, code, result.n_days)
    assert curve[-1] == result.log.entering(code).size


def test_counties_cover_all_events(va_run, covid_model):
    pop, _net, result = va_run
    code = covid_model.code("Exposed")
    _fips, counts = county_daily_counts(result.log, pop, code, result.n_days)
    assert counts.sum() == result.log.entering(code).size
