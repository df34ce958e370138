"""``generate_region_truth`` against the per-county loop it replaced.

The reference below is the original loop, kept verbatim in behaviour:
the log-population term computed per county, a fresh ``lam`` per county,
the reporting delay applied by ``np.roll`` and zeroing, and incidence
from ``np.clip`` and ``np.diff``.  The new loop
makes the same draws in the same order, so the series must be equal value
for value and the generator must end in the same state, on every region,
for series both longer and shorter than the drawn reporting delay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.surveillance.truth import QUIET_LEAD_DAYS, generate_region_truth
from repro.synthpop.regions import ALL_CODES, county_fips, get_region

from ..synthpop.test_synthesis_reference import generators_made


def reference_incidence(t, onset, rate, final):
    """The old ``_logistic_incidence``."""
    z = np.clip(rate * (t - onset), -60, 60)
    cum = final / (1.0 + np.exp(-z))
    daily = np.diff(cum, prepend=cum[:1])
    daily[t < onset - QUIET_LEAD_DAYS] = 0.0
    return np.maximum(daily, 0.0)


def reference_truth(region, n_days, seed, ascertainment=0.25,
                    report_delay=7):
    """The old ``generate_region_truth`` body; returns the county codes, the
    daily series and the generator."""
    rng = np.random.default_rng((seed, region.fips, 99))
    fips = np.asarray(county_fips(region), dtype=np.int32)
    n_counties = fips.size
    t = np.arange(n_days, dtype=np.float64)
    ranks = np.arange(1, n_counties + 1, dtype=np.float64)
    weights = ranks ** -0.9
    weights *= rng.lognormal(0.0, 0.25, size=n_counties)
    weights /= weights.sum()
    county_pop = weights * region.population
    weekday = 1.0 - 0.25 * np.isin(np.arange(n_days) % 7, (5, 6))
    daily = np.zeros((n_counties, n_days))
    for c in range(n_counties):
        onset = rng.normal(60.0, 8.0) - 8.0 * np.log10(
            max(county_pop[c], 10.0) / 1e4
        )
        rate = rng.uniform(0.08, 0.18)
        attack = rng.uniform(0.005, 0.04)
        infections = reference_incidence(t, max(onset, 42.0), rate,
                                         attack * county_pop[c])
        observed = infections * ascertainment
        delay = int(round(rng.normal(report_delay, 1.5)))
        observed = np.roll(observed, max(delay, 0))
        observed[: max(delay, 0)] = 0.0
        observed *= weekday
        lam = np.maximum(observed, 0.0)
        lam = lam * rng.gamma(5.0, 1.0 / 5.0, size=n_days)
        daily[c] = rng.poisson(lam)
    return fips, daily, rng


@pytest.mark.parametrize("n_days", [1, 3, 6, 210])
@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("code", ALL_CODES)
def test_matches_reference(code, seed, n_days):
    """Series of 1, 3 and 6 days are shorter than most drawn reporting
    delays (mean 7 days): there a delay reaches past the series' end."""
    region = get_region(code)
    with generators_made() as made:
        got = generate_region_truth(code, n_days=n_days, seed=seed)
    fips, daily, rng = reference_truth(region, n_days, seed)
    np.testing.assert_array_equal(got.county, fips)
    assert got.county.dtype == fips.dtype
    assert got.daily.dtype == daily.dtype
    np.testing.assert_array_equal(got.daily, daily)
    np.testing.assert_array_equal(got.cumulative, np.cumsum(daily, axis=1))
    assert made[-1].bit_generator.state == rng.bit_generator.state
