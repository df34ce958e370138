"""Synthetic-population generation tests."""

import numpy as np
import pytest

from repro.synthpop.persons import (
    AGE_BOUNDS,
    AGE_GROUP_SHARES,
    GENDER_SHARES,
    HOUSEHOLD_SIZE_PROBS,
    Population,
    generate_population,
)
from repro.synthpop.regions import get_region


@pytest.fixture(scope="module")
def pop():
    return generate_population("VA", scale=1e-3, seed=1)


def test_size_matches_scale(pop):
    assert pop.size == get_region("VA").scaled_population(1e-3)


def test_age_group_marginals_match_ipf_targets(pop):
    counts = np.bincount(pop.age_group, minlength=5) / pop.size
    np.testing.assert_allclose(counts, AGE_GROUP_SHARES, atol=0.02)


def test_gender_marginals(pop):
    female = (pop.gender == 0).mean()
    assert abs(female - GENDER_SHARES[0]) < 0.02


def test_ages_within_group_bounds(pop):
    for g, (lo, hi) in enumerate(AGE_BOUNDS):
        ages = pop.age[pop.age_group == g]
        assert ages.size > 0
        assert ages.min() >= lo and ages.max() <= hi


def test_households_share_county(pop):
    """Everyone in a household lives in the same county."""
    order = np.argsort(pop.hid, kind="stable")
    hid = pop.hid[order]
    county = pop.county[order]
    changes = np.flatnonzero(np.diff(hid) == 0)
    assert (county[changes] == county[changes + 1]).all()


def test_households_share_coordinates(pop):
    order = np.argsort(pop.hid, kind="stable")
    hid, lat = pop.hid[order], pop.home_lat[order]
    same = np.flatnonzero(np.diff(hid) == 0)
    np.testing.assert_array_equal(lat[same], lat[same + 1])


def test_household_sizes_realistic(pop):
    _ids, counts = np.unique(pop.hid, return_counts=True)
    assert counts.max() <= len(HOUSEHOLD_SIZE_PROBS)
    mean = counts.mean()
    assert 1.8 < mean < 3.2  # US mean household ~2.5


def test_counties_are_valid(pop):
    region = get_region("VA")
    assert set(np.unique(pop.county) // 1000) == {region.fips}


def test_county_sizes_heavy_tailed(pop):
    sizes = np.sort(np.unique(pop.county, return_counts=True)[1])[::-1]
    # Top decile of counties should hold a disproportionate share.
    top = max(1, sizes.size // 10)
    assert sizes[:top].sum() > 0.25 * sizes.sum()


def test_deterministic_in_seed():
    a = generate_population("VT", scale=1e-3, seed=5)
    b = generate_population("VT", scale=1e-3, seed=5)
    np.testing.assert_array_equal(a.age, b.age)
    np.testing.assert_array_equal(a.county, b.county)


def test_different_seeds_differ():
    a = generate_population("VT", scale=1e-3, seed=5)
    b = generate_population("VT", scale=1e-3, seed=6)
    assert not np.array_equal(a.age, b.age)


def test_population_validates_column_lengths():
    good = generate_population("VT", scale=1e-3, seed=5)
    with pytest.raises(ValueError, match="length mismatch"):
        Population(
            region_code="VT",
            pid=good.pid,
            hid=good.hid[:-1],
            age=good.age,
            age_group=good.age_group,
            gender=good.gender,
            county=good.county,
            home_lat=good.home_lat,
            home_lon=good.home_lon,
        )
