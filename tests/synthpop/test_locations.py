"""Location-assignment tests."""

import numpy as np
import pytest

from repro.synthpop.activities import (
    ACTIVITY_TYPES,
    HOME,
    SCHOOL,
    WORK,
    assign_activities,
)
from repro.synthpop.locations import OUT_COMMUTE_RATE, assign_locations
from repro.synthpop.persons import generate_population


@pytest.fixture(scope="module")
def setup():
    pop = generate_population("VA", scale=1e-3, seed=3)
    rng = np.random.default_rng(3)
    acts = assign_activities(pop, rng)
    visits = assign_locations(pop, acts, rng)
    return pop, acts, visits


def test_every_activity_assigned(setup):
    _pop, acts, visits = setup
    assert visits.size == acts.size
    assert (visits.location >= 0).all()
    assert visits.location.max() < visits.n_locations


def test_home_maps_to_household_residence(setup):
    pop, _acts, visits = setup
    rows = visits.kind == HOME
    np.testing.assert_array_equal(
        visits.location[rows], pop.hid[visits.person[rows]])


def test_residences_precede_activity_locations(setup):
    pop, _acts, visits = setup
    n_res = int(pop.hid.max()) + 1
    non_home = visits.kind != HOME
    assert visits.location[non_home].min() >= n_res


def test_out_commute_fraction(setup):
    """Some but not most workers commute out of their home county."""
    pop, _acts, visits = setup
    rows = np.flatnonzero(visits.kind == WORK)
    # Recover each work location's county from its co-workers' modal county.
    workers = visits.person[rows]
    home_counties = pop.county[workers]
    locs = visits.location[rows]
    loc_county: dict[int, int] = {}
    for loc in np.unique(locs):
        members = home_counties[locs == loc]
        vals, counts = np.unique(members, return_counts=True)
        loc_county[int(loc)] = int(vals[np.argmax(counts)])
    dest = np.asarray([loc_county[int(l)] for l in locs])
    out_frac = (dest != home_counties).mean()
    assert out_frac < OUT_COMMUTE_RATE * 2.5


def test_school_is_county_local(setup):
    pop, _acts, visits = setup
    rows = np.flatnonzero(visits.kind == SCHOOL)
    locs = visits.location[rows]
    counties = pop.county[visits.person[rows]]
    for loc in np.unique(locs):
        assert np.unique(counties[locs == loc]).size == 1


def test_location_kind_counts(setup):
    _pop, _acts, visits = setup
    counts = {name: np.unique(visits.location[visits.kind == k]).size
              for k, name in enumerate(ACTIVITY_TYPES)}
    assert counts["home"] > 0
    assert counts["work"] > 0
    assert counts["school"] > 0
    # Schools are bigger than shops: fewer school locations per person.
    assert counts["school"] < counts["shopping"] or counts["shopping"] == 0
