"""Cold synthesis against the loops it replaced.

The references below are the original per-household, per-county and
per-(county, kind) loops, kept verbatim in behaviour: household sizes
appended one at a time from 256-size batches, the county index looked up
through a dict, one ``rng.dirichlet`` per county for the commute flows,
and one ``rng.choice`` per (home county) for work destinations and per
(kind, county) pool for locations.  The vectorised ``generate_population``
and ``assign_locations`` must emit the same columns (values and dtypes)
and the same location count, and leave their generators in the same
state, on every region, on one- and three-county regions, at a scale where
some (kind, county) pool gets no visits, and on random seeds.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthpop import ipf
from repro.synthpop.activities import (
    COLLEGE,
    HOME,
    OTHER,
    RELIGION,
    SCHOOL,
    SHOPPING,
    WORK,
    assign_activities,
)
from repro.synthpop.locations import (
    OUT_COMMUTE_RATE,
    VISITORS_PER_LOCATION,
    VisitTable,
    _commute_matrix,
    assign_locations,
)
from repro.synthpop.persons import (
    AGE_BOUNDS,
    AGE_GROUP_SHARES,
    AGE_GROUPS,
    GENDER_SHARES,
    HOUSEHOLD_SIZE_PROBS,
    Population,
    _county_weights,
    generate_population,
)
from repro.synthpop.regions import ALL_CODES, county_fips, get_region

POP_COLUMNS = ("pid", "hid", "age", "age_group", "gender", "county",
               "home_lat", "home_lon", "county_codes")
VISIT_COLUMNS = ("person", "location", "kind", "start", "duration")


def reference_household_sizes(n, rng):
    """The per-household loop ``generate_population`` used to run."""
    sizes: list[int] = []
    covered = 0
    size_choices = np.arange(1, len(HOUSEHOLD_SIZE_PROBS) + 1)
    while covered < n:
        batch = rng.choice(size_choices, size=256, p=HOUSEHOLD_SIZE_PROBS)
        for s in batch:
            if covered >= n:
                break
            s = int(min(s, n - covered))
            sizes.append(s)
            covered += s
    return np.asarray(sizes, dtype=np.int64)


def reference_county_index(fips_codes, hh_county):
    """The dict lookup from a household's county FIPS to its grid cell."""
    county_idx = {int(c): i for i, c in enumerate(fips_codes)}
    return np.asarray([county_idx[int(c)] for c in hh_county])


def reference_population(region, scale, seed):
    """The old ``generate_population``; returns the population and its
    generator."""
    rng = np.random.default_rng((seed, region.fips))
    n = region.scaled_population(scale)
    seed_table = np.ones((len(AGE_GROUPS), 2))
    seed_table[-1, 0] = 1.15
    fit = ipf.ipf_fit(seed_table, [np.asarray(AGE_GROUP_SHARES) * n,
                                   np.asarray(GENDER_SHARES) * n])
    draws = ipf.sample_joint(fit.table, n, rng)
    age_group = draws[:, 0].astype(np.int8)
    gender = draws[:, 1].astype(np.int8)
    lo = np.asarray([b[0] for b in AGE_BOUNDS])[age_group]
    hi = np.asarray([b[1] for b in AGE_BOUNDS])[age_group]
    age = rng.integers(lo, hi + 1).astype(np.int16)
    hh_sizes = reference_household_sizes(n, rng)
    hid = np.repeat(np.arange(hh_sizes.size, dtype=np.int64), hh_sizes)
    fips_codes = np.asarray(county_fips(region), dtype=np.int32)
    shares = _county_weights(fips_codes.size, rng)
    hh_county = rng.choice(fips_codes, size=hh_sizes.size, p=shares)
    grid = int(np.ceil(np.sqrt(fips_codes.size)))
    cidx = reference_county_index(fips_codes, hh_county)
    cell_lat = (cidx // grid).astype(np.float64)
    cell_lon = (cidx % grid).astype(np.float64)
    lat0 = 36.0 + (region.fips % 7) * 0.5
    lon0 = -82.0 - (region.fips % 11) * 0.7
    hh_lat = lat0 + (cell_lat + rng.random(hh_sizes.size)) * (4.0 / grid)
    hh_lon = lon0 + (cell_lon + rng.random(hh_sizes.size)) * (6.0 / grid)
    pop = Population(
        region_code=region.code, pid=np.arange(n, dtype=np.int64), hid=hid,
        age=age, age_group=age_group, gender=gender,
        county=hh_county[hid].astype(np.int32),
        home_lat=hh_lat[hid].astype(np.float32),
        home_lon=hh_lon[hid].astype(np.float32), county_codes=fips_codes)
    return pop, rng


def reference_commute_matrix(county_codes, rng):
    """The per-county loop ``_commute_matrix`` used to run."""
    k = county_codes.size
    flows = {}
    for i, code in enumerate(county_codes):
        neighbors = [(i + d) % k for d in (-2, -1, 1, 2) if k > 1]
        dests = np.asarray([code] + [county_codes[j] for j in neighbors])
        w = np.empty(dests.size)
        w[0] = 1.0 - OUT_COMMUTE_RATE
        if dests.size > 1:
            w[1:] = rng.dirichlet(np.ones(dests.size - 1)) * OUT_COMMUTE_RATE
        else:
            w[0] = 1.0
        flows[int(code)] = (dests, w / w.sum())
    return flows


def reference_assign_locations(pop, acts, rng):
    """The per-(county, kind) loop ``assign_locations`` used to run."""
    flows = reference_commute_matrix(pop.county_codes, rng)
    n_res = int(pop.hid.max()) + 1 if pop.size else 0
    next_loc = n_res
    pools = {}

    def pool(county, kind, demand):
        nonlocal next_loc
        if (county, kind) not in pools:
            n_loc = max(1, int(np.ceil(demand / VISITORS_PER_LOCATION[kind])))
            pools[county, kind] = np.arange(next_loc, next_loc + n_loc,
                                            dtype=np.int64)
            next_loc += n_loc
        return pools[county, kind]

    location = np.empty(acts.size, dtype=np.int64)
    home_rows = acts.kind == HOME
    location[home_rows] = pop.hid[acts.person[home_rows]]
    person_county = pop.county[acts.person]
    work_rows = np.flatnonzero(acts.kind == WORK)
    if work_rows.size:
        dest = np.empty(work_rows.size, dtype=np.int64)
        home_counties = person_county[work_rows]
        for code in np.unique(home_counties):
            sel = home_counties == code
            dests, w = flows[int(code)]
            dest[sel] = rng.choice(dests, size=int(sel.sum()), p=w)
        for code in np.unique(dest):
            sel = dest == code
            p = pool(int(code), WORK, int(sel.sum()))
            location[work_rows[sel]] = rng.choice(p, size=int(sel.sum()))
    for kind in (SCHOOL, COLLEGE, SHOPPING, OTHER, RELIGION):
        rows = np.flatnonzero(acts.kind == kind)
        if not rows.size:
            continue
        counties = person_county[rows]
        for code in np.unique(counties):
            sel = counties == code
            p = pool(int(code), kind, int(sel.sum()))
            location[rows[sel]] = rng.choice(p, size=int(sel.sum()))
    return VisitTable(acts.person.copy(), location, acts.kind.copy(),
                      acts.start.copy(), acts.duration.copy(), next_loc)


@contextlib.contextmanager
def generators_made():
    """Record every generator ``np.random.default_rng`` makes inside."""
    made = []
    real = np.random.default_rng

    def default_rng(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", default_rng):
        yield made


def assert_columns_equal(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_same_synthesis(code, scale, seed):
    """Population and visit table == references, column by column, and
    every generator ends in the same state.  Returns both."""
    region = get_region(code)
    with generators_made() as made:
        pop = generate_population(region, scale=scale, seed=seed)
    want_pop, rng_ref = reference_population(region, scale, seed)
    assert pop.region_code == want_pop.region_code
    assert_columns_equal(pop, want_pop, POP_COLUMNS)
    assert made[-1].bit_generator.state == rng_ref.bit_generator.state

    rng_new = np.random.default_rng((seed, region.fips, 1))
    rng_ref = np.random.default_rng((seed, region.fips, 1))
    acts = assign_activities(pop, rng_new)
    assign_activities(pop, rng_ref)
    got = assign_locations(pop, acts, rng_new)
    want = reference_assign_locations(pop, acts, rng_ref)
    assert_columns_equal(got, want, VISIT_COLUMNS)
    assert got.n_locations == want.n_locations
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return pop, got


@pytest.mark.parametrize("code", ALL_CODES)
def test_every_region_matches_reference(code):
    assert_same_synthesis(code, 1e-3, 0)


@pytest.mark.parametrize("code", ["DC", "DE"])
@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("seed", [0, 5])
def test_one_and_three_county_regions(code, scale, seed):
    """DC has one county (no dirichlet draw, every worker stays home); DE
    has three, so each county's four neighbours repeat."""
    assert get_region(code).counties == {"DC": 1, "DE": 3}[code]
    assert_same_synthesis(code, scale, seed)


def test_scale_where_some_groups_have_no_visits():
    """At 50 persons over 254 counties most (kind, county) groups have no
    visits, so most pools are never made and take no location ids."""
    region = get_region("TX")
    pop, visits = assert_same_synthesis("TX", 1e-6, 2)
    local = (visits.kind != HOME) & (visits.kind != WORK)
    groups = np.unique(visits.kind[local].astype(np.int64) * 10**6
                       + pop.county[visits.person[local]])
    assert 0 < groups.size < 5 * region.counties


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 17, 254])
@pytest.mark.parametrize("seed", [0, 11])
def test_commute_matrix_matches_reference(k, seed):
    codes = np.arange(1, 2 * k, 2, dtype=np.int32) + 51000
    rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
    dests, p = _commute_matrix(codes, rng_new)
    want = reference_commute_matrix(codes, rng_ref)
    assert dests.shape == p.shape == (k, 1 if k == 1 else 5)
    for i, code in enumerate(codes):
        want_dests, want_w = want[int(code)]
        np.testing.assert_array_equal(codes[dests[i]], want_dests)
        np.testing.assert_array_equal(p[i], want_w)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(code=st.sampled_from(["DC", "DE", "VT", "WY", "RI", "NV"]),
       scale=st.sampled_from([1e-6, 1e-5, 1e-4, 1e-3]),
       seed=st.integers(0, 2**32 - 1))
def test_matches_reference_on_random_seeds(code, scale, seed):
    assert_same_synthesis(code, scale, seed)
