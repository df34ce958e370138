"""Location model and location assignment (Appendix C).

The paper constructs a set of spatially embedded locations (residences plus
activity locations from building / POI / school data) and assigns every
non-home activity of every person to a location.  Work locations are chosen
using commute flows (most work in the home county, some commute out); school
locations are county-local; discretionary activities are anchored near home.

We reproduce that structure: per county we create a number of locations of
each activity type proportional to residents, and assign activities with a
commute-flow matrix for work.  The output is the bipartite people-location
visit table ``G_PL`` from which contacts are derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activities import (
    COLLEGE,
    HOME,
    OTHER,
    RELIGION,
    SCHOOL,
    SHOPPING,
    WORK,
    ActivityTable,
)
from .persons import Population

#: Average number of assigned visitors per location, by activity type.
#: Controls location counts: a county with R residents doing activity k gets
#: about ``participants / VISITORS_PER_LOCATION[k]`` locations of type k.
VISITORS_PER_LOCATION: dict[int, int] = {
    WORK: 18,
    SHOPPING: 40,
    OTHER: 15,
    SCHOOL: 120,
    COLLEGE: 400,
    RELIGION: 60,
}

#: Fraction of workers who commute out of their home county.
OUT_COMMUTE_RATE: float = 0.22


@dataclass(slots=True)
class VisitTable:
    """The bipartite people-location graph ``G_PL`` for one region-day.

    One row per (person, location, activity) visit with timing; home visits
    point at per-household residence locations.
    """

    person: np.ndarray  #: int64
    location: np.ndarray  #: int64 globally unique location id
    kind: np.ndarray  #: int8 activity type of the visit
    start: np.ndarray  #: int32 minutes
    duration: np.ndarray  #: int32 minutes
    n_locations: int

    @property
    def size(self) -> int:
        """Number of visit rows."""
        return int(self.person.shape[0])

    def visitors_of(self, location: int) -> np.ndarray:
        """Person ids visiting ``location``."""
        return self.person[self.location == location]


def _commute_matrix(
    county_codes: np.ndarray, rng: np.random.Generator
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """For each county, the distribution over work-destination counties.

    Mirrors ACS commute-flow data [50]: most workers stay home, the rest
    spread over a handful of "nearby" counties (adjacent county indices).
    """
    k = county_codes.size
    flows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, code in enumerate(county_codes):
        neighbors = [(i + d) % k for d in (-2, -1, 1, 2) if k > 1]
        dests = np.asarray([code] + [county_codes[j] for j in neighbors])
        w = np.empty(dests.size)
        w[0] = 1.0 - OUT_COMMUTE_RATE
        if dests.size > 1:
            rest = rng.dirichlet(np.ones(dests.size - 1)) * OUT_COMMUTE_RATE
            w[1:] = rest
        else:
            w[0] = 1.0
        flows[int(code)] = (dests, w / w.sum())
    return flows


def assign_locations(
    pop: Population,
    acts: ActivityTable,
    rng: np.random.Generator,
) -> VisitTable:
    """Assign a location to every activity, yielding the visit table.

    Home activities map to one residence location per household.  Work uses
    the commute-flow matrix; school / college / shopping / other / religion
    are drawn from the home county's location pool of that type.

    Returns:
        A :class:`VisitTable`; location ids are contiguous ``0..L-1`` with
        residences first.
    """
    county_codes = pop.county_codes
    flows = _commute_matrix(county_codes, rng)

    # Residence locations: one per household.
    n_res = int(pop.hid.max()) + 1 if pop.size else 0
    next_loc = n_res

    # Pools of activity locations per (county, kind).
    pools: dict[tuple[int, int], np.ndarray] = {}

    def pool(county: int, kind: int, demand: int) -> np.ndarray:
        nonlocal next_loc
        key = (county, kind)
        if key not in pools:
            per_loc = VISITORS_PER_LOCATION[kind]
            n_loc = max(1, int(np.ceil(demand / per_loc)))
            pools[key] = np.arange(next_loc, next_loc + n_loc, dtype=np.int64)
            next_loc += n_loc
        return pools[key]

    location = np.empty(acts.size, dtype=np.int64)

    home_rows = acts.kind == HOME
    location[home_rows] = pop.hid[acts.person[home_rows]]

    person_county = pop.county[acts.person]

    # Work: pick destination county from the commute flow, then a location.
    work_rows = np.flatnonzero(acts.kind == WORK)
    if work_rows.size:
        dest = np.empty(work_rows.size, dtype=np.int64)
        home_counties = person_county[work_rows]
        for code in np.unique(home_counties):
            sel = home_counties == code
            dests, w = flows[int(code)]
            dest[sel] = rng.choice(dests, size=int(sel.sum()), p=w)
        # Demand per destination county sizes the pool.
        for code in np.unique(dest):
            sel = dest == code
            p = pool(int(code), WORK, int(sel.sum()))
            location[work_rows[sel]] = rng.choice(p, size=int(sel.sum()))

    # County-local activities.
    for kind in (SCHOOL, COLLEGE, SHOPPING, OTHER, RELIGION):
        rows = np.flatnonzero(acts.kind == kind)
        if not rows.size:
            continue
        counties = person_county[rows]
        for code in np.unique(counties):
            sel = counties == code
            p = pool(int(code), kind, int(sel.sum()))
            location[rows[sel]] = rng.choice(p, size=int(sel.sum()))

    return VisitTable(
        person=acts.person.copy(),
        location=location,
        kind=acts.kind.copy(),
        start=acts.start.copy(),
        duration=acts.duration.copy(),
        n_locations=next_loc,
    )
