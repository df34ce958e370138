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

Assignment runs no per-county or per-(county, kind) loop, yet makes the
draws such a loop of ``rng.choice`` calls made, from the same stream: one
``dirichlet(size=k)`` is k single draws, one ``random`` searched per
county's cumulative flow is per-county ``choice(dests, p=...)``, and one
array-bounded ``integers`` is per-group ``choice(pool)`` without ``p``.
``tests/synthpop/test_synthesis_reference.py`` keeps that loop as the
reference.
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

#: Order in which activity kinds get their location pools (and ids).
_POOL_ORDER: tuple[int, ...] = (WORK, SCHOOL, COLLEGE, SHOPPING, OTHER,
                                RELIGION)

#: Activity kind -> position in :data:`_POOL_ORDER`.
_POOL_RANK = np.zeros(max(_POOL_ORDER) + 1, dtype=np.int64)
_POOL_RANK[list(_POOL_ORDER)] = np.arange(len(_POOL_ORDER))


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


def _commute_matrix(
    county_codes: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """For each county, the distribution over work-destination counties.

    Mirrors ACS commute-flow data [50]: most workers stay home, the rest
    spread over a handful of "nearby" counties (adjacent county indices).
    Returns ``(dests, p)``, both ``(k, m)``: row ``i`` holds county ``i``'s
    destinations as indices into ``county_codes`` (itself first) and their
    probabilities.  The out-commuter shares of all ``k`` counties come from
    one ``dirichlet(size=k)``, the same stream as ``k`` single draws; a
    lone county (``m = 1``) draws nothing.
    """
    k = county_codes.size
    if k <= 1:
        return np.zeros((k, 1), dtype=np.int64), np.ones((k, 1))
    dests = (np.arange(k)[:, None] + np.array([0, -2, -1, 1, 2])) % k
    w = np.empty(dests.shape)
    w[:, 0] = 1.0 - OUT_COMMUTE_RATE
    w[:, 1:] = rng.dirichlet(np.ones(4), size=k) * OUT_COMMUTE_RATE
    return dests, w / w.sum(axis=1, keepdims=True)


def assign_locations(
    pop: Population,
    acts: ActivityTable,
    rng: np.random.Generator,
) -> VisitTable:
    """Assign a location to every activity, yielding the visit table.

    Home activities map to one residence location per household.  Work uses
    the commute-flow matrix; school / college / shopping / other / religion
    are drawn from the home county's location pool of that type.

    Pools exist for the (kind, county) groups that have visits, sized by
    their visit counts and numbered work first, then school, college,
    shopping, other and religion, each by ascending county (work by
    destination).  Draws follow that order too, after one ``random`` for
    the work destinations of all workers grouped by home county; within a
    group, rows keep their table order.  ``pop.county_codes`` is ascending.

    Returns:
        A :class:`VisitTable`; location ids are contiguous ``0..L-1`` with
        residences first.
    """
    county_codes = pop.county_codes
    k = county_codes.size
    dests, p = _commute_matrix(county_codes, rng)

    # Residence locations: one per household.
    n_res = int(pop.hid.max()) + 1 if pop.size else 0
    location = np.empty(acts.size, dtype=np.int64)
    home = acts.kind == HOME
    location[home] = pop.hid[acts.person[home]]

    rows = np.flatnonzero(~home)
    kind = acts.kind[rows]
    county = np.searchsorted(county_codes, pop.county[acts.person[rows]])

    # Work: pick the destination county from the commute flow.
    by_home = np.flatnonzero(kind == WORK)
    by_home = by_home[np.argsort(county[by_home], kind="stable")]
    u = rng.random(by_home.size)
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    home_county = county[by_home]
    # Row by row, np.searchsorted(cdf, u, side="right") as choice does it.
    pick = (cdf[home_county] <= u[:, None]).sum(axis=1)
    county[by_home] = dests[home_county, pick]

    # Then a location from the (kind, county) pool, all groups in one draw.
    group = _POOL_RANK[kind] * k + county
    counts = np.bincount(group, minlength=len(_POOL_ORDER) * k)
    per_loc = np.repeat([VISITORS_PER_LOCATION[c] for c in _POOL_ORDER], k)
    sizes = np.ceil(counts / per_loc).astype(np.int64)
    base = n_res + np.cumsum(sizes) - sizes
    order = np.argsort(group, kind="stable")
    g = group[order]
    location[rows[order]] = base[g] + rng.integers(0, sizes[g])

    return VisitTable(
        person=acts.person.copy(),
        location=location,
        kind=acts.kind.copy(),
        start=acts.start.copy(),
        duration=acts.duration.copy(),
        n_locations=n_res + int(sizes.sum()),
    )
