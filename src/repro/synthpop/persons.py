"""Synthetic person and household generation (Appendix C, base population).

For each region the paper constructs a set of individuals with demographic
attributes fitted to census marginals by IPF, partitioned into households,
each with a residence location.  We reproduce that pipeline: an IPF fit over
an age-group x gender contingency table, sampling of persons, household
grouping with realistic size distribution, county assignment with a
heavy-tailed county-size distribution (so county-level curves look like
Figure 13), and home coordinates per household.

Person traits match the paper's list (Section III, "Input Data"): household
ID, age and age group, gender, county code, latitude/longitude of home.

Households are cut from whole 256-size batches of drawn sizes with one
cumulative sum, not a per-household loop; several batches drawn in one
``choice`` call are the same stream as one call each, so the population
and the generator's final state are those of the loop, which
``tests/synthpop/test_synthesis_reference.py`` keeps as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..params import DEFAULT_SCALE, DEFAULT_SEED
from . import ipf
from .regions import Region, county_fips, get_region

#: Age-group labels used by the disease model (Table III columns).
AGE_GROUPS: tuple[str, ...] = ("0-4", "5-17", "18-49", "50-64", "65+")

#: Inclusive age bounds for each group.
AGE_BOUNDS: tuple[tuple[int, int], ...] = (
    (0, 4),
    (5, 17),
    (18, 49),
    (50, 64),
    (65, 99),
)

#: National age-group shares (ACS-like), used as the IPF target marginal.
AGE_GROUP_SHARES: tuple[float, ...] = (0.060, 0.163, 0.424, 0.193, 0.160)

#: Gender shares (female, male).
GENDER_SHARES: tuple[float, float] = (0.508, 0.492)

#: Household-size distribution for sizes 1..7 (ACS-like).
HOUSEHOLD_SIZE_PROBS: tuple[float, ...] = (
    0.283,
    0.345,
    0.151,
    0.128,
    0.058,
    0.023,
    0.012,
)


@dataclass(slots=True)
class Population:
    """Columnar synthetic population for one region.

    All columns are parallel numpy arrays of length ``size``; this mirrors
    the single persons CSV the paper feeds into its PostgreSQL servers and
    keeps the simulator fully vectorisable.
    """

    region_code: str
    pid: np.ndarray  #: int64 person id, 0..n-1
    hid: np.ndarray  #: int64 household id
    age: np.ndarray  #: int16 age in years
    age_group: np.ndarray  #: int8 index into AGE_GROUPS
    gender: np.ndarray  #: int8, 0 = female, 1 = male
    county: np.ndarray  #: int32 5-digit county FIPS
    home_lat: np.ndarray  #: float32
    home_lon: np.ndarray  #: float32
    county_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))

    def __post_init__(self) -> None:
        n = self.pid.shape[0]
        for name in ("hid", "age", "age_group", "gender", "county",
                     "home_lat", "home_lon"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"column {name} length mismatch")
        if self.county_codes.size == 0:
            self.county_codes = np.unique(self.county)

    @property
    def size(self) -> int:
        """Number of synthetic persons."""
        return int(self.pid.shape[0])

    @property
    def n_households(self) -> int:
        """Number of distinct households."""
        return int(np.unique(self.hid).size)


def _county_weights(n_counties: int, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed county population shares (rank-size / Zipf-like).

    Real county populations within a state follow an approximate Zipf law;
    this is what makes the county-level incidence curves of Figure 13 span
    orders of magnitude.
    """
    ranks = np.arange(1, n_counties + 1, dtype=np.float64)
    weights = ranks ** -0.9
    weights *= rng.lognormal(0.0, 0.25, size=n_counties)
    return weights / weights.sum()


def generate_population(
    region: Region | str,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
) -> Population:
    """Synthesise the population of one region.

    Args:
        region: a :class:`Region` or its postal code.
        scale: fraction of the real population to synthesise.
        seed: RNG seed; combined with the region FIPS so every region gets an
            independent but reproducible stream.

    Returns:
        A :class:`Population` whose age-group and gender marginals match the
        census shares via IPF, grouped into households of realistic sizes,
        each household placed in a county and given home coordinates.
    """
    if isinstance(region, str):
        region = get_region(region)
    rng = np.random.default_rng((seed, region.fips))
    n = region.scaled_population(scale)

    # Fit the age-group x gender joint to the marginals.  The seed table is
    # mildly informative (slightly more women at older ages), so IPF has
    # real work to do.
    seed_table = np.ones((len(AGE_GROUPS), 2))
    seed_table[-1, 0] = 1.15  # female skew in 65+
    target_age = np.asarray(AGE_GROUP_SHARES) * n
    target_gender = np.asarray(GENDER_SHARES) * n
    fit = ipf.ipf_fit(seed_table, [target_age, target_gender])
    draws = ipf.sample_joint(fit.table, n, rng)
    age_group = draws[:, 0].astype(np.int8)
    gender = draws[:, 1].astype(np.int8)

    lo = np.asarray([b[0] for b in AGE_BOUNDS])[age_group]
    hi = np.asarray([b[1] for b in AGE_BOUNDS])[age_group]
    age = rng.integers(lo, hi + 1).astype(np.int16)

    # Households: draw sizes in batches of 256 until they cover the
    # population, assign people to households in order, and cut the last
    # household short by the overshoot.  A batch covers at most 7 * 256
    # people, so each ``choice`` call below draws m batches that are all
    # needed: the same stream as m calls of one batch.
    size_choices = np.arange(1, len(HOUSEHOLD_SIZE_PROBS) + 1)
    batches = []
    short = n
    while short > 0:
        m = -(-short // (256 * size_choices.size))
        batches.append(rng.choice(size_choices, size=256 * m,
                                  p=HOUSEHOLD_SIZE_PROBS))
        short -= int(batches[-1].sum())
    sizes = np.concatenate(batches)
    n_hh = int(np.searchsorted(np.cumsum(sizes), n)) + 1
    hh_sizes = sizes[:n_hh]
    hh_sizes[-1] -= hh_sizes.sum() - n
    hid = np.repeat(np.arange(n_hh, dtype=np.int64), hh_sizes)

    # Counties: each *household* lives in one county, drawn from the
    # heavy-tailed share distribution (as an index into ``fips_codes``).
    fips_codes = np.asarray(county_fips(region), dtype=np.int32)
    shares = _county_weights(fips_codes.size, rng)
    cidx = rng.choice(fips_codes.size, size=n_hh, p=shares)
    county = fips_codes[cidx][hid]

    # Home coordinates: one point per household inside a synthetic county
    # bounding box laid out on a grid covering a nominal state extent.
    grid = int(np.ceil(np.sqrt(fips_codes.size)))
    cell_lat = (cidx // grid).astype(np.float64)
    cell_lon = (cidx % grid).astype(np.float64)
    lat0 = 36.0 + (region.fips % 7) * 0.5
    lon0 = -82.0 - (region.fips % 11) * 0.7
    hh_lat = lat0 + (cell_lat + rng.random(n_hh)) * (4.0 / grid)
    hh_lon = lon0 + (cell_lon + rng.random(n_hh)) * (6.0 / grid)

    return Population(
        region_code=region.code,
        pid=np.arange(n, dtype=np.int64),
        hid=hid,
        age=age,
        age_group=age_group,
        gender=gender,
        county=county.astype(np.int32),
        home_lat=hh_lat[hid].astype(np.float32),
        home_lon=hh_lon[hid].astype(np.float32),
        county_codes=fips_codes,
    )
