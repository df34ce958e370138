"""Synthetic county-level COVID-19 surveillance data (Figures 13 and 14).

The calibration workflows ingest county-level daily confirmed-case counts
from multiple sources (NYT, JHU, the UVA dashboard), "starting from January
21, 2020, for over 3000 counties" (Section III).  That data is proprietary
to its aggregators and tied to the real pandemic, so — per the substitution
rule in DESIGN.md — this module generates a synthetic equivalent exercising
the same code paths: per-county cumulative curves that are noisy, delayed,
weekday-seasonal, span orders of magnitude across counties (Figure 13), and
sum to state curves with the staggered take-off of Figure 14.

Each county follows a stochastic logistic growth process with a random
importation date, growth rate and attack fraction, observed through a
reporting channel with under-ascertainment, delay, weekday effects and
negative-binomial-style noise.

Each county's draws interleave with its ``poisson`` draw, whose stream use
depends on the drawn rates, so generation keeps one loop over counties in
draw order; only what no draw depends on is hoisted out of it.
``tests/surveillance/test_truth_reference.py`` keeps the original loop as
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..params import DEFAULT_SEED
from ..synthpop.regions import Region, county_fips, get_region

#: Day 0 of every time axis: January 21, 2020 (first US confirmed case).
EPOCH = "2020-01-21"


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """County-resolved confirmed-case surveillance for one region.

    Attributes:
        region_code: postal code.
        county: ``(C,)`` county FIPS codes.
        daily: ``(C, T)`` observed daily new confirmed cases.
        cumulative: ``(C, T)`` running totals of ``daily``.
    """

    region_code: str
    county: np.ndarray
    daily: np.ndarray
    cumulative: np.ndarray

    @property
    def n_days(self) -> int:
        """Length of the time axis."""
        return int(self.daily.shape[1])

    @property
    def n_counties(self) -> int:
        """Number of counties carried."""
        return int(self.daily.shape[0])

    def state_daily(self) -> np.ndarray:
        """State-level daily counts (sum over counties)."""
        return self.daily.sum(axis=0)

    def state_cumulative(self) -> np.ndarray:
        """State-level cumulative curve (the Figure 14 series)."""
        return self.cumulative.sum(axis=0)

    def latest_by_county(self) -> dict[int, float]:
        """Mapping county FIPS -> final cumulative count (seeding input)."""
        return {
            int(c): float(v)
            for c, v in zip(self.county, self.cumulative[:, -1])
        }

    def window(self, end_day: int) -> "GroundTruth":
        """Truncate the series at ``end_day`` (exclusive) for as-of studies."""
        if not 0 < end_day <= self.n_days:
            raise ValueError(f"end_day must be in (0, {self.n_days}]")
        return GroundTruth(
            self.region_code, self.county,
            self.daily[:, :end_day], self.cumulative[:, :end_day],
        )


#: Observation channel: the fraction of infections that become confirmed
#: cases, and the mean reporting delay in days.
ASCERTAINMENT: float = 0.25
REPORT_DELAY_DAYS: int = 7

#: Days before the logistic inflection during which incidence is zero
#: (outbreaks are quiet until importation takes hold).
QUIET_LEAD_DAYS: float = 20.0


def _logistic_incidence(
    t: np.ndarray, onset: float, rate: float, final: float
) -> np.ndarray:
    """Daily new infections of a logistic outbreak (vectorised over t).

    ``onset`` is the inflection day; the slow left tail of the logistic is
    truncated ``QUIET_LEAD_DAYS`` before it so early days are genuinely
    quiet (the staggered take-off of Figure 14), and the pre-window mass is
    dropped rather than dumped into day 0.
    """
    z = np.minimum(np.maximum(rate * (t - onset), -60.0), 60.0)
    cum = final / (1.0 + np.exp(-z))
    daily = np.zeros_like(cum)
    np.subtract(cum[1:], cum[:-1], out=daily[1:])
    daily[t < onset - QUIET_LEAD_DAYS] = 0.0
    return np.maximum(daily, 0.0, out=daily)


def generate_region_truth(
    region: Region | str,
    *,
    n_days: int = 210,
    seed: int = DEFAULT_SEED,
) -> GroundTruth:
    """Generate one region's synthetic surveillance series.

    Args:
        region: region or postal code.
        n_days: length of the series ("over 200 days of entries").
        seed: RNG seed (combined with the region FIPS).

    Returns:
        A :class:`GroundTruth` with one row per county.
    """
    if isinstance(region, str):
        region = get_region(region)
    rng = np.random.default_rng((seed, region.fips, 99))
    fips = np.asarray(county_fips(region), dtype=np.int32)
    n_counties = fips.size
    t = np.arange(n_days, dtype=np.float64)

    # County weights mirror the heavy-tailed population distribution used by
    # the synthetic population generator.
    ranks = np.arange(1, n_counties + 1, dtype=np.float64)
    weights = ranks ** -0.9
    weights *= rng.lognormal(0.0, 0.25, size=n_counties)
    weights /= weights.sum()
    county_pop = weights * region.population

    # Weekend reporting dip (days 5 and 6 of each week).
    weekday = 1.0 - 0.25 * np.isin(np.arange(n_days) % 7, (5, 6))
    # Bigger counties are seeded earlier (importation via travel volume).
    earlier = 8.0 * np.log10(np.maximum(county_pop, 10.0) / 1e4)
    daily = np.zeros((n_counties, n_days))
    lam = np.empty(n_days)
    for c in range(n_counties):
        onset = rng.normal(60.0, 8.0) - earlier[c]
        rate = rng.uniform(0.08, 0.18)
        attack = rng.uniform(0.005, 0.04)
        infections = _logistic_incidence(t, max(onset, 42.0), rate,
                                         attack * county_pop[c])
        # Observation channel: ascertainment, delay, weekday dip, noise.
        # A delay past the series' end leaves nothing observed.
        delay = min(max(int(round(rng.normal(REPORT_DELAY_DAYS, 1.5))), 0),
                    n_days)
        lam[:delay] = 0.0
        lam[delay:] = infections[:n_days - delay] * ASCERTAINMENT
        lam *= weekday
        np.maximum(lam, 0.0, out=lam)
        # Gamma-Poisson mixture (negative-binomial-like overdispersion).
        lam *= rng.gamma(5.0, 1.0 / 5.0, size=n_days)
        daily[c] = rng.poisson(lam)

    cumulative = np.cumsum(daily, axis=1)
    return GroundTruth(region.code, fips, daily, cumulative)


def generate_national_truth(
    *, seed: int = DEFAULT_SEED
) -> dict[str, GroundTruth]:
    """Surveillance series for all 51 regions (the Figure 14 panel)."""
    from ..synthpop.regions import ALL_CODES

    return {
        code: generate_region_truth(code, seed=seed)
        for code in ALL_CODES
    }
