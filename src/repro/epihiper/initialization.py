"""Simulation initialization: county-level seeding.

The workflows seed each region's simulation from the most recent
county-level confirmed-case counts (Section VII, economic case study:
"county-level seeding derived from county-level confirmed case counts").
Given per-county case counts — from :mod:`repro.surveillance` or real data —
we infect a proportional number of synthetic persons in each county.
"""

from __future__ import annotations

import numpy as np

from ..synthpop.persons import Population
from .engine import Simulation

#: Share of the population seeded from surveillance, and its floor.
SEED_FRACTION: float = 0.002
MIN_SEEDS: int = 5


def proportional_county_seeds(
    pop: Population,
    county_cases: dict[int, float],
    total_seeds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Choose ``total_seeds`` persons, distributed like ``county_cases``.

    Args:
        pop: the region's synthetic population.
        county_cases: recent confirmed-case count per county FIPS; counties
            missing from the map get weight 0.  If all weights are 0 the
            seeds are spread uniformly.
        total_seeds: number of persons to infect (capped at the population).
        rng: random stream.

    Returns:
        Unique person ids to seed.
    """
    if total_seeds <= 0:
        return np.empty(0, dtype=np.int64)
    total_seeds = min(total_seeds, pop.size)
    # Look the case count up once per distinct county and broadcast through
    # the inverse index: same float64 weights as a per-person dict lookup
    # (so the rng.choice draw is unchanged) without the O(|V|) Python loop.
    counties, inverse = np.unique(pop.county, return_inverse=True)
    per_county = np.asarray(
        [max(0.0, county_cases.get(int(c), 0.0)) for c in counties],
        dtype=np.float64,
    )
    weights = per_county[inverse]
    if weights.sum() <= 0:
        weights[:] = 1.0
    weights /= weights.sum()
    return rng.choice(pop.size, size=total_seeds, replace=False, p=weights)


def uniform_seeds(
    pop: Population, total_seeds: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random persons to seed (used by scaling benchmarks)."""
    total_seeds = min(max(0, total_seeds), pop.size)
    return rng.choice(pop.size, size=total_seeds, replace=False)


def initialize_from_surveillance(
    sim: Simulation,
    county_cases: dict[int, float],
) -> np.ndarray:
    """Seed a simulation proportionally to surveillance case counts.

    :data:`SEED_FRACTION` of the population (at least :data:`MIN_SEEDS`
    persons) enters the Exposed state at tick 0.  Returns the seeded
    person ids.
    """
    n_seeds = max(MIN_SEEDS, int(round(sim.pop.size * SEED_FRACTION)))
    pids = proportional_county_seeds(sim.pop, county_cases, n_seeds, sim.rng)
    sim.seed_infections(pids)
    return pids
