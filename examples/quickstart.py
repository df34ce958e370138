#!/usr/bin/env python
"""Quickstart: build a synthetic state, run EpiHiper, inspect the outputs.

Builds Virginia at 1:1000 scale, runs the COVID-19 model of Figure 12 for
120 days with the paper's base interventions (VHI + SC + SH), and prints
the epidemic curve, forecast targets and transmission-tree statistics.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analytics import (
    CONFIRMED,
    DEATHS,
    HOSPITAL_CENSUS,
    VENTILATOR_CENSUS,
    capacity_report,
    peak_demand,
    summarize,
    target_series,
)
from repro.analytics.targets import INFECTIOUS_CENSUS
from repro.analytics.transmission import transmission_stats
from repro.epihiper import (
    Simulation,
    build_covid_model,
    dendogram_sizes,
    max_generation,
    uniform_seeds,
)
from repro.epihiper.npi import make_sc, make_sh, make_vhi
from repro.synthpop import build_region_network


def main() -> None:
    print("== building synthetic Virginia (scale 1:1000) ==")
    pop, net = build_region_network("VA", scale=1e-3, seed=1)
    print(f"persons: {pop.size:,}  households: {pop.n_households:,}  "
          f"contacts: {net.n_edges:,}  mean degree: {net.mean_degree():.1f}")

    # Transmissibility is nudged above the paper's 0.18 because the scaled
    # network has a lower mean degree than the national-scale one.
    model = build_covid_model(transmissibility=0.28)
    interventions = [
        make_vhi(0.4),                    # voluntary home isolation
        make_sc(start=25),                # school closure from day 25
        make_sh(0.45, start=30, end=75),  # stay-at-home days 30-75
    ]
    sim = Simulation(model, pop, net, seed=7, interventions=interventions)
    sim.seed_infections(uniform_seeds(pop, 40, sim.rng))

    print("\n== simulating 120 days ==")
    result = sim.run(120)
    summary = summarize(result, model)

    confirmed = target_series(summary, model, CONFIRMED)
    hosp = target_series(summary, model, HOSPITAL_CENSUS)
    deaths = target_series(summary, model, DEATHS)
    peak_day, _peak = peak_demand(summary, model, INFECTIOUS_CENSUS)

    print(f"attack rate: {result.attack_rate(model):.1%}   "
          f"peak infectious day: {peak_day}")
    print(f"cumulative symptomatic: {confirmed[-1]:,}   "
          f"peak hospital census: {hosp.max():,}   deaths: {deaths[-1]:,}")

    print("\nweekly epicurve (new symptomatic cases):")
    daily_new = np.diff(confirmed, prepend=0)
    for week in range(0, 120, 14):
        n = int(daily_new[week:week + 14].sum())
        bar = "#" * min(60, n // 2)
        print(f"  day {week:>3}-{week + 13:<3} {n:>5}  {bar}")

    vent = target_series(summary, model, VENTILATOR_CENSUS)
    report = capacity_report(hosp, vent, "VA", scale=1e-3)
    beds = report["beds"]
    status = (f"overflows on day {beds.first_overflow_day}"
              if beds.overflows else "never overflows")
    print(f"\nhospital capacity: {beds.capacity} surge beds, "
          f"peak demand {beds.peak_demand} "
          f"({beds.peak_utilization:.0%}) — {status}")

    exposed = model.code("Exposed")
    stats = transmission_stats(result.log, exposed)
    print(f"mean generation interval {stats.mean_generation_interval:.1f}d, "
          f"offspring mean {stats.offspring_mean:.2f} "
          f"(var {stats.offspring_var:.2f}: superspreading)")
    trees = dendogram_sizes(result.log, exposed)
    print(f"\ntransmission trees: {len(trees)} roots, "
          f"largest {max(trees.values())} infections, "
          f"deepest chain {max_generation(result.log, exposed)} generations")
    print(f"raw transition log: {result.log.size:,} events "
          f"({result.log.raw_bytes / 1e6:.1f} MB in the paper's format)")


if __name__ == "__main__":
    main()
