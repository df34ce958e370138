#!/usr/bin/env python
"""Case study 1: medical costs of COVID-19 under NPI scenarios.

Runs the economic workflow's factorial design (Figure 3: VHI compliance x
lockdown duration x lockdown compliance) for a set of regions and reports
the paper-scale medical-cost breakdown per scenario.

Run:  python examples/medical_costs.py
"""

from __future__ import annotations

from repro.core import run_economic_workflow
from repro.core.designs import ExperimentDesign, factorial_cells
from repro.synthpop import get_region


def main() -> None:
    regions = ("VT", "RI")
    cells = factorial_cells({
        "vhi_compliance": [0.5, 0.8],
        "lockdown_days": [30, 60],
        "sh_compliance": [0.6, 0.9],
    })
    design = ExperimentDesign("economic", cells, regions, replicates=3)
    print(f"== economic workflow: {design.n_cells} cells x "
          f"{design.n_regions} regions x {design.replicates} replicates "
          f"= {design.n_simulations} simulations ==\n")

    result = run_economic_workflow(
        design=design, n_days=150, scale=1e-3, seed=11)

    print(f"{'scenario':<52} {'attack':>7} {'outpat $M':>10} "
          f"{'hosp $M':>9} {'vent $M':>8} {'total $M':>10}")
    for o in sorted(result.outcomes, key=lambda o: o.total_cost):
        c = o.costs
        print(f"{o.cell.label():<52} {o.mean_attack_rate:>7.3f} "
              f"{c.outpatient / 1e6:>10.1f} {c.hospital / 1e6:>9.1f} "
              f"{c.ventilator / 1e6:>8.1f} {c.total / 1e6:>10.1f}")

    cheap = result.cheapest()
    dear = result.most_expensive()
    pop = sum(get_region(r).population for r in regions)
    print(f"\ncheapest scenario:  {cheap.cell.label()}")
    print(f"priciest scenario:  {dear.cell.label()}")
    print(f"cost spread: {dear.total_cost / max(cheap.total_cost, 1):.1f}x; "
          f"priciest is ${dear.total_cost / pop:,.0f} per resident")


if __name__ == "__main__":
    main()
