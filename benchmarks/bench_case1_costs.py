"""Case study 1: medical costs of keeping the economy open (ref [9]).

The workflow: calibrate toward R0 ~ 2.5, run the NPI factorial with
county-level seeding, aggregate individual-level medical events, and cost
them.  The reproduced outcome shape: costs scale with the epidemic size;
hospital costs dominate outpatient costs; stronger compliance reduces both
the attack rate and the bill.
"""

import numpy as np
import pytest

from repro.core.counterfactual_wf import run_economic_workflow
from repro.core.designs import ExperimentDesign, factorial_cells
from repro.economics.costs import cost_per_capita
from repro.synthpop.regions import get_region


@pytest.fixture(scope="module")
def outcome():
    cells = factorial_cells({
        "vhi_compliance": [0.2, 0.8],
        "sh_compliance": [0.2, 0.8],
        "TAU": [0.28],
    })
    design = ExperimentDesign("economic", cells, ("VT", "RI"), 3)
    return run_economic_workflow(
        design=design, n_days=150, scale=1e-3,
        seed=41)


def test_case1_compliance_reduces_costs(benchmark, outcome, save_artifact):
    result = benchmark.pedantic(lambda: outcome, rounds=1, iterations=1)
    save_artifact("case1_cost_table", result.cost_table())

    by_key = {
        (o.cell.params["vhi_compliance"], o.cell.params["sh_compliance"]): o
        for o in result.outcomes
    }
    lax = by_key[(0.2, 0.2)]
    strict = by_key[(0.8, 0.8)]
    assert strict.mean_attack_rate < lax.mean_attack_rate
    assert strict.total_cost < lax.total_cost


def test_case1_cost_structure(benchmark, outcome, save_artifact):
    result = outcome

    def structure():
        worst = result.most_expensive()
        pop = sum(get_region(r).population for r in ("VT", "RI"))
        return worst, cost_per_capita(worst.costs, pop)

    worst, per_capita = benchmark.pedantic(structure, rounds=1,
                                           iterations=1)
    save_artifact(
        "case1_cost_structure",
        f"worst scenario: {worst.cell.label()}\n"
        f"outpatient: ${worst.costs.outpatient:,.0f}\n"
        f"hospital:   ${worst.costs.hospital:,.0f}\n"
        f"ventilator: ${worst.costs.ventilator:,.0f}\n"
        f"admissions: ${worst.costs.admissions:,.0f}\n"
        f"per capita: ${per_capita:,.0f}")

    # Inpatient care dominates the bill (the case study's finding).
    inpatient = (worst.costs.hospital + worst.costs.ventilator
                 + worst.costs.admissions)
    assert inpatient > worst.costs.outpatient
    # Per-capita costs are in plausible dollars (tens to thousands).
    assert 1.0 < per_capita < 20_000.0


def test_case1_costs_proportional_to_attack(benchmark, outcome):
    result = outcome

    def correlation():
        attacks = [o.mean_attack_rate for o in result.outcomes]
        costs = [o.total_cost for o in result.outcomes]
        return float(np.corrcoef(attacks, costs)[0, 1])

    corr = benchmark(correlation)
    assert corr > 0.8
