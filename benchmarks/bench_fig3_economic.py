"""Figure 3 / Case study 1: the economic (counter-factual) workflow.

The paper's design: (2 VHI compliances x 3 lockdown durations x 2 lockdown
compliances) x 51 states x 15 replicates = 9,180 simulation instances,
~3TB raw output, ~2.5GB aggregates, feeding the medical-cost model.

The bench (i) validates the paper-scale accounting of that design and
(ii) actually executes the workflow at reproduction scale on two small
regions, regenerating the per-scenario medical-cost table.
"""

import pytest

from repro.core.accounting import account_workflow
from repro.core.counterfactual_wf import run_economic_workflow
from repro.core.designs import (
    ExperimentDesign,
    economic_design,
    factorial_cells,
)
from repro.params import GB, TB


def test_fig3_design_accounting(benchmark, save_artifact):
    acct = benchmark(lambda: account_workflow(economic_design()))
    save_artifact("fig3_design_accounting", acct.table_row())
    assert acct.n_cells == 12
    assert acct.n_simulations == 9180
    assert 2 * TB < acct.raw_bytes < 4.5 * TB
    assert 1.5 * GB < acct.summary_bytes < 3.5 * GB


def run_small_economic():
    cells = factorial_cells({
        "vhi_compliance": [0.5, 0.8],
        "lockdown_days": [30, 60],
        "sh_compliance": [0.6, 0.9],
    })
    design = ExperimentDesign("economic", cells, ("VT", "RI"), 2)
    return run_economic_workflow(
        design=design, n_days=120, scale=1e-3,
        seed=21)


def test_fig3_economic_workflow_executes(benchmark, save_artifact):
    result = benchmark.pedantic(run_small_economic, rounds=1, iterations=1)
    save_artifact("fig3_economic_costs", result.cost_table())

    assert len(result.outcomes) == 8
    costs = [o.total_cost for o in result.outcomes]
    assert all(c >= 0 for c in costs)
    assert max(costs) > 0
    # Counter-factual spread: scenarios differ materially.
    assert max(costs) > 1.2 * min(c for c in costs if c > 0)
    # Cost components all represented somewhere in the design.
    assert any(o.costs.hospital > 0 for o in result.outcomes)
    assert any(o.costs.outpatient > 0 for o in result.outcomes)
