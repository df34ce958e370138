"""The counter-factual / economic workflow (Figure 3, Case study 1).

"Counter-factual analysis refers to the study of outcomes under various
posted scenarios ... Usually such an analysis entails running a large
factorial design and then computing certain outcomes that combine the
output of the simulations and detailed synthetic social network,
demographic and socio-economic data."

The concrete instantiation is the medical-cost study: a 12-cell factorial
(2 VHI compliances x 3 lockdown durations x 2 lockdown compliances), with
county-level seeding from recent confirmed-case counts, whose aggregate
output feeds the economic model on the home cluster.  The design is one
fan-out, so each region's runs advance as lanes of one replicate batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..analytics.aggregate import RegionSummary
from ..economics.costs import MedicalCosts, compute_medical_costs
from ..params import DEFAULT_SCALE, DEFAULT_SEED
from .designs import Cell, ExperimentDesign
from .parallel import InstanceSpec, run_instances
from .runner import model_for_params


@dataclass(frozen=True)
class ScenarioOutcome:
    """Aggregated outcome of one factorial cell."""

    cell: Cell
    mean_attack_rate: float
    costs: MedicalCosts
    summaries: tuple[RegionSummary, ...]

    @property
    def total_cost(self) -> float:
        """Paper-scale total medical cost of the scenario."""
        return self.costs.total


@dataclass(frozen=True)
class EconomicWorkflowResult:
    """Output of the economic workflow: one outcome per cell."""

    design: ExperimentDesign
    outcomes: tuple[ScenarioOutcome, ...]

    def cheapest(self) -> ScenarioOutcome:
        """Scenario with the lowest medical cost."""
        return min(self.outcomes, key=lambda o: o.total_cost)

    def most_expensive(self) -> ScenarioOutcome:
        """Scenario with the highest medical cost."""
        return max(self.outcomes, key=lambda o: o.total_cost)

    def cost_table(self) -> str:
        """Per-cell cost report."""
        lines = [f"{'cell':<50} {'total $':>15} {'attack':>7}"]
        for o in self.outcomes:
            lines.append(
                f"{o.cell.label():<50} {o.total_cost:>15,.0f} "
                f"{o.mean_attack_rate:>7.3f}")
        return "\n".join(lines)


def run_economic_workflow(
    *,
    design: ExperimentDesign,
    n_days: int = 120,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    store=None,
    ledger=None,
) -> EconomicWorkflowResult:
    """Execute the economic workflow over a factorial design.

    Args:
        design: factorial design, e.g. the Figure 3 12-cell design
            restricted to a few regions and replicates.
        n_days: simulation horizon.
        scale: simulation scale.
        seed: master seed; run ``i`` of the design (cell, then region,
            then replicate order) simulates with ``seed + 9000 + i``.
        store: optional result store; runs already present are served
            instead of simulated (bit-identical either way).
        ledger: optional run journal for the instance events.
    """
    specs = [
        InstanceSpec(
            region_code=region, params=dict(cell.params), n_days=n_days,
            scale=scale, seed=seed + 9000 + i,
            label=f"{region}-c{cell.index}-r{rep}", asset_seed=seed)
        for i, (cell, region, rep) in enumerate(design.instances())
    ]
    runs = run_instances(specs, store=store, ledger=ledger, summary=True)
    n_runs = design.n_regions * design.replicates
    outcomes: list[ScenarioOutcome] = []
    for j, cell in enumerate(design.cells):
        cell_runs = runs[j * n_runs:(j + 1) * n_runs]
        costs = [compute_medical_costs(
                     r.summary, model_for_params(r.spec.params),
                     scale=scale)
                 for r in cell_runs]
        outcomes.append(ScenarioOutcome(
            cell=cell,
            mean_attack_rate=float(np.mean([r.attack_rate
                                            for r in cell_runs])),
            # Per-run mean, grossed up to the design's regions.
            costs=MedicalCosts(**{
                f.name: sum(getattr(c, f.name) for c in costs)
                / n_runs * design.n_regions
                for f in fields(MedicalCosts)}),
            summaries=tuple(r.summary for r in cell_runs),
        ))
    return EconomicWorkflowResult(design=design, outcomes=tuple(outcomes))
