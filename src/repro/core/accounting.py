"""Paper-scale data-volume accounting (Tables I and II).

Reproduces the byte arithmetic the paper reports for each workflow: raw
individual-level output (one 16-byte line per state transition, multi-million
transitions per simulation) and aggregate summaries (days x ~90 health
states x 3 counts per simulation at ~2.7 bytes per packed entry).

The accounting runs at *paper* scale regardless of the simulated scale, so
the reported volumes are comparable to the publication.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.costmodel import paper_scale_nodes
from ..params import BYTES_PER_TRANSITION, fmt_bytes
from .designs import ExperimentDesign

#: Mean state transitions per ever-infected person (Exposed ->
#: (Pre)Symptomatic -> Attended -> Recovered chains average about 4-5 hops).
TRANSITIONS_PER_INFECTION: float = 4.6

#: Cumulative attack rate assumed for raw-output sizing (R0 ~ 2.5 year-long
#: runs infect most of the population).
DEFAULT_ATTACK_RATE: float = 0.70

#: Summary-entry layout of Figures 3-5: days x health states x counts.
SUMMARY_DAYS: int = 365
SUMMARY_HEALTH_STATES: int = 90
SUMMARY_COUNTS: int = 3
#: Effective bytes per packed summary entry (Table I: ~1e9 entries -> 2.5GB).
SUMMARY_BYTES_PER_ENTRY: float = 2.7


@dataclass(frozen=True, slots=True)
class WorkflowAccounting:
    """Volume accounting of one workflow (a Table I row).

    Attributes:
        name: workflow name.
        n_cells / n_regions / n_replicates / n_simulations: design scale.
        raw_bytes: individual-level output volume.
        summary_bytes: aggregate output volume.
        raw_entries: transition-log lines.
        summary_entries: aggregate entries.
    """

    name: str
    n_cells: int
    n_regions: int
    n_replicates: int
    n_simulations: int
    raw_bytes: float
    summary_bytes: float
    raw_entries: float
    summary_entries: float

    def table_row(self) -> str:
        """A Table I style row."""
        return (
            f"{self.name:<12} {self.n_cells:>5} {self.n_regions:>7} "
            f"{self.n_replicates:>10} {self.n_simulations:>12} "
            f"{fmt_bytes(self.raw_bytes):>9} {fmt_bytes(self.summary_bytes):>9}"
        )


#: Bytes per transmission-tree (dendogram) record: the prediction workflow
#: ships annotated transmission trees rather than full transition logs
#: (Figure 5: "12 cells x 51 states x 15 replicates x 1 million
#: transmissions = 9 billion entries, about 1TB").
BYTES_PER_TREE_ENTRY: float = 110.0


def raw_bytes_per_simulation(
    region_code: str,
    attack_rate: float = DEFAULT_ATTACK_RATE,
    *,
    raw_record: str = "transition",
) -> float:
    """Paper-scale raw output bytes of one simulation of one region.

    ``raw_record`` selects the output format: ``"transition"`` (full state
    transition log, calibration and economic workflows) or ``"dendogram"``
    (transmission-tree records, prediction workflows).
    """
    infections = paper_scale_nodes(region_code) * attack_rate
    if raw_record == "transition":
        return infections * TRANSITIONS_PER_INFECTION * BYTES_PER_TRANSITION
    if raw_record == "dendogram":
        return infections * BYTES_PER_TREE_ENTRY
    raise ValueError(f"unknown raw_record {raw_record!r}")


def account_workflow(design: ExperimentDesign) -> WorkflowAccounting:
    """Compute the Table I row for a design.

    Prediction designs write dendogram raw output at the shorter
    prediction horizon's attack rate; others full transition logs.
    """
    raw_record, attack_rate = "transition", DEFAULT_ATTACK_RATE
    if design.name == "prediction":
        # Prediction horizons are short.
        raw_record, attack_rate = "dendogram", min(attack_rate, 0.17)
    raw_per_cellrep = sum(
        raw_bytes_per_simulation(code, attack_rate, raw_record=raw_record)
        for code in design.regions
    )
    raw = raw_per_cellrep * design.n_cells * design.replicates
    bytes_per_entry = (BYTES_PER_TRANSITION if raw_record == "transition"
                       else BYTES_PER_TREE_ENTRY)
    raw_entries = raw / bytes_per_entry
    summary_entries = (
        design.n_simulations * SUMMARY_DAYS * SUMMARY_HEALTH_STATES
        * SUMMARY_COUNTS
    )
    return WorkflowAccounting(
        name=design.name,
        n_cells=design.n_cells,
        n_regions=design.n_regions,
        n_replicates=design.replicates,
        n_simulations=design.n_simulations,
        raw_bytes=raw,
        summary_bytes=summary_entries * SUMMARY_BYTES_PER_ENTRY,
        raw_entries=raw_entries,
        summary_entries=float(summary_entries),
    )


def table_i(accountings: list[WorkflowAccounting]) -> str:
    """Render Table I."""
    header = (
        f"{'Workflow':<12} {'#Cells':>5} {'#States':>7} "
        f"{'#Replicates':>10} {'#Simulations':>12} {'Raw':>9} {'Summ.':>9}"
    )
    return "\n".join([header] + [a.table_row() for a in accountings])
