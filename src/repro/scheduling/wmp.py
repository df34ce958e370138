"""The Workflow Mapping Problem (WMP) and its DB-constrained variant.

Section V: workflows are 3-level hierarchies regions -> cells -> replicates;
the atomic job is a <cell, region> task T[c, r] with a known processor
requirement p(T[c, r]) and empirical mean running time t(T[c, r]).  The
mapping problem orders these tasks for Slurm so as to minimise overall
completion time; it is NP-hard (2-D bin packing reduces to it: a rectangle's
width is the processor count, its height the running time).  DB-WMP adds
the constraint that at most B(T[r]) tasks of a region run simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.costmodel import CostModel
from ..cluster.machines import BRIDGES, ClusterSpec
from ..synthpop.regions import ALL_CODES
from .categories import node_category


@dataclass(frozen=True, slots=True)
class MappingTask:
    """One T[c, r] task of the mapping problem.

    Attributes:
        region_code: region r.
        cell: cell index c.
        n_nodes: p(T[c, r]) — whole compute nodes (the paper fixes this per
            task and "intentionally avoided using partial nodes").
        est_time: t(T[c, r]) — empirical mean runtime in seconds.
    """

    region_code: str
    cell: int
    n_nodes: int
    est_time: float

    @property
    def task_id(self) -> str:
        """Unique job label."""
        return f"{self.region_code}-c{self.cell}"

    @property
    def area(self) -> float:
        """Node-seconds footprint (the 2-D bin-packing rectangle area)."""
        return self.n_nodes * self.est_time


@dataclass(frozen=True)
class WMPInstance:
    """A DB-WMP instance: tasks, machine width, and per-region DB caps."""

    tasks: list[MappingTask]
    machine_width: int
    db_caps: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for t in self.tasks:
            if t.n_nodes > self.machine_width:
                raise ValueError(f"{t.task_id} wider than the machine")
            if t.est_time <= 0:
                raise ValueError(f"{t.task_id} has non-positive time")

    @property
    def total_area(self) -> float:
        """Sum of task areas (node-seconds)."""
        return sum(t.area for t in self.tasks)

    @property
    def max_time(self) -> float:
        """Tallest task."""
        return max((t.est_time for t in self.tasks), default=0.0)

    def lower_bound(self) -> float:
        """Classical strip-packing lower bound on the makespan:
        max(total area / width, tallest task)."""
        return max(self.total_area / self.machine_width, self.max_time)


def make_nightly_instance(
    *,
    cells_per_region: int = 12,
    replicates: int = 15,
    cluster: ClusterSpec = BRIDGES,
    regions: tuple[str, ...] = ALL_CODES,
    db_cap: int = 16,
    machine_width: int | None = None,
    seed: int = 0,
) -> WMPInstance:
    """Build a realistic nightly DB-WMP instance.

    One task per (cell, replicate, region) — a prediction night with the
    Table I design (12 cells x 15 replicates x 51 regions) yields the
    paper's 9,180 simulations.  Node counts come from the small/medium/
    large categorisation; runtimes are drawn from the cost model (the
    Figure 8 variance).  Per Assumption 3, the DB cap is per region.

    Args:
        cells_per_region: cells in tonight's design (12 for prediction,
            up to 300 for calibration workflows).
        replicates: replicates per cell (15 prediction, 1 calibration).
        cluster: the remote machine; its cost model draws the runtimes
            (base intervention scenario).
        regions: regions to include.
        db_cap: max simultaneous DB connections (jobs) per region.
        machine_width: override the schedulable width (region-specific
            nights run on a right-sized sub-allocation); by default one
            node per region is set aside for its population database.
        seed: RNG seed for runtime draws.
    """
    cm = CostModel(cluster)
    rng = np.random.default_rng(seed)
    tasks: list[MappingTask] = []
    for code in regions:
        nodes = node_category(code)
        for cell in range(cells_per_region):
            for rep in range(replicates):
                est = cm.sample_runtime(code, nodes, rng)
                tasks.append(MappingTask(
                    region_code=code, cell=cell * replicates + rep,
                    n_nodes=nodes, est_time=est.runtime_seconds))
    if machine_width is None:
        machine_width = cluster.n_nodes - len(regions)
    return WMPInstance(
        tasks=tasks,
        machine_width=machine_width,
        db_caps={code: db_cap for code in regions},
    )
