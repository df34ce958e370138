"""Scheduling metrics and the Figure 9 utilization experiment.

EC — the paper's empirical efficiency — is "the ratio of the total time
used by all processors as they were computing divided by the product of the
total processors and the time when the last task was completed"; that is
exactly :attr:`repro.cluster.slurm.ScheduleResult.utilization`.

This module executes packed workloads on the Slurm simulator and collects
the utilization distributions the paper plots as CDFs: FFDT-DC reaches a
~96% median; the initial NFDT-DC runs landed between 44% and 56%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.machines import BRIDGES, ClusterSpec
from ..cluster.slurm import Job, ScheduleResult, SlurmSimulator
from ..synthpop.regions import ALL_CODES
from .levels import PackingResult, pack_ffdt_dc, pack_nfdt_dc
from .wmp import make_nightly_instance

#: Execution policy matching each mapping algorithm's level semantics.
EXECUTION_POLICY: dict[str, str] = {
    "NFDT-DC": "levels",
    "FFDT-DC": "backfill",
}


def jobs_from_packing(result: PackingResult) -> list[Job]:
    """Convert a packing into the ordered Slurm job array."""
    return [
        Job(
            job_id=task.task_id,
            region_code=task.region_code,
            n_nodes=task.n_nodes,
            runtime=task.est_time,
            level=level,
        )
        for task, level in result.ordered_tasks()
    ]


def execute_packing(
    result: PackingResult,
    *,
    cluster: ClusterSpec = BRIDGES,
    metrics=None,
    faults=None,
    retry=None,
) -> ScheduleResult:
    """Run a packed workload on the Slurm simulator.

    One node per region is reserved for its population database (matching
    the instance's width reduction).  ``metrics``
    (a :class:`~repro.obs.registry.MetricsRegistry`) receives the
    simulator's ``slurm.*`` accounting when given; ``faults`` and
    ``retry`` (a :class:`~repro.resilience.faults.FaultPlan` and its
    :class:`~repro.resilience.retry.RetryPolicy`) inject ``node.fail``.
    """
    instance = result.instance
    sim = SlurmSimulator(
        cluster,
        db_caps=instance.db_caps,
        reserved_nodes=cluster.n_nodes - instance.machine_width,
        metrics=metrics,
        faults=faults,
        retry=retry,
    )
    policy = EXECUTION_POLICY[result.algorithm]
    return sim.run(jobs_from_packing(result), policy=policy)


@dataclass(frozen=True, slots=True)
class UtilizationSample:
    """Utilization of one workflow night under one algorithm."""

    algorithm: str
    night: int
    utilization: float
    makespan_hours: float
    n_jobs: int


def utilization_experiment(
    *,
    n_nights: int,
    cells_per_region: int = 12,
    replicates: int = 15,
    regions: tuple[str, ...] = ALL_CODES,
    machine_width: int | None = None,
    db_cap: int = 16,
    seed: int = 0,
) -> list[UtilizationSample]:
    """Replay ``n_nights`` of workflows on Bridges under each mapping
    algorithm.

    Each night draws fresh stochastic runtimes (as real nights would);
    both algorithms pack and execute the *same* task set per night.
    Region-specific nights (the Figure 9 right panel, Virginia-only) pass
    a narrower ``machine_width`` — utilization is measured against the
    *allocated* nodes, and single-region nights run on right-sized
    sub-allocations.
    """
    packers = {"NFDT-DC": pack_nfdt_dc, "FFDT-DC": pack_ffdt_dc}
    samples: list[UtilizationSample] = []
    for night in range(n_nights):
        instance = make_nightly_instance(
            cells_per_region=cells_per_region,
            replicates=replicates,
            regions=regions,
            machine_width=machine_width,
            db_cap=db_cap,
            seed=seed + night,
        )
        for algo, packer in packers.items():
            packed = packer(instance)
            outcome = execute_packing(packed)
            samples.append(UtilizationSample(
                algorithm=algo,
                night=night,
                utilization=outcome.utilization,
                makespan_hours=outcome.makespan / 3600.0,
                n_jobs=len(outcome.records),
            ))
    return samples


def utilization_cdf(values: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF points (x sorted, F(x)) for the Figure 9 plots."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    f = np.arange(1, x.size + 1) / x.size
    return x, f


def median_utilization(samples: list[UtilizationSample],
                       algorithm: str) -> float:
    """Median utilization of one algorithm across nights."""
    vals = [s.utilization for s in samples if s.algorithm == algorithm]
    if not vals:
        raise ValueError(f"no samples for {algorithm}")
    return float(np.median(vals))
