"""Deadline-aware degradation: shed replicates, never blow the window.

The nightly contract is a fixed 10-hour exclusive window (Section I); a
projected makespan that exceeds it is an operational decision point, not a
boolean to report.  The production playbook's answer is graceful
degradation: drop the *least valuable* work — highest-index replicates —
until the night fits, while preserving coverage (every <cell, region>
keeps at least ``min_replicates`` replicates so every design point still
produces an estimate, just a noisier one).

Shedding is deterministic: tiers are dropped highest-replicate-first with
no randomness, so a degraded night is exactly reproducible and the shed
set can be journaled to the run ledger (and re-queued another night).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.machines import BRIDGES, ClusterSpec
from ..cluster.slurm import ScheduleResult
from ..obs.registry import MetricsRegistry
from .metrics import execute_packing
from .wmp import MappingTask, WMPInstance


def replicate_of(task: MappingTask, replicates: int) -> int:
    """The replicate index encoded in a nightly task's cell number.

    :func:`~repro.scheduling.wmp.make_nightly_instance` lays tasks out as
    ``cell = design_cell * replicates + replicate``; this inverts that.
    """
    return task.cell % replicates


def cell_of(task: MappingTask, replicates: int) -> tuple[str, int]:
    """The <region, design-cell> group a task contributes coverage to."""
    return (task.region_code, task.cell // replicates)


@dataclass(frozen=True)
class DegradationResult:
    """What shedding decided for one night.

    Attributes:
        instance: the (possibly reduced) instance to execute.
        schedule: the projected schedule of that instance.
        shed: tasks dropped, in shedding order (highest tiers first).
        rounds: packing projections performed.
    """

    instance: WMPInstance
    schedule: ScheduleResult
    shed: list[MappingTask] = field(default_factory=list)
    rounds: int = 1

    @property
    def degraded(self) -> bool:
        """Whether any work was shed."""
        return bool(self.shed)

    @property
    def shed_task_ids(self) -> tuple[str, ...]:
        """Ledger-ready ids of the shed tasks."""
        return tuple(t.task_id for t in self.shed)


def degrade_to_window(
    instance: WMPInstance,
    *,
    window_s: float,
    packer,
    replicates: int,
    cluster: ClusterSpec = BRIDGES,
    min_replicates: int = 1,
    metrics: MetricsRegistry | None = None,
) -> DegradationResult:
    """Shed lowest-priority replicates until the projection fits.

    Each round projects the makespan (pack + simulated execution), and if
    it exceeds ``window_s`` drops the highest replicate tier still
    present — but only tasks whose <cell, region> group retains at least
    ``min_replicates`` lower replicates, so per-cell coverage survives.
    When nothing sheddable remains the best-effort instance is returned
    (its schedule may still blow the window; the caller reports that).

    Args:
        instance: the night's DB-WMP instance.
        window_s: the access-window length in seconds.
        packer: the mapping algorithm (``pack_ffdt_dc`` / ``pack_nfdt_dc``).
        replicates: the design's replicates per cell (decodes tiers).
        cluster: the remote machine the projection runs on.
        min_replicates: coverage floor per <cell, region>.
        metrics: receives ``degrade.*`` accounting (rounds, shed count);
            the projection's ``slurm.*`` metrics go to a scratch registry
            so the caller's night telemetry stays clean.
    """
    if min_replicates < 1:
        raise ValueError("min_replicates must be >= 1")
    reg = metrics if metrics is not None else MetricsRegistry()
    inst = instance
    shed: list[MappingTask] = []
    rounds = 0
    while True:
        rounds += 1
        scratch = MetricsRegistry()
        schedule = execute_packing(packer(inst), cluster=cluster,
                                   metrics=scratch)
        if schedule.makespan <= window_s:
            break
        tiers = sorted({replicate_of(t, replicates) for t in inst.tasks},
                       reverse=True)
        dropped: list[MappingTask] = []
        for tier in tiers:
            if tier < min_replicates:
                break  # only tiers above the coverage floor are sheddable
            group_sizes: dict[tuple[str, int], int] = {}
            for t in inst.tasks:
                key = cell_of(t, replicates)
                group_sizes[key] = group_sizes.get(key, 0) + 1
            dropped = [
                t for t in inst.tasks
                if replicate_of(t, replicates) == tier
                and group_sizes[cell_of(t, replicates)] > min_replicates
            ]
            if dropped:
                break
        if not dropped:
            break  # nothing left to shed; report the blown window as-is
        drop_ids = {t.task_id for t in dropped}
        shed.extend(sorted(dropped, key=lambda t: t.task_id))
        inst = WMPInstance(
            tasks=[t for t in inst.tasks if t.task_id not in drop_ids],
            machine_width=inst.machine_width,
            db_caps=inst.db_caps,
        )
    reg.inc("degrade.rounds", rounds)
    reg.inc("degrade.shed_instances", len(shed))
    return DegradationResult(instance=inst, schedule=schedule, shed=shed,
                             rounds=rounds)
