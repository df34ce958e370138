"""Dual-cluster orchestration: the Figure 1 combined workflow and the
Figure 2 multi-day timeline.

Each nightly cycle: configurations are generated on the home cluster,
transferred to the remote supercluster via Globus, population databases are
instantiated from snapshots, the packed job array runs inside the 10-hour
window under the FFDT-DC mapping, summaries are generated and transferred
back, and home-cluster analytics close the loop.  The orchestrator builds
this as a :class:`~repro.core.engine.WorkflowEngine` graph with paper-scale
artifact sizes, so the run reproduces both the data-movement ledger
(Table II) and the window-fit check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.globus import GlobusLink
from ..cluster.machines import BRIDGES, NIGHTLY_WINDOW, AccessWindow, ClusterSpec
from ..cluster.slurm import ScheduleResult
from ..obs.registry import MetricsRegistry
from ..obs.spans import Tracer
from ..params import MB, TB
from ..resilience.faults import FaultPlan
from ..resilience.retry import RetryPolicy
from ..scheduling.degrade import degrade_to_window
from ..scheduling.levels import pack_ffdt_dc, pack_nfdt_dc
from ..scheduling.metrics import execute_packing
from ..scheduling.wmp import WMPInstance, make_nightly_instance
from ..store.ledger import RunLedger, replay_ledger
from .accounting import account_workflow
from .designs import ExperimentDesign
from .engine import WorkflowEngine, WorkflowRun
from .tasks import HOME, REMOTE, DataArtifact, WorkflowTask

#: Modelled home-side step durations (seconds), from the Figure 2 cadence.
CONFIG_GENERATION_SECONDS: float = 1800.0
ANALYTICS_SECONDS: float = 7200.0
AGGREGATION_SECONDS: float = 1800.0

#: Size of one cell's per-region configuration bundle (disease model JSON,
#: intervention specs, seeding tables).  Sized so the nightly configuration
#: volume falls in Table II's 100MB-8.7GB daily range: the 12-cell
#: prediction design ships ~0.3GB, the 300-cell calibration design ~7.7GB.
CONFIG_BYTES_PER_CELL: float = 0.5 * MB

#: Modelled population-database start-up (seconds) per million persons,
#: from a snapshot — "to speed up the start of the population databases,
#: snapshots of the databases are generated when the populations are
#: initially created".
SNAPSHOT_SECONDS_PER_M: float = 30.0

#: Modelled checkpoint costs for ``orchestrate_night(checkpoint_every=N)``.
#: Nightly production runs simulate ~4 months of epidemic; one snapshot is
#: the full agent-state dump to the parallel filesystem (seconds at
#: EpiHiper scale).  Interval N thus adds HORIZON//N * WRITE_SECONDS of
#: wall time per task — the window-fit trade the knob exists to expose.
NIGHTLY_HORIZON_DAYS: int = 120
CHECKPOINT_WRITE_SECONDS: float = 5.0

#: The fault sites a night consults (Globus link, run ledger, modelled
#: Slurm allocation); any other would inject nothing, so it is refused.
NIGHT_FAULT_SITES: tuple[str, ...] = ("transfer.fail", "ledger.torn",
                                      "node.fail")


def check_night_faults(faults: FaultPlan | None) -> None:
    """Raise ValueError when ``faults`` targets a site no night consults."""
    if faults is None:
        return
    foreign = sorted({r.site for r in faults.rules} - set(NIGHT_FAULT_SITES))
    if foreign:
        raise ValueError(
            f"a night never consults {', '.join(foreign)} "
            f"(night fault sites: {', '.join(NIGHT_FAULT_SITES)})")


@dataclass(frozen=True)
class NightlyReport:
    """Outcome of one orchestrated night.

    Attributes:
        design: the executed design.
        workflow_run: task-level provenance (modelled timeline).
        schedule: the remote-cluster execution.
        link: the Globus ledger.
        window: the access window used.
        metrics: the night's telemetry (``globus.*``, ``slurm.*``,
            ``night.*`` namespaces).
    """

    design: ExperimentDesign
    workflow_run: WorkflowRun
    schedule: ScheduleResult
    link: GlobusLink
    window: AccessWindow
    night_id: str = ""  #: ledger scope: design, algorithm and seed
    n_resumed: int = 0  #: instances served from the ledger, not re-run
    n_shed: int = 0  #: instances shed by deadline-aware degradation
    shed_task_ids: tuple[str, ...] = ()  #: which ones (journaled too)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def degraded(self) -> bool:
        """Whether the night shed replicates to fit its window."""
        return self.n_shed > 0

    @property
    def fits_window(self) -> bool:
        """Whether the remote makespan fits the nightly window."""
        return self.schedule.makespan <= self.window.duration_seconds

    @property
    def remote_hours(self) -> float:
        """Remote-cluster makespan in hours."""
        return self.schedule.makespan / 3600.0

    @property
    def utilization(self) -> float:
        """Remote utilization of the night."""
        return self.schedule.utilization

    def summary(self) -> str:
        """Human-readable night report."""
        acct = account_workflow(self.design)
        lines = [
            f"design: {self.design.name} "
            f"({acct.n_simulations} simulations)",
            f"remote makespan: {self.remote_hours:.2f}h "
            f"(window {self.window.duration_hours:.0f}h, "
            f"fits: {self.fits_window})",
            f"utilization: {self.utilization:.3f}",
            self.link.summary(),
        ]
        if self.n_resumed:
            lines.insert(1, f"resumed: {self.n_resumed} instances already "
                            f"complete in the ledger, "
                            f"{len(self.schedule.records)} re-executed")
        if self.degraded:
            lines.insert(1, f"degraded: shed {self.n_shed} replicate "
                            f"instances to fit the window")
        return "\n".join(lines)


def orchestrate_night(
    design: ExperimentDesign,
    *,
    cluster: ClusterSpec = BRIDGES,
    window: AccessWindow = NIGHTLY_WINDOW,
    algorithm: str = "FFDT-DC",
    include_onetime_transfer: bool = False,
    seed: int = 0,
    ledger: RunLedger | None = None,
    resume: bool = False,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    degrade: bool = False,
    min_replicates: int = 1,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint_every: int = 0,
) -> NightlyReport:
    """Run one full nightly cycle for ``design``.

    Args:
        design: the experiment design to execute.
        cluster: the remote machine.
        window: the nightly access window.
        algorithm: mapping algorithm ("FFDT-DC" or "NFDT-DC").
        include_onetime_transfer: also account the one-time 2TB synthetic
            data staging of Figure 1.
        seed: runtime-draw seed.
        ledger: optional run journal; every completed instance is recorded
            so an interrupted night can be resumed.
        resume: replay ``ledger`` first and re-execute only the instances
            of this night (same design, algorithm and seed) that it does
            not already record as completed.
        tracer: optional span tracer; the workflow runs under a
            ``night:<id>`` root span with one ``task:<name>`` span per
            workflow task and one modelled ``instance:<job_id>`` span per
            scheduled simulation job.
        registry: telemetry sink for the night's ``globus.*`` /
            ``slurm.*`` / ``night.*`` metrics; a fresh registry is created
            (and returned on the report) when omitted.
        degrade: when the projected makespan blows the window, shed the
            highest replicate tiers (deterministically, preserving at
            least ``min_replicates`` per <cell, region>) until the night
            fits; the shed set is journaled as ``work_shed`` events and
            reported on :attr:`NightlyReport.n_shed`.
        min_replicates: per-cell coverage floor when degrading.
        faults: optional fault plan threaded to the Globus link (the
            ``transfer.fail`` site), the ledger (``ledger.torn``) and the
            Slurm simulator (``node.fail``); any other site is refused
            (:data:`NIGHT_FAULT_SITES`).
        retry: retry budget for faulted transfers and killed jobs.
        checkpoint_every: snapshot interval in simulated days for the
            remote simulation jobs (0 = off).  The nightly timeline is
            modelled, so the knob prices the trade the execution plane
            makes for real: each task pays
            ``NIGHTLY_HORIZON_DAYS // N`` snapshot writes of
            :data:`CHECKPOINT_WRITE_SECONDS`, inflating the projected
            makespan *before* the window-fit check and the degradation
            decision (``night.checkpoint_overhead_s`` on the registry).
    """
    if resume and ledger is None:
        raise ValueError("resume needs a ledger to replay")
    check_night_faults(faults)
    night_id = f"{design.name}:{algorithm}:seed{seed}"
    reg = registry if registry is not None else MetricsRegistry()
    link = GlobusLink("rivanna", "bridges", metrics=reg,
                      faults=faults, retry=retry)
    if faults is not None and ledger is not None and ledger.faults is None:
        ledger.faults = faults
    acct = account_workflow(design)
    instance = make_nightly_instance(
        cells_per_region=design.n_cells,
        replicates=design.replicates,
        regions=design.regions,
        cluster=cluster,
        seed=seed,
    )
    # Resume: the full instance is rebuilt deterministically (same seed →
    # same tasks and runtimes), then the ledger's completed work is
    # subtracted, so only the missing <cell, region> jobs are re-packed.
    n_resumed = 0
    if resume:
        done = replay_ledger(ledger.path).completed("task_id",
                                                    night=night_id)
        remaining = [t for t in instance.tasks if t.task_id not in done]
        n_resumed = len(instance.tasks) - len(remaining)
        instance = WMPInstance(
            tasks=remaining,
            machine_width=instance.machine_width,
            db_caps=instance.db_caps,
        )
    # Checkpoint overhead lands before packing/degradation so both the
    # window-fit projection and the shed decision see the true task costs.
    if checkpoint_every > 0:
        from dataclasses import replace as _replace

        per_task = ((NIGHTLY_HORIZON_DAYS // checkpoint_every)
                    * CHECKPOINT_WRITE_SECONDS)
        instance = WMPInstance(
            tasks=[_replace(t, est_time=t.est_time + per_task)
                   for t in instance.tasks],
            machine_width=instance.machine_width,
            db_caps=instance.db_caps,
        )
        reg.gauge("night.checkpoint_overhead_s",
                  per_task * len(instance.tasks))
    packer = pack_ffdt_dc if algorithm == "FFDT-DC" else pack_nfdt_dc

    # Deadline-aware degradation: project the makespan before building the
    # workflow, and shed the lowest-priority replicates until the night
    # fits.  Deterministic — no RNG — so a degraded night is reproducible.
    n_shed = 0
    shed_task_ids: tuple[str, ...] = ()
    if degrade:
        dres = degrade_to_window(
            instance,
            window_s=window.duration_seconds,
            packer=packer,
            replicates=design.replicates,
            cluster=cluster,
            min_replicates=min_replicates,
            metrics=reg,
        )
        instance = dres.instance
        n_shed = len(dres.shed)
        shed_task_ids = dres.shed_task_ids

    # The schedule is a pure function of the packed instance: compute it
    # once, up front, so the workflow graph runs once with the simulate
    # task's true duration (and every fault site fires once per transfer).
    schedule = execute_packing(packer(instance), cluster=cluster,
                               metrics=reg, faults=faults, retry=retry)

    def gen_configs(ctx: dict):
        size = CONFIG_BYTES_PER_CELL * design.n_cells * design.n_regions
        return {"configurations": DataArtifact("configurations", HOME, size)}

    def stage_static(ctx: dict):
        art = DataArtifact("static-networks", HOME, 2 * TB)
        rec = link.transfer("static-networks", "rivanna", "bridges",
                            int(art.size_bytes))
        return {"xfer:static-networks": art.at(REMOTE)}

    def transfer_configs(ctx: dict):
        art = ctx["artifacts"]["configurations"]
        link.transfer("configurations", "rivanna", "bridges",
                      int(art.size_bytes))
        return {"xfer:configurations": art.at(REMOTE)}

    def start_dbs(ctx: dict):
        return None

    def simulate(ctx: dict):
        if tracer is not None:
            # Modelled per-job spans (simulated Slurm clock), nested under
            # the live task:run-simulations span.
            for rec in schedule.records:
                tracer.modelled_span(
                    f"instance:{rec.job.job_id}",
                    start=rec.start,
                    wall_s=rec.finish - rec.start,
                    region=rec.job.region_code,
                    nodes=rec.job.n_nodes,
                    level=rec.job.level,
                )
        return {"raw-output": DataArtifact(
            "raw-output", REMOTE, acct.raw_bytes)}

    def aggregate(ctx: dict):
        return {"summary": DataArtifact(
            "summary-output", REMOTE, acct.summary_bytes)}

    def transfer_back(ctx: dict):
        art = ctx["artifacts"]["summary"]
        link.transfer("summary-output", "bridges", "rivanna",
                      int(art.size_bytes))
        return {"xfer:summary": art.at(HOME)}

    def analyze(ctx: dict):
        return None

    # Mean DB start-up across regions (snapshots, one server per region).
    db_startup = SNAPSHOT_SECONDS_PER_M * 6.0  # ~6M persons per region

    tasks = [
        WorkflowTask("generate-configurations", HOME, gen_configs,
                     est_duration=CONFIG_GENERATION_SECONDS),
        WorkflowTask("transfer-configurations", HOME, transfer_configs,
                     deps=("generate-configurations",), automated=False,
                     est_duration=link.duration_of(int(
                         CONFIG_BYTES_PER_CELL * design.n_cells
                         * design.n_regions))),
        WorkflowTask("start-population-databases", REMOTE, start_dbs,
                     deps=("transfer-configurations",),
                     est_duration=db_startup),
        WorkflowTask("run-simulations", REMOTE, simulate,
                     deps=("start-population-databases",),
                     est_duration=schedule.makespan),
        WorkflowTask("aggregate-output", REMOTE, aggregate,
                     deps=("run-simulations",),
                     est_duration=AGGREGATION_SECONDS),
        WorkflowTask("transfer-summaries", REMOTE, transfer_back,
                     deps=("aggregate-output",), automated=False,
                     est_duration=link.duration_of(int(acct.summary_bytes))),
        WorkflowTask("home-analytics", HOME, analyze,
                     deps=("transfer-summaries",),
                     est_duration=ANALYTICS_SECONDS),
    ]
    if include_onetime_transfer:
        tasks.insert(0, WorkflowTask(
            "stage-static-data", HOME, stage_static, automated=False,
            est_duration=link.duration_of(2 * TB)))
        for t in tasks:
            if t.name == "start-population-databases":
                t.deps = t.deps + ("stage-static-data",)

    if tracer is not None:
        with tracer.span(f"night:{night_id}", design=design.name,
                         algorithm=algorithm,
                         n_instances=len(instance.tasks)):
            run = WorkflowEngine(tasks).execute(tracer=tracer)
    else:
        run = WorkflowEngine(tasks).execute()

    # Night-level headline numbers for the trace report.
    reg.inc("night.instances", len(schedule.records))
    reg.gauge("night.makespan_s", schedule.makespan)
    reg.gauge("night.window_s", window.duration_seconds)
    reg.gauge("night.fits_window",
              1.0 if schedule.makespan <= window.duration_seconds else 0.0)
    if n_shed:
        reg.inc("night.shed_instances", n_shed)
    reg.gauge("night.degraded", 1.0 if n_shed else 0.0)
    if tracer is not None:
        tracer.metrics(reg, scope="night")

    if ledger is not None:
        ledger.run_started(night=night_id, design=design.name,
                           n_instances=len(instance.tasks) + n_resumed,
                           resumed=n_resumed, shed=n_shed)
        for task_id in shed_task_ids:
            ledger.work_shed(task_id, night=night_id)
        for rec in schedule.records:
            ledger.instance_completed(
                rec.job.job_id, task_id=rec.job.job_id, night=night_id,
                wall_s=rec.finish - rec.start)
        ledger.run_completed(night=night_id,
                             makespan_s=schedule.makespan,
                             executed=len(schedule.records),
                             resumed=n_resumed)

    return NightlyReport(
        design=design,
        workflow_run=run,
        schedule=schedule,
        link=link,
        window=window,
        night_id=night_id,
        n_resumed=n_resumed,
        n_shed=n_shed,
        shed_task_ids=shed_task_ids,
        metrics=reg,
    )


def weekly_timeline(reports: list[NightlyReport]) -> str:
    """Render a Figure 2 style multi-day timeline of nightly cycles."""
    lines = ["day  design        remote(h)  fits  util"]
    for day, rep in enumerate(reports):
        lines.append(
            f"{day:<4d} {rep.design.name:<12} {rep.remote_hours:>8.2f}  "
            f"{str(rep.fits_window):<5} {rep.utilization:.3f}")
    return "\n".join(lines)
