"""Slurm-like batch execution of simulation job arrays (Section IV).

"The software stack on the remote super-computing cluster uses the Slurm
scheduler for scheduling jobs ... scripts are used to submit Slurm job
arrays, which are scheduled to run using the heuristic scheduling strategy."

The mapping heuristics (:mod:`repro.scheduling`) produce an *ordered* (and
optionally level-chunked) job list; this module executes that list on a
simulated machine and measures what the paper measures — makespan and
CPU-hour utilization (Figure 9).  Three start policies model how much
real-time optimisation Slurm is allowed on top of the given order:

- ``"levels"`` — strict level barriers (a level must finish before the next
  starts), the execution model matching NFDT-DC's closed levels;
- ``"fifo"`` — in-order starts with head-of-line blocking;
- ``"backfill"`` — in-order starts plus backfilling any later job that fits
  the idle nodes, Slurm's real behaviour and the execution model for
  FFDT-DC.

Database constraints are enforced at dispatch: at most B(T[r]) jobs of a
region run simultaneously (the DB-WMP constraint); a job over its region's
cap waits in the queue until a slot frees.

Node loss is the ``node.fail`` site of a
:class:`~repro.resilience.faults.FaultPlan`: a killed attempt frees its
nodes at the drawn failure time and is requeued (EpiHiper replicates are
idempotent) within a :class:`~repro.resilience.retry.RetryPolicy`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..obs.registry import MetricsRegistry
from ..resilience.faults import FaultPlan, InjectedFault
from ..resilience.retry import RetryPolicy, TransientError
from .machines import BRIDGES, ClusterSpec

VALID_POLICIES = ("levels", "fifo", "backfill")


@dataclass(frozen=True, slots=True)
class Job:
    """One <cell, region> simulation job.

    Attributes:
        job_id: unique label.
        region_code: region whose database the job connects to.
        n_nodes: whole nodes required (the paper intentionally avoids
            partial nodes).
        runtime: modelled execution seconds.
        level: packing level assigned by the mapping heuristic (optional).
    """

    job_id: str
    region_code: str
    n_nodes: int
    runtime: float
    level: int = 0


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Execution record of one job."""

    job: Job
    start: float
    finish: float


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of executing a job list.

    Attributes:
        records: per-job start/finish times.
        makespan: completion time of the last job.
        n_nodes_available: schedulable nodes (after DB reservations).
        peak_region_concurrency: max simultaneous jobs observed per region.
    """

    records: list[JobRecord]
    makespan: float
    n_nodes_available: int
    peak_region_concurrency: dict[str, int]

    @property
    def busy_node_seconds(self) -> float:
        """Node-seconds actually consumed by jobs."""
        return sum(r.job.n_nodes * (r.finish - r.start) for r in self.records)

    @property
    def utilization(self) -> float:
        """The paper's utilization metric (Figure 9): busy node-time over
        allocated node-time until the last task completes."""
        if self.makespan <= 0:
            return 1.0
        return self.busy_node_seconds / (self.n_nodes_available * self.makespan)

    def validate_no_overlap_violation(
        self, n_nodes: int, caps: dict[str, int]
    ) -> None:
        """Assert node capacity and DB caps were never exceeded."""
        events: list[tuple[float, int, JobRecord]] = []
        for r in self.records:
            events.append((r.start, 1, r))
            events.append((r.finish, -1, r))
        events.sort(key=lambda e: (e[0], e[1]))
        used = 0
        per_region: dict[str, int] = {}
        for _t, kind, rec in events:
            used += kind * rec.job.n_nodes
            region = rec.job.region_code
            per_region[region] = per_region.get(region, 0) + kind
            if used > n_nodes:
                raise AssertionError("node capacity exceeded")
            cap = caps.get(region)
            if cap is not None and per_region[region] > cap:
                raise AssertionError(f"DB cap exceeded for {region}")


class SlurmSimulator:
    """Executes ordered job lists on a simulated allocation.

    ``faults`` may kill running attempts at its ``node.fail`` site (keyed
    by job id and attempt number); ``retry`` bounds the attempts per job,
    one (no reruns) when omitted.
    """

    def __init__(
        self,
        cluster: ClusterSpec = BRIDGES,
        *,
        db_caps: dict[str, int] | None = None,
        reserved_nodes: int = 0,
        metrics: MetricsRegistry | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if reserved_nodes >= cluster.n_nodes:
            raise ValueError("reservations consume the whole machine")
        self.cluster = cluster
        self.db_caps = dict(db_caps or {})
        if any(cap < 1 for cap in self.db_caps.values()):
            raise ValueError("a DB cap must admit at least one job")
        self.n_available = cluster.n_nodes - reserved_nodes
        #: ``slurm.*`` accounting for every :meth:`run` on this simulator.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self.retry = retry

    def run(self, jobs: list[Job], *, policy: str = "backfill") -> ScheduleResult:
        """Execute ``jobs`` in the given order under ``policy``.

        Under a ``node.fail`` rule a killed attempt leaves no record: its
        node-time is counted in ``slurm.wasted_node_s`` and the job is
        requeued at the back (of its level, under ``levels``, whose
        barrier it holds).  A job killed on its last allowed attempt
        raises :class:`~repro.resilience.retry.TransientError`.
        """
        if policy not in VALID_POLICIES:
            raise ValueError(f"policy must be one of {VALID_POLICIES}")
        for j in jobs:
            if j.n_nodes > self.n_available:
                raise ValueError(
                    f"{j.job_id} needs {j.n_nodes} nodes, have {self.n_available}")
            if j.runtime < 0:
                raise ValueError(f"{j.job_id} has a negative runtime")
        faults = (self.faults if self.faults is not None
                  and self.faults.active("node.fail") else None)
        max_attempts = self.retry.max_attempts if self.retry else 1
        attempts: dict[str, int] = {}
        killed: dict[int, float] = {}  # seq of a doomed attempt -> its start
        wasted = 0.0

        pending = list(jobs)
        running: list[tuple[float, int, Job]] = []  # (finish, seq, job)
        records: list[JobRecord] = []
        free = self.n_available
        region_live: dict[str, int] = {}
        region_peak: dict[str, int] = {}
        now = 0.0
        seq = 0
        current_level = min((j.level for j in jobs), default=0)

        def can_start(job: Job) -> bool:
            if job.n_nodes > free:
                return False
            cap = self.db_caps.get(job.region_code)
            if cap is not None and region_live.get(job.region_code, 0) >= cap:
                return False
            if policy == "levels" and job.level != current_level:
                return False
            return True

        def start(job: Job) -> None:
            nonlocal free, seq
            free -= job.n_nodes
            region_live[job.region_code] = region_live.get(job.region_code, 0) + 1
            region_peak[job.region_code] = max(
                region_peak.get(job.region_code, 0),
                region_live[job.region_code])
            ttf = None
            if faults is not None:
                attempt = attempts.get(job.job_id, 0)
                attempts[job.job_id] = attempt + 1
                ttf = faults.node_failure_at(job.job_id, attempt,
                                             job.n_nodes, job.runtime)
            if ttf is None:
                heapq.heappush(running, (now + job.runtime, seq, job))
                records.append(JobRecord(job, now, now + job.runtime))
            else:
                heapq.heappush(running, (now + ttf, seq, job))
                killed[seq] = now
            seq += 1

        def release(seq_: int, job: Job) -> None:
            nonlocal free, wasted
            free += job.n_nodes
            region_live[job.region_code] -= 1
            if seq_ not in killed:
                return
            wasted += job.n_nodes * (now - killed.pop(seq_))
            self.metrics.inc("faults.node.fail")
            if attempts[job.job_id] >= max_attempts:
                raise TransientError(
                    f"job {job.job_id} lost a node on "
                    f"{attempts[job.job_id]} attempt(s)") from InjectedFault(
                        "node.fail", job.job_id)
            self.metrics.inc("slurm.reruns")
            at = len(pending)
            if policy == "levels":
                at = next((i for i, j in enumerate(pending)
                           if j.level > job.level), at)
            pending.insert(at, job)

        def dispatch() -> None:
            nonlocal pending
            if policy == "backfill":
                min_width = min((j.n_nodes for j in pending), default=0)
                remaining = []
                for idx, job in enumerate(pending):
                    if free < min_width:
                        remaining.extend(pending[idx:])
                        break
                    if can_start(job):
                        start(job)
                    else:
                        remaining.append(job)
                pending = remaining
            else:  # fifo / levels: strict head-of-queue starts
                while pending and can_start(pending[0]):
                    start(pending.pop(0))

        dispatch()
        while running:
            finish, s1, job = heapq.heappop(running)
            now = finish
            release(s1, job)
            # Drain simultaneous completions before dispatching.
            while running and running[0][0] == now:
                _f, s2, j2 = heapq.heappop(running)
                release(s2, j2)
            if policy == "levels" and pending:
                level_done = not any(
                    j.level == current_level for _f, _s3, j in running
                ) and not any(j.level == current_level for j in pending)
                if level_done:
                    current_level = min(j.level for j in pending)
            dispatch()
            if not running and pending:
                # Nothing can run: either a level barrier or a deadlock.
                if policy == "levels":
                    current_level = min(j.level for j in pending)
                    dispatch()
                if not running and pending:
                    raise RuntimeError(
                        "scheduler stalled with pending jobs "
                        f"({len(pending)} left)")

        result = ScheduleResult(
            records=records,
            makespan=now,
            n_nodes_available=self.n_available,
            peak_region_concurrency=region_peak,
        )
        # Publish the Figure 9 numbers: job volume, makespan, utilization,
        # and per-job queue waits (all jobs are submitted at t = 0, so a
        # job's wait is its start time on the simulated clock).
        self.metrics.inc("slurm.jobs", len(records))
        self.metrics.gauge("slurm.makespan_s", result.makespan)
        self.metrics.gauge("slurm.busy_node_s", result.busy_node_seconds)
        self.metrics.gauge("slurm.utilization", result.utilization)
        for rec in records:
            self.metrics.observe("slurm.queue_wait_s", rec.start)
        if faults is not None:
            self.metrics.gauge("slurm.wasted_node_s", wasted)
        return result
