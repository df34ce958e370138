"""Process-parallel execution of simulation instances.

The production system's per-night throughput comes from running thousands
of independent <cell, region, replicate> simulations concurrently.  At
reproduction scale the same fan-out is available through a process pool:
instances are embarrassingly parallel, each worker builds (and caches) its
own region inputs, and only the small aggregated series cross process
boundaries — the classic scatter/gather layout of the mpi4py guide, with
``ProcessPoolExecutor`` standing in for MPI ranks.

Fan-out is *supervised*, not mapped: specs are partitioned into batchable
replicate groups (a spec with no partner is a group of one) and each
group is submitted as its own future under
:func:`repro.resilience.supervisor.supervise_map`, so one worker
exception no longer aborts the batch, a dead worker rebuilds the pool and
salvages everything already completed, and specs that keep failing are
quarantined instead of killing the night (see
:func:`supervise_instances`).  There is one worker entry
(:func:`_execute_group`) over one executor
(:func:`repro.core.runner.execute_specs`).  Because every retry re-runs
the same spec with the same seed, a recovered batch is bit-identical to
an undisturbed one.

Fan-out is also *warm*, and only simulation blocks it.  The supervisor
loads the fan-out's asset bundles into its own cache
(:func:`_preload_assets`), then borrows the process's one worker pool
(:class:`_PoolOwner`): forked once, lent to every later fan-out while the
fork is still valid — same size, same ``REPRO_*`` environment, every
bundle needed already resident when the workers forked (inherited
copy-on-write, or mapped from the plane segment this process owns) — and
re-forked, the old per-call cost, only when one of those changed.  Groups
go out longest-predicted-first, the paper's mapper order
(:func:`_mapper_order`), and each result reaches the caller the moment
its group is harvested, while the others still run.  Results are returned
in input order.
"""

from __future__ import annotations

import atexit
import functools
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..params import DEFAULT_SCALE, DEFAULT_SEED
from ..plane.manifest import AssetKey
from ..resilience.faults import CRASH_EXIT_CODE, FaultPlan, InjectedFault
from ..resilience.retry import (
    NO_RETRY_POLICY,
    PERMANENT,
    QuarantineRecord,
    RetryPolicy,
    classify,
)
from ..resilience.supervisor import (
    QUARANTINE,
    RAISE,
    FanoutResult,
    supervise_map,
)
from .batching import batch_groups, batching_enabled

@dataclass(frozen=True, slots=True)
class InstanceSpec:
    """One simulation instance to execute.

    Attributes mirror the cell-configuration fields the runner needs; the
    spec is small and picklable, which is what lets it cross to workers.
    """

    region_code: str
    params: dict[str, Any]
    n_days: int
    scale: float
    seed: int
    label: str = ""
    asset_seed: int = DEFAULT_SEED  #: population/network seed (fixed per
    #: night: instances share inputs, only the simulation stream varies)


@dataclass(frozen=True, slots=True)
class InstanceOutcome:
    """The gathered result of one instance (small arrays only).

    Attributes:
        spec: the executed spec.
        confirmed: cumulative confirmed series, length ``n_days + 1``.
        attack_rate: fraction ever infected.
        transitions: raw transition-log length (for accounting).
    """

    spec: InstanceSpec
    confirmed: np.ndarray
    attack_rate: float
    transitions: int


def _spec_key(spec: InstanceSpec) -> str:
    """The operation key faults and backoff jitter match against."""
    return spec.label or f"{spec.region_code}:{spec.seed}"


def inject_worker_faults(spec: InstanceSpec, attempt: int,
                         faults: FaultPlan | None, *,
                         allow_exit: bool, metrics=None) -> None:
    """Apply the pre-run worker fault sites for (spec, attempt).

    ``worker.crash`` kills the process hard when ``allow_exit`` (pool
    workers — the parent sees ``BrokenProcessPool`` and rebuilds); the
    in-process path raises it as a transient :class:`InjectedFault`
    instead, since exiting would kill the supervisor itself.  A
    ``worker.slow`` delay that fires is counted on ``metrics``.
    """
    if faults is None:
        return
    key = _spec_key(spec)
    if faults.fires("worker.crash", key, attempt):
        if allow_exit:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedFault("worker.crash",
                            f"{key} attempt {attempt} (in-process)")
    if faults.fires("worker.exception", key, attempt):
        raise InjectedFault("worker.exception", f"{key} attempt {attempt}")
    delay = faults.delay("worker.slow", key, attempt)
    if delay > 0:
        time.sleep(delay)
        if metrics is not None:
            metrics.inc("faults.worker.slow")


def _execute_group(specs: list[InstanceSpec], attempt: int = 0,
                   faults: FaultPlan | None = None, *,
                   allow_exit: bool = False,
                   checkpoint=None) -> tuple[list, dict]:
    """Worker: run one spec group; the fan-out's only work function.

    Imports happen inside the worker so forked/spawned processes
    initialise cleanly; the per-process asset LRU (inside
    :func:`~repro.core.runner.execute_specs`) amortises input
    construction across a worker's groups.  Telemetry not embedded in
    the results would die with the worker, so each call fills a fresh
    registry and ships its kind-preserving dump home for the parent to
    merge.

    Faults are injected per spec *before* anything touches an RNG
    stream, so a retried attempt reproduces the clean run bit for bit.
    A single is a group of one: its fault raises straight to the
    supervisor, which retries or quarantines it under its own spec key.
    In a group of K >= 2 a spec whose injection raises is **evicted** —
    it becomes an ``("err", exc)`` entry while the surviving lanes run
    batched, so one poisoned replicate never costs the group its
    results; the parent re-triages evictions per spec.

    A :class:`~repro.epihiper.batch.BatchIncompatible` group (lane models
    that cannot share a tick loop) falls back to one group per spec
    inside this worker — same results, no batch speedup.

    Returns:
        ``(entries, group_dump)`` — per-spec entries in input order, each
        ``("ok", (outcome, lane_dump))`` or ``("err", exception)``, plus
        the group-level telemetry dump (``runner.*_s``, batch phase
        timers, ``checkpoint.*``).
    """
    from ..epihiper.batch import BatchIncompatible
    from ..obs.registry import MetricsRegistry
    from .runner import execute_specs

    reg = MetricsRegistry()
    entries: list = [None] * len(specs)
    live: list[int] = []
    for j, spec in enumerate(specs):
        try:
            inject_worker_faults(spec, attempt, faults,
                                 allow_exit=allow_exit, metrics=reg)
        except Exception as exc:  # noqa: BLE001 — parent re-triages
            if len(specs) == 1:
                raise
            entries[j] = ("err", exc)
            continue
        live.append(j)
    if live:
        live_specs = [specs[j] for j in live]
        run = functools.partial(
            execute_specs, plan=checkpoint, attempt=attempt, faults=faults,
            allow_exit=allow_exit, metrics=reg)
        try:
            pairs = run(live_specs)
        except BatchIncompatible:
            reg.inc("batch.incompatible")
            pairs = [pair for spec in live_specs for pair in run([spec])]
        for j, pair in zip(live, pairs):
            entries[j] = ("ok", pair)
    return entries, reg.dump()


def _scaled_timeout_of(checkpoint, retry: RetryPolicy):
    """Per-attempt timeout scaled to the ticks actually remaining.

    With checkpointing on, a retried attempt resumes mid-run — holding it
    to the full-run deadline would let a wedged worker squat for the
    whole budget after 90% of the work is already banked.  The parent
    reads the (cheap, pointer-file-only) latest checkpoint tick at
    submission time and scales the policy timeout by the remaining
    fraction, floored at one tick's worth.  Returns None when the policy
    has no timeout (nothing to scale).
    """
    base = retry.timeout_s
    if base is None or not checkpoint.enabled:
        return None
    from ..store.keys import instance_key

    manager = checkpoint.manager()

    def timeout_of(item, attempt: int) -> float:
        specs = item if isinstance(item, list) else [item]
        n_days = max(s.n_days for s in specs)
        start = min(
            (manager.latest_tick(instance_key(s, salt=checkpoint.salt))
             or 0) for s in specs)
        remaining = max(1, n_days - start)
        return base * remaining / max(1, n_days)

    return timeout_of


def _preload_assets(keys, sink) -> dict:
    """Make a fan-out's bundles resident here before it borrows the pool.

    Stops at the first insert that evicts: past the byte budget, loading
    more only displaces what was just loaded.  A key that fails to load is
    left to its spec's own supervised attempt.  Returns the bundles that
    did load, by key.
    """
    from .runner import load_assets

    loaded = {}
    evictions = sink.value("assets.cache.evictions")
    for key in keys:
        try:
            loaded[key] = load_assets(key, metrics=sink)
        except Exception:  # noqa: BLE001 — reported per spec, under retry
            continue
        if sink.value("assets.cache.evictions") > evictions:
            break
    return loaded


def _mapper_order(items: list[list[InstanceSpec]], cost: list[float],
                  workers: int) -> list[int]:
    """Submission order of ``items``: longest predicted first.

    The paper's mapper (Section V) places tasks in non-increasing
    estimated time.  With every group one indivisible unit-width task,
    NFDT-DC and FFDT-DC fill the same levels and their Slurm order *is*
    that sort; next-fit finds it in linear time.  A WMP task needs a
    positive time, hence the shift: a group whose bundle did not load
    predicts 0 and goes last.
    """
    from ..scheduling.levels import pack_nfdt_dc
    from ..scheduling.wmp import MappingTask, WMPInstance

    tasks = [MappingTask(it[0].region_code, i, 1, c + 1.0)
             for i, (it, c) in enumerate(zip(items, cost))]
    packed = pack_nfdt_dc(WMPInstance(tasks, machine_width=workers))
    return [task.cell for task, _level in packed.ordered_tasks()]


def _repro_env() -> tuple:
    """The ``REPRO_*`` environment workers read as of their fork."""
    return tuple(sorted(kv for kv in os.environ.items()
                        if kv[0].startswith("REPRO_")))


def _spent(fut: Future) -> bool:
    """Whether ``fut`` leaves its pool unfit to lend again: lost to a
    dead worker, or still running (an attempt abandoned by a timeout or
    an abort cannot be interrupted)."""
    return not fut.done() or (
        not fut.cancelled()
        and isinstance(fut.exception(), BrokenProcessPool))


class _BorrowedPool:
    """The pool as ``supervise_map`` sees it: ``submit`` forwards to the
    owner's executor and ``shutdown`` hands it back, so the supervisor's
    rebuild-and-salvage loop drives the long-lived pool unchanged."""

    def __init__(self, owner: "_PoolOwner", pool: ProcessPoolExecutor,
                 sink) -> None:
        self._owner: _PoolOwner | None = owner
        self._pool = pool
        self._sink = sink
        self._futures: list[Future] = []

    def submit(self, fn, *args) -> Future:
        try:
            fut = self._pool.submit(fn, *args)
        except BrokenProcessPool as exc:
            # A worker died while the pool sat idle: report it the way a
            # mid-run death is reported, so the supervisor rebuilds.
            fut = Future()
            fut.set_exception(exc)
        self._futures.append(fut)
        return fut

    def shutdown(self, wait: bool = False,
                 cancel_futures: bool = False) -> None:
        owner, self._owner = self._owner, None
        if owner is not None:  # the supervisor may shut one handle twice
            owner.release(any(map(_spent, self._futures)), self._sink)


class _PoolOwner:
    """The process's one worker pool, lent to one fan-out at a time.

    Forked by the first pooled fan-out and lent again while
    :meth:`_fork_valid`; otherwise retired and forked anew.  Retiring
    never waits — the executor is shut down on a reaper thread, and a
    worker still running an abandoned attempt exits when that attempt
    does — and :meth:`close` joins everything.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()  # held from borrow() to release()
        self._pool: ProcessPoolExecutor | None = None
        self._forked_with: tuple = ()  # (workers, REPRO_* env, asset keys)
        self._reapers: list[threading.Thread] = []

    def _fork_valid(self, workers: int, needed: frozenset) -> bool:
        """Whether the live workers are what a fresh fork would give:
        same count, same ``REPRO_*`` environment, and every bundle the
        fan-out needs was resident here when they forked."""
        if self._pool is None:
            return False
        size, env, resident = self._forked_with
        return (size == workers and env == _repro_env()
                and needed <= resident)

    def borrow(self, workers: int, needed: frozenset, sink) -> _BorrowedPool:
        from .runner import _ASSET_CACHE

        self._lock.acquire()
        try:
            if self._fork_valid(workers, needed):
                sink.inc("parallel.pool_reuses")
            else:
                self._retire()
                self._pool = ProcessPoolExecutor(max_workers=workers)
                self._forked_with = (workers, _repro_env(),
                                     _ASSET_CACHE.keys())
                # Exit handlers run last-registered-first: registering
                # anew at every fork joins the workers before the
                # teardown of any plane runtime this fan-out's preload
                # created ("last attacher out unlinks").
                atexit.unregister(close_pool)
                atexit.register(close_pool)
                sink.inc("parallel.pool_starts")
            return _BorrowedPool(self, self._pool, sink)
        except BaseException:
            self._lock.release()
            raise

    def release(self, spent: bool, sink) -> None:
        try:
            if spent:
                self._retire()
                sink.inc("parallel.pool_retired")
        finally:
            self._lock.release()

    def _retire(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            reaper = threading.Thread(
                target=pool.shutdown, kwargs={"cancel_futures": True},
                daemon=True)
            reaper.start()
            self._reapers = [t for t in self._reapers if t.is_alive()]
            self._reapers.append(reaper)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            reapers, self._reapers = self._reapers, []
        if pool is not None:  # inline: no new thread at interpreter exit
            pool.shutdown(cancel_futures=True)
        for reaper in reapers:
            reaper.join()


_POOL = _PoolOwner()
# A forked child (a pool worker, a service shard) must not drive workers
# that belong to its parent: it starts with no pool and a fresh lock.
os.register_at_fork(after_in_child=_POOL.__init__)


def close_pool() -> None:
    """Stop and join this process's pool workers (idempotent).

    Runs at interpreter exit, and after every test so that no worker
    outlives the module state, environment or plane attachments it forked
    with; the next pooled fan-out forks a new pool.
    """
    _POOL.close()


def supervise_instances(
    specs: list[InstanceSpec],
    *,
    max_workers: int | None = None,
    parallel: bool = True,
    registry=None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    ledger=None,
    on_failure: str = QUARANTINE,
    checkpoint=None,
    _on_outcome=None,
) -> FanoutResult:
    """Execute instances under supervision; never die mid-batch.

    The resilient core of the fan-out: per-instance futures, retries with
    deterministic backoff, broken-pool rebuild with salvage of completed
    results, and quarantine of specs that exhaust their attempts — the
    batch always returns, with ``result.results[i] is None`` marking
    quarantined positions and ``result.quarantined`` carrying the report.

    Args:
        specs: the instances (order of results matches the input).
        max_workers: pool size; defaults to ``os.cpu_count()``.  The
            process's pool is re-forked when the size changes, so callers
            that alternate sizes pay a pool start each time.
        parallel: set False for in-process execution: the serial
            reference path (debugging, equivalence tests) and callers
            that must not fork.  A fan-out of one instance runs
            in-process either way.
        registry: :class:`~repro.obs.registry.MetricsRegistry` receiving
            every worker's telemetry dump plus the supervisor's
            ``retry.*`` / ``faults.*`` accounting; defaults to the
            process :func:`~repro.obs.registry.global_registry`.  Dumps
            are merged incrementally as results arrive, so telemetry of
            completed instances survives a mid-batch failure.
        retry: the retry policy (None = single attempt, no backoff; pool
            rebuilds stay active).
        faults: optional fault-injection plan, threaded to every worker.
        ledger: optional run journal; quarantines are recorded as
            ``instance_failed`` events with ``quarantined=True``.
        on_failure: ``"quarantine"`` (default) or ``"raise"``.
        checkpoint: optional
            :class:`~repro.checkpoint.CheckpointPlan`.  When enabled,
            workers snapshot in-flight state every ``plan.every`` ticks
            through the CAS, retried attempts resume from the newest
            valid snapshot instead of tick 0, per-attempt timeouts scale
            to the work remaining, and the result reports
            ``ticks_saved``.  Disabled plans leave execution unchanged.
        _on_outcome: internal — ``(position, outcome)`` called as each
            group is harvested (the memoized fan-out publishes through
            it, so results are durable before their siblings finish).

    Returns:
        A :class:`~repro.resilience.supervisor.FanoutResult` whose
        ``results`` are :class:`InstanceOutcome` (or None), input order.
    """
    from ..obs.registry import global_registry

    sink = registry if registry is not None else global_registry()
    if not specs:
        return FanoutResult(results=[])
    ck_enabled = checkpoint is not None and checkpoint.enabled
    ck_saved0 = sink.value("checkpoint.ticks_saved") if ck_enabled else 0
    timeout_of = (_scaled_timeout_of(checkpoint, retry)
                  if ck_enabled and retry is not None else None)
    fn = functools.partial(_execute_group, checkpoint=checkpoint)
    pool_fn = functools.partial(_execute_group, checkpoint=checkpoint,
                                allow_exit=True)

    results: list = [None] * len(specs)
    quarantined: list[tuple[int, QuarantineRecord]] = []
    evicted: list[tuple[int, BaseException]] = []

    def fan(groups: list[list[int]], **resume) -> FanoutResult:
        """One supervised pass over index groups (a single is a group of
        one), harvested into ``results`` / ``quarantined`` / ``evicted``."""
        items = [[specs[i] for i in g] for g in groups]
        keys = [_spec_key(it[0]) if len(it) == 1
                else f"batch/{_spec_key(it[0])}+{len(it) - 1}" for it in items]
        simulate_s: dict[int, float] = {}

        def harvest(i: int, res: tuple[list, dict]) -> None:
            """Land group ``i`` the moment it returns, while the others
            still run: telemetry, outcomes, the caller's hook."""
            entries, dump = res
            sink.merge(dump)
            simulate_s[i] = dump.get("runner.simulate_s", {}).get("value", 0)
            for pos, (tag, payload) in zip(groups[i], entries):
                if tag == "ok":
                    results[pos], lane_dump = payload
                    sink.merge(lane_dump)
                    if _on_outcome is not None:
                        _on_outcome(pos, results[pos])
                else:
                    evicted.append((pos, payload))

        common = dict(keys=keys, retry=retry, faults=faults,
                      on_failure=on_failure, registry=sink, ledger=ledger,
                      on_result=harvest, **resume)
        cap = max_workers or os.cpu_count() or 1
        if not parallel or min(cap, sum(len(g) for g in groups)) <= 1:
            res = supervise_map(fn, items, **common)
        else:
            # Pool whenever the caller asked for parallelism and there is
            # more than one instance — even a single group: process
            # isolation is what turns a hard worker death into a
            # rebuild-and-salvage instead of taking down the supervisor.
            akeys = [AssetKey.of_spec(it[0]) for it in items]
            loaded = _preload_assets(dict.fromkeys(akeys), sink)
            # Predicted cost: lanes x days x edges (Fig. 7: runtime grows
            # with network size); 0 when the bundle did not load.
            cost = [len(it) * it[0].n_days
                    * (loaded[k].net.n_edges if k in loaded else 0)
                    for it, k in zip(items, akeys)]
            res = supervise_map(
                fn, items, pool_fn=pool_fn, timeout_of=timeout_of,
                make_pool=functools.partial(
                    _POOL.borrow, cap, frozenset(loaded), sink),
                submit_order=_mapper_order(items, cost, cap), **common)
            sink.gauge("parallel.workers", min(cap, len(items)))
            # Shares are over the groups that returned a measurement.
            predicted = sum(cost[i] for i in simulate_s)
            measured = sum(simulate_s.values())
            if not resume and predicted and measured:
                sink.gauge("parallel.predict_err", max(
                    abs(cost[i] / predicted - t / measured)
                    for i, t in simulate_s.items()))
        qiter = iter(res.quarantined)
        for g, group_res in zip(groups, res.results):
            if group_res is None:
                # The whole group was given up on (a single out of
                # attempts, repeated pool loss, a batch-level error —
                # under RAISE the exception already propagated): one
                # record per spec, so the report stays per instance.
                rec = next(qiter)
                quarantined.extend(
                    (pos, QuarantineRecord(
                        key=_spec_key(specs[pos]), item=specs[pos],
                        error=rec.error, kind=rec.kind,
                        attempts=rec.attempts)) for pos in g)
        return res

    # Each group crosses to a worker as one indivisible item — the
    # failure domain — so a replicate batch is never split across workers,
    # whatever order the mapper submits them in.
    groups = (batch_groups(specs) if batching_enabled()
              else [[i] for i in range(len(specs))])
    n_multi = sum(len(g) > 1 for g in groups)
    if n_multi:
        sink.inc("batch.groups", n_multi)
    gres = fan(groups)

    # ---- eviction triage: per-spec retry/quarantine ------------------
    # Mirrors ``_Supervisor.on_error`` for the first (batched) attempt:
    # a transient eviction re-runs as a group of one at attempt 1 with
    # one failure charged against its budget; a permanent one (or a
    # one-attempt policy) is quarantined here.
    policy = retry if retry is not None else NO_RETRY_POLICY
    retry_pos: list[int] = []
    for pos, exc in sorted(evicted, key=lambda pair: pair[0]):
        spec = specs[pos]
        key = _spec_key(spec)
        if isinstance(exc, InjectedFault):
            sink.inc(f"faults.{exc.site}")
        sink.inc("retry.failures")
        kind = classify(exc)
        if kind == PERMANENT or policy.max_attempts <= 1:
            sink.inc("retry.quarantined")
            if ledger is not None:
                ledger.instance_failed(
                    key, error=f"{type(exc).__name__}: {exc}",
                    quarantined=True, kind=kind, attempts=1)
            if on_failure == RAISE:
                raise exc
            quarantined.append((pos, QuarantineRecord(
                key=key, item=spec, error=f"{type(exc).__name__}: {exc}",
                kind=kind, attempts=1)))
            continue
        sink.inc("retry.retries")
        delay = policy.backoff_s(key, 0)
        sink.observe("retry.backoff_s", delay)
        if delay > 0:
            time.sleep(delay)
        retry_pos.append(pos)
    sres = fan([[pos] for pos in retry_pos],
               start_attempts=[1] * len(retry_pos),
               prior_failures=[1] * len(retry_pos))

    quarantined.sort(key=lambda pair: pair[0])
    return FanoutResult(
        results=results,
        quarantined=[rec for _i, rec in quarantined],
        attempts=gres.attempts + sres.attempts,
        retries=gres.retries + len(retry_pos) + sres.retries,
        pool_rebuilds=gres.pool_rebuilds + sres.pool_rebuilds,
        ticks_saved=(int(sink.value("checkpoint.ticks_saved") - ck_saved0)
                     if ck_enabled else 0),
    )


def run_instances(
    specs: list[InstanceSpec],
    *,
    max_workers: int | None = None,
    parallel: bool = True,
    registry=None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint=None,
) -> list[InstanceOutcome]:
    """Execute instances, optionally across a process pool.

    The historical all-or-nothing contract: every spec's outcome, in
    input order, or the first unrecoverable exception.  Internally this
    is :func:`supervise_instances` with ``on_failure="raise"`` — worker
    loss still rebuilds the pool, and a :class:`RetryPolicy` (when given)
    still retries transient failures; only exhaustion propagates.  Night
    orchestration and chaos runs use :func:`supervise_instances` directly
    to get partial results plus a quarantine report instead.

    Args:
        specs: the instances (order of results matches the input).
        max_workers / parallel: as for :func:`supervise_instances`.
        registry: :class:`~repro.obs.registry.MetricsRegistry` that
            receives every worker's telemetry dump (``runner.*`` and
            aggregated ``engine.*``), merged in the parent; defaults to
            the process :func:`~repro.obs.registry.global_registry`, so
            pool-worker telemetry is never silently lost.
        retry: optional retry policy for transient worker failures.
        faults: optional fault-injection plan (chaos testing).

    Returns:
        One :class:`InstanceOutcome` per spec, in input order.
    """
    res = supervise_instances(
        specs, max_workers=max_workers, parallel=parallel,
        registry=registry, retry=retry, faults=faults, on_failure=RAISE,
        checkpoint=checkpoint)
    return res.results  # type: ignore[return-value] — RAISE means no Nones


def specs_for_design(
    design,
    *,
    n_days: int = 120,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
) -> list[InstanceSpec]:
    """Expand an experiment design into executable instance specs."""
    out: list[InstanceSpec] = []
    for i, (cell, region, rep) in enumerate(design.instances()):
        out.append(InstanceSpec(
            region_code=region,
            params=dict(cell.params),
            n_days=n_days,
            scale=scale,
            seed=seed + 17 * i,
            label=f"{region}-c{cell.index}-r{rep}",
            asset_seed=seed,
        ))
    return out


def gather_ensemble(outcomes: list[InstanceOutcome]) -> np.ndarray:
    """Stack outcomes' confirmed series into an ``(R, T + 1)`` ensemble."""
    if not outcomes:
        raise ValueError("no outcomes to gather")
    return np.vstack([o.confirmed for o in outcomes])
