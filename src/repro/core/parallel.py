"""Process-parallel execution of simulation instances.

The production system's per-night throughput comes from running thousands
of independent <cell, region, replicate> simulations concurrently.  At
reproduction scale the same fan-out is available through a process pool:
instances are embarrassingly parallel, each worker builds (and caches) its
own region inputs, and only the small aggregated series cross process
boundaries — the classic scatter/gather layout of the mpi4py guide, with
``ProcessPoolExecutor`` standing in for MPI ranks.

There is one fan-out, :func:`supervise_instances`, and
:func:`run_instances` is its all-or-nothing face.  Given a result store
it is *memoized*: specs the store holds are served from their blobs,
only the misses run, and each executed result is published the moment
its group returns.

Fan-out is *supervised*, not mapped: the specs to run are partitioned
into batch groups (:func:`~repro.core.batching.batch_groups`: replicates
of one region, or lone regions packed as a union of their networks) and
each group is submitted as its own future under
:func:`repro.resilience.supervisor.supervise_map`.  The group is the one
unit of work, failure and retry: any fault in any of its specs — an
injected one before the lanes are built, a crash mid-run, a dead worker —
fails the group's attempt, the group retries as a whole, and a group out
of attempts is quarantined with one record per spec.  One worker
exception never aborts the batch, a dead worker rebuilds the pool and
salvages every group already completed, and specs that keep failing are
quarantined instead of killing the night.  There is one worker entry
(:func:`_execute_group`) over one executor
(:func:`repro.core.runner.execute_specs`).  Because every retry re-runs
the same specs with the same seeds, a recovered batch is bit-identical to
an undisturbed one.

Fan-out is also *warm*, and only simulation blocks it.  The supervisor
loads the fan-out's asset bundles into its own cache
(:func:`_preload_assets`), then borrows the process's one worker pool
(:class:`_PoolOwner`): forked once, lent to every later fan-out while the
fork is still valid — same size, same ``REPRO_*`` environment, every
bundle needed already resident when the workers forked (inherited
copy-on-write, or as the parent's read-only mapping of the store's
blob) — and re-forked, the old per-call cost, only when one of those
changed.  Groups go out longest-predicted-first, the paper's mapper order
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
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..analytics.aggregate import RegionSummary
from ..obs.registry import Stopwatch, global_registry
from ..params import DEFAULT_SEED
from ..plane.bundle import AssetKey
from ..resilience.faults import CRASH_EXIT_CODE, FaultPlan, InjectedFault
from ..resilience.retry import QuarantineRecord, RetryPolicy
from ..resilience.supervisor import (
    QUARANTINE,
    RAISE,
    FanoutResult,
    supervise_map,
)
from ..store.keys import SUMMARY_NAMESPACE, instance_key
from ..store.memo import (
    _lookup,
    _publish,
    _resolve_remote,
    outcome_from_payload,
)
from .batching import batch_groups

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
        summary: the per-state region summary (forecast targets, costs,
            peak day), present only when the fan-out was asked for it.
    """

    spec: InstanceSpec
    confirmed: np.ndarray
    attack_rate: float
    transitions: int
    summary: RegionSummary | None = None


def _spec_key(spec: InstanceSpec) -> str:
    """The operation key faults and backoff jitter match against."""
    return spec.label or f"{spec.region_code}:{spec.seed}"


def _execute_group(specs: list[InstanceSpec], attempt: int = 0,
                   faults: FaultPlan | None = None, *,
                   allow_exit: bool = False, checkpoint=None,
                   summary: bool = False) -> tuple[list, dict]:
    """Worker: run one spec group; the fan-out's only work function.

    Imports happen inside the worker so forked/spawned processes
    initialise cleanly; the per-process asset LRU (inside
    :func:`~repro.core.runner.execute_specs`) amortises input
    construction across a worker's groups.  Telemetry not embedded in
    the results would die with the worker, so each call fills a fresh
    registry and ships its kind-preserving dump home for the parent to
    merge.

    Faults are injected for every spec *before* any lane is built or any
    RNG stream touched, so a retried attempt reproduces the clean run bit
    for bit.  The first injected fault that raises fails the group's
    attempt, exactly as a worker death or a mid-run crash does: the group
    is the failure domain, whichever fault site fired and whether it ran
    in a pool or in-process.  ``worker.crash`` kills a pool worker hard
    (``allow_exit``: the parent sees ``BrokenProcessPool`` and rebuilds)
    and is a transient :class:`InjectedFault` in-process, where exiting
    would kill the supervisor itself.

    A :class:`~repro.epihiper.batch.BatchIncompatible` group (lane models
    that cannot share a tick loop) falls back to one group per spec
    inside this worker — same results, no batch speedup.  With
    ``summary`` every outcome also carries its region summary.

    Returns:
        ``(entries, group_dump)`` — ``(spec, (outcome, lane_dump))`` per
        spec in input order, plus the group-level telemetry dump
        (``runner.*_s``, batch phase timers, ``checkpoint.*``).
    """
    from ..epihiper.batch import BatchIncompatible
    from ..obs.registry import MetricsRegistry
    from .runner import _outcome_of, execute_specs

    reg = MetricsRegistry()
    for key in [] if faults is None else map(_spec_key, specs):
        if faults.fires("worker.crash", key, attempt):
            if allow_exit:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFault("worker.crash",
                                f"{key} attempt {attempt} (in-process)")
        if faults.fires("worker.exception", key, attempt):
            raise InjectedFault("worker.exception",
                                f"{key} attempt {attempt}")
        delay = faults.delay("worker.slow", key, attempt)
        if delay > 0:
            time.sleep(delay)
            reg.inc("faults.worker.slow")
    run = functools.partial(
        execute_specs, plan=checkpoint, attempt=attempt, faults=faults,
        allow_exit=allow_exit, metrics=reg,
        reduce=functools.partial(_outcome_of, summary=summary))
    try:
        pairs = run(specs)
    except BatchIncompatible:
        reg.inc("batch.incompatible")
        pairs = [pair for spec in specs for pair in run([spec])]
    return list(zip(specs, pairs)), reg.dump()


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
    manager = checkpoint.manager()

    def timeout_of(item, attempt: int) -> float:
        # The fan-out passes groups; a bare spec is a group of one.
        specs = item if isinstance(item, list) else [item]
        n_days = max(s.n_days for s in specs)
        start = min(
            (manager.latest_tick(instance_key(s, salt=checkpoint.salt))
             or 0) for s in specs)
        remaining = max(1, n_days - start)
        return base * remaining / max(1, n_days)

    return timeout_of


def _preload_assets(keys, sink, store) -> dict:
    """Make a fan-out's bundles resident here before it runs them.

    With a ``store`` each bundle is mapped from it (built and published
    there first if no process has yet).  Stops at the first insert that
    evicts: past the byte budget, loading more only displaces what was
    just loaded.  A key that fails to load is left to its spec's own
    supervised attempt.  Returns the bundles that did load, by key.
    """
    from .runner import load_assets

    loaded = {}
    evictions = sink.value("assets.cache.evictions")
    for key in keys:
        try:
            loaded[key] = load_assets(key, store=store, metrics=sink)
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
# A forked child (a pool worker) must not drive workers that belong to
# its parent: it starts with no pool and a fresh lock.
os.register_at_fork(after_in_child=_POOL.__init__)


def close_pool() -> None:
    """Stop and join this process's pool workers (idempotent).

    Runs at interpreter exit, and after every test so that no worker
    outlives the module state or environment it forked with; the next
    pooled fan-out forks a new pool.
    """
    _POOL.close()


atexit.register(close_pool)


def _fan_out(
    specs: list[InstanceSpec],
    *,
    parallel: bool,
    max_workers: int | None,
    sink,
    retry: RetryPolicy | None,
    faults: FaultPlan | None,
    ledger,
    on_failure: str,
    checkpoint,
    store,
    summary: bool = False,
    land=None,
) -> FanoutResult:
    """One supervised pass over ``specs``, one batch group per item.

    Each group crosses to a worker as one indivisible item — the unit of
    work, failure and retry — so a replicate batch is never split across
    workers, whatever order the mapper submits them in.  A group's
    outcomes reach ``results`` (and ``land(position, outcome)``) the
    moment it is harvested, while the others still run; a group given up
    on yields one quarantine record per spec, in input order.
    """
    if not specs:
        return FanoutResult(results=[])
    groups = batch_groups(specs)
    n_multi = sum(len(g) > 1 for g in groups)
    if n_multi:
        sink.inc("batch.groups", n_multi)
    items = [[specs[i] for i in g] for g in groups]
    keys = [_spec_key(it[0]) if len(it) == 1
            else f"batch/{_spec_key(it[0])}+{len(it) - 1}" for it in items]
    results: list = [None] * len(specs)
    simulate_s: dict[int, float] = {}

    def harvest(i: int, res: tuple[list, dict]) -> None:
        entries, dump = res
        sink.merge(dump)
        simulate_s[i] = dump.get("runner.simulate_s", {}).get("value", 0)
        for pos, (_spec, (outcome, lane_dump)) in zip(groups[i], entries):
            results[pos] = outcome
            sink.merge(lane_dump)
            if land is not None:
                land(pos, outcome)

    fn = functools.partial(_execute_group, checkpoint=checkpoint,
                           summary=summary)
    common = dict(keys=keys, retry=retry, faults=faults,
                  on_failure=on_failure, registry=sink, ledger=ledger,
                  on_result=harvest)
    cap = max_workers or os.cpu_count() or 1
    # Pool whenever the caller asked for parallelism and there is more
    # than one instance — even a single group: process isolation is what
    # turns a hard worker death into a rebuild-and-salvage instead of
    # taking down the supervisor.
    pooled = parallel and min(cap, len(specs)) > 1
    # Every lane's bundle: a union's lanes each bring their own region.
    akeys = [[AssetKey.of_spec(s) for s in it] for it in items]
    # The pool needs its bundles resident before it forks; a serial pass
    # preloads only to map them from (or publish them to) the store.
    loaded = (_preload_assets(dict.fromkeys(k for ks in akeys for k in ks),
                              sink, store)
              if pooled or store is not None else {})
    if not pooled:
        res = supervise_map(fn, items, **common)
    else:
        # Predicted cost: days x the lanes' edges (Fig. 7: runtime grows
        # with network size); a lane whose bundle did not load adds 0.
        cost = [it[0].n_days * sum(loaded[k].net.n_edges
                                   for k in ks if k in loaded)
                for it, ks in zip(items, akeys)]
        res = supervise_map(
            fn, items,
            pool_fn=functools.partial(fn, allow_exit=True),
            timeout_of=(_scaled_timeout_of(checkpoint, retry)
                        if checkpoint is not None and checkpoint.enabled
                        and retry is not None else None),
            make_pool=functools.partial(
                _POOL.borrow, cap, frozenset(loaded), sink),
            submit_order=_mapper_order(items, cost, cap), **common)
        sink.gauge("parallel.workers", min(cap, len(items)))
        # Shares are over the groups that returned a measurement.
        predicted = sum(cost[i] for i in simulate_s)
        measured = sum(simulate_s.values())
        if predicted and measured:
            sink.gauge("parallel.predict_err", max(
                abs(cost[i] / predicted - t / measured)
                for i, t in simulate_s.items()))
    # A group given up on (out of attempts, repeated pool loss — under
    # RAISE the exception already propagated) is one record per spec, so
    # the report stays per instance.
    quarantined: list[tuple[int, QuarantineRecord]] = []
    qiter = iter(res.quarantined)
    for g, group_res in zip(groups, res.results):
        if group_res is None:
            rec = next(qiter)
            quarantined.extend(
                (pos, replace(rec, key=_spec_key(specs[pos]),
                              item=specs[pos])) for pos in g)
    quarantined.sort(key=lambda pair: pair[0])
    return FanoutResult(
        results=results, quarantined=[rec for _pos, rec in quarantined],
        attempts=res.attempts, retries=res.retries,
        pool_rebuilds=res.pool_rebuilds)


def supervise_instances(
    specs: list[InstanceSpec],
    *,
    store=None,
    leases=None,
    salt: str | None = None,
    ledger=None,
    max_workers: int | None = None,
    parallel: bool = True,
    registry=None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    on_failure: str = QUARANTINE,
    checkpoint=None,
    summary: bool = False,
) -> FanoutResult:
    """Execute instances under supervision, through the store when given.

    The one fan-out.  In order:

    1. **Partition.**  One store lookup per unique
       :func:`~repro.store.keys.instance_key` serves the hits; duplicate
       specs run once and fan back out to every position.  With no store
       every spec is a miss (:func:`~repro.store.memo._lookup` decides).
    2. **Leases.**  A miss whose lease another live process holds is
       *remote* — that process is computing it right now; a lease taken
       here re-checks the store before anything runs.
    3. **Fan out the misses** group by group (:func:`_fan_out`): retries
       with deterministic backoff, broken-pool rebuild with salvage, and
       quarantine of groups out of attempts.
    4. **Publish on harvest.**  Each executed result is written to the
       store and journaled the moment its group returns, so it is
       visible to lease waiters while its siblings still run and kept
       even if a later group aborts the batch.
    5. **Resolve remote keys**: serve the holder's blob, or take over a
       lease vacated without one (:func:`~repro.store.memo._resolve_remote`).
    6. Under ``on_failure="raise"``, a remote failure raises too.

    The batch otherwise always returns, with ``results[i] is None``
    marking a quarantined position and ``quarantined`` carrying one
    record per such position.  Served and executed results are
    bit-identical.

    Args:
        specs: the instances (order of results matches the input).
        store: optional :class:`~repro.store.cas.ContentStore`; the
            batch's ``memo.*`` accounting is published only with one.
            The region bundles the misses need are mapped from it too,
            and built and published there once when absent.
        leases: optional :class:`~repro.store.cas.LeaseTable` making the
            execution of misses exclusive across processes (ignored
            without a store): a remote miss waits up to
            :data:`~repro.store.memo.LEASE_WAIT_S` for its holder, then
            gives up with one ``kind="lease"`` quarantine record.
        salt: cache-key salt override (defaults to the code-version salt).
        ledger: optional run journal: ``run_started`` / ``run_completed``
            with the batch counters, a ``cache_hit`` per served instance,
            an ``instance_completed`` per executed one and an
            ``instance_failed`` per give-up.
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
        on_failure: ``"quarantine"`` (default) or ``"raise"``.
        checkpoint: optional
            :class:`~repro.checkpoint.CheckpointPlan`.  When enabled,
            workers snapshot in-flight state every ``plan.every`` ticks
            through the CAS, retried attempts resume from the newest
            valid snapshot instead of tick 0, per-attempt timeouts scale
            to the work remaining, and the result reports
            ``ticks_saved``; once a miss's result is in the store, its
            checkpoint chain is discarded.  Disabled plans leave
            execution unchanged.
        summary: also give every outcome its region summary, stored
            as a second blob family under the same spec; a stored outcome
            without one is then a miss.  Off by default: it costs a
            ``summarize`` and a second blob per miss.

    Returns:
        A :class:`~repro.resilience.supervisor.FanoutResult` whose
        ``results`` are :class:`InstanceOutcome` (or None), input order.
    """
    sink = registry if registry is not None else global_registry()
    if not specs:
        return FanoutResult(results=[])
    watch = Stopwatch()
    ck_enabled = checkpoint is not None and checkpoint.enabled
    ck_saved0 = sink.value("checkpoint.ticks_saved") if ck_enabled else 0
    if ledger is not None:
        ledger.run_started(n_instances=len(specs), cached=store is not None)
    if store is None:
        leases = None  # nothing to coalesce on without published blobs
    keys = [instance_key(s, salt=salt) for s in specs]
    skey_of = ({k: instance_key(s, salt=salt, namespace=SUMMARY_NAMESPACE)
                for k, s in zip(keys, specs)}
               if summary and store is not None else {})
    # Each payload becomes its outcome as soon as it is read, so a large
    # all-hit fan-out never holds every blob buffer at once.
    hit_of: dict[str, InstanceOutcome | None] = {}
    for spec, key in zip(specs, keys):
        if key not in hit_of:
            payload = (None if store is None
                       else _lookup(store, key, skey_of.get(key)))
            hit_of[key] = (None if payload is None
                           else outcome_from_payload(spec, payload))

    out: list[InstanceOutcome | None] = [None] * len(specs)
    exec_of: dict[str, int] = {}
    n_hits = 0
    for i, (spec, key) in enumerate(zip(specs, keys)):
        hit = hit_of[key]
        if hit is not None:
            out[i] = hit if hit.spec is spec else replace(hit, spec=spec)
            n_hits += 1
            if ledger is not None:
                ledger.cache_hit(key, label=spec.label)
        else:
            exec_of.setdefault(key, i)

    base_of: dict[str, InstanceOutcome] = {}
    remote_of: dict[str, int] = {}
    owned: list[str] = []
    if leases is not None:
        for key in list(exec_of):
            if not leases.acquire(key):
                remote_of[key] = exec_of.pop(key)
                continue
            # Double-check under the lease: another process may have
            # executed, published *and released* between the lookup above
            # and this acquire — re-running would be wasted work, and
            # "executes once across processes" is the contract.
            payload = _lookup(store, key, skey_of.get(key))
            if payload is None:
                owned.append(key)
                continue
            leases.release(key)
            i = exec_of.pop(key)
            base_of[key] = outcome_from_payload(specs[i], payload)
            sink.inc("memo.remote_hits")
            if ledger is not None:
                ledger.cache_hit(key, label=specs[i].label, remote=True)

    exec_idx = sorted(exec_of.values())
    ck_manager = (checkpoint.manager(metrics=sink)
                  if ck_enabled and store is not None else None)

    def publish(key: str, outcome: InstanceOutcome) -> None:
        _publish(key, outcome, store=store, ledger=ledger,
                 ck_manager=ck_manager, summary_key=skey_of.get(key))

    fan = functools.partial(
        _fan_out, max_workers=max_workers, sink=sink, retry=retry,
        faults=faults, ledger=ledger, checkpoint=checkpoint, store=store,
        summary=summary)

    def land(j: int, outcome: InstanceOutcome) -> None:
        key = keys[exec_idx[j]]
        base_of[key] = outcome
        publish(key, outcome)

    failed_of: dict[str, QuarantineRecord] = {}
    try:
        res = fan([specs[i] for i in exec_idx], parallel=parallel,
                  on_failure=on_failure, land=land)
        # Records come sorted by position: pair them with the None slots.
        qiter = iter(res.quarantined)
        for i, outcome in zip(exec_idx, res.results):
            if outcome is None:
                failed_of[keys[i]] = next(qiter)
    finally:
        # Release *before* waiting on anyone else's keys, so lease waits
        # can never form a cycle (A holds k1 and waits on k2, held by B
        # waiting on k1).
        for key in owned:
            leases.release(key)

    for key, i in sorted(remote_of.items(), key=lambda kv: kv[1]):
        outcome, rec = _resolve_remote(
            specs[i], key, store=store, leases=leases, ledger=ledger,
            registry=sink, publish=publish, summary_key=skey_of.get(key),
            execute=functools.partial(fan, parallel=False,
                                      on_failure=QUARANTINE))
        if outcome is not None:
            base_of[key] = outcome
        else:
            failed_of[key] = rec

    quarantined = []
    for i, (spec, key) in enumerate(zip(specs, keys)):
        if out[i] is not None:
            continue
        base = base_of.get(key)
        if base is not None:
            out[i] = base if base.spec is spec else replace(base, spec=spec)
        else:
            rec = failed_of[key]
            quarantined.append(rec if rec.item is spec
                               else replace(rec, item=spec))
    if quarantined and on_failure == RAISE:
        # Local failures already raised inside the fan-out; only a remote
        # executor's failure can reach here.
        raise RuntimeError(
            f"remote execution failed: {quarantined[0].describe()}")
    if store is not None:
        # Per-batch deltas; the store's cumulative session counters stay
        # on store.metrics (merging them here would double-count).
        sink.inc("memo.hits", n_hits)
        sink.inc("memo.misses", len(exec_idx))
        sink.observe("memo.batch_s", watch.elapsed())
    if ledger is not None:
        extra = ({"store_" + k: v for k, v in store.metrics.snapshot(
                      prefix="store.", strip=True).items()}
                 if store is not None else {})
        if quarantined:
            extra["quarantined"] = len(quarantined)
        if remote_of:
            extra["remote"] = len(remote_of)
        ledger.run_completed(hits=n_hits, misses=len(exec_idx),
                             wall_s=watch.elapsed(), **extra)
    return FanoutResult(
        results=out, quarantined=quarantined, attempts=res.attempts,
        retries=res.retries, pool_rebuilds=res.pool_rebuilds,
        ticks_saved=(int(sink.value("checkpoint.ticks_saved") - ck_saved0)
                     if ck_enabled else 0))


def run_instances(specs: list[InstanceSpec],
                  **options) -> list[InstanceOutcome]:
    """Every spec's outcome in input order, or the first unrecoverable
    exception.

    :func:`supervise_instances` with ``on_failure="raise"`` (it takes
    every other keyword of that function): worker loss still rebuilds
    the pool, a :class:`RetryPolicy` still retries transient failures,
    and results published before the failure stay in the store; only
    exhaustion propagates.  Night orchestration, chaos runs and the
    service broker call :func:`supervise_instances` directly for partial
    results plus a quarantine report instead.
    """
    res = supervise_instances(specs, on_failure=RAISE, **options)
    return res.results  # type: ignore[return-value] — RAISE means no Nones


def gather_ensemble(outcomes: list[InstanceOutcome]) -> np.ndarray:
    """Stack outcomes' confirmed series into an ``(R, T + 1)`` ensemble."""
    if not outcomes:
        raise ValueError("no outcomes to gather")
    return np.vstack([o.confirmed for o in outcomes])
