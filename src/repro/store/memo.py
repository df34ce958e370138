"""Cache-aware instance execution: fan out only what the store lacks.

``run_instances_memoized`` is the drop-in replacement for
:func:`repro.core.parallel.run_instances` that gives iterative calibration
rounds and repeated nightly designs their near-free overlap: specs are
partitioned into store hits and misses, only the misses cross the process
pool, results are written back as content-addressed blobs, and the output
list is restored to input order.  Cached and executed results are
bit-identical because the payload stores the exact float64 series the
worker produced.

:func:`supervise_instances_memoized` is the same partition-execute-publish
cycle with quarantine semantics: misses run under the resilient fan-out,
specs that exhaust their retry budget come back as ``None`` positions plus
:class:`~repro.resilience.retry.QuarantineRecord` entries instead of
aborting the batch.  The scenario service broker
(:mod:`repro.service.broker`) is built on it.

Imports of :mod:`repro.core.parallel` are deferred into the functions —
``core.calibration_wf`` imports this module at its top level, so a
module-level import back into ``repro.core`` would be circular (mirroring
how ``core.parallel`` defers its own ``runner`` imports).
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from ..obs.registry import MetricsRegistry, Stopwatch, global_registry
from ..resilience.retry import QuarantineRecord
from ..resilience.supervisor import QUARANTINE, RAISE, FanoutResult
from .cas import LEASE_DONE, LEASE_TIMEOUT, ContentStore, LeaseTable
from .keys import INSTANCE_NAMESPACE, instance_key
from .ledger import RunLedger

if TYPE_CHECKING:  # pragma: no cover - type-only import, see module doc
    from ..core.parallel import InstanceOutcome, InstanceSpec

#: How long a miss waits on another process's lease before giving up.
LEASE_WAIT_S = 300.0


def outcome_payload(outcome: "InstanceOutcome") -> dict[str, np.ndarray]:
    """The storable arrays of one outcome (spec fields live in the key)."""
    return {
        "confirmed": np.asarray(outcome.confirmed, dtype=np.float64),
        "attack_rate": np.asarray(outcome.attack_rate, dtype=np.float64),
        "transitions": np.asarray(outcome.transitions, dtype=np.int64),
    }


def outcome_from_payload(
    spec: "InstanceSpec", payload: dict[str, np.ndarray]
) -> "InstanceOutcome":
    """Rebuild an outcome for ``spec`` from a stored payload."""
    from ..core.parallel import InstanceOutcome

    return InstanceOutcome(
        spec=spec,
        confirmed=np.asarray(payload["confirmed"], dtype=np.float64),
        attack_rate=float(payload["attack_rate"]),
        transitions=int(payload["transitions"]),
    )


def _publish(key: str, outcome: "InstanceOutcome", *,
             store: ContentStore | None, ledger: RunLedger | None,
             ck_manager) -> None:
    """Land one executed result: blob, checkpoint reclaim, journal."""
    if store is not None:
        store.put(key, outcome_payload(outcome), family=INSTANCE_NAMESPACE)
        if ck_manager is not None:
            # Terminal blob is durable: the checkpoint chain is now dead
            # weight — reclaim it.
            ck_manager.discard(key)
    if ledger is not None:
        # Completion events carry the spec itself: the surrogate corpus
        # builder replays these to recover (features, output) training
        # pairs — CAS keys alone are not invertible.
        from ..surrogate.corpus import spec_record

        ledger.instance_completed(key, label=outcome.spec.label,
                                  spec=spec_record(outcome.spec))


def _resolve_remote(
    spec: "InstanceSpec",
    key: str,
    *,
    store: ContentStore,
    leases: LeaseTable,
    ledger: RunLedger | None,
    registry: MetricsRegistry,
    retry,
    faults,
    checkpoint=None,
    publish,
) -> tuple["InstanceOutcome | None", QuarantineRecord | None]:
    """Resolve a miss whose lease another process holds.

    The happy path is pure coalescing: wait for the remote executor's
    blob and serve it (bit-identical — the blob *is* the result).  If the
    lease vacates without a blob (the holder crashed or quarantined the
    spec), contend for the lease and execute locally.  Bounded attempts:
    the loop cannot live-lock even under adversarial lease churn.
    """
    from ..core.parallel import supervise_instances

    for _ in range(3):
        state = leases.wait(key, lambda: store.contains(key),
                            timeout_s=LEASE_WAIT_S)
        if state != LEASE_TIMEOUT:
            payload = store.get(key)
            if payload is not None:
                registry.inc("memo.remote_hits")
                if ledger is not None:
                    ledger.cache_hit(key, label=spec.label, remote=True)
                return outcome_from_payload(spec, payload), None
        if state == LEASE_TIMEOUT:
            break
        # LEASE_VACATED without a blob (or a corrupt blob read as a
        # miss): the remote executor failed — run it here.
        if not leases.acquire(key):
            continue  # somebody else got there first; wait again
        try:
            res = supervise_instances(
                [spec], parallel=False, registry=registry, retry=retry,
                faults=faults, ledger=ledger, on_failure=QUARANTINE,
                checkpoint=checkpoint)
            outcome = res.results[0]
            if outcome is None:
                return None, res.quarantined[0]
            publish(key, outcome)
            return outcome, None
        finally:
            leases.release(key)
    return None, QuarantineRecord(
        key=spec.label or key[:12], item=spec,
        error=f"gave up waiting on remote lease for {key[:12]}",
        kind="lease", attempts=1)


def supervise_instances_memoized(
    specs: list["InstanceSpec"],
    *,
    store: ContentStore | None = None,
    ledger: RunLedger | None = None,
    salt: str | None = None,
    max_workers: int | None = None,
    parallel: bool = True,
    registry: MetricsRegistry | None = None,
    retry=None,
    faults=None,
    on_failure: str = QUARANTINE,
    leases: LeaseTable | None = None,
    checkpoint=None,
) -> FanoutResult:
    """Execute instances through the result store, under supervision.

    The cache-aware twin of
    :func:`~repro.core.parallel.supervise_instances`: specs are
    partitioned into store hits and misses, only the misses cross the
    process pool (retried and quarantined per the policy), completed
    results are written back as content-addressed blobs, and the batch
    always returns — ``results[i] is None`` marks a quarantined position
    and ``quarantined`` carries one record per affected input position.
    This is the execution primitive of the scenario service broker, which
    must map every request to a terminal state even when workers die.

    Args:
        specs: the instances (order of results matches the input).
        store: the content store; with None every spec is a miss and
            nothing is published.
        ledger: optional run journal; records a ``cache_hit`` per served
            instance, an ``instance_completed`` per executed one,
            ``instance_failed`` per quarantine, and run-level
            start/complete events with the batch counters.
        salt: cache-key salt override (defaults to the code-version salt).
        max_workers / parallel: forwarded to the supervised fan-out for
            the misses.
        registry: receives the batch's ``memo.*`` accounting, the
            supervisor's ``retry.*`` / ``faults.*`` counters, plus every
            worker's merged telemetry; defaults to the process
            :func:`~repro.obs.registry.global_registry`.
        retry: optional :class:`~repro.resilience.retry.RetryPolicy` for
            transient worker failures among the misses.
        faults: optional :class:`~repro.resilience.faults.FaultPlan`
            threaded to the workers (chaos testing); the store's own
            ``cas.corrupt`` site is configured on the store handle.
        on_failure: ``"quarantine"`` (default) or ``"raise"``.
        leases: optional :class:`~repro.store.cas.LeaseTable` making the
            execution of misses exclusive *across processes*: a miss whose
            lease another live process holds is not executed here — we
            wait for that process's blob instead (cross-process
            coalescing), falling back to local execution if the holder
            vanishes without publishing, and giving up (one
            ``kind="lease"`` quarantine record) after
            :data:`LEASE_WAIT_S`.
        checkpoint: optional :class:`~repro.checkpoint.CheckpointPlan`
            forwarded to the fan-out; once a miss's terminal result blob
            is durable, its checkpoint chain is discarded (snapshots of
            a finished instance are pure disk overhead) and the
            reclaimed bytes counted under ``checkpoint.reclaimed_bytes``.

    Returns:
        A :class:`~repro.resilience.supervisor.FanoutResult` whose
        ``results`` are :class:`~repro.core.parallel.InstanceOutcome` (or
        None), in input order — bit-identical whether served or executed.
    """
    from ..core.parallel import supervise_instances

    reg = registry if registry is not None else global_registry()
    if not specs:
        return FanoutResult(results=[])
    watch = Stopwatch()
    if ledger is not None:
        ledger.run_started(n_instances=len(specs),
                           cached=store is not None)
    if store is None:
        leases = None  # nothing to coalesce on without published blobs
    keys = [instance_key(s, salt=salt) for s in specs]
    # One store lookup per unique key: duplicate specs in a batch are
    # executed once and fanned back out to every position.  No store is
    # the all-miss case of the same partition.
    payload_of = {k: store.get(k) if store is not None else None
                  for k in dict.fromkeys(keys)}

    out: list["InstanceOutcome" | None] = [None] * len(specs)
    exec_of: dict[str, int] = {}
    n_hits = 0
    for i, (spec, key) in enumerate(zip(specs, keys)):
        payload = payload_of[key]
        if payload is not None:
            out[i] = outcome_from_payload(spec, payload)
            n_hits += 1
            if ledger is not None:
                ledger.cache_hit(key, label=spec.label)
        else:
            exec_of.setdefault(key, i)

    base_of: dict[str, "InstanceOutcome"] = {}
    # Cross-process exclusivity: a miss whose lease another live process
    # holds becomes a *remote* key — that process is computing it right
    # now, and waiting for its blob is strictly cheaper than re-running.
    remote_of: dict[str, int] = {}
    owned: list[str] = []
    if leases is not None:
        for key in list(exec_of):
            if not leases.acquire(key):
                remote_of[key] = exec_of.pop(key)
                continue
            # Double-check under the lease: another process may have
            # executed, published, *and released* between our store
            # lookup above and this acquire (on a busy host that window
            # is easily tens of milliseconds) — re-running would be
            # wasted work, not a correctness bug, but "executes once
            # fleet-wide" is the contract.
            payload = store.get(key)
            if payload is None:
                owned.append(key)
                continue
            leases.release(key)
            i = exec_of.pop(key)
            base_of[key] = outcome_from_payload(specs[i], payload)
            reg.inc("memo.remote_hits")
            if ledger is not None:
                ledger.cache_hit(key, label=specs[i].label, remote=True)

    exec_idx = sorted(exec_of.values())
    publish = functools.partial(
        _publish, store=store, ledger=ledger,
        ck_manager=(checkpoint.manager(metrics=reg)
                    if checkpoint is not None and checkpoint.enabled
                    else None))

    def land(j: int, outcome: "InstanceOutcome") -> None:
        """Publish one executed result the moment its group is harvested:
        durable (and visible to lease waiters) while its siblings still
        run, and kept even if a later group aborts the batch."""
        key = keys[exec_idx[j]]
        base_of[key] = outcome
        publish(key, outcome)

    # Quarantine records arrive sorted by position, so pairing them with
    # the None slots of the execution results is a simple in-order walk.
    failed_of: dict[str, object] = {}
    try:
        res = supervise_instances(
            [specs[i] for i in exec_idx], parallel=parallel,
            max_workers=max_workers, registry=reg, retry=retry,
            faults=faults, ledger=ledger, on_failure=on_failure,
            checkpoint=checkpoint, _on_outcome=land)
        qiter = iter(res.quarantined)
        for i, outcome in zip(exec_idx, res.results):
            if outcome is None:
                failed_of[keys[i]] = next(qiter)
    finally:
        # Release *before* waiting on anyone else's keys: every process
        # finishes its own work first, so lease waits can never form a
        # cycle (A holding k1 while waiting on k2 held by B waiting on k1).
        for key in owned:
            leases.release(key)

    for key, i in sorted(remote_of.items(), key=lambda kv: kv[1]):
        outcome, rec = _resolve_remote(
            specs[i], key, store=store, leases=leases, ledger=ledger,
            registry=reg, retry=retry, faults=faults,
            checkpoint=checkpoint, publish=publish)
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
        # executor's failure can reach here, and RAISE callers expect an
        # exception, not a None position.
        raise RuntimeError(
            f"remote execution failed: {quarantined[0].describe()}")
    # memo.* counts are per-batch deltas; the store's cumulative session
    # counters stay on store.metrics (merging them here would double-count
    # across batches sharing a sink).
    reg.inc("memo.hits", n_hits)
    reg.inc("memo.misses", len(exec_idx))
    reg.observe("memo.batch_s", watch.elapsed())
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
    return FanoutResult(results=out, quarantined=quarantined,
                        attempts=res.attempts, retries=res.retries,
                        pool_rebuilds=res.pool_rebuilds,
                        ticks_saved=res.ticks_saved)


def run_instances_memoized(
    specs: list["InstanceSpec"],
    *,
    store: ContentStore | None = None,
    ledger: RunLedger | None = None,
    salt: str | None = None,
    max_workers: int | None = None,
    parallel: bool = True,
    registry: MetricsRegistry | None = None,
    retry=None,
    faults=None,
    leases: LeaseTable | None = None,
    checkpoint=None,
) -> list["InstanceOutcome"]:
    """Execute instances through the result store.

    The historical all-or-nothing contract on top of
    :func:`supervise_instances_memoized`: every spec's outcome in input
    order, or the first unrecoverable exception (``on_failure="raise"``).
    Callers that need partial results plus a quarantine report — the
    scenario service broker, chaos runs — use the supervised variant
    directly.

    Args:
        specs: the instances (order of results matches the input).
        store: the content store; with None every spec is a miss and
            nothing is published.
        ledger: optional run journal; records a ``cache_hit`` per served
            instance, an ``instance_completed`` per executed one, and
            run-level start/complete events with the batch counters.
        salt: cache-key salt override (defaults to the code-version salt).
        max_workers / parallel: forwarded to
            :func:`~repro.core.parallel.run_instances` for the misses.
        registry: receives the batch's ``memo.*`` accounting plus every
            worker's merged telemetry; defaults to the process
            :func:`~repro.obs.registry.global_registry`.
        retry: optional :class:`~repro.resilience.retry.RetryPolicy` for
            transient worker failures among the misses.
        faults: optional :class:`~repro.resilience.faults.FaultPlan`
            threaded to the workers (chaos testing); the store's own
            ``cas.corrupt`` site is configured on the store handle.

    Returns:
        One :class:`~repro.core.parallel.InstanceOutcome` per spec, in
        input order — bit-identical whether served or executed.
    """
    res = supervise_instances_memoized(
        specs, store=store, ledger=ledger, salt=salt,
        max_workers=max_workers, parallel=parallel, registry=registry,
        retry=retry, faults=faults, on_failure=RAISE, leases=leases,
        checkpoint=checkpoint)
    return res.results  # type: ignore[return-value] — RAISE means no Nones
