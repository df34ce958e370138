"""The store side of memoized execution.

Memoization is an argument of the one fan-out:
:func:`repro.core.parallel.supervise_instances` with ``store=`` partitions
specs into hits and misses, runs only the misses, and publishes each
executed result as a content-addressed blob — which is what gives
iterative calibration rounds and repeated nightly designs their
near-free overlap.  This module holds the pieces it uses that belong to
the store: the payload codec (cached and executed results are
bit-identical because the payload is the exact float64 series the worker
produced), :func:`_publish` (blob, checkpoint reclaim, journal),
:func:`_resolve_remote` (a miss whose lease another process holds) and
:data:`LEASE_WAIT_S`.

Imports of :mod:`repro.core.parallel` are deferred into the functions:
``core.parallel`` imports this module at its top level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs.registry import MetricsRegistry
from ..resilience.retry import QuarantineRecord
from .cas import LEASE_TIMEOUT, ContentStore, LeaseTable
from .keys import INSTANCE_NAMESPACE
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
    execute,
    publish,
) -> tuple["InstanceOutcome | None", QuarantineRecord | None]:
    """Resolve a miss whose lease another process holds.

    The happy path is pure coalescing: wait for the remote executor's
    blob and serve it (bit-identical — the blob *is* the result).  If the
    lease vacates without a blob (the holder crashed or quarantined the
    spec), contend for the lease and run it here through ``execute`` —
    the caller's group fan-out, which opens no run of its own in the
    journal — then ``publish`` it.  Bounded attempts: the loop cannot
    live-lock even under adversarial lease churn.
    """
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
            res = execute([spec])
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


def run_instances_memoized(specs, **options):
    """:func:`repro.core.parallel.run_instances` under its old name, which
    ``benchmarks/e2e/workloads/night_replicates.py`` imports from here."""
    from ..core.parallel import run_instances
    return run_instances(specs, **options)
